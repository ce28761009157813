"""The shared cache tier end to end: server, RemoteCache, bounded memo.

Covers the acceptance scenarios for the network tier: two clients
sharing one warm corpus with zero duplicate oracle evaluations, the
outage contract (probes miss, stores are dropped, one connection
attempt per retry cooldown) and recovery once the server is back, a
disk corpus of generic and report records served remotely identically
to local reads, and a ``max_entries`` bound on a remote client's
in-process memo.
"""

import socket
import threading
import time

import pytest

from repro.cacheserver import protocol
from repro.cacheserver.server import CacheServerConfig, CacheServerThread
from repro.costs.report import frame_length, pack_frame
from repro.costs.report import CostReport
from repro.explore import (
    DiskCache,
    EvaluationCache,
    ExhaustiveSweep,
    Explorer,
    MemoryCache,
    RemoteCache,
)
from repro.explore.cache import RemoteCacheError
from repro.service import ServiceClient, ServiceConfig, ServiceThread


@pytest.fixture()
def server():
    with CacheServerThread(CacheServerConfig(host="127.0.0.1", port=0)) as srv:
        yield srv


def make_client(server):
    return RemoteCache(*server.address)


# ----------------------------------------------------------------------
# Basic protocol traffic
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_put_get_len_clear(self, server):
        with make_client(server) as client:
            client.put("k1", {"x": 1})
            assert len(client) == 1  # the store is synchronous
            client.put("k2", {"__infeasible__": "nope"})
            assert len(client) == 2
            assert client.get("k1") == {"x": 1}
            assert client.get("k2") == {"__infeasible__": "nope"}
            assert client.get("absent") is None
            client.clear()
            assert len(client) == 0

    def test_lookup_many_batches(self, server):
        with make_client(server) as client:
            payloads = {f"k{i}": {"i": i} for i in range(50)}
            client.store_many(payloads)
            found = client.lookup_many(list(payloads) + ["missing"])
            assert found == payloads

    def test_server_stats_counters(self, server):
        with make_client(server) as client:
            client.put("k", {"v": 1})
            client.get("k")
            stats = client.server_stats()
            assert stats["server"] == "repro.cacheserver"
            assert stats["entries"] == 1
            assert stats["keys_stored"] == 1
            assert stats["keys_served"] >= 1

    def test_client_stats_hits_and_misses(self, server):
        with make_client(server) as client:
            client.put("k", {"v": 1})
            client.get("k")
            client.get("absent")
            assert client.stats.hits == 1
            assert client.stats.misses == 1
            assert client.stats.stores == 1


# ----------------------------------------------------------------------
# Raw frames (no client sugar): handshake discipline, the key rule
# ----------------------------------------------------------------------
class _Uncountable(MemoryCache):
    """Server backend that cannot count its entries."""

    def __len__(self):
        raise RuntimeError("no entry count")


class TestHandshake:
    @staticmethod
    def _exchange(address, *bodies):
        """Send the frames in turn on one connection; the last response."""
        with socket.create_connection(address, timeout=10) as sock:
            for body in bodies:
                sock.sendall(pack_frame(body))
                header = b""
                while len(header) < 4:
                    chunk = sock.recv(4 - len(header))
                    assert chunk, "server closed before responding"
                    header += chunk
                length = frame_length(header)
                payload = b""
                while len(payload) < length:
                    chunk = sock.recv(length - len(payload))
                    assert chunk
                    payload += chunk
            return payload

    def test_first_frame_must_be_hello(self, server):
        response = self._exchange(server.address, protocol.get_request(["k"]))
        with pytest.raises(protocol.RemoteError, match="HELLO"):
            protocol.parse_response(response)

    def test_version_mismatch_rejected(self, server):
        bad_hello = (
            bytes([protocol.OP_HELLO])
            + protocol.HELLO_MAGIC
            + bytes([protocol.CACHE_PROTOCOL_VERSION + 1])
        )
        response = self._exchange(server.address, bad_hello)
        with pytest.raises(protocol.RemoteError, match="version"):
            protocol.parse_response(response)

    def test_hello_reports_server_info(self, server):
        response = self._exchange(server.address, protocol.hello_request())
        info = protocol.parse_payload_response(response)
        assert info["server"] == "repro.cacheserver"
        assert info["protocol"] == protocol.CACHE_PROTOCOL_VERSION
        assert "entries" not in info  # counting is STATS' job

    def test_hello_does_not_count_the_corpus(self):
        """A connect costs the server no ``len(backend)``: a backend
        that cannot count still serves a client's put and get."""
        config = CacheServerConfig(host="127.0.0.1", port=0)
        with CacheServerThread(config, backend=_Uncountable()) as srv:
            with make_client(srv) as client:
                client.put("k", {"v": 1})
                assert srv.core.keys_stored == 1
                assert client.get("k") == {"v": 1}

    def test_traversal_key_put_is_refused(self, tmp_path):
        """A PUT key that names a path outside the corpus gets an error
        reply and writes nothing anywhere."""
        corpus = tmp_path / "a" / "b" / "corpus"
        config = CacheServerConfig(host="127.0.0.1", port=0, cache_dir=corpus)
        with CacheServerThread(config) as srv:
            response = self._exchange(
                srv.address,
                protocol.hello_request(),
                protocol.put_request({"../../escaped": {"v": 1}}),
            )
            with pytest.raises(protocol.RemoteError, match="ValueError"):
                protocol.parse_response(response)
            assert srv.core.errors == 1
            assert srv.core.keys_stored == 0
        assert sorted(tmp_path.rglob("*")) == [
            tmp_path / "a",
            tmp_path / "a" / "b",
            corpus,
        ]


# ----------------------------------------------------------------------
# Two clients, one warm corpus: the tier's whole point
# ----------------------------------------------------------------------
class TestSharedCorpus:
    def test_second_client_sweeps_with_zero_oracle_evals(self, server):
        first = Explorer.for_app("cavity", cache=server.url, on_error="skip")
        cold = first.run(ExhaustiveSweep())
        assert first.cache.misses > 0  # the cold sweep did real work
        first.cache.close_backend()

        second = Explorer.for_app("cavity", cache=server.url, on_error="skip")
        warm = second.run(ExhaustiveSweep())
        assert second.cache.misses == 0  # zero duplicate oracle evals
        assert len(warm.records) == len(cold.records)
        assert {r.fingerprint for r in warm.records} == {
            r.fingerprint for r in cold.records
        }
        second.cache.close_backend()

    def test_concurrent_clients_stay_consistent(self, server):
        payloads = {f"fp{i}": {"i": i, "deep": {"v": [i, i + 1]}} for i in range(40)}
        errors = []

        def hammer(offset):
            try:
                with make_client(server) as client:
                    for i in range(offset, 40, 2):
                        key = f"fp{i}"
                        client.put(key, payloads[key])
                    for _ in range(5):
                        found = client.lookup_many(sorted(payloads))
                        for key, payload in found.items():
                            assert payload == payloads[key]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(o,)) for o in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        with make_client(server) as checker:
            assert checker.lookup_many(sorted(payloads)) == payloads

    def test_sharded_sweeps_merge_to_full_result(self, server):
        pilot = Explorer.for_app("cavity", cache=server.url, on_error="skip")
        points = pilot.space.points()
        # Three workers, each sweeping every third point of the space.
        merged = []
        for index in range(3):
            worker = Explorer.for_app("cavity", cache=server.url, on_error="skip")
            merged += [
                r
                for r in worker.evaluate_many(points[index::3])
                if r.report is not None
            ]
            worker.cache.close_backend()

        reference = pilot.run(ExhaustiveSweep())
        assert pilot.cache.misses == 0  # shard workers fed the corpus
        assert {r.fingerprint for r in merged} == {
            r.fingerprint for r in reference.records
        }
        pilot.cache.close_backend()

    def test_warm_service_sweep_sends_no_request(self, server):
        """Once a sweep's outcomes sit in the service's decoded tier, a
        re-sweep over ``remote://`` costs the cache server nothing: the
        ``end`` and ``/v1/stats`` cache snapshots are in-process
        counters, not a LEN round trip."""
        config = ServiceConfig(port=0, cache_dir=server.url)
        with ServiceThread(config) as service:
            with ServiceClient(*service.address) as client:
                list(client.sweep("cavity"))
                before = server.core.requests_total
                events = list(client.sweep("cavity"))
                assert server.core.requests_total == before
                assert events[-1]["type"] == "end"
                assert events[-1]["summary"]["cache"]["misses"] > 0
                assert "entries" not in client.stats()["cache"]
                assert server.core.requests_total == before


# ----------------------------------------------------------------------
# What a round trip falls back to: a miss, a drop, a split batch
# ----------------------------------------------------------------------
class TestFallback:
    def test_outage_probes_miss_and_stores_drop(self, monkeypatch):
        with CacheServerThread(CacheServerConfig(host="127.0.0.1", port=0)) as srv:
            address = srv.address
        # The server is gone.  Count connection attempts; a long
        # cooldown keeps the whole test inside the first one.
        attempts = []
        connect = socket.create_connection

        def counting_connect(*args, **kwargs):
            attempts.append(args)
            return connect(*args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting_connect)
        monkeypatch.setattr(RemoteCache, "RETRY_SECONDS", 60.0)
        client = RemoteCache(*address)
        assert client.get("k") is None
        client.put("k", {"v": 1})
        client.store_many({"a": {"v": 2}, "b": {"v": 3}})
        assert client.lookup_many(["a", "b"]) == {}
        assert client.stats.misses == 3
        assert client.stats.evictions == 3
        assert client.stats.stores == 0
        for call in (len, RemoteCache.clear, RemoteCache.server_stats):
            with pytest.raises(RemoteCacheError):
                call(client)
        assert len(attempts) == 1
        client.close()

    def test_next_store_reaches_a_restarted_server(self, tmp_path, monkeypatch):
        monkeypatch.setattr(RemoteCache, "RETRY_SECONDS", 0.1)
        corpus = tmp_path / "corpus"
        config = CacheServerConfig(host="127.0.0.1", port=0, cache_dir=corpus)
        with CacheServerThread(config) as first:
            host, port = first.address
        client = RemoteCache(host, port)
        client.put("lost", {"v": 0})  # the server is down: dropped
        assert client.stats.evictions == 1
        # Same corpus, new incarnation on the same port.
        restarted = CacheServerConfig(host=host, port=port, cache_dir=corpus)
        with CacheServerThread(restarted):
            time.sleep(2 * RemoteCache.RETRY_SECONDS)  # past the cooldown
            client.put("k", {"v": 5})
            assert client.stats.stores == 1
            assert client.get("k") == {"v": 5}
            client.close()
        assert DiskCache(corpus).get("k") == {"v": 5}
        assert DiskCache(corpus).get("lost") is None

    def test_oversized_entry_does_not_poison_queue(self, server, monkeypatch):
        """A batch over the frame bound is split in halves.

        A single entry that cannot fit in one frame is dropped (counted
        as an eviction); the entries around it still land.
        """
        import repro.costs.report as report

        monkeypatch.setattr(report, "FRAME_MAX_BYTES", 4096)
        with make_client(server) as client:
            client.store_many(
                {
                    "small": {"v": 1},
                    "big": {"blob": "x" * 8192},
                    "small2": {"v": 2},
                }
            )
            assert client.get("small") == {"v": 1}
            assert client.get("small2") == {"v": 2}
            assert client.get("big") is None
            assert client.stats.evictions == 1
            assert client.stats.stores == 2


# ----------------------------------------------------------------------
# Mixed-format corpus over the wire
# ----------------------------------------------------------------------
class TestMixedFormatCorpus:
    def test_remote_reads_match_local_reads(self, tmp_path):
        root = tmp_path / "corpus"
        compact_writer = DiskCache(root)
        expected = {}
        for i in range(6):
            key = f"key{i}"
            if i % 2 == 0:  # an embedded-JSON generic record
                payload = {"i": i, "nested": {"vals": [i, i * 2.5]}}
            else:  # a struct-packed report record
                payload = CostReport(label=f"r{i}", cycles_used=i).to_dict()
            compact_writer.put(key, payload)
            expected[key] = payload

        config = CacheServerConfig(host="127.0.0.1", port=0, cache_dir=root)
        with CacheServerThread(config) as srv:
            with make_client(srv) as client:
                remote_view = client.lookup_many(sorted(expected))
        local_view = DiskCache(root).lookup_many(sorted(expected))
        assert remote_view == local_view == expected


# ----------------------------------------------------------------------
# A bounded in-process memo in front of the network tier
# ----------------------------------------------------------------------
class TestBoundedRemoteMemo:
    def test_max_entries_bounds_the_decoded_tier(self, server):
        cache = EvaluationCache(server.url, max_entries=2)
        assert isinstance(cache.backend, RemoteCache)
        assert cache.max_entries == 2
        reports = {f"fp{i}": CostReport(label=f"r{i}") for i in range(4)}
        cache.store_many(reports)
        # The bound holds in memory; the server keeps every entry.
        assert cache.decoded_entries == 2
        assert len(cache) == 4
        # Repeat probes of a retained entry never cross the wire.
        before = cache.backend.stats.hits + cache.backend.stats.misses
        for _ in range(5):
            assert cache.lookup_many(["fp3"])["fp3"][0] is reports["fp3"]
        assert cache.backend.stats.hits + cache.backend.stats.misses == before
        # An evicted entry is fetched back from the server and decoded.
        hits = cache.backend.stats.hits
        assert cache.lookup_many(["fp0"])["fp0"][0] == reports["fp0"]
        assert cache.backend.stats.hits == hits + 1
        assert cache.decoded_entries == 2
        cache.close_backend()
