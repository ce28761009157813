"""The shared cache tier end to end: server, RemoteCache, bounded memo.

Covers the acceptance scenarios for the network tier: two clients
sharing one warm corpus with zero duplicate oracle evaluations,
read-through fallback while the server is down, a mixed-format
(``.rpc`` + legacy ``.json``) corpus served remotely byte-identically
to local reads, and a ``max_entries`` bound on a remote client's
in-process memo.
"""

import json
import socket
import threading

import pytest

from repro.cacheserver import protocol
from repro.cacheserver.server import CacheServerConfig, CacheServerThread
from repro.costs.report import frame_length, pack_frame
from repro.costs.report import CostReport
from repro.explore import (
    DiskCache,
    EvaluationCache,
    ExhaustiveSweep,
    ExplorationResult,
    Explorer,
    MemoryCache,
    RemoteCache,
)
from repro.service import ServiceClient, ServiceConfig, ServiceThread


@pytest.fixture()
def server():
    with CacheServerThread(CacheServerConfig(host="127.0.0.1", port=0)) as srv:
        yield srv


def make_client(server, **kwargs):
    host, port = server.address
    return RemoteCache(host, port, **kwargs)


# ----------------------------------------------------------------------
# Basic protocol traffic
# ----------------------------------------------------------------------
class TestRoundTrips:
    def test_put_get_len_clear(self, server):
        with make_client(server) as client:
            client.put("k1", {"x": 1})
            client.put("k2", {"__infeasible__": "nope"})
            assert client.flush(timeout=10)
            assert len(client) == 2
            assert client.get("k1") == {"x": 1}
            assert client.get("k2") == {"__infeasible__": "nope"}
            assert client.get("absent") is None
            client.clear()
            assert len(client) == 0

    def test_read_your_writes_before_flush(self, server):
        with make_client(server) as client:
            client.put("pending", {"v": 7})
            # The entry may still be in the write-behind queue, yet the
            # probe must see it.
            assert client.get("pending") == {"v": 7}

    def test_lookup_many_batches(self, server):
        with make_client(server) as client:
            payloads = {f"k{i}": {"i": i} for i in range(50)}
            client.store_many(payloads)
            assert client.flush(timeout=10)
            found = client.lookup_many(list(payloads) + ["missing"])
            assert found == payloads

    def test_server_stats_counters(self, server):
        with make_client(server) as client:
            client.put("k", {"v": 1})
            assert client.flush(timeout=10)
            client.get("k")
            stats = client.server_stats()
            assert stats["server"] == "repro.cacheserver"
            assert stats["entries"] == 1
            assert stats["keys_stored"] == 1
            assert stats["keys_served"] >= 1

    def test_synchronous_stores(self, server):
        with make_client(server, write_behind=False) as client:
            client.put("k", {"v": 2})
            assert len(client) == 1  # no flush needed

    def test_client_stats_hits_and_misses(self, server):
        with make_client(server) as client:
            client.put("k", {"v": 1})
            assert client.flush(timeout=10)
            client.get("k")
            client.get("absent")
            assert client.stats.hits == 1
            assert client.stats.misses == 1
            assert client.stats.stores == 1


# ----------------------------------------------------------------------
# Raw frames (no client sugar): handshake discipline, the key rule
# ----------------------------------------------------------------------
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
        assert first.cache.flush(timeout=30)
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
                    assert client.flush(timeout=30)
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
        shards = [pilot.shard_points(3, i) for i in range(3)]
        assert sum(len(s) for s in shards) == len(points)
        assert len({p.display_label for s in shards for p in s}) == len(points)

        partials = []
        for shard in shards:
            worker = Explorer.for_app("cavity", cache=server.url, on_error="skip")
            records = worker.evaluate_many(shard)
            partials.append(
                ExplorationResult(
                    space_name=worker.space.name,
                    strategy="shard",
                    records=records,
                )
            )
            assert worker.cache.flush(timeout=30)
            worker.cache.close_backend()
        merged = ExplorationResult.merged(partials)

        reference = pilot.run(ExhaustiveSweep())
        assert pilot.cache.misses == 0  # shard workers fed the corpus
        assert {r.fingerprint for r in merged.records} == {
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
                assert service.service.cache.flush(timeout=30)
                before = server.core.requests_total
                events = list(client.sweep("cavity"))
                assert server.core.requests_total == before
                assert events[-1]["type"] == "end"
                assert events[-1]["summary"]["cache"]["misses"] > 0
                assert "entries" not in client.stats()["cache"]
                assert server.core.requests_total == before


# ----------------------------------------------------------------------
# Outage behavior: read-through fallback, recovery
class _GatedBackend(MemoryCache):
    """Server backend whose store_many blocks until ``gate`` opens.

    Holds a client batch in its in-flight window deterministically:
    ``entered`` fires once the server is sitting on the batch.
    """

    def __init__(self) -> None:
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def store_many(self, payloads):
        self.entered.set()
        if not self.gate.wait(10):
            raise RuntimeError("gate never opened")
        return super().store_many(payloads)


# ----------------------------------------------------------------------
class TestFallback:
    def test_reads_fall_through_when_server_down(self, tmp_path):
        local = DiskCache(tmp_path / "fallback")
        local.put("warm", {"v": 42})
        # Port 1 refuses connections; the client must serve from disk.
        client = RemoteCache(
            "127.0.0.1", 1, fallback=local, retry_seconds=0.05
        )
        assert client.get("warm") == {"v": 42}
        assert client.get("absent") is None
        client.close(timeout=1.0)

    def test_stores_land_on_fallback_when_server_down(self, tmp_path):
        local = DiskCache(tmp_path / "fallback")
        client = RemoteCache(
            "127.0.0.1", 1, fallback=local, retry_seconds=0.05
        )
        client.put("k", {"v": 3})
        assert client.flush(timeout=10)  # absorbed by the fallback
        assert local.get("k") == {"v": 3}
        assert len(client) == 1
        client.close(timeout=1.0)

    def test_no_fallback_flush_reports_failure(self):
        client = RemoteCache("127.0.0.1", 1, retry_seconds=0.05)
        client.put("k", {"v": 4})
        assert client.flush(timeout=0.5) is False
        assert client.get("k") == {"v": 4}  # still pending, still readable
        client.close(timeout=0.2)

    def test_resolve_remote_url_with_fallback_dir(self, tmp_path):
        from repro.explore import resolve_backend

        root = tmp_path / "fb"
        backend = resolve_backend(f"remote://127.0.0.1:1{root}")
        assert isinstance(backend, RemoteCache)
        assert isinstance(backend.fallback, DiskCache)
        assert backend.fallback.root == root
        backend.close(timeout=1.0)

    def test_flush_waits_for_inflight_batch(self):
        """A batch the flusher has taken but not delivered is not drained.

        flush() must not report True while the background flusher holds
        an undelivered batch, and the batch's keys must stay readable
        for the whole in-flight window (read-your-writes).
        """
        backend = _GatedBackend()
        with CacheServerThread(
            CacheServerConfig(host="127.0.0.1", port=0), backend=backend
        ) as srv:
            client = make_client(srv)
            try:
                client.put("k", {"v": 1})
                # The server's store_many is now holding the batch the
                # flusher sent: the entry is neither pending nor stored.
                assert backend.entered.wait(10)
                assert client.flush(timeout=0.3) is False
                assert client.get("k") == {"v": 1}
                backend.gate.set()
                assert client.flush(timeout=10) is True
                assert backend.get("k") == {"v": 1}
            finally:
                backend.gate.set()
                client.close(timeout=5.0)

    def test_oversized_entry_does_not_poison_queue(self, server, monkeypatch):
        """A batch over the frame bound is split, not retried forever.

        A single entry that cannot fit in one frame is dropped (counted
        as an eviction) instead of being requeued as a poison batch;
        the entries around it still land.
        """
        import repro.costs.report as report

        monkeypatch.setattr(report, "FRAME_MAX_BYTES", 4096)
        with make_client(server) as client:
            client.put("small", {"v": 1})
            client.put("big", {"blob": "x" * 8192})
            client.put("small2", {"v": 2})
            assert client.flush(timeout=10) is True
            assert client.get("small") == {"v": 1}
            assert client.get("small2") == {"v": 2}
            assert client.stats.evictions >= 1

    def test_queue_survives_outage_until_server_returns(self, tmp_path):
        config = CacheServerConfig(
            host="127.0.0.1", port=0, cache_dir=tmp_path / "corpus"
        )
        with CacheServerThread(config) as first:
            host, port = first.address
        # Server is now down; writes queue client-side.
        client = RemoteCache(host, port, retry_seconds=0.05)
        client.put("k", {"v": 5})
        assert client.flush(timeout=1) is False
        # Same corpus, new incarnation on the same port: the retry
        # drains the queue into it.
        with CacheServerThread(
            CacheServerConfig(host=host, port=port, cache_dir=tmp_path / "corpus")
        ):
            assert client.flush(timeout=10)
            assert client.get("k") == {"v": 5}
        client.close(timeout=1.0)


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
            payload = {"i": i, "nested": {"vals": [i, i * 2.5]}}
            if i % 2 == 0:
                compact_writer.put(key, payload)
            else:  # a legacy shard, as pre-compact caches wrote them
                shard = root / key[:2]
                shard.mkdir(parents=True, exist_ok=True)
                (shard / f"{key}.json").write_text(json.dumps(payload))
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
        assert cache.flush(timeout=10)
        # The bound holds in memory; the server keeps every entry.
        assert cache.decoded_entries == 2
        assert len(cache) == 4
        # Repeat probes of a retained entry never cross the wire.
        before = cache.backend.stats.hits + cache.backend.stats.misses
        for _ in range(5):
            assert cache.lookup("fp3")[0] is reports["fp3"]
        assert cache.backend.stats.hits + cache.backend.stats.misses == before
        # An evicted entry is fetched back from the server and decoded.
        hits = cache.backend.stats.hits
        assert cache.lookup("fp0")[0] == reports["fp0"]
        assert cache.backend.stats.hits == hits + 1
        assert cache.decoded_entries == 2
        cache.close_backend()
