"""Cache backends: LRU bounds, disk persistence, corruption tolerance.

Backend-level tests use synthetic payloads (no oracle); the
integration tests at the bottom drive a real FIR design space through
the explorer, including a warm-start from a *separate process*.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.explore.cache as cache_module
from repro.api import (
    DesignSpace,
    DiskCache,
    EvaluationCache,
    ExhaustiveSweep,
    Explorer,
    MemoryCache,
    ProgramBuilder,
)
from repro.costs.report import COMPACT_MAGIC, pack_payload
from repro.explore.cache import (
    COMPACT_SUFFIX,
    RemoteCache,
    parse_remote_url,
    resolve_backend,
)


def _payload(value: int) -> dict:
    return {"value": value}


# ----------------------------------------------------------------------
# MemoryCache: LRU bound and stats
# ----------------------------------------------------------------------
def test_memory_cache_round_trip_and_stats():
    cache = MemoryCache()
    assert cache.get("a") is None
    cache.put("a", _payload(1))
    assert cache.get("a") == {"value": 1}
    assert len(cache) == 1
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.hit_rate == 0.5


def test_memory_cache_lru_eviction_counts():
    cache = MemoryCache(max_entries=2)
    cache.put("a", _payload(1))
    cache.put("b", _payload(2))
    cache.get("a")  # refresh recency: b is now least recently used
    cache.put("c", _payload(3))
    assert cache.get("b") is None
    assert cache.get("a") is not None
    assert cache.get("c") is not None
    assert len(cache) == 2
    assert cache.stats.evictions == 1


def test_memory_cache_put_refreshes_recency():
    cache = MemoryCache(max_entries=2)
    cache.put("a", _payload(1))
    cache.put("b", _payload(2))
    cache.put("a", _payload(10))  # rewrite refreshes: b becomes the victim
    cache.put("c", _payload(3))
    assert cache.keys() == ("a", "c")
    assert cache.get("a") == {"value": 10}


def test_memory_cache_rejects_bad_bound():
    with pytest.raises(ValueError):
        MemoryCache(max_entries=0)


def test_memory_cache_clear_resets_stats():
    cache = MemoryCache()
    cache.put("a", _payload(1))
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 0
    assert cache.stats.stores == 0


# ----------------------------------------------------------------------
# DiskCache: persistence, sharding, corruption, eviction
# ----------------------------------------------------------------------
def test_disk_cache_round_trip_across_instances(tmp_path):
    first = DiskCache(tmp_path / "cache")
    first.put("ab12", _payload(7))
    second = DiskCache(tmp_path / "cache")
    assert len(second) == 1
    assert second.get("ab12") == {"value": 7}
    assert second.stats.hits == 1


def test_disk_cache_shards_by_prefix(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    cache.put("efgh", _payload(2))
    assert (tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}").exists()
    assert (tmp_path / "ef" / f"efgh{COMPACT_SUFFIX}").exists()


def test_disk_cache_compact_records_carry_magic(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    data = (tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}").read_bytes()
    assert data.startswith(COMPACT_MAGIC)


def test_disk_cache_tolerates_corrupted_shard(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    shard = tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}"
    shard.write_bytes(COMPACT_MAGIC + b"\x01")  # truncated compact record
    fresh = DiskCache(tmp_path)
    assert fresh.get("abcd") is None
    assert fresh.stats.corrupt == 1
    # The bad file is discarded so a rewrite repairs the entry.
    assert not shard.exists()
    fresh.put("abcd", _payload(2))
    assert DiskCache(tmp_path).get("abcd") == {"value": 2}


def test_disk_cache_tolerates_non_object_payload(tmp_path):
    cache = DiskCache(tmp_path)
    shard = tmp_path / "ab"
    shard.mkdir()
    generic = pack_payload(_payload(1))  # header, then the embedded JSON
    header = generic[: generic.index(b"{")]
    (shard / f"abcd{COMPACT_SUFFIX}").write_bytes(header + b"[1, 2]")
    assert cache.get("abcd") is None
    assert cache.stats.corrupt == 1


def test_disk_cache_ignores_files_it_does_not_write(tmp_path):
    """A foreign file beside a record, such as a ``.json`` shard of an
    older store, is never read, counted, corrupt-counted or removed."""
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    foreign = tmp_path / "ab" / "abef.json"
    foreign.write_text(json.dumps(_payload(2)), encoding="utf-8")
    assert cache.get("abef") is None
    assert cache.stats.corrupt == 0
    assert len(cache) == 1
    cache.clear()
    assert not (tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}").exists()
    assert foreign.read_text(encoding="utf-8") == json.dumps(_payload(2))


def test_disk_cache_atomic_writes_leave_no_temp_files(tmp_path):
    cache = DiskCache(tmp_path)
    for index in range(5):
        cache.put(f"k{index:03d}", _payload(index))
    leftovers = list(tmp_path.rglob("*.tmp"))
    assert leftovers == []


def test_disk_cache_max_entries_prunes_files(tmp_path):
    cache = DiskCache(tmp_path, max_entries=2)
    cache.put("aa01", _payload(1))
    cache.put("bb02", _payload(2))
    cache.put("cc03", _payload(3))
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert not (tmp_path / "aa" / f"aa01{COMPACT_SUFFIX}").exists()
    assert DiskCache(tmp_path).get("cc03") == {"value": 3}


def test_disk_cache_clear_removes_entries(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    cache.clear()
    assert len(cache) == 0
    assert DiskCache(tmp_path).get("abcd") is None


def test_disk_cache_clear_removes_sibling_shards_and_empty_dirs(tmp_path):
    """Shards written by siblings are cleared too, and emptied shard
    dirs are removed."""
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    DiskCache(tmp_path).put("efgh", _payload(2))  # a sibling's store
    cache.clear()
    assert len(cache) == 0
    assert sorted(tmp_path.iterdir()) == []  # no shard dirs left behind
    fresh = DiskCache(tmp_path)
    assert fresh.get("abcd") is None
    assert fresh.get("efgh") is None


def test_disk_cache_batch_shares_a_shard_directory(tmp_path):
    """Two keys of one batch in one shard directory: both are written."""
    cache = DiskCache(tmp_path)
    cache.store_many({"abcd": _payload(1), "ab99": _payload(2), "cdef": _payload(3)})
    assert sorted(path.name for path in (tmp_path / "ab").iterdir()) == [
        f"ab99{COMPACT_SUFFIX}",
        f"abcd{COMPACT_SUFFIX}",
    ]
    assert cache.stats.stores == 3
    fresh = DiskCache(tmp_path)
    assert fresh.lookup_many(["abcd", "ab99", "cdef"]) == {
        "abcd": _payload(1),
        "ab99": _payload(2),
        "cdef": _payload(3),
    }


def test_disk_cache_stores_after_clear_removed_the_shards(tmp_path):
    """clear() removes the shard directories; the next batch remakes them."""
    cache = DiskCache(tmp_path)
    cache.store_many({"abcd": _payload(1), "efgh": _payload(2)})
    cache.clear()
    assert sorted(tmp_path.iterdir()) == []
    cache.store_many({"abcd": _payload(3), "ab12": _payload(4)})
    assert DiskCache(tmp_path).lookup_many(["abcd", "ab12", "efgh"]) == {
        "abcd": _payload(3),
        "ab12": _payload(4),
    }


def test_disk_cache_stores_after_the_root_was_removed(tmp_path):
    """A store recreates the root when a sibling removed the whole corpus."""
    root = tmp_path / "corpus" / "cache"
    cache = DiskCache(root)
    cache.put("abcd", _payload(1))
    shutil.rmtree(tmp_path / "corpus")
    cache.store_many({"abcd": _payload(2), "ab12": _payload(3)})
    assert cache.stats.stores == 3
    assert DiskCache(root).lookup_many(["abcd", "ab12"]) == {
        "abcd": _payload(2),
        "ab12": _payload(3),
    }
    assert list(root.rglob("*.tmp")) == []


def test_disk_cache_store_survives_a_sibling_clear_mid_batch(tmp_path, monkeypatch):
    """A sibling's clear() between two writes of one batch removes the
    shard the batch made; the second write makes it again."""
    cache = DiskCache(tmp_path)
    sibling = DiskCache(tmp_path)
    pack = cache_module.pack_payload
    packed = []

    def pack_then_clear(payload):
        packed.append(payload)
        if len(packed) == 2:
            sibling.clear()
        return pack(payload)

    monkeypatch.setattr(cache_module, "pack_payload", pack_then_clear)
    cache.store_many({"abcd": _payload(1), "ab12": _payload(2)})
    assert cache.stats.stores == 2
    assert DiskCache(tmp_path).lookup_many(["abcd", "ab12"]) == {"ab12": _payload(2)}


def test_disk_cache_refresh_orders_sibling_shards_by_mtime(tmp_path):
    """Eviction orders sibling-written shards by mtime, so it drops the
    *oldest* entry — a name order could evict a sibling's newest store."""
    reader = DiskCache(tmp_path, max_entries=2)
    sibling = DiskCache(tmp_path)
    # Written zz -> aa (name order is the exact reverse of store order).
    sibling.put("zz01", _payload(1))
    sibling.put("aa02", _payload(2))
    old = (tmp_path / "zz" / f"zz01{COMPACT_SUFFIX}", 1_000_000_000)
    new = (tmp_path / "aa" / f"aa02{COMPACT_SUFFIX}", 1_000_000_500)
    for path, stamp in (old, new):
        os.utime(path, (stamp, stamp))
    assert len(reader.lookup_many(["zz01", "aa02"])) == 2
    reader.put("ff03", _payload(3))  # bound is 2: one eviction
    assert reader.stats.evictions == 1
    # The mtime-oldest shard (zz01) is the victim, not the newest store.
    assert not old[0].exists()
    assert new[0].exists()
    assert DiskCache(tmp_path).get("aa02") == {"value": 2}


# ----------------------------------------------------------------------
# Bulk hooks: lookup_many / store_many
# ----------------------------------------------------------------------
def test_memory_cache_lookup_many_counts_like_get():
    cache = MemoryCache()
    cache.store_many({"aa": _payload(1), "bb": _payload(2)})
    found = cache.lookup_many(["aa", "bb", "cc", "aa"])  # duplicate probed once
    assert found == {"aa": {"value": 1}, "bb": {"value": 2}}
    assert cache.stats.hits == 2
    assert cache.stats.misses == 1
    assert cache.stats.stores == 2


def test_disk_cache_lookup_many_warm_batch(tmp_path, monkeypatch):
    warm = DiskCache(tmp_path)
    warm.store_many({f"k{i:03d}": _payload(i) for i in range(6)})

    # Opening and probing a filled corpus opens the keys' files only:
    # no directory is ever listed.
    listings = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            listings.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(os, "scandir", counting("scandir", os.scandir))
    monkeypatch.setattr(Path, "glob", counting("glob", Path.glob))
    monkeypatch.setattr(Path, "iterdir", counting("iterdir", Path.iterdir))
    fresh = DiskCache(tmp_path)
    keys = [f"k{i:03d}" for i in range(6)] + ["missing1", "missing2"]
    found = fresh.lookup_many(keys)
    assert found == {f"k{i:03d}": _payload(i) for i in range(6)}
    assert fresh.stats.hits == 6
    assert fresh.stats.misses == 2
    # A second bulk probe reads the files again: same payloads, same counts.
    again = fresh.lookup_many([f"k{i:03d}" for i in range(6)])
    assert again == found
    assert fresh.stats.hits == 12
    assert fresh.get("missing1") is None
    assert listings == []


def test_disk_cache_lookup_many_tolerates_corrupt_shards(tmp_path):
    warm = DiskCache(tmp_path)
    warm.store_many({"aaaa": _payload(1), "bbbb": _payload(2), "cccc": _payload(3)})
    shard = tmp_path / "bb" / f"bbbb{COMPACT_SUFFIX}"
    shard.write_bytes(COMPACT_MAGIC[:2])  # not even a whole header
    fresh = DiskCache(tmp_path)
    found = fresh.lookup_many(["aaaa", "bbbb", "cccc"])
    # The corrupt entry is tolerated as a miss; the rest still resolve.
    assert found == {"aaaa": _payload(1), "cccc": _payload(3)}
    assert fresh.stats.corrupt == 1
    assert fresh.stats.misses == 1
    # The bad file was discarded so a rewrite repairs the entry.
    assert not shard.exists()


def test_disk_cache_lookup_many_sees_sibling_writes(tmp_path):
    reader = DiskCache(tmp_path)
    assert reader.lookup_many(["abcd"]) == {}
    DiskCache(tmp_path).put("abcd", _payload(9))  # a sibling process writes
    assert reader.lookup_many(["abcd"]) == {"abcd": _payload(9)}


def test_disk_cache_lookup_many_tolerates_vanished_file(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("abcd", _payload(1))
    fresh = DiskCache(tmp_path)
    (tmp_path / "ab" / f"abcd{COMPACT_SUFFIX}").unlink()
    assert fresh.lookup_many(["abcd"]) == {}
    assert fresh.stats.misses == 1
    assert len(fresh) == 0


def test_evaluation_cache_lookup_many_decodes_failures(tmp_path):
    shared = EvaluationCache(path=tmp_path)
    shared.backend.put("good", {"label": "x", "memories": []})
    shared.store_many({}, {"bad": "infeasible corner"})
    resolved = shared.lookup_many(["good", "bad", "absent"])
    report, error = resolved["good"]
    assert report is not None and error is None
    report, error = resolved["bad"]
    assert report is None and error == "infeasible corner"
    assert "absent" not in resolved


def test_backend_without_bulk_hooks_is_rejected():
    class MinimalBackend:
        """Only the per-key surface: no lookup_many/store_many."""

        def __init__(self):
            from repro.api import CacheStats

            self.stats = CacheStats()
            self._entries = {}

        def get(self, key):
            return self._entries.get(key)

        def put(self, key, payload):
            self._entries[key] = dict(payload)

        def __len__(self):
            return len(self._entries)

        def clear(self):
            self._entries.clear()

    # The bulk hooks are protocol members: there is no per-key
    # fallback for a backend to degrade to.
    with pytest.raises(TypeError):
        EvaluationCache(backend=MinimalBackend())
    with pytest.raises(TypeError):
        Explorer(_space(), cache=MinimalBackend())


def test_negative_entries_round_trip_through_compact_format(tmp_path):
    """__infeasible__ markers survive the compact codec on disk, and
    stats account them exactly like positive entries."""
    shared = EvaluationCache(path=tmp_path)
    shared.store_many({}, {"badf": "infeasible corner"})
    data = (tmp_path / "ba" / f"badf{COMPACT_SUFFIX}").read_bytes()
    assert data.startswith(COMPACT_MAGIC)
    fresh = EvaluationCache(path=tmp_path)
    report, error = fresh.lookup_many(["badf"])["badf"]
    assert report is None and error == "infeasible corner"
    assert fresh.backend.stats.hits == 1
    resolved = fresh.lookup_many(["badf", "absent"])
    assert resolved["badf"] == (None, "infeasible corner")
    # The second probe was served by the decoded tier, not the backend.
    assert fresh.decoded_hits == 1
    assert fresh.backend.stats.hits == 1
    assert fresh.backend.stats.misses == 1  # "absent"


# ----------------------------------------------------------------------
# The decoded-report tier
# ----------------------------------------------------------------------
def test_decoded_tier_absorbs_repeat_probes():
    shared = EvaluationCache(backend=MemoryCache())
    shared.backend.put("good", {"label": "x", "memories": []})
    first, _ = shared.lookup_many(["good"])["good"]
    assert shared.decoded_hits == 0
    assert shared.backend.stats.hits == 1
    second, _ = shared.lookup_many(["good"])["good"]
    assert second is first  # the decoded object itself, no re-decode
    assert shared.decoded_hits == 1
    assert shared.backend.stats.hits == 1  # backend untouched
    bulk = shared.lookup_many(["good"])
    assert bulk["good"][0] is first
    assert shared.decoded_hits == 2
    assert shared.backend.stats.hits == 1


def test_decoded_tier_filled_by_stores():
    from repro.costs.report import CostReport

    shared = EvaluationCache(backend=MemoryCache())
    report = CostReport(label="stored")
    shared.store_many({"fp": report})
    looked, error = shared.lookup_many(["fp"])["fp"]
    assert looked is report and error is None
    assert shared.decoded_hits == 1
    assert shared.backend.stats.hits == 0  # never probed

    bulk_cache = EvaluationCache(backend=MemoryCache())
    bulk_cache.store_many({"fp1": report, "fp2": report})
    resolved = bulk_cache.lookup_many(["fp1", "fp2"])
    assert resolved["fp1"][0] is report and resolved["fp2"][0] is report
    assert bulk_cache.decoded_hits == 2
    assert bulk_cache.backend.stats.hits == 0


def test_decoded_tier_shares_backend_bound(tmp_path):
    from repro.costs.report import CostReport

    shared = EvaluationCache(tmp_path, max_entries=2)
    for index in range(4):
        shared.store_many({f"fp{index}": CostReport(label=f"r{index}")})
    assert shared.decoded_entries == 2
    # The survivors are the most recently stored, same as the backend.
    assert shared.lookup_many(["fp3"])["fp3"][0] is not None
    assert shared.decoded_hits == 1
    assert len(shared.backend) == 2


def test_decoded_tier_cleared_with_cache():
    shared = EvaluationCache(backend=MemoryCache())
    shared.backend.put("good", {"label": "x", "memories": []})
    shared.lookup_many(["good"])
    shared.lookup_many(["good"])
    assert shared.decoded_hits == 1
    shared.clear()
    assert shared.decoded_entries == 0
    assert shared.decoded_hits == 0
    assert shared.lookup_many(["good"]) == {}


def test_stats_dict_reports_decoded_tier():
    class UncountableCache(MemoryCache):
        """Counting its entries is backend I/O (a LEN round trip)."""

        def __len__(self):
            raise AssertionError("stats_dict() must not count backend entries")

    shared = EvaluationCache(backend=UncountableCache())
    shared.backend.put("good", {"label": "x", "memories": []})
    shared.lookup_many(["good"])
    shared.lookup_many(["good"])
    stats = shared.stats_dict()
    assert stats["decoded_hits"] == 1
    assert stats["decoded_entries"] == 1
    assert stats["backend_stats"]["hits"] == 1
    assert "entries" not in stats


# ----------------------------------------------------------------------
# resolve_backend / EvaluationCache wiring
# ----------------------------------------------------------------------
def test_resolve_backend_variants(tmp_path):
    assert resolve_backend(None) is None  # the decoded tier is the memo
    assert isinstance(resolve_backend(tmp_path / "c"), DiskCache)
    backend = MemoryCache()
    assert resolve_backend(backend) is backend
    with pytest.raises(ValueError):
        resolve_backend(backend, max_entries=3)
    with pytest.raises(TypeError):
        resolve_backend(42)


def test_evaluation_cache_rejects_path_plus_backend(tmp_path):
    with pytest.raises(ValueError):
        EvaluationCache(path=tmp_path, backend=MemoryCache())


# ----------------------------------------------------------------------
# DiskCache keys and the miss path
# ----------------------------------------------------------------------
def test_disk_cache_rejects_traversal_keys(tmp_path):
    """Keys become file paths: a key outside ``[0-9A-Za-z_-]+`` is
    refused before the filesystem is touched, batch writes included."""
    root = tmp_path / "a" / "b" / "c"
    cache = DiskCache(root)
    # What a traversal read would find, and unlink as undecodable.
    planted = tmp_path / f"escaped{COMPACT_SUFFIX}"
    planted.write_bytes(b"not a record")
    for key in ("../../escaped", "ab/../../../escaped", "..", "abcd.json", ""):
        with pytest.raises(ValueError):
            cache.put(key, _payload(1))
        with pytest.raises(ValueError):
            cache.get(key)
        with pytest.raises(ValueError):
            cache.lookup_many(["fine", key])
    with pytest.raises(ValueError):
        cache.store_many({"good": _payload(1), "../../escaped": _payload(2)})
    assert sorted(tmp_path.rglob("*")) == [
        tmp_path / "a",
        tmp_path / "a" / "b",
        root,
        planted,
    ]
    assert planted.read_bytes() == b"not a record"
    assert cache.stats.corrupt == cache.stats.stores == 0


def test_disk_cache_get_sees_sibling_writes(tmp_path):
    """A miss leaves nothing behind: a later sibling write is read."""
    reader = DiskCache(tmp_path / "c")
    assert reader.get("late") is None
    DiskCache(tmp_path / "c").put("late", _payload(9))
    assert reader.get("late") == _payload(9)


# ----------------------------------------------------------------------
# resolve_backend: remote URLs and format plumbing
# ----------------------------------------------------------------------
def test_parse_remote_url_variants():
    assert parse_remote_url("remote://host:123") == ("host", 123)
    assert parse_remote_url("remote://10.0.0.1:8712") == ("10.0.0.1", 8712)
    for bad in (
        "remote://host",
        "remote://:123",
        "remote://host:abc",
        "x://h:1",
        "remote://h:1/var/fb",
        "remote://h:70000",
    ):
        with pytest.raises(ValueError, match="remote://host:port"):
            parse_remote_url(bad)


def test_resolve_backend_remote_variants():
    backend = resolve_backend("remote://127.0.0.1:1")
    assert isinstance(backend, RemoteCache)
    assert (backend.host, backend.port) == ("127.0.0.1", 1)
    backend.close()

    # The bound belongs to the caller's in-process memo, not the backend.
    bounded = resolve_backend("remote://127.0.0.1:1", max_entries=16)
    assert isinstance(bounded, RemoteCache)
    bounded.close()


def test_evaluation_cache_remote_url_passthrough():
    cache = EvaluationCache("remote://127.0.0.1:1")
    assert isinstance(cache.backend, RemoteCache)
    assert cache.path is None  # no disk root to report
    cache.close_backend()


# ----------------------------------------------------------------------
# One in-process memo: the decoded tier
# ----------------------------------------------------------------------
def test_memory_only_cache_holds_one_entry_per_fingerprint():
    """Without a backend the decoded tier is the whole memo: one entry
    per fingerprint, whatever mix of reports and failures it holds."""
    from repro.costs.report import CostReport

    shared = EvaluationCache()
    assert shared.backend is None
    report = CostReport(label="r")
    shared.store_many({"fp1": report})
    shared.store_many({"fp1": report})  # a re-store is the same entry
    shared.store_many({"fp2": report, "fp3": report})
    shared.store_many({}, {"bad": "infeasible corner"})
    assert len(shared) == shared.decoded_entries == 4
    assert shared.lookup_many(["fp1", "fp2", "bad", "absent"]) == {
        "fp1": (report, None),
        "fp2": (report, None),
        "bad": (None, "infeasible corner"),
    }
    assert shared.stats_dict()["backend"] is None
    shared.close_backend()  # no backend to release: a no-op
    shared.clear()
    assert len(shared) == 0


# ----------------------------------------------------------------------
# Explorer integration over a real design space
# ----------------------------------------------------------------------
def _program(taps=8):
    builder = ProgramBuilder(f"fir{taps}")
    builder.array("samples", shape=(4096,), bitwidth=12)
    builder.array("coeffs", shape=(32,), bitwidth=16)
    builder.array("output", shape=(4096,), bitwidth=16)
    nest = builder.nest("filter", iterators=("i",), trips=(4096,))
    sample = nest.read("samples", index=("i",))
    taps_read = nest.read("coeffs", mult=float(taps), after=[sample], label="taps")
    nest.write("output", index=("i",), after=[taps_read])
    return builder.build()


def _space():
    space = DesignSpace(
        "fir",
        cycle_budget=50_000,
        frame_time_s=1e-3,
        budget_fractions=(1.0, 0.9),
        onchip_counts=(None, 2),
    )
    space.add_variant("taps8", build=lambda: _program(8))
    return space


def test_explorer_accepts_path_as_cache(tmp_path):
    cache_dir = tmp_path / "cache"
    first = Explorer(_space(), cache=cache_dir)
    first.run(ExhaustiveSweep())
    assert isinstance(first.cache.backend, DiskCache)
    assert first.cache.misses == 4
    second = Explorer(_space(), cache=cache_dir)
    second.run(ExhaustiveSweep())
    assert second.cache.misses == 0
    assert second.cache.hits == 4


def test_explorer_accepts_bare_backend():
    backend = MemoryCache(max_entries=64)
    explorer = Explorer(_space(), cache=backend)
    explorer.run(ExhaustiveSweep())
    assert explorer.cache.backend is backend
    assert backend.stats.stores == 4
    # One backend probe per cold point: misses are not double-counted.
    assert backend.stats.misses == 4


def test_explorer_memo_stays_bounded_under_long_runs():
    """The unbounded-growth fix: a bounded memo never exceeds its cap."""
    backend = MemoryCache(max_entries=2)
    explorer = Explorer(_space(), cache=backend)
    for _ in range(3):  # repeated strategy runs over 4 points
        explorer.run(ExhaustiveSweep())
    assert len(backend) == 2
    assert backend.stats.evictions >= 2
    # Evicted points simply re-evaluate: correctness is unaffected.
    rerun = explorer.run(ExhaustiveSweep())
    assert len(rerun.records) == 4


def test_evaluation_cache_failures_persist_to_disk(tmp_path):
    cache_dir = tmp_path / "cache"
    space = _space()
    space.onchip_counts = (2, 10)  # 10 is infeasible for a 3-group program
    first = Explorer(space, cache=cache_dir, on_error="skip")
    first.run(ExhaustiveSweep())
    assert first.failures
    # A fresh explorer over the same directory re-runs *nothing*: both
    # the reports and the negative results are warm.
    second = Explorer(_space(), cache=cache_dir, on_error="skip")
    space2 = second.space
    space2.onchip_counts = (2, 10)
    second.run(ExhaustiveSweep())
    assert second.cache.misses == 0
    assert len(second.failures) == len(first.failures)


def test_persisted_failure_raises_in_raise_mode(tmp_path):
    """A failure cached by a skip-mode run must still raise elsewhere."""
    from repro.api import ExplorationError

    cache_dir = tmp_path / "cache"
    space = _space()
    space.onchip_counts = (10,)  # infeasible for a 3-group program
    skip = Explorer(space, cache=cache_dir, on_error="skip")
    skip.run(ExhaustiveSweep())
    assert skip.failures

    strict_space = _space()
    strict_space.onchip_counts = (10,)
    strict = Explorer(strict_space, cache=cache_dir)
    with pytest.raises(ExplorationError):
        strict.evaluate(strict_space.points()[0])


_WARM_SCRIPT = """
import sys

from repro.api import DesignSpace, ExhaustiveSweep, Explorer, ProgramBuilder

builder = ProgramBuilder("fir8")
builder.array("samples", shape=(4096,), bitwidth=12)
builder.array("coeffs", shape=(32,), bitwidth=16)
builder.array("output", shape=(4096,), bitwidth=16)
nest = builder.nest("filter", iterators=("i",), trips=(4096,))
sample = nest.read("samples", index=("i",))
taps = nest.read("coeffs", mult=8.0, after=[sample], label="taps")
nest.write("output", index=("i",), after=[taps])

space = DesignSpace(
    "fir",
    cycle_budget=50_000,
    frame_time_s=1e-3,
    budget_fractions=(1.0, 0.9),
    onchip_counts=(None, 2),
)
space.add_variant("taps8", program=builder.build())

explorer = Explorer(space, cache=sys.argv[1])
explorer.run(ExhaustiveSweep())
print(f"misses={explorer.cache.misses} hits={explorer.cache.hits}")
"""


def test_disk_cache_warm_start_across_processes(tmp_path):
    """A spawned subprocess reuses the cache dir: zero re-evaluations."""
    cache_dir = tmp_path / "cache"
    script = tmp_path / "warm.py"
    script.write_text(_WARM_SCRIPT, encoding="utf-8")
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")

    cold = subprocess.run(
        [sys.executable, str(script), str(cache_dir)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert "misses=4 hits=0" in cold.stdout

    warm = subprocess.run(
        [sys.executable, str(script), str(cache_dir)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert "misses=0 hits=4" in warm.stdout

    # The on-disk entries are compact payload records under sharded dirs.
    files = sorted(cache_dir.rglob(f"*{COMPACT_SUFFIX}"))
    assert len(files) == 4
    for file in files:
        assert file.read_bytes().startswith(COMPACT_MAGIC)
