"""Thread-safety regressions: the shared cache and the pool lifecycle.

The service serves many clients from one :class:`EvaluationCache` and
long-lived explorers, so the engine must survive threaded probe/store
traffic, a ``close()`` racing an in-flight ``evaluate_many``, and a
worker pool dying under concurrent batches.
"""

import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api import Explorer
from repro.explore.engine import EvaluationCache


@pytest.fixture(scope="module")
def cavity_reports():
    """Real (fingerprint, report) pairs to feed the hammer tests."""
    explorer = Explorer.for_app("cavity", on_error="skip")
    records = explorer.evaluate_many(explorer.space.points(), "seed")
    return [
        (record.fingerprint, record.report)
        for record in records
        if record.report is not None
    ]


def _outcomes(records):
    """Each record's report dict, or its error for a failure."""
    return [
        record.error if record.report is None else record.report.to_dict()
        for record in records
    ]


# ----------------------------------------------------------------------
# Threaded cache traffic
# ----------------------------------------------------------------------
def test_threaded_lookup_store_hammer(cavity_reports):
    """8 threads of mixed lookup_many/store_many/failure traffic."""
    cache = EvaluationCache()
    n_threads, n_rounds = 8, 40
    errors = []
    barrier = threading.Barrier(n_threads)

    def worker(slot):
        try:
            barrier.wait(timeout=30)
            for round_no in range(n_rounds):
                stores = {
                    f"{fp}:{slot}:{round_no}": report
                    for fp, report in cavity_reports[:4]
                }
                cache.store_many(stores)
                probed = cache.lookup_many(tuple(stores))
                for fingerprint in stores:
                    report, error = probed[fingerprint]
                    assert report is not None and error is None
                # Shared keys: every thread stores and probes the same
                # fingerprints, interleaved with the private ones.
                fp0, report0 = cavity_reports[0]
                cache.store_many({f"shared:{round_no}": report0})
                cache.lookup_many((f"shared:{round_no}", "absent:key"))
                bad = f"bad:{slot}:{round_no}"
                cache.store_many({}, {bad: "infeasible"})
                assert cache.lookup_many((bad,)) == {bad: (None, "infeasible")}
                cache.count_hits()
                cache.count_misses(2)
                cache.stats_dict()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors

    # Deterministic final state: every write landed exactly once.
    assert cache.hits == n_threads * n_rounds
    assert cache.misses == 2 * n_threads * n_rounds
    expected_entries = (
        n_threads * n_rounds * 4  # private stores
        + n_rounds  # shared stores (idempotent across threads)
        + n_threads * n_rounds  # negative entries
    )
    assert len(cache) == cache.decoded_entries == expected_entries


def test_shared_cache_between_threaded_explorers():
    """Two explorers, one cache, concurrent overlapping sweeps."""
    cache = EvaluationCache()
    explorers = [
        Explorer.for_app("cavity", cache=cache, on_error="skip") for _ in range(2)
    ]
    results = {}
    errors = []

    def worker(slot, explorer):
        try:
            points = explorer.space.points()
            results[slot] = explorer.evaluate_many(points, f"t{slot}")
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(slot, explorer))
        for slot, explorer in enumerate(explorers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    # Both sweeps resolve the same records, whatever the interleaving.
    assert [r.fingerprint for r in results[0]] == [r.fingerprint for r in results[1]]
    assert _outcomes(results[0]) == _outcomes(results[1])


# ----------------------------------------------------------------------
# Pool lifecycle under concurrency
# ----------------------------------------------------------------------
def test_close_during_inflight_evaluate_many():
    """A concurrent close() must not lose the batch (in-process fallback)."""
    explorer = Explorer.for_app("cavity", workers=2, on_error="skip")
    results = []
    errors = []
    started = threading.Event()

    def sweeper():
        try:
            started.set()
            points = explorer.space.points()
            results.append(explorer.evaluate_many(points, "race"))
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    thread = threading.Thread(target=sweeper)
    thread.start()
    started.wait(timeout=30)
    # Race the shutdown against the in-flight batch; whatever the
    # interleaving, the sweep completes with full results.
    explorer.close()
    thread.join(timeout=300)
    assert not errors, errors
    assert len(results) == 1
    assert len(results[0]) == 20
    assert sum(1 for r in results[0] if r.report is not None) == 14
    # The explorer stays usable after close(): next batch re-pools.
    again = explorer.evaluate_many(explorer.space.points()[:4], "after")
    assert all(record.cache_hit for record in again)
    explorer.close()


def test_close_idempotent_and_concurrent():
    explorer = Explorer.for_app("cavity", workers=2)
    explorer._ensure_pool()
    threads = [threading.Thread(target=explorer.close) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert explorer._pool is None
    explorer.close()  # still idempotent


class _ExplodingPool:
    """A stand-in pool whose map always dies like a killed worker."""

    def __init__(self):
        self.map_calls = 0
        self.shutdowns = 0

    def map(self, fn, *iterables, chunksize=1):
        self.map_calls += 1
        raise BrokenProcessPool("a child process terminated abruptly")

    def shutdown(self, wait=True):
        self.shutdowns += 1


class _OracleBugPool:
    """A healthy pool whose mapped function raises a genuine error."""

    def __init__(self):
        self.shutdowns = 0

    def map(self, fn, *iterables, chunksize=1):
        raise RuntimeError("oracle exploded")

    def shutdown(self, wait=True):
        self.shutdowns += 1


def test_worker_runtimeerror_propagates_and_keeps_pool():
    """A RuntimeError from the worker function is not a dead pool.

    Only shutdown-race RuntimeErrors trigger the in-process recovery
    path; anything else must propagate instead of silently discarding
    a healthy pool (and losing parallelism for every later batch).
    """
    explorer = Explorer.for_app("cavity", workers=2, on_error="skip")
    pool = _OracleBugPool()
    explorer._pool = pool
    with pytest.raises(RuntimeError, match="oracle exploded"):
        explorer.evaluate_many(explorer.space.points()[:4], "boom")
    assert explorer._pool is pool  # not discarded
    assert pool.shutdowns == 0
    explorer._pool = None  # drop the fake before close()


def test_broken_pool_recovery_under_concurrent_callers():
    """Concurrent batches on a dead pool all recover in-process."""
    explorer = Explorer.for_app("cavity", workers=2, on_error="skip")
    dead_pool = _ExplodingPool()
    explorer._pool = dead_pool
    points = explorer.space.points()
    halves = [points[:10], points[10:]]
    results = {}
    errors = []
    barrier = threading.Barrier(2)

    def worker(slot):
        try:
            barrier.wait(timeout=30)
            results[slot] = explorer.evaluate_many(halves[slot], f"half{slot}")
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, errors
    # Both batches completed despite the dead pool (10 points per half,
    # the n_onchip=6 corners of 3 variants are infeasible).
    recovered = results[0] + results[1]
    assert len(recovered) == 20
    assert sum(1 for r in recovered if r.report is not None) == 14
    assert dead_pool.shutdowns >= 1
    # The dead pool is gone; it is never reinstalled.
    assert explorer._pool is not dead_pool
    explorer.close()

    # Recovery is invisible: the recovered reports match a clean run.
    clean = Explorer.for_app("cavity", on_error="skip")
    expected = clean.evaluate_many(points, "clean")
    assert [r.fingerprint for r in recovered] == [r.fingerprint for r in expected]
    assert _outcomes(recovered) == _outcomes(expected)


def test_retain_records_off_keeps_explorer_stateless():
    """evaluate_many grows no container on the explorer, cold or warm."""
    explorer = Explorer.for_app("cavity", on_error="skip")

    def container_sizes():
        return {
            name: len(value)
            for name, value in vars(explorer).items()
            if isinstance(value, (dict, list, set, tuple))
        }

    before = container_sizes()
    for _ in range(2):
        records = explorer.evaluate_many(explorer.space.points(), "svc")
        assert len(records) == 20
        assert sum(1 for r in records if r.report is None) == 6
        # No per-fingerprint memo on the explorer: seconds and failure
        # messages are batch-local, known failures live in the cache.
        assert container_sizes() == before
    assert explorer.failures == []
    # The cache still accumulated everything, once.
    assert explorer.cache.misses == 20
