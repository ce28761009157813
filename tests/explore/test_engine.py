"""The exploration engine: memoization, parallelism, strategies.

Uses a small FIR-style design space (12 points) so every test exercises
the real ``run_pmm`` oracle while staying fast.
"""

import pytest

from repro.api import (
    DesignSpace,
    EvaluationCache,
    ExhaustiveSweep,
    ExplorationError,
    ExplorationRecord,
    ExplorationResult,
    Explorer,
    GreedyStep,
    GreedyStepwise,
    MemoryCache,
    ParetoRefine,
    PmmRequest,
    ProgramBuilder,
    dominates,
    fingerprint_request,
    pareto_front,
)


def _fir_program(taps):
    builder = ProgramBuilder(f"fir{taps}")
    builder.array("samples", shape=(4096,), bitwidth=12)
    builder.array("coeffs", shape=(32,), bitwidth=16)
    builder.array("output", shape=(4096,), bitwidth=16)
    nest = builder.nest("filter", iterators=("i",), trips=(4096,))
    sample = nest.read("samples", index=("i",))
    taps_read = nest.read("coeffs", mult=float(taps), after=[sample], label="taps")
    nest.write("output", index=("i",), after=[taps_read])
    return builder.build()


def _fir_space():
    space = DesignSpace(
        "fir",
        cycle_budget=50_000,
        frame_time_s=1e-3,
        budget_fractions=(1.0, 0.9, 0.8),
        onchip_counts=(None, 2),
    )
    space.add_variant("taps8", build=lambda: _fir_program(8))
    space.add_variant("taps4", build=lambda: _fir_program(4))
    return space


@pytest.fixture(scope="module")
def serial_result():
    """One serial exhaustive sweep shared by the comparison tests."""
    explorer = Explorer(_fir_space())
    return explorer.run(ExhaustiveSweep()), explorer


# ----------------------------------------------------------------------
# Memoization
# ----------------------------------------------------------------------
def test_sweep_covers_space_and_misses_cold_cache(serial_result):
    result, explorer = serial_result
    assert len(result.records) == 12
    assert result.cache_hit_count() == 0
    assert explorer.cache.misses == 12


def test_rerun_is_all_cache_hits(serial_result):
    result, explorer = serial_result
    rerun = explorer.run(ExhaustiveSweep())
    assert rerun.cache_hit_count() == len(rerun.records) == 12
    assert [r.report.to_dict() for r in rerun.records] == [
        r.report.to_dict() for r in result.records
    ]
    assert all(record.seconds == 0.0 for record in rerun.records)


def test_fingerprint_ignores_label_but_not_knobs(serial_result):
    _, explorer = serial_result
    point = explorer.space.point("taps8")
    base = fingerprint_request(explorer.request_for(point))
    relabeled = fingerprint_request(
        explorer.request_for(point.relabeled("something else"))
    )
    other = fingerprint_request(
        explorer.request_for(explorer.space.point("taps8", n_onchip=2))
    )
    assert base == relabeled
    assert base != other


def test_cache_persists_to_disk(tmp_path):
    space = _fir_space()
    first = Explorer(space, cache=EvaluationCache(path=tmp_path / "cache"))
    first.run(ExhaustiveSweep())
    second = Explorer(space, cache=EvaluationCache(path=tmp_path / "cache"))
    rerun = second.run(ExhaustiveSweep())
    assert rerun.cache_hit_count() == len(rerun.records)
    assert second.cache.misses == 0


# ----------------------------------------------------------------------
# Parallelism / determinism guard
# ----------------------------------------------------------------------
def test_parallel_sweep_matches_serial(serial_result):
    """workers=1 and workers=4 must produce identical cost reports."""
    result, _ = serial_result
    parallel = Explorer(_fir_space(), workers=4)
    parallel_result = parallel.run(ExhaustiveSweep())
    assert [r.report.to_dict() for r in parallel_result.records] == [
        r.report.to_dict() for r in result.records
    ]
    assert [r.fingerprint for r in parallel_result.records] == [
        r.fingerprint for r in result.records
    ]
    serial_front = [r.report.to_dict() for r in result.pareto_front()]
    parallel_front = [r.report.to_dict() for r in parallel_result.pareto_front()]
    assert serial_front == parallel_front


def test_parallel_rerun_hits_cache(serial_result):
    parallel = Explorer(_fir_space(), workers=2)
    parallel.run(ExhaustiveSweep())
    rerun = parallel.run(ExhaustiveSweep())
    assert rerun.cache_hit_count() == len(rerun.records)
    restored = ExplorationResult.from_json(rerun.to_json())
    assert restored.to_dict() == rerun.to_dict()


def test_persistent_pool_reused_across_batches_and_deterministic(serial_result):
    """One pool serves every batch, and results stay bit-identical."""
    result, _ = serial_result
    explorer = Explorer(_fir_space(), workers=2)
    points = explorer.space.points()
    first_half = explorer.evaluate_many(points[:6])
    pool = explorer._pool
    assert pool is not None  # batch >= threshold: the pool spun up
    second_half = explorer.evaluate_many(points[6:])
    assert explorer._pool is pool  # reused, not respawned per batch
    combined = [r.report.to_dict() for r in first_half + second_half]
    assert combined == [r.report.to_dict() for r in result.records]
    assert [r.fingerprint for r in first_half + second_half] == [
        r.fingerprint for r in result.records
    ]
    explorer.close()
    assert explorer._pool is None


def test_small_batches_fall_back_to_serial():
    """Below MIN_PARALLEL_BATCH a cold explorer never pays fork cost."""
    assert Explorer.MIN_PARALLEL_BATCH == 4
    explorer = Explorer(_fir_space(), workers=4)
    points = explorer.space.points()
    records = explorer.evaluate_many(points[:2])
    assert len(records) == 2
    assert explorer._pool is None  # serial fallback: no pool spun up
    # A batch at the threshold spins the pool up; afterwards even tiny
    # batches reuse the warm pool rather than falling back.
    explorer.evaluate_many(points[2:6])
    pool = explorer._pool
    assert pool is not None
    explorer.evaluate_many(points[6:8])
    assert explorer._pool is pool
    explorer.close()


def test_explorer_context_manager_closes_pool():
    with Explorer(_fir_space(), workers=2) as explorer:
        explorer.evaluate_many(explorer.space.points()[:4])
        assert explorer._pool is not None
    assert explorer._pool is None
    # close() is idempotent and the explorer stays usable afterwards.
    explorer.close()
    assert explorer.evaluate(explorer.space.points()[0]).cache_hit


# ----------------------------------------------------------------------
# Batch accounting: duplicates, hit/miss reconciliation
# ----------------------------------------------------------------------
def test_duplicate_fresh_points_count_one_miss(tmp_path):
    """In-batch duplicates of a fresh point: one miss, no double time."""
    explorer = Explorer(_fir_space(), cache=tmp_path)
    point = explorer.space.point("taps8")
    records = explorer.evaluate_many([point, point, point])
    assert len(records) == 3
    assert [record.cache_hit for record in records] == [False, True, True]
    assert records[0].seconds > 0.0
    assert records[1].seconds == records[2].seconds == 0.0
    assert explorer.cache.misses == 1
    # The duplicates never touched the backend: no phantom hits.
    assert explorer.cache.hits == 0
    backend = explorer.cache.backend
    assert backend.stats.misses == 1 and backend.stats.stores == 1
    # Total attributed seconds equals the single oracle run's.
    assert sum(record.seconds for record in records) == records[0].seconds


def test_duplicate_cached_points_count_one_decoded_hit(tmp_path):
    explorer = Explorer(_fir_space(), cache=tmp_path)
    point = explorer.space.point("taps8")
    explorer.evaluate(point)
    hits_before = explorer.cache.backend.stats.hits
    decoded_before = explorer.cache.decoded_hits
    records = explorer.evaluate_many([point, point.relabeled("taps8 again")])
    assert all(record.cache_hit for record in records)
    assert explorer.cache.hits == 1  # one unique cache resolution
    # Each record keeps its own point's label, cache hits included.
    assert [record.report.label for record in records] == [
        point.display_label,
        "taps8 again",
    ]
    assert records[0].report.memories == records[1].report.memories
    # The store filled the decoded tier, so the warm probe never
    # reaches the backend: one decoded hit, zero new backend traffic.
    assert explorer.cache.decoded_hits == decoded_before + 1
    assert explorer.cache.backend.stats.hits == hits_before


# ----------------------------------------------------------------------
# Result sets
# ----------------------------------------------------------------------
def test_result_serialization_round_trip(serial_result, tmp_path):
    result, _ = serial_result
    path = tmp_path / "result.json"
    result.to_json(path)
    loaded = ExplorationResult.from_json(path)
    assert loaded.to_dict() == result.to_dict()
    from_text = ExplorationResult.from_json(result.to_json())
    assert from_text.to_dict() == result.to_dict()


def test_front_and_knee_are_records(serial_result):
    result, _ = serial_result
    front = result.pareto_front()
    assert front
    for record in front:
        assert isinstance(record, ExplorationRecord)
        assert not any(
            dominates(other.report, record.report) for other in result.records
        )
    knee = result.knee_point()
    assert knee in front


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def test_greedy_stepwise_decides_each_step():
    space = _fir_space()
    explorer = Explorer(space)
    steps = [
        GreedyStep("variant", points=[space.point("taps8"), space.point("taps4")]),
        GreedyStep(
            "allocation",
            points=lambda ctx: [
                space.point(ctx.chosen_point("variant").variant, n_onchip=count)
                for count in (None, 2)
            ],
            select=lambda records: records[-1],
        ),
    ]
    result = explorer.run(GreedyStepwise(steps))
    assert set(result.decisions) == {"variant", "allocation"}
    # taps4 halves the coeff traffic: greedy min-power must pick it.
    assert result.decisions["variant"] == "taps4"
    assert result.decisions["allocation"].startswith("taps4")
    assert len(result.records) == 4


def test_greedy_unknown_label_raises():
    space = _fir_space()
    explorer = Explorer(space)
    walk = GreedyStepwise(
        [GreedyStep("s", points=[space.point("taps8")], select="nope")]
    )
    with pytest.raises(KeyError):
        explorer.run(walk)


def test_infeasible_points_raise_by_default():
    space = _fir_space()
    explorer = Explorer(space)
    # The FIR program has three basic groups; asking for ten on-chip
    # memories is infeasible for the allocator.
    with pytest.raises(ExplorationError, match="AssignmentError"):
        explorer.evaluate(space.point("taps8", n_onchip=10))


def test_infeasible_points_skippable():
    space = _fir_space()
    explorer = Explorer(space, on_error="skip")
    points = [space.point("taps8"), space.point("taps8", n_onchip=10)]
    records = explorer.evaluate_many(points)
    # One record per point: the failure comes back in place, computed
    # by this call, and evaluate_many keeps nothing on the explorer.
    assert [r.point for r in records] == points
    assert records[0].report is not None and records[0].error is None
    failed = records[1]
    assert failed.report is None and "AssignmentError" in failed.error
    assert not failed.cache_hit
    assert failed.fingerprint == explorer.fingerprint_points(points)[1]
    assert explorer.failures == []
    # The failure is negatively cached: retrying does not re-run the
    # oracle, and both outcomes come back as hits.
    again = explorer.evaluate_many(points)
    assert [r.cache_hit for r in again] == [True, True]
    assert again[1].error == failed.error
    assert explorer.cache.misses == 2


def test_infeasible_points_skippable_parallel(monkeypatch):
    space = _fir_space()
    # A threshold of 2 sends the two-point batch through a cold pool
    # (the default threshold would run it in-process).
    monkeypatch.setattr(Explorer, "MIN_PARALLEL_BATCH", 2)
    explorer = Explorer(space, workers=2, on_error="skip")
    points = [space.point("taps8"), space.point("taps8", n_onchip=10)]
    records = explorer.evaluate_many(points)
    assert explorer._pool is not None  # the pool really was exercised
    assert [r.report is None for r in records] == [False, True]
    assert "10" in records[1].error
    explorer.close()


def _counted_oracle(monkeypatch, interrupt_at=None):
    """Count in-process oracle calls; optionally interrupt the n-th.

    The explorer hands each run its dispatch's body tables, which the
    wrapper passes on.
    """
    run = PmmRequest.run
    calls = []

    def counted(request, **kwargs):
        calls.append(request.label)
        if len(calls) == interrupt_at:
            raise KeyboardInterrupt
        return run(request, **kwargs)

    monkeypatch.setattr(PmmRequest, "run", counted)
    return calls


@pytest.mark.parametrize("workers", [1, 2])
def test_raise_mode_fails_at_the_first_infeasible_point(workers, monkeypatch):
    """One failure contract for every ``workers`` and batch size.

    The first failing point in point order raises ExplorationError; the
    successes before it are stored and nothing after it is consumed
    (the in-process loop never runs it; the pool's outcome is dropped).
    """
    space = _fir_space()
    bad = space.point("taps8", n_onchip=10)
    good = [space.point("taps8"), space.point("taps4"), space.point("taps4", 0.9)]
    batch = [good[0], good[1], bad, good[2]]
    calls = _counted_oracle(monkeypatch)
    with Explorer(space, workers=workers) as explorer:
        with pytest.raises(ExplorationError, match="AssignmentError"):
            explorer.evaluate_many(batch)
        if workers > 1:
            assert explorer._pool is not None  # the four misses were pooled
        else:
            assert len(calls) == 3
        fingerprints = explorer.fingerprint_points(good)
        assert set(explorer.cache.lookup_many(fingerprints)) == set(fingerprints[:2])
        assert explorer.cache.misses == 3
        # A one-point batch fails the same way, warm pool or not.
        with pytest.raises(ExplorationError, match="AssignmentError"):
            explorer.evaluate_many([bad])
        assert explorer.cache.misses == 4


def test_serial_batch_is_stored_once():
    """Reports and skipped failures reach the backend in one store."""

    class CountingCache(MemoryCache):
        def __init__(self):
            super().__init__()
            self.puts = 0
            self.batches = []

        def put(self, key, payload):
            self.puts += 1
            super().put(key, payload)

        def store_many(self, payloads):
            self.batches.append(set(payloads))
            for key, payload in payloads.items():
                MemoryCache.put(self, key, payload)  # not counted as a put

    space = _fir_space()
    backend = CountingCache()
    explorer = Explorer(space, cache=backend, on_error="skip")
    batch = space.points()[:3] + [space.point("taps8", n_onchip=10)]
    records = explorer.evaluate_many(batch)
    assert [r.report is None for r in records] == [False, False, False, True]
    assert backend.puts == 0
    assert backend.batches == [set(explorer.fingerprint_points(batch))]


def test_interrupted_batch_keeps_what_it_computed(monkeypatch):
    """An interrupt at the third oracle call still stores the first two."""
    backend = MemoryCache()
    explorer = Explorer(_fir_space(), cache=backend)
    points = explorer.space.points()[:4]
    _counted_oracle(monkeypatch, interrupt_at=3)
    with pytest.raises(KeyboardInterrupt):
        explorer.evaluate_many(points)
    assert set(backend.keys()) == set(explorer.fingerprint_points(points[:2]))
    assert explorer.cache.misses == 2


def test_pareto_refine_with_skipped_points_keeps_pairing():
    space = DesignSpace(
        "fir-sparse",
        cycle_budget=50_000,
        frame_time_s=1e-3,
        budget_fractions=(1.0, 0.9),
        onchip_counts=(2, 10),  # 10 is infeasible for a 3-group program
    )
    space.add_variant("taps8", build=lambda: _fir_program(8))
    space.add_variant("taps4", build=lambda: _fir_program(4))
    explorer = Explorer(space, on_error="skip")
    result = explorer.run(ParetoRefine())
    # Every record maps back to its own point (no positional drift),
    # and failed points are attempted once, not once per round.
    for record in result.records:
        assert record.point.n_onchip == 2
        assert record.program_name == f"fir{record.point.variant[-1]}"
    failed_points = [point for point, _ in explorer.failures]
    assert len(failed_points) == len(set(failed_points))


def test_pareto_refine_stays_inside_space_and_reuses_cache():
    space = _fir_space()
    explorer = Explorer(space)
    exhaustive = explorer.run(ExhaustiveSweep())
    refined = explorer.run(ParetoRefine())
    assert refined.records  # evaluated something
    assert refined.cache_hit_count() == len(refined.records)  # all memoized
    assert len({r.point for r in refined.records}) == len(refined.records)
    front_reports = [r.report for r in refined.pareto_front()]
    assert front_reports == pareto_front(front_reports)  # mutually non-dominated
    exhaustive_front = {
        (r.report.onchip_area_mm2, r.report.total_power_mw)
        for r in exhaustive.pareto_front()
    }
    for record in refined.pareto_front():
        key = (record.report.onchip_area_mm2, record.report.total_power_mw)
        assert key in exhaustive_front
