"""The budgeted propose/observe driver loop (PR 10 tentpole).

Budget accounting, round snapshots, early termination and the lazy
point-batch contract are all driver-level invariants — they must hold
for every strategy, so they are tested here against the same small FIR
space the engine tests use (real oracle, fast) plus synthetic wide
spaces that would blow up if anything materialized them.
"""

import json

import pytest

from repro.api import (
    BudgetState,
    CostReport,
    DesignSpace,
    EvaluationCache,
    ExhaustiveSweep,
    ExplorationRecord,
    ExplorationResult,
    Explorer,
    GreedyStep,
    GreedyStepwise,
    LinearFrontier,
    MemoryCost,
    ParetoRefine,
    Proposal,
    ProgramBuilder,
    RoundSnapshot,
    SearchBudget,
    SearchDriver,
    SearchStrategy,
)
from repro.memlib.module import MemoryKind


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


def _fir_space(**axes):
    space = DesignSpace(
        "fir",
        cycle_budget=50_000,
        frame_time_s=1e-3,
        budget_fractions=axes.get("budget_fractions", (1.0, 0.9, 0.8)),
        onchip_counts=axes.get("onchip_counts", (None, 2)),
    )
    space.add_variant("taps8", build=lambda: _fir_program(8))
    space.add_variant("taps4", build=lambda: _fir_program(4))
    return space


def _explorer(space=None):
    return Explorer(space if space is not None else _fir_space(), on_error="skip")


def _step_by_hand(driver, evaluate):
    """Step ``driver`` to its end as the sweep service does.

    Returns the round snapshots ``record`` handed back, in order, and
    the driver's result.
    """
    snapshots = []
    proposal = driver.next_batch()
    while proposal is not None:
        records = evaluate(proposal.points, proposal.step)
        snapshots.append(driver.record(proposal, records))
        proposal = driver.next_batch()
    return snapshots, driver.result()


# ----------------------------------------------------------------------
# SearchBudget
# ----------------------------------------------------------------------
class TestSearchBudget:
    def test_unlimited_by_default(self):
        budget = SearchBudget()
        assert budget.unlimited
        assert budget.to_dict() == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_points=0)
        with pytest.raises(ValueError):
            SearchBudget(max_oracle_calls=-1)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=0.0)
        with pytest.raises(ValueError):
            SearchBudget(max_rounds=-3)

    def test_dict_round_trip(self):
        budget = SearchBudget(max_points=10, max_oracle_calls=5, max_seconds=1.5)
        assert SearchBudget.from_dict(budget.to_dict()) == budget
        # Only the set axes are serialized.
        assert sorted(budget.to_dict()) == [
            "max_oracle_calls",
            "max_points",
            "max_seconds",
        ]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            SearchBudget.from_dict({"max_points": 3, "bogus": 1})

    def test_exhausted_reason_order(self):
        state = BudgetState(budget=SearchBudget(max_points=2, max_oracle_calls=2))
        assert state.exhausted_reason() is None
        state.points = 2
        state.oracle_calls = 2
        # Points is checked first; the reported axis is deterministic.
        assert state.exhausted_reason() == "max_points"


# ----------------------------------------------------------------------
# Driver loop semantics
# ----------------------------------------------------------------------
class TestDriverBudgets:
    def test_max_points_exhaustion(self):
        with _explorer() as explorer:
            result = explorer.run(ExhaustiveSweep(), budget=SearchBudget(max_points=5))
        assert result.stopped == "budget_exhausted"
        assert result.stop_reason == "max_points"
        assert len(result.records) == 5
        assert result.budget == SearchBudget(max_points=5)

    def test_exact_budget_reports_completed(self):
        space = _fir_space()
        with _explorer(space) as explorer:
            result = explorer.run(
                ExhaustiveSweep(), budget=SearchBudget(max_points=len(space))
            )
        assert result.stopped == "completed"
        assert result.stop_reason == ""
        assert len(result.records) == len(space)

    def test_max_oracle_calls_is_hard_on_cold_cache(self):
        with _explorer() as explorer:
            result = explorer.run(
                ExhaustiveSweep(), budget=SearchBudget(max_oracle_calls=4)
            )
        assert result.stopped == "budget_exhausted"
        assert result.stop_reason == "max_oracle_calls"
        assert result.oracle_calls <= 4

    def test_warm_cache_completes_under_oracle_budget(self):
        space = _fir_space()
        cache = EvaluationCache()
        with Explorer(space, cache=cache, on_error="skip") as explorer:
            explorer.run(ExhaustiveSweep())
        with Explorer(space, cache=cache, on_error="skip") as explorer:
            result = explorer.run(
                ExhaustiveSweep(), budget=SearchBudget(max_oracle_calls=1)
            )
        # Every point is a cache hit: nothing is charged, the sweep
        # finishes the whole space inside a one-call budget.
        assert result.stopped == "completed"
        assert result.oracle_calls == 0
        assert len(result.records) == len(space)

    def test_max_rounds(self):
        with _explorer() as explorer:
            result = explorer.run(
                ExhaustiveSweep(batch_size=2), budget=SearchBudget(max_rounds=2)
            )
        assert result.stopped == "budget_exhausted"
        assert result.stop_reason == "max_rounds"
        assert len(result.rounds) == 2

    def test_round_snapshots_accumulate(self):
        with _explorer() as explorer:
            driver = SearchDriver(explorer, ExhaustiveSweep(batch_size=4))
            seen, result = _step_by_hand(driver, explorer.evaluate_many)
        assert [s.round for s in seen] == [1, 2, 3]
        assert seen == result.rounds
        totals = [s.total_points for s in seen]
        assert totals == sorted(totals)
        assert seen[-1].total_points == len(result.records)
        assert all(s.front_size >= 1 for s in seen)
        # Snapshots round-trip through their dict form.
        snapshot = RoundSnapshot.from_dict(seen[0].to_dict())
        assert snapshot == seen[0]

    def test_result_json_round_trip_with_budget(self, tmp_path):
        with _explorer() as explorer:
            result = explorer.run(ExhaustiveSweep(), budget=SearchBudget(max_points=3))
        path = tmp_path / "result.json"
        path.write_text(json.dumps(result.to_dict()), encoding="utf-8")
        loaded = ExplorationResult.from_dict(
            json.loads(path.read_text(encoding="utf-8"))
        )
        assert loaded.budget == result.budget
        assert loaded.stopped == "budget_exhausted"
        assert loaded.oracle_calls == result.oracle_calls
        assert [s.round for s in loaded.rounds] == [s.round for s in result.rounds]

    def test_legacy_result_dict_still_loads(self):
        # Pre-driver payloads carry no budget/round keys.
        loaded = ExplorationResult.from_dict(
            {"space_name": "fir", "strategy": "exhaustive", "records": []}
        )
        assert loaded.budget is None
        assert loaded.rounds == []
        # "" is the documented marker for results that never went
        # through the driver (as opposed to a driver run's "completed").
        assert loaded.stopped == ""

    def test_stepping_by_hand_matches_run(self):
        space = _fir_space()
        budget = SearchBudget(max_oracle_calls=7)
        with _explorer(space) as explorer:
            via_run = explorer.run(ExhaustiveSweep(batch_size=4), budget=budget)
        with _explorer(space) as explorer:
            driver = SearchDriver(
                explorer, ExhaustiveSweep(batch_size=4), budget=budget
            )
            _, by_hand = _step_by_hand(driver, explorer.evaluate_many)

        def timeless(result):
            data = result.to_dict()
            for record in data["records"]:
                del record["seconds"]
            for snapshot in data["rounds"]:
                del snapshot["elapsed_seconds"]
            return data

        assert timeless(by_hand) == timeless(via_run)
        assert by_hand.stopped == "budget_exhausted"
        assert by_hand.stop_reason == "max_oracle_calls"


# ----------------------------------------------------------------------
# Exact charging: the budget counts what the oracle ran
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def warm_cavity():
    """A cavity explorer after one exhaustive sweep: 14 reports and 6
    failures in its cache."""
    with Explorer.for_app("cavity", on_error="skip") as explorer:
        explorer.run(ExhaustiveSweep())
        yield explorer


def _whole_space_greedy(explorer):
    return GreedyStepwise([GreedyStep("every point", explorer.space.points())])


class TestExactCharging:
    @pytest.mark.parametrize(
        "make",
        [
            lambda _: ExhaustiveSweep(),
            lambda _: LinearFrontier(),
            lambda _: ParetoRefine(),
            _whole_space_greedy,
        ],
        ids=["exhaustive", "frontier", "pareto-refine", "greedy"],
    )
    def test_warm_cache_charges_nothing(self, warm_cavity, make):
        misses = warm_cavity.cache.misses
        result = warm_cavity.run(make(warm_cavity))
        assert warm_cavity.cache.misses == misses
        assert result.oracle_calls == 0
        assert [s.oracle_calls for s in result.rounds] == [0] * len(result.rounds)

    def test_warm_budgeted_sweep_completes(self, warm_cavity):
        result = warm_cavity.run(
            ExhaustiveSweep(), budget=SearchBudget(max_oracle_calls=4)
        )
        assert result.stopped == "completed"
        assert len(result.records) == 14
        assert result.oracle_calls == 0

    def test_failure_and_its_relabeled_copy_charge_one_call(self):
        with Explorer.for_app("cavity", on_error="skip") as explorer:
            point = explorer.space.point("gauss line buffer", n_onchip=6)
            copy = point.relabeled("the same point again")
            result = explorer.run(ExhaustiveSweep([point, copy]))
            assert explorer.cache.misses == 1
        assert result.oracle_calls == 1
        assert result.records == []
        assert [p for p, _ in explorer.failures] == [point, copy]


# ----------------------------------------------------------------------
# Stepping the driver by hand (how the service evaluates each proposal)
# ----------------------------------------------------------------------
def _fake_report(label, area, power):
    return CostReport(
        label=label,
        memories=(
            MemoryCost(
                name="m0",
                kind=MemoryKind.ONCHIP,
                words=16,
                width=8,
                ports=1,
                area_mm2=area,
                power_mw=power,
            ),
        ),
    )


def _fake_evaluate(points, step):
    return [
        ExplorationRecord(
            point=point,
            report=_fake_report(point.display_label, float(i + 1), float(i + 1)),
            fingerprint=f"fp-{point.display_label}",
            seconds=0.0,
            cache_hit=False,
            step=step,
            program_name=point.variant,
        )
        for i, point in enumerate(points)
    ]


class TestEvaluateCallback:
    def test_driver_routes_all_evaluation_through_callback(self):
        batches = []

        def evaluate(points, step):
            batches.append(list(points))
            return _fake_evaluate(points, step)

        with _explorer() as explorer:
            driver = SearchDriver(
                explorer,
                ExhaustiveSweep(batch_size=3),
                budget=SearchBudget(max_points=7),
            )
            _, result = _step_by_hand(driver, evaluate)
        assert sum(len(batch) for batch in batches) == 7
        assert len(result.records) == 7
        # The oracle never ran: every record came from the callback.
        assert all(r.fingerprint.startswith("fp-") for r in result.records)

    def test_cache_hit_records_are_not_charged(self):
        def evaluate(points, step):
            records = _fake_evaluate(points, step)
            for record in records[::2]:
                record.cache_hit = True
            return records

        with _explorer() as explorer:
            driver = SearchDriver(explorer, ExhaustiveSweep())
            _, result = _step_by_hand(driver, evaluate)
        hits = sum(1 for r in result.records if r.cache_hit)
        assert result.oracle_calls == len(result.records) - hits


# ----------------------------------------------------------------------
# Lazy point-batch consumption (satellite: no materialized spaces)
# ----------------------------------------------------------------------
class TestLazyConsumption:
    def _wide_space(self):
        # 2 variants x 1000 fractions x 500 counts = one million points;
        # materializing this list would be felt immediately.
        return _fir_space(
            budget_fractions=tuple(1.0 - i * 1e-6 for i in range(1000)),
            onchip_counts=tuple(range(1, 501)),
        )

    def test_exhaustive_never_materializes_points(self, monkeypatch):
        space = self._wide_space()
        assert len(space) == 1_000_000

        def boom(self, **kwargs):
            raise AssertionError("space.points() materialized the space")

        monkeypatch.setattr(DesignSpace, "points", boom)
        with _explorer(space) as explorer:
            driver = SearchDriver(
                explorer,
                ExhaustiveSweep(batch_size=8),
                budget=SearchBudget(max_points=20),
            )
            _, result = _step_by_hand(driver, _fake_evaluate)
        assert result.stopped == "budget_exhausted"
        assert len(result.records) == 20

    def test_budget_capped_proposals_do_not_drain_the_iterator(self):
        proposals = []

        class Probe(SearchStrategy):
            name = "probe"

            def __init__(self):
                self.sweep = ExhaustiveSweep(batch_size=256)

            def begin(self, explorer):
                self.sweep.begin(explorer)

            def propose(self, state):
                proposal = self.sweep.propose(state)
                if proposal is not None:
                    proposals.append(len(proposal.points))
                return proposal

        with _explorer(self._wide_space()) as explorer:
            driver = SearchDriver(explorer, Probe(), budget=SearchBudget(max_points=10))
            _step_by_hand(driver, _fake_evaluate)
        # The sweep proposed exactly what the budget could pay for,
        # plus the one probe point that surfaces exhaustion.
        assert proposals == [10, 1]

    def test_iter_points_matches_points_order(self):
        space = _fir_space()
        assert list(space.iter_points()) == space.points()
