"""LinearFrontier: adaptive weighted-sum front bracketing.

The headline acceptance of the PR 10 driver refactor: on the golden
apps and on the paper's btpc demonstrator, LinearFrontier at a 20%
oracle-call budget recovers at least 95% of the exhaustive Pareto
front.  The spaces here are densified versions of the registered apps
(extra budget fractions / on-chip counts) so a 20% budget is a real
constraint, not a rounding artifact — and the whole comparison stays in
tier-1 time.
"""

import math

from repro.api import (
    DesignSpace,
    ExhaustiveSweep,
    Explorer,
    LinearFrontier,
    ParetoRefine,
    SearchBudget,
    front_coverage,
    pareto_front,
)


def _densified(app, budget_fractions, onchip_counts):
    space = DesignSpace.for_app(app)
    space.budget_fractions = budget_fractions
    space.onchip_counts = onchip_counts
    return space


def _exhaustive(space):
    with Explorer(space, on_error="skip") as explorer:
        return explorer.run(ExhaustiveSweep())


def _frontier(space, budget):
    with Explorer(space, on_error="skip") as explorer:
        return explorer.run(LinearFrontier(), budget=budget)


def _coverage_case(space):
    """Run both strategies cold and return (coverage, frontier, full)."""
    full = _exhaustive(space)
    reference = pareto_front([r.report for r in full.records])
    budget = SearchBudget(
        max_oracle_calls=max(1, math.floor(0.20 * full.oracle_calls))
    )
    frontier = _frontier(space, budget)
    coverage = front_coverage(reference, [r.report for r in frontier.records])
    return coverage, frontier, full


# ----------------------------------------------------------------------
# Golden-front validation (the acceptance criterion)
# ----------------------------------------------------------------------
class TestGoldenCoverage:
    def test_cavity_front_at_20_percent_budget(self):
        space = _densified(
            "cavity",
            budget_fractions=(1.0, 0.95, 0.9, 0.85, 0.8),
            onchip_counts=(None, 2, 4, 6),
        )
        coverage, frontier, full = _coverage_case(space)
        assert coverage >= 0.95, f"cavity coverage {coverage:.3f}"
        assert frontier.oracle_calls <= 0.20 * full.oracle_calls
        assert frontier.stopped in ("completed", "budget_exhausted")

    def test_wavelet_front_at_20_percent_budget(self):
        space = _densified(
            "wavelet",
            budget_fractions=(1.0, 0.95, 0.9, 0.85),
            onchip_counts=(None, 2, 4, 6),
        )
        coverage, frontier, full = _coverage_case(space)
        assert coverage >= 0.95, f"wavelet coverage {coverage:.3f}"
        assert frontier.oracle_calls <= 0.20 * full.oracle_calls

    def test_btpc_front_at_20_percent_budget(self):
        space = _densified(
            "btpc",
            budget_fractions=(1.0, 0.9, 0.82, 0.7, 0.6, 0.5),
            onchip_counts=(None, 4, 14),
        )
        with Explorer(space, on_error="skip") as explorer:
            full = explorer.run(ExhaustiveSweep())
            # The trade-off that keeps two frontier strategies:
            # unbudgeted, ParetoRefine recovers the whole exhaustive
            # front, which LinearFrontier does not.  It replays the
            # sweep's cached points, so it costs no oracle time.
            refined = explorer.run(ParetoRefine())
        reference = pareto_front([r.report for r in full.records])
        refined_coverage = front_coverage(
            reference, [r.report for r in refined.records]
        )
        assert refined_coverage == 1.0, f"btpc ParetoRefine coverage {refined_coverage}"
        budget = SearchBudget(
            max_oracle_calls=max(1, math.floor(0.20 * full.oracle_calls))
        )
        frontier = _frontier(space, budget)
        coverage = front_coverage(reference, [r.report for r in frontier.records])
        assert coverage >= 0.95, f"btpc frontier coverage {coverage:.3f}"
        assert frontier.oracle_calls <= 0.20 * full.oracle_calls


# ----------------------------------------------------------------------
# Mechanics
# ----------------------------------------------------------------------
class TestLinearFrontierMechanics:
    def test_unbudgeted_run_converges_and_stays_on_front(self):
        space = _densified(
            "cavity", budget_fractions=(1.0, 0.9), onchip_counts=(None, 2)
        )
        with Explorer(space, on_error="skip") as explorer:
            result = explorer.run(LinearFrontier())
        assert result.stopped == "completed"
        # Converged: every evaluated point is inside the space, nothing
        # evaluated twice.
        points = [record.point for record in result.records]
        assert len(points) == len(set(points))
        all_points = set(space.points())
        assert all(point in all_points for point in points)
        # The frontier's own front is the exhaustive front over what it
        # evaluated — and its extremes bracket the space's extremes.
        front = result.pareto_front()
        assert front

    def test_finds_every_variant_via_seeding(self):
        # The categorical variant axis is unwalkable by scalarized
        # descent; the default seeds put every variant on the spine.
        space = _densified(
            "cavity", budget_fractions=(1.0,), onchip_counts=(None,)
        )
        with Explorer(space, on_error="skip") as explorer:
            result = explorer.run(LinearFrontier())
        seen = {record.point.variant for record in result.records}
        assert seen == set(space.variant_names)

    def test_respects_oracle_budget_exactly(self):
        space = _densified(
            "cavity",
            budget_fractions=(1.0, 0.95, 0.9, 0.85, 0.8),
            onchip_counts=(None, 2, 4, 6),
        )
        result = _frontier(space, SearchBudget(max_oracle_calls=10))
        assert result.oracle_calls <= 10

    def test_progress_snapshots_track_front_growth(self):
        space = _densified(
            "cavity", budget_fractions=(1.0, 0.9), onchip_counts=(None, 2, 4)
        )
        with Explorer(space, on_error="skip") as explorer:
            snapshots = explorer.run(LinearFrontier()).rounds
        assert snapshots
        assert [s.round for s in snapshots] == list(
            range(1, len(snapshots) + 1)
        )
        sizes = [s.front_size for s in snapshots]
        assert sizes[-1] >= sizes[0]

    def test_empty_space_completes_with_no_records(self):
        # Same contract as ExhaustiveSweep: a variant-less space is a
        # graceful no-op, not an error.
        space = DesignSpace("empty", cycle_budget=1000, frame_time_s=1e-3)
        with Explorer(space) as explorer:
            result = explorer.run(LinearFrontier())
        assert result.stopped == "completed"
        assert result.records == []
