"""Pluggable search strategies over a design space.

Strategies are **generators of point batches** stepped by the budgeted
propose/observe driver (:class:`~repro.explore.engine.SearchDriver`):
each round the driver asks :meth:`SearchStrategy.propose` for the next
batch, its caller evaluates it (``explorer.run(strategy)`` through the
:class:`~repro.explore.engine.Explorer`, so caching and parallelism
come for free; the sweep service through its single-flight table), and
the driver charges the budget and feeds the records back through
:meth:`SearchStrategy.observe`.

* :class:`ExhaustiveSweep` — the whole cartesian product (or a given
  subset), proposed in bounded batches from a lazy iterator so memory
  stays flat on huge spaces.
* :class:`GreedyStepwise` — the paper's Figure-1 walk: evaluate the
  alternatives of one methodology step, commit to one, move on.  Steps
  may generate their alternatives lazily from earlier decisions.
* :class:`ParetoRefine` — evaluate a coarse corner sample, then expand
  only around the current Pareto front until it stops moving.
* :class:`LinearFrontier` — adaptive weighted-sum scalarization of
  (area, power): solve the extreme weights, recursively bisect weight
  space where the bracketed front has the largest gap, and polish with
  front-neighbour expansion — the exhaustive front at a fraction of
  the oracle calls.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .engine import (
    BudgetState,
    ExplorationRecord,
    ExplorationResult,
    Explorer,
    Proposal,
)
from .pareto import pareto_front, pareto_indices
from .space import DesignPoint, DesignSpace


class SearchStrategy:
    """One policy for walking a design space.

    The driver contract: :meth:`begin` resets per-run state,
    :meth:`propose` returns the next batch (a
    :class:`~repro.explore.engine.Proposal`, a bare point sequence, or
    ``None``/empty when converged), :meth:`observe` digests the records
    the driver evaluated, and :meth:`finalize` may stamp
    strategy-specific fields (e.g. greedy decisions) onto the finished
    result.  ``propose`` must never evaluate points or touch the
    oracle/cache itself — the driver owns evaluation (the ``RA007``
    analysis rule enforces this).
    """

    name: str = "strategy"

    def begin(self, explorer: Explorer) -> None:
        """Reset per-run state before the driver's first ``propose``."""

    def propose(
        self, state: BudgetState
    ) -> Union[Proposal, Sequence[DesignPoint], None]:
        """The next batch of points to evaluate; ``None`` when done."""
        raise NotImplementedError(f"{type(self).__name__} does not implement propose()")

    def observe(self, records: Sequence[ExplorationRecord]) -> None:
        """Digest the evaluated records of the last proposal."""

    def finalize(self, result: ExplorationResult) -> None:
        """Stamp strategy-specific fields onto the finished result."""


# ----------------------------------------------------------------------
class ExhaustiveSweep(SearchStrategy):
    """Evaluate every point (optionally a fixed subset), batch by batch.

    Points stream from :meth:`DesignSpace.iter_points` (or the given
    subset) in ``batch_size`` chunks, so the full cartesian product is
    never materialized — memory stays bounded however wide the space.
    """

    name = "exhaustive"

    #: Large enough to amortize pool fan-out, small enough to keep
    #: memory flat and progress events flowing on huge spaces.
    DEFAULT_BATCH_SIZE = 256

    def __init__(
        self,
        points: Optional[Sequence[DesignPoint]] = None,
        step: str = "Exhaustive sweep",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.points = list(points) if points is not None else None
        self.step = step
        self.batch_size = batch_size
        self._iterator: Optional[Iterator[DesignPoint]] = None

    def begin(self, explorer: Explorer) -> None:
        if self.points is not None:
            self._iterator = iter(self.points)
        else:
            self._iterator = explorer.space.iter_points()

    def propose(self, state: BudgetState) -> Optional[Proposal]:
        # Cap the batch at what the budget can still pay for, so the
        # lazy iterator is never drained past the budget horizon: a
        # spent budget still proposes one probe point — the driver
        # reports ``budget_exhausted`` on it instead of mistaking the
        # cut-short sweep for a completed one.
        size = self.batch_size
        for remaining in (state.remaining_points(), state.remaining_oracle_calls()):
            if remaining is not None:
                size = min(size, max(1, remaining))
        batch = list(itertools.islice(self._iterator, size))
        if not batch:
            return None
        return Proposal(points=batch, step=self.step)


# ----------------------------------------------------------------------
def select_min_total_power(
    records: Sequence[ExplorationRecord],
) -> ExplorationRecord:
    """Default greedy criterion: cheapest total power."""
    return min(records, key=lambda record: record.report.total_power_mw)


@dataclass
class GreedyContext:
    """What a lazy step generator gets to see."""

    explorer: Explorer
    chosen: Dict[str, ExplorationRecord] = field(default_factory=dict)

    def chosen_point(self, step: str) -> DesignPoint:
        return self.chosen[step].point


@dataclass
class GreedyStep:
    """One methodology step: alternatives plus a selection rule.

    ``points`` is either a fixed list or a callable receiving the
    :class:`GreedyContext` (so alternatives can depend on earlier
    decisions).  ``select`` is either the label of the alternative to
    commit to (the paper's designer decisions are fixed) or a callable
    picking from the step's records.
    """

    name: str
    points: Union[
        Sequence[DesignPoint], Callable[[GreedyContext], Sequence[DesignPoint]]
    ]
    select: Union[str, Callable[[Sequence[ExplorationRecord]], ExplorationRecord]] = (
        select_min_total_power
    )

    def alternatives(self, context: GreedyContext) -> List[DesignPoint]:
        if callable(self.points):
            return list(self.points(context))
        return list(self.points)

    def decide(self, records: Sequence[ExplorationRecord]) -> ExplorationRecord:
        if callable(self.select):
            return self.select(records)
        for record in records:
            if record.label == self.select:
                return record
        raise KeyError(f"step {self.name!r} has no alternative {self.select!r}")


class GreedyStepwise(SearchStrategy):
    """The paper's stepwise feedback walk (Figure 1) as a strategy.

    One driver round per methodology step: the step's alternatives are
    proposed as a batch, and the decision commits in ``observe`` so the
    next step's lazy generator sees it.  The result's records carry
    each alternative's step, and its ``decisions`` map each step to the
    chosen label.
    """

    name = "greedy-stepwise"

    def __init__(self, steps: Sequence[GreedyStep]) -> None:
        self.steps = list(steps)
        self._context: Optional[GreedyContext] = None
        self._index = 0
        self._current: Optional[GreedyStep] = None
        self._decisions: Dict[str, str] = {}

    def begin(self, explorer: Explorer) -> None:
        self._context = GreedyContext(explorer=explorer)
        self._index = 0
        self._current = None
        self._decisions = {}

    def propose(self, state: BudgetState) -> Optional[Proposal]:
        if self._index >= len(self.steps):
            return None
        step = self.steps[self._index]
        self._current = step
        return Proposal(
            points=step.alternatives(self._context), step=step.name
        )

    def observe(self, records: Sequence[ExplorationRecord]) -> None:
        step = self._current
        chosen = step.decide(records)
        self._context.chosen[step.name] = chosen
        self._decisions[step.name] = chosen.label
        self._index += 1

    def finalize(self, result: ExplorationResult) -> None:
        result.decisions.update(self._decisions)


# ----------------------------------------------------------------------
class ParetoRefine(SearchStrategy):
    """Expand the design space only around the current Pareto front.

    Starts from a seed sample (the axis corners by default), computes
    the front over everything evaluated so far, then evaluates the
    axis-neighbours of front points — repeating until the front stops
    acquiring new points or ``max_rounds`` is hit.  On smooth cost
    surfaces this reaches the exhaustive front at a fraction of the
    evaluations.
    """

    name = "pareto-refine"

    def __init__(
        self,
        seed_points: Optional[Sequence[DesignPoint]] = None,
        max_rounds: int = 8,
        step: str = "Pareto refinement",
    ) -> None:
        self.seed_points = list(seed_points) if seed_points is not None else None
        self.max_rounds = max_rounds
        self.step = step
        self._space: Optional[DesignSpace] = None
        self._frontier: List[DesignPoint] = []
        self._evaluated: Dict[DesignPoint, ExplorationRecord] = {}
        self._attempted: Set[DesignPoint] = set()
        self._round = 0

    def begin(self, explorer: Explorer) -> None:
        self._space = explorer.space
        self._frontier = (
            list(self.seed_points)
            if self.seed_points is not None
            else explorer.space.corners()
        )
        self._evaluated = {}
        self._attempted = set()
        self._round = 0

    def propose(self, state: BudgetState) -> Optional[Proposal]:
        if self._round >= self.max_rounds:
            return None
        new_points = [
            point
            for point in dict.fromkeys(self._frontier)
            if point not in self._attempted
        ]
        if not new_points:
            return None
        self._round += 1
        self._attempted.update(new_points)
        return Proposal(
            points=new_points, step=f"{self.step} (round {self._round})"
        )

    def observe(self, records: Sequence[ExplorationRecord]) -> None:
        # Pair via record.point: with on_error="skip" the explorer may
        # return fewer records than points were submitted.
        for record in records:
            self._evaluated[record.point] = record
        front_reports = pareto_front(
            [record.report for record in self._evaluated.values()]
        )
        front_ids = {id(report) for report in front_reports}
        # Neighbour sets of adjacent front points overlap heavily;
        # dedupe while building so each round's batch (and its
        # fingerprint work) stays proportional to the front.
        next_frontier: Dict[DesignPoint, None] = {}
        for point, record in self._evaluated.items():
            if id(record.report) in front_ids:
                for neighbor in self._space.neighbors(point):
                    next_frontier.setdefault(neighbor)
        self._frontier = list(next_frontier)


# ----------------------------------------------------------------------
@dataclass
class _ScalarTask:
    """One weighted-sum subproblem: min w·area + (1-w)·power."""

    weight: float
    incumbent: Optional[DesignPoint] = None
    done: bool = False


class LinearFrontier(SearchStrategy):
    """Adaptive weighted-sum bracketing of the (area, power) front.

    The classic dichotomic scheme for bi-objective problems, driven by
    the feedback oracle instead of an exact solver: scalarize the two
    objectives as ``w·area + (1-w)·power`` (min-max normalized over
    everything evaluated so far), solve the extreme weights first, then
    recursively insert the chord weight of every adjacent pair of
    solutions whose normalized gap exceeds ``tolerance`` — oracle calls
    concentrate exactly where the bracketed front has the largest gaps.
    Each subproblem is solved by steepest-descent over the space's
    axis-neighbours, with all active subproblems batched per round so
    the explorer's cache and pool amortize across them.

    Weighted sums only find *supported* (convex-hull) front points, so
    after every subproblem converges an optional ``polish`` phase
    expands the unevaluated axis-neighbours of the current front —
    recovering unsupported points too.  Under a
    :class:`~repro.explore.engine.SearchBudget` the driver simply cuts
    the run wherever the budget lands; the early rounds already carry
    the extreme and most-isolated front points.
    """

    name = "frontier"

    def __init__(
        self,
        tolerance: float = 0.05,
        seed_points: Optional[Sequence[DesignPoint]] = None,
        max_rounds: int = 64,
        polish: bool = True,
        step: str = "Linear frontier",
    ) -> None:
        if not (isinstance(tolerance, (int, float)) and tolerance > 0):
            raise ValueError("tolerance must be > 0")
        if max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        self.tolerance = float(tolerance)
        self.seed_points = list(seed_points) if seed_points is not None else None
        self.max_rounds = max_rounds
        self.polish = polish
        self.step = step
        self._space: Optional[DesignSpace] = None
        self._evaluated: Dict[DesignPoint, ExplorationRecord] = {}
        self._attempted: Set[DesignPoint] = set()
        self._tasks: List[_ScalarTask] = []
        self._weights: Set[float] = set()
        self._segments: Set[frozenset] = set()
        self._pending: List[DesignPoint] = []
        self._round = 0
        self._seeded = False

    # ------------------------------------------------------------------
    def begin(self, explorer: Explorer) -> None:
        self._space = explorer.space
        self._evaluated = {}
        self._attempted = set()
        self._tasks = []
        self._weights = set()
        self._segments = set()
        self._pending = []
        self._round = 0
        self._seeded = False

    def _default_seeds(self) -> List[DesignPoint]:
        """Every variant/library combination at the allocation extremes.

        The variant (and library) axes are categorical — scalarized
        descent walks them one neighbour at a time, which is exactly
        where a tight oracle budget dies.  Seeding each combination at
        the first and last on-chip count (full budget) gives every
        categorical region a foothold; the numeric knobs are then
        refined by descent and bisection.
        """
        space = self._space
        fraction = space.budget_fractions[0]
        ends = tuple(
            dict.fromkeys((space.onchip_counts[0], space.onchip_counts[-1]))
        )
        return [
            DesignPoint(
                variant=variant,
                budget_fraction=fraction,
                n_onchip=count,
                library=library,
            )
            for variant in space.variant_names
            for library in space.libraries
            for count in ends
        ]

    def propose(self, state: BudgetState) -> Optional[Proposal]:
        if self._round >= self.max_rounds:
            return None
        if not self._seeded:
            seeds = (
                list(self.seed_points)
                if self.seed_points is not None
                else self._default_seeds()
            )
            batch = [
                point
                for point in dict.fromkeys(seeds)
                if point not in self._attempted
            ]
            self._seeded = True
            if batch:
                self._round += 1
                self._attempted.update(batch)
                return Proposal(points=batch, step=f"{self.step} (seed)")
        if not self._pending:
            return None
        batch = self._pending
        self._pending = []
        self._round += 1
        self._attempted.update(batch)
        return Proposal(
            points=batch, step=f"{self.step} (round {self._round})"
        )

    def observe(self, records: Sequence[ExplorationRecord]) -> None:
        for record in records:
            self._evaluated[record.point] = record
        if not self._tasks and self._evaluated:
            # The two extreme scalarizations bracket the whole front.
            self._add_task(1.0)
            self._add_task(0.0)
        self._advance()

    # ------------------------------------------------------------------
    # Scalarization plumbing
    # ------------------------------------------------------------------
    def _add_task(self, weight: float) -> bool:
        key = round(weight, 6)
        if key in self._weights:
            return False
        self._weights.add(key)
        self._tasks.append(_ScalarTask(weight=weight))
        return True

    def _bounds(self) -> Tuple[float, float, float, float]:
        areas = [r.report.onchip_area_mm2 for r in self._evaluated.values()]
        powers = [r.report.total_power_mw for r in self._evaluated.values()]
        return min(areas), max(areas), min(powers), max(powers)

    def _normalized(
        self, record: ExplorationRecord, bounds: Tuple[float, float, float, float]
    ) -> Tuple[float, float]:
        a_lo, a_hi, p_lo, p_hi = bounds
        area = record.report.onchip_area_mm2
        power = record.report.total_power_mw
        na = (area - a_lo) / (a_hi - a_lo) if a_hi > a_lo else 0.0
        npow = (power - p_lo) / (p_hi - p_lo) if p_hi > p_lo else 0.0
        return na, npow

    def _argmin(
        self, weight: float, bounds: Tuple[float, float, float, float]
    ) -> DesignPoint:
        def cost(item: Tuple[DesignPoint, ExplorationRecord]):
            point, record = item
            na, npow = self._normalized(record, bounds)
            return (
                weight * na + (1.0 - weight) * npow,
                record.report.onchip_area_mm2,
                record.report.total_power_mw,
                point.display_label,
            )

        return min(self._evaluated.items(), key=cost)[0]

    def _advance(self) -> None:
        """Move every subproblem as far as the evaluated set allows.

        Runs to a fixed point: descents that stall mark their task
        done, done tasks unlock chord bisections, and freshly inserted
        chord tasks get their own descent — all without burning driver
        rounds.  Only genuinely unevaluated neighbours end up in the
        next proposal.
        """
        if not self._evaluated:
            self._pending = []
            return
        bounds = self._bounds()
        want: Dict[DesignPoint, None] = {}
        while True:
            changed = False
            for task in self._tasks:
                if task.done:
                    continue
                task.incumbent = self._argmin(task.weight, bounds)
                fresh = [
                    neighbor
                    for neighbor in self._space.neighbors(task.incumbent)
                    if neighbor not in self._attempted and neighbor not in want
                ]
                if fresh:
                    for neighbor in fresh:
                        want.setdefault(neighbor)
                else:
                    task.done = True
                    changed = True
            if self._bisect(bounds):
                changed = True
            if not changed:
                break
        if not want and self.polish:
            items = list(self._evaluated.items())
            costs = [
                (r.report.onchip_area_mm2, r.report.total_power_mw)
                for _, r in items
            ]
            for index in pareto_indices(costs):
                for neighbor in self._space.neighbors(items[index][0]):
                    if neighbor not in self._attempted:
                        want.setdefault(neighbor)
        self._pending = list(want)

    def _bisect(self, bounds: Tuple[float, float, float, float]) -> bool:
        """Insert chord weights between adjacent converged solutions."""
        done = sorted(
            (task for task in self._tasks if task.done and task.incumbent),
            key=lambda task: task.weight,
        )
        added = False
        for low, high in zip(done, done[1:]):
            first, second = low.incumbent, high.incumbent
            if first == second:
                continue
            segment = frozenset((first, second))
            if segment in self._segments:
                continue
            self._segments.add(segment)
            na1, np1 = self._normalized(self._evaluated[first], bounds)
            na2, np2 = self._normalized(self._evaluated[second], bounds)
            if math.hypot(na1 - na2, np1 - np2) <= self.tolerance:
                continue
            # The chord weight prices both endpoints equally — its
            # minimizer (if any) lies in the gap between them.
            denominator = (na1 - na2) + (np2 - np1)
            if denominator == 0:
                continue
            weight = (np2 - np1) / denominator
            if not (0.0 < weight < 1.0):
                continue
            if self._add_task(weight):
                added = True
        return added
