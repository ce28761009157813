"""Flow-graph balancing: ordering accesses to minimize bandwidth cost.

Implements the per-body scheduling step of storage cycle budget
distribution (paper §4.5, [12, 17]): pack the body's access occurrences
into the given number of cycles such that dependences are respected and
the *conflict cost* — a weighted count of accesses forced into the same
cycle, which later forces them into different memories or extra ports —
is minimal.

The scheduler is a list scheduler in topological order (always feasible
when the budget is at least the critical path) followed by
iterative-improvement passes that move single occurrences to cheaper
cycles until a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ...ir.loops import are_exclusive
from .flowgraph import BodyFlowGraph, Occurrence

#: Relative penalty of putting groups a and b in the same cycle.
WeightFn = Callable[[str, str], float]

#: Maximum simultaneous accesses one group's memory can serve.
PortCapFn = Callable[[str], int]

#: Cost of exceeding a group's port cap; large but finite so the budget
#: distributor can see the gain from relaxing the offending body.
PORT_VIOLATION_PENALTY = 1e9

#: Most local-search sweeps one refinement in :func:`balance` makes; a
#: sweep that moves nothing ends the search earlier.
IMPROVEMENT_PASSES = 5

#: Offender moves :func:`_repair` tries before it gives up.
MAX_REPAIR_MOVES = 400


def _default_weight(group_a: str, group_b: str) -> float:
    return 1.0


def _default_cap(group: str) -> int:
    return 2


@dataclass
class BodySchedule:
    """A legal cycle assignment for one loop body."""

    graph: BodyFlowGraph
    budget: int
    assignment: Dict[str, int]

    @property
    def nest_name(self) -> str:
        return self.graph.nest_name

    @property
    def iterations(self) -> float:
        return self.graph.iterations

    def cycles(self) -> Dict[int, List[Occurrence]]:
        """Occurrences grouped by their scheduled cycle."""
        by_cycle: Dict[int, List[Occurrence]] = {}
        for label, cycle in self.assignment.items():
            by_cycle.setdefault(cycle, []).append(self.graph.occurrence(label))
        return by_cycle

    def conflict_pairs(self) -> Iterator[Tuple[str, str, float]]:
        """(group_a, group_b, traffic weight) for every same-cycle pair.

        ``group_a <= group_b``; equal groups indicate a self-conflict
        (the group needs a second port).  The weight is the expected
        number of co-occurrences over the whole nest.
        """
        for members in self.cycles().values():
            for i, first in enumerate(members):
                for second in members[i + 1 :]:
                    if are_exclusive(
                        first.exclusive_class or None,
                        second.exclusive_class or None,
                    ):
                        continue  # never simultaneous: no conflict
                    a, b = sorted((first.group, second.group))
                    yield a, b, (
                        first.expected * second.expected * self.iterations
                    )

    def cost(
        self,
        weight_fn: WeightFn = _default_weight,
        cap_fn: PortCapFn = _default_cap,
    ) -> float:
        """Total weighted conflict cost, including port-cap violations."""
        total = sum(
            weight * weight_fn(a, b) for a, b, weight in self.conflict_pairs()
        )
        for members in self.cycles().values():
            total += _violation_cost(members, cap_fn)
        return total

    def verify(self) -> None:
        """Assert dependence and budget legality (used by tests)."""
        for label, cycle in self.assignment.items():
            if not 1 <= cycle <= self.budget:
                raise AssertionError(f"{label} scheduled outside budget")
            for source in self.graph.preds[label]:
                if self.assignment[source] >= cycle:
                    raise AssertionError(
                        f"dependence {source} -> {label} violated"
                    )


def _cofire_count(occurrence: Occurrence, members: List[Occurrence]) -> int:
    """Same-group accesses that can fire together with ``occurrence``."""
    count = 1
    for other in members:
        if other.group != occurrence.group:
            continue
        if are_exclusive(
            occurrence.exclusive_class or None, other.exclusive_class or None
        ):
            continue
        count += 1
    return count


def _violation_cost(members: List[Occurrence], cap_fn: PortCapFn) -> float:
    """Penalty for same-cycle, same-group demand beyond the port cap."""
    cost = 0.0
    for index, occurrence in enumerate(members):
        others = members[:index]
        demand = _cofire_count(occurrence, others)
        cap = cap_fn(occurrence.group)
        if demand > cap:
            cost += PORT_VIOLATION_PENALTY
    return cost


def _placement_cost(
    occurrence: Occurrence,
    cycle: int,
    by_cycle: Dict[int, List[Occurrence]],
    weight_fn: WeightFn,
    cap_fn: PortCapFn,
) -> float:
    """Conflict cost added by placing ``occurrence`` into ``cycle``."""
    cost = 0.0
    members = by_cycle.get(cycle, [])
    for other in members:  # pairs with current residents
        if are_exclusive(
            occurrence.exclusive_class or None, other.exclusive_class or None
        ):
            continue
        a, b = sorted((occurrence.group, other.group))
        cost += occurrence.expected * other.expected * weight_fn(a, b)
    demand = _cofire_count(occurrence, members)
    if demand > cap_fn(occurrence.group):
        cost += PORT_VIOLATION_PENALTY
    return cost


def _seed_greedy(
    graph: BodyFlowGraph,
    budget: int,
    weight_fn: WeightFn,
    cap_fn: PortCapFn,
) -> Dict[str, int]:
    """List schedule in topological order, cheapest cycle per node."""
    assignment: Dict[str, int] = {}
    by_cycle: Dict[int, List[Occurrence]] = {}
    for occurrence in graph.topological_order():
        earliest = 1
        for source in graph.preds[occurrence.label]:
            earliest = max(earliest, assignment[source] + 1)
        latest = graph.alap(occurrence.label, budget)
        best_cycle = earliest
        best_cost = None
        for cycle in range(earliest, latest + 1):
            cost = _placement_cost(occurrence, cycle, by_cycle, weight_fn, cap_fn)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_cycle = cycle
                if cost == 0.0:
                    break
        assignment[occurrence.label] = best_cycle
        by_cycle.setdefault(best_cycle, []).append(occurrence)
    return assignment

def _seed_asap(graph: BodyFlowGraph) -> Dict[str, int]:
    """Everything as early as dependences allow (dense left packing).

    Leaves the tail of the budget empty so the improvement passes have
    room to spread the long walks — the cost-greedy seed tends to
    starve them instead.
    """
    return {occ.label: graph.asap(occ.label) for occ in graph.occurrences}

def _seed_alap(graph: BodyFlowGraph, budget: int) -> Dict[str, int]:
    """Everything as late as dependences allow.

    Chains of different lengths end together but *start* staggered, so
    wide fan-ins (stencils feeding one consumer) spread across cycles
    instead of jamming into cycle one.
    """
    return {
        occ.label: graph.alap(occ.label, budget) for occ in graph.occurrences
    }

def _improve(
    graph: BodyFlowGraph,
    budget: int,
    assignment: Dict[str, int],
    weight_fn: WeightFn,
    cap_fn: PortCapFn,
) -> Dict[str, int]:
    """Occurrence moves plus whole-chain re-placement to a fixpoint."""
    by_cycle: Dict[int, List[Occurrence]] = {}
    for occurrence in graph.occurrences:
        by_cycle.setdefault(assignment[occurrence.label], []).append(occurrence)

    # Sinks first: tail occurrences move right into the slack before
    # their predecessors try to, unrolling ASAP-packed jams.
    order = list(reversed(graph.topological_order()))
    for _ in range(IMPROVEMENT_PASSES):
        improved = False
        for occurrence in order:
            label = occurrence.label
            current = assignment[label]
            earliest = 1
            for source in graph.preds[label]:
                earliest = max(earliest, assignment[source] + 1)
            latest = budget
            for target in graph.succs[label]:
                latest = min(latest, assignment[target] - 1)
            by_cycle[current].remove(occurrence)
            here = _placement_cost(occurrence, current, by_cycle, weight_fn, cap_fn)
            best_cycle, best_cost = current, here
            for cycle in range(earliest, latest + 1):
                if cycle == current:
                    continue
                cost = _placement_cost(
                    occurrence, cycle, by_cycle, weight_fn, cap_fn
                )
                if cost < best_cost - 1e-12:
                    best_cost = cost
                    best_cycle = cycle
            assignment[label] = best_cycle
            by_cycle.setdefault(best_cycle, []).append(occurrence)
            if best_cycle != current:
                improved = True
        for labels in _site_chains(graph).values():
            if len(labels) < 2:
                continue
            if _replace_chain(
                graph, budget, labels, assignment, by_cycle, weight_fn, cap_fn
            ):
                improved = True
        if not improved:
            break
    return assignment

def _find_violation(
    by_cycle: Dict[int, List[Occurrence]], cap_fn: PortCapFn
) -> Optional[Occurrence]:
    """An occurrence exceeding its group's port cap, or None."""
    for members in by_cycle.values():
        for index, occurrence in enumerate(members):
            others = members[:index] + members[index + 1 :]
            if _cofire_count(occurrence, others) > cap_fn(occurrence.group):
                return occurrence
    return None


def _repair(
    graph: BodyFlowGraph,
    budget: int,
    assignment: Dict[str, int],
    weight_fn: WeightFn,
    cap_fn: PortCapFn,
) -> None:
    """Force port-cap violations out by moving offenders, pushing their
    successors right when the dependence window is closed.

    Local search alone stalls on zero-cost plateaus (a violating access
    cannot move because its successor chain sits tight behind it, and
    the successors see no penalty themselves); the push breaks exactly
    that coupling.
    """
    by_cycle: Dict[int, List[Occurrence]] = {}
    for occurrence in graph.occurrences:
        by_cycle.setdefault(assignment[occurrence.label], []).append(occurrence)

    def window(label: str):
        earliest = 1
        for source in graph.preds[label]:
            earliest = max(earliest, assignment[source] + 1)
        latest = budget
        for target in graph.succs[label]:
            latest = min(latest, assignment[target] - 1)
        return earliest, latest

    def place(occurrence: Occurrence, cycle: int) -> None:
        by_cycle[assignment[occurrence.label]].remove(occurrence)
        assignment[occurrence.label] = cycle
        by_cycle.setdefault(cycle, []).append(occurrence)

    def violation_free(occurrence: Occurrence, cycle: int) -> bool:
        members = by_cycle.get(cycle, [])
        if _cofire_count(occurrence, members) > cap_fn(occurrence.group):
            return False
        # The residents must stay legal too (the newcomer may complete
        # a clique among them only via itself, checked above).
        return True

    def push_right(occurrence: Occurrence, depth: int) -> bool:
        """Move ``occurrence`` one cycle later, recursively shoving its
        successors when they block."""
        if depth <= 0:
            return False
        target_cycle = assignment[occurrence.label] + 1
        if target_cycle > budget:
            return False
        for succ_label in graph.succs[occurrence.label]:
            if assignment[succ_label] <= target_cycle:
                successor = graph.occurrence(succ_label)
                if not push_right(successor, depth - 1):
                    return False
        place(occurrence, target_cycle)
        return True

    for _ in range(MAX_REPAIR_MOVES):
        offender = _find_violation(by_cycle, cap_fn)
        if offender is None:
            return
        earliest, latest = window(offender.label)
        moved = False
        # Cheapest violation-free cycle in the open window.
        best_cycle, best_cost = None, None
        current = assignment[offender.label]
        by_cycle[current].remove(offender)
        for cycle in range(earliest, latest + 1):
            if cycle == current or not violation_free(offender, cycle):
                continue
            cost = _placement_cost(offender, cycle, by_cycle, weight_fn, cap_fn)
            if best_cost is None or cost < best_cost:
                best_cost, best_cycle = cost, cycle
        by_cycle[current].append(offender)
        if best_cycle is not None:
            place(offender, best_cycle)
            moved = True
        else:
            # Window closed: shove the successor chain right to open it.
            moved = push_right(offender, depth=24)
        if not moved:
            return  # give up; the violation stands (cost stays penalized)


def balance(
    graph: BodyFlowGraph,
    budget: int,
    weight_fn: WeightFn = _default_weight,
    cap_fn: PortCapFn = _default_cap,
) -> BodySchedule:
    """Schedule one body into ``budget`` cycles minimizing conflict cost.

    Two seeds (cost-greedy and ASAP) are refined by occurrence-level and
    chain-level local search; the cheaper result wins.
    """
    graph.check_budget(budget)
    best_schedule: Optional[BodySchedule] = None
    best_cost = float("inf")
    for seed in (
        _seed_greedy(graph, budget, weight_fn, cap_fn),
        _seed_asap(graph),
        _seed_alap(graph, budget),
    ):
        refined = _improve(graph, budget, dict(seed), weight_fn, cap_fn)
        _repair(graph, budget, refined, weight_fn, cap_fn)
        refined = _improve(graph, budget, refined, weight_fn, cap_fn)
        schedule = BodySchedule(graph=graph, budget=budget, assignment=refined)
        cost = schedule.cost(weight_fn, cap_fn)
        if cost < best_cost:
            best_cost = cost
            best_schedule = schedule
    assert best_schedule is not None
    best_schedule.verify()
    return best_schedule


def _site_chains(graph: BodyFlowGraph) -> Dict[str, List[str]]:
    """Occurrence labels per site, in chain order."""
    chains: Dict[str, List[str]] = {}
    for occurrence in graph.occurrences:
        chains.setdefault(occurrence.site, []).append(occurrence.label)
    return chains


def _replace_chain(
    graph: BodyFlowGraph,
    budget: int,
    labels: List[str],
    assignment: Dict[str, int],
    by_cycle: Dict[int, List[Occurrence]],
    weight_fn: WeightFn,
    cap_fn: PortCapFn,
) -> bool:
    """Remove one site's whole chain and re-insert it greedily.

    Returns True (and keeps the new placement) only when the total cost
    strictly improved; otherwise restores the original cycles.
    """
    occurrences = [graph.occurrence(label) for label in labels]
    original = {label: assignment[label] for label in labels}
    chain_set = set(labels)

    def placement_sum() -> float:
        total = 0.0
        for occurrence in occurrences:
            cycle = assignment[occurrence.label]
            by_cycle[cycle].remove(occurrence)
            total += _placement_cost(occurrence, cycle, by_cycle, weight_fn, cap_fn)
            by_cycle[cycle].append(occurrence)
        return total

    before = placement_sum()
    for occurrence in occurrences:
        by_cycle[assignment[occurrence.label]].remove(occurrence)

    after = 0.0
    previous = 0
    feasible = True
    for index, occurrence in enumerate(occurrences):
        earliest = previous + 1
        for source in graph.preds[occurrence.label]:
            if source not in chain_set:
                earliest = max(earliest, assignment[source] + 1)
        latest = budget - (len(occurrences) - index - 1)
        for target in graph.succs[occurrence.label]:
            if target not in chain_set:
                latest = min(latest, assignment[target] - 1)
        if earliest > latest:
            feasible = False
            break
        best_cycle, best_cost = earliest, None
        for cycle in range(earliest, latest + 1):
            cost = _placement_cost(occurrence, cycle, by_cycle, weight_fn, cap_fn)
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost = cost
                best_cycle = cycle
                if cost == 0.0:
                    break
        assignment[occurrence.label] = best_cycle
        by_cycle.setdefault(best_cycle, []).append(occurrence)
        after += best_cost or 0.0
        previous = best_cycle

    if feasible and after < before - 1e-9:
        return True
    # Roll back to the original placement.
    for occurrence in occurrences:
        current = assignment[occurrence.label]
        if occurrence in by_cycle.get(current, []):
            by_cycle[current].remove(occurrence)
    for occurrence in occurrences:
        cycle = original[occurrence.label]
        assignment[occurrence.label] = cycle
        by_cycle.setdefault(cycle, []).append(occurrence)
    return False
