"""Reference SCBD: the label-keyed scheduler the indexed kernel replaced.

A copy, comments aside, of the body balancer (seeds, local search,
chain re-placement, port-cap repair and ``balance``), of the eager
budget distributor that re-balanced every body in every round, and of
the per-slot port-demand query with its branch-and-bound clique search
(``max_cofire``), as they stood before the fast path, and
of ``BodySchedule.cost``, ``conflict_pairs`` and the conflict graph's
edge sums as they stood before exclusivity was resolved once per tag
pair.  Only tests import it: ``test_scbd_reference.py`` checks that the
fast path in ``repro.dtse.scbd`` returns exactly what this module
returns (the same assignments in the same key order, the same float
costs, the same body budgets and conflict edges), because tie-breaking
here decides the golden files.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dtse.scbd.balancing import (
    PORT_VIOLATION_PENALTY,
    BodySchedule,
    PortCapFn,
    WeightFn,
    _default_cap,
    _default_weight,
)
from repro.dtse.scbd.conflict import ConcurrencySlot, ConflictGraph
from repro.dtse.scbd.distribution import BudgetDistribution
from repro.dtse.scbd.flowgraph import BodyFlowGraph, InfeasibleBudget, Occurrence
from repro.ir.loops import are_exclusive
from repro.ir.program import Program

IMPROVEMENT_PASSES = 5
MAX_REPAIR_MOVES = 400


# ----------------------------------------------------------------------
# BodySchedule's cost, kept here so the reference never runs fast code
# ----------------------------------------------------------------------
def schedule_cycles(schedule: BodySchedule) -> Dict[int, List[Occurrence]]:
    by_cycle: Dict[int, List[Occurrence]] = {}
    for label, cycle in schedule.assignment.items():
        by_cycle.setdefault(cycle, []).append(schedule.graph.occurrence(label))
    return by_cycle


def schedule_conflict_pairs(schedule: BodySchedule):
    for members in schedule_cycles(schedule).values():
        for i, first in enumerate(members):
            for second in members[i + 1 :]:
                if are_exclusive(
                    first.exclusive_class or None,
                    second.exclusive_class or None,
                ):
                    continue
                a, b = sorted((first.group, second.group))
                yield a, b, (first.expected * second.expected * schedule.iterations)


def schedule_cost(
    schedule: BodySchedule,
    weight_fn: WeightFn = _default_weight,
    cap_fn: PortCapFn = _default_cap,
) -> float:
    total = sum(
        weight * weight_fn(a, b) for a, b, weight in schedule_conflict_pairs(schedule)
    )
    for members in schedule_cycles(schedule).values():
        total += _violation_cost(members, cap_fn)
    return total


def conflict_edges(schedules: Iterable[BodySchedule]) -> Dict[Tuple[str, str], float]:
    edges: Dict[Tuple[str, str], float] = {}
    for schedule in schedules:
        for a, b, weight in schedule_conflict_pairs(schedule):
            key = (a, b)
            edges[key] = edges.get(key, 0.0) + weight
    return edges


# ----------------------------------------------------------------------
# The balancer
# ----------------------------------------------------------------------
def _cofire_count(occurrence: Occurrence, members: List[Occurrence]) -> int:
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
    cost = 0.0
    members = by_cycle.get(cycle, [])
    for other in members:
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
    return {occ.label: graph.asap(occ.label) for occ in graph.occurrences}


def _seed_alap(graph: BodyFlowGraph, budget: int) -> Dict[str, int]:
    return {occ.label: graph.alap(occ.label, budget) for occ in graph.occurrences}


def _improve(
    graph: BodyFlowGraph,
    budget: int,
    assignment: Dict[str, int],
    weight_fn: WeightFn,
    cap_fn: PortCapFn,
) -> Dict[str, int]:
    by_cycle: Dict[int, List[Occurrence]] = {}
    for occurrence in graph.occurrences:
        by_cycle.setdefault(assignment[occurrence.label], []).append(occurrence)

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
                cost = _placement_cost(occurrence, cycle, by_cycle, weight_fn, cap_fn)
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
        return _cofire_count(occurrence, members) <= cap_fn(occurrence.group)

    def push_right(occurrence: Occurrence, depth: int) -> bool:
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
            moved = push_right(offender, depth=24)
        if not moved:
            return


def balance(
    graph: BodyFlowGraph,
    budget: int,
    weight_fn: WeightFn = _default_weight,
    cap_fn: PortCapFn = _default_cap,
) -> BodySchedule:
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
        cost = schedule_cost(schedule, weight_fn, cap_fn)
        if cost < best_cost:
            best_cost = cost
            best_schedule = schedule
    assert best_schedule is not None
    best_schedule.verify()
    return best_schedule


def _site_chains(graph: BodyFlowGraph) -> Dict[str, List[str]]:
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
    for occurrence in occurrences:
        current = assignment[occurrence.label]
        if occurrence in by_cycle.get(current, []):
            by_cycle[current].remove(occurrence)
    for occurrence in occurrences:
        cycle = original[occurrence.label]
        assignment[occurrence.label] = cycle
        by_cycle.setdefault(cycle, []).append(occurrence)
    return False


# ----------------------------------------------------------------------
# The eager distributor
# ----------------------------------------------------------------------
def distribute(
    program: Program,
    cycle_budget: float,
    weight_fn: WeightFn = _default_weight,
    cap_fn: PortCapFn = _default_cap,
) -> BudgetDistribution:
    graphs = {nest.name: BodyFlowGraph(nest) for nest in program.nests}
    budgets = {name: graph.macp for name, graph in graphs.items()}
    used = sum(budgets[name] * graphs[name].iterations for name in graphs)
    if used > cycle_budget:
        raise InfeasibleBudget(
            f"program {program.name!r}: dependence-limited minimum "
            f"{used:,.0f} cycles exceeds budget {cycle_budget:,.0f}"
        )

    schedules = {
        name: balance(graph, budgets[name], weight_fn, cap_fn)
        for name, graph in graphs.items()
    }
    costs = {name: schedule_cost(schedules[name], weight_fn, cap_fn) for name in graphs}

    progress = True
    while progress:
        progress = False
        violating = sorted(
            (name for name in graphs if costs[name] >= PORT_VIOLATION_PENALTY),
            key=lambda name: graphs[name].iterations,
        )
        for name in violating:
            graph = graphs[name]
            spare = cycle_budget - used
            if budgets[name] >= graph.sequential_length:
                continue
            if graph.iterations > spare:
                continue
            candidate = balance(graph, budgets[name] + 1, weight_fn, cap_fn)
            if schedule_cost(candidate, weight_fn, cap_fn) < costs[name] - 1e-9:
                budgets[name] += 1
                schedules[name] = candidate
                costs[name] = schedule_cost(candidate, weight_fn, cap_fn)
                used += graph.iterations
                progress = True
                break

    while True:
        best_name: Optional[str] = None
        best_gain = 0.0
        best_schedule: Optional[BodySchedule] = None
        spare = cycle_budget - used
        for name, graph in graphs.items():
            if budgets[name] >= graph.sequential_length:
                continue
            if graph.iterations > spare:
                continue
            candidate = balance(graph, budgets[name] + 1, weight_fn, cap_fn)
            gain = (
                costs[name] - schedule_cost(candidate, weight_fn, cap_fn)
            ) / graph.iterations
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_name = name
                best_schedule = candidate
        if best_name is None or best_schedule is None:
            break
        budgets[best_name] += 1
        schedules[best_name] = best_schedule
        costs[best_name] = schedule_cost(best_schedule, weight_fn, cap_fn)
        used += graphs[best_name].iterations

    return BudgetDistribution(
        program_name=program.name,
        cycle_budget=cycle_budget,
        budgets=budgets,
        schedules=schedules,
        conflict_graph=ConflictGraph.from_schedules(schedules.values()),
    )


# ----------------------------------------------------------------------
# The per-slot port-demand query
# ----------------------------------------------------------------------
def max_cofire(tags: Sequence[str]) -> int:
    items = list(tags)
    best = 0

    def extend(chosen: List[str], remaining: List[str]) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for index, tag in enumerate(remaining):
            if len(chosen) + len(remaining) - index <= best:
                return
            if all(not are_exclusive(tag or None, c or None) for c in chosen):
                extend(chosen + [tag], remaining[index + 1 :])

    extend([], items)
    return best


def demand_for(slot: ConcurrencySlot, groups: Iterable[str]) -> int:
    members = set(groups)
    tags = [tag for group, tag in slot.entries if group in members]
    if len(tags) <= 1:
        return len(tags)
    return max_cofire(tags)


def ports_for(conflicts: ConflictGraph, groups: Iterable[str]) -> int:
    members = tuple(groups)
    peak = 1
    for slot in conflicts.slots:
        peak = max(peak, demand_for(slot, members))
    return peak
