"""Flow-graph balancing: ordering accesses to minimize bandwidth cost.

Implements the per-body scheduling step of storage cycle budget
distribution (paper §4.5, [12, 17]): pack the body's access occurrences
into the given number of cycles such that dependences are respected and
the *conflict cost* — a weighted count of accesses forced into the same
cycle, which later forces them into different memories or extra ports —
is minimal.

Three seeds are refined and the cheapest wins: a cost-greedy list
schedule in topological order (always feasible when the budget is at
least the critical path), ASAP and ALAP.  Each goes through
iterative-improvement passes (single-occurrence moves and whole-chain
re-placement of a site's occurrences, to a fixpoint), a port-cap repair
that pushes successors right when an offender's window is closed, and
another improvement round.

The search runs on an integer-indexed kernel built once per
:func:`balance` call: occurrence ids, predecessor and successor index
lists, a table of pair costs (``None`` for mutually exclusive pairs), a
same-group co-fire table and int lists of each cycle's residents.  The
label-keyed version it replaced is kept in the tests
(``tests/dtse/scbd_reference.py``), which check that both return the
same schedules.
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

#: Offender moves the port-cap repair tries before it gives up.
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


class _Kernel:
    """One body's occurrences as integers, for one :func:`balance` call.

    Occurrence ``i`` is ``graph.occurrences[i]``.  Exclusivity, group
    weights and port caps are resolved once per pair or occurrence
    instead of once per candidate cycle, and each cycle's residents are
    an int list that sees the same appends and removes, in the same
    order, as the search's moves: the placement cost sums its float
    terms in that order.
    """

    def __init__(
        self,
        graph: BodyFlowGraph,
        budget: int,
        weight_fn: WeightFn,
        cap_fn: PortCapFn,
    ) -> None:
        occurrences = graph.occurrences
        index = {occ.label: i for i, occ in enumerate(occurrences)}
        self.budget = budget
        self.labels = [occ.label for occ in occurrences]
        self.preds = [[index[s] for s in graph.preds[label]] for label in self.labels]
        # Successors keep the graph's iteration order: push_right visits
        # them in it.
        self.succs = [[index[t] for t in graph.succs[label]] for label in self.labels]
        self.topological = [index[occ.label] for occ in graph.topological_order()]
        self.alap = [graph.alap(label, budget) for label in self.labels]
        self.caps = [cap_fn(occ.group) for occ in occurrences]

        # Sites of two or more occurrences, in first-occurrence order,
        # with the dependences that leave the chain.
        sites: Dict[str, List[int]] = {}
        for i, occ in enumerate(occurrences):
            sites.setdefault(occ.site, []).append(i)
        self.chains = [chain for chain in sites.values() if len(chain) >= 2]
        site = [occ.site for occ in occurrences]
        self.outer_preds = [
            [p for p in self.preds[i] if site[p] != site[i]]
            for i in range(len(occurrences))
        ]
        self.outer_succs = [
            [s for s in self.succs[i] if site[s] != site[i]]
            for i in range(len(occurrences))
        ]

        # pair_terms[i][j]: the cost of j's residence in i's cycle, or
        # None when the two never fire together; cofire[i][j]: 1 when j
        # adds to the port demand of i's group.
        tags = sorted({occ.exclusive_class for occ in occurrences})
        tag_of = [tags.index(occ.exclusive_class) for occ in occurrences]
        exclusive = [[are_exclusive(a or None, b or None) for b in tags] for a in tags]
        names = sorted({occ.group for occ in occurrences})
        group_of = [names.index(occ.group) for occ in occurrences]
        weights = [[weight_fn(*sorted((a, b))) for b in names] for a in names]
        expected = [occ.expected for occ in occurrences]
        everyone = range(len(occurrences))
        self.pair_terms: List[List[Optional[float]]] = []
        self.cofire: List[List[int]] = []
        for i in everyone:
            excluded = exclusive[tag_of[i]]
            row_weights = weights[group_of[i]]
            e_i = expected[i]
            terms: List[Optional[float]] = [
                None
                if excluded[tag_of[j]] or j == i
                else e_i * expected[j] * row_weights[group_of[j]]
                for j in everyone
            ]
            self.pair_terms.append(terms)
            self.cofire.append(
                [
                    int(terms[j] is not None and group_of[j] == group_of[i])
                    for j in everyone
                ]
            )

    # ------------------------------------------------------------------
    def residents(self, cycles: List[int]) -> List[List[int]]:
        """Occurrences per cycle, each list in occurrence order."""
        by_cycle: List[List[int]] = [[] for _ in range(self.budget + 1)]
        for i, cycle in enumerate(cycles):
            by_cycle[cycle].append(i)
        return by_cycle

    def placement_cost(self, i: int, members: List[int]) -> float:
        """Conflict cost added by placing ``i`` among ``members``."""
        terms = self.pair_terms[i]
        cofire = self.cofire[i]
        cost = 0.0
        demand = 1
        for j in members:
            term = terms[j]
            if term is not None:
                cost += term
                demand += cofire[j]
        if demand > self.caps[i]:
            cost += PORT_VIOLATION_PENALTY
        return cost

    def demand(self, i: int, members: List[int]) -> int:
        """Same-group accesses of ``members`` that co-fire with ``i``, plus i."""
        cofire = self.cofire[i]
        count = 1
        for j in members:
            count += cofire[j]
        return count

    def window(self, i: int, cycles: List[int]) -> Tuple[int, int]:
        """The cycles ``i`` may move to with its neighbours fixed."""
        earliest = 1
        for p in self.preds[i]:
            if cycles[p] >= earliest:
                earliest = cycles[p] + 1
        latest = self.budget
        for s in self.succs[i]:
            if cycles[s] <= latest:
                latest = cycles[s] - 1
        return earliest, latest

    # ------------------------------------------------------------------
    def seed_greedy(self) -> List[int]:
        """List schedule in topological order, cheapest cycle per node."""
        cycles = [0] * len(self.labels)
        by_cycle: List[List[int]] = [[] for _ in range(self.budget + 1)]
        for i in self.topological:
            earliest = 1
            for p in self.preds[i]:
                if cycles[p] >= earliest:
                    earliest = cycles[p] + 1
            best_cycle = earliest
            best_cost = None
            for cycle in range(earliest, self.alap[i] + 1):
                cost = self.placement_cost(i, by_cycle[cycle])
                if best_cost is None or cost < best_cost:
                    best_cost = cost
                    best_cycle = cycle
                    if cost == 0.0:
                        break
            cycles[i] = best_cycle
            by_cycle[best_cycle].append(i)
        return cycles

    def improve(self, cycles: List[int]) -> None:
        """Occurrence moves plus whole-chain re-placement to a fixpoint."""
        by_cycle = self.residents(cycles)
        # Sinks first: tail occurrences move right into the slack before
        # their predecessors try to, unrolling ASAP-packed jams.
        order = self.topological[::-1]
        for _ in range(IMPROVEMENT_PASSES):
            improved = False
            for i in order:
                current = cycles[i]
                earliest, latest = self.window(i, cycles)
                by_cycle[current].remove(i)
                best_cycle = current
                best_cost = self.placement_cost(i, by_cycle[current])
                for cycle in range(earliest, latest + 1):
                    if cycle == current:
                        continue
                    cost = self.placement_cost(i, by_cycle[cycle])
                    if cost < best_cost - 1e-12:
                        best_cost = cost
                        best_cycle = cycle
                cycles[i] = best_cycle
                by_cycle[best_cycle].append(i)
                if best_cycle != current:
                    improved = True
            for chain in self.chains:
                if self.replace_chain(chain, cycles, by_cycle):
                    improved = True
            if not improved:
                break

    def replace_chain(
        self, chain: List[int], cycles: List[int], by_cycle: List[List[int]]
    ) -> bool:
        """Remove one site's whole chain and re-insert it greedily.

        Returns True (and keeps the new placement) only when the total
        cost strictly improved; otherwise restores the original cycles.
        """
        original = [cycles[i] for i in chain]
        before = 0.0
        for i in chain:
            members = by_cycle[cycles[i]]
            members.remove(i)
            before += self.placement_cost(i, members)
            members.append(i)
        for i in chain:
            by_cycle[cycles[i]].remove(i)

        after = 0.0
        previous = 0
        placed = len(chain)
        last = self.budget - len(chain) + 1
        for index, i in enumerate(chain):
            earliest = previous + 1
            for p in self.outer_preds[i]:
                if cycles[p] >= earliest:
                    earliest = cycles[p] + 1
            latest = last + index
            for s in self.outer_succs[i]:
                if cycles[s] <= latest:
                    latest = cycles[s] - 1
            if earliest > latest:
                placed = index
                break
            best_cycle, best_cost = earliest, None
            for cycle in range(earliest, latest + 1):
                cost = self.placement_cost(i, by_cycle[cycle])
                if best_cost is None or cost < best_cost - 1e-12:
                    best_cost = cost
                    best_cycle = cycle
                    if cost == 0.0:
                        break
            cycles[i] = best_cycle
            by_cycle[best_cycle].append(i)
            after += best_cost
            previous = best_cycle

        if placed == len(chain) and after < before - 1e-9:
            return True
        # Roll back: the re-placed part leaves, then the chain returns in
        # order to its original cycles.
        for i in chain[:placed]:
            by_cycle[cycles[i]].remove(i)
        for i, cycle in zip(chain, original):
            cycles[i] = cycle
            by_cycle[cycle].append(i)
        return False

    def repair(self, cycles: List[int]) -> None:
        """Force port-cap violations out by moving offenders, pushing
        their successors right when the dependence window is closed.

        Local search alone stalls on zero-cost plateaus (a violating
        access cannot move because its successor chain sits tight behind
        it, and the successors see no penalty themselves); the push
        breaks exactly that coupling.
        """
        budget = self.budget
        by_cycle = self.residents(cycles)
        # The offender scan visits cycles in the order they first held
        # an occurrence.
        scan = list(dict.fromkeys(cycles))
        scanned = set(scan)

        def place(i: int, cycle: int) -> None:
            by_cycle[cycles[i]].remove(i)
            cycles[i] = cycle
            by_cycle[cycle].append(i)
            if cycle not in scanned:
                scanned.add(cycle)
                scan.append(cycle)

        def push_right(i: int, depth: int) -> bool:
            """Move ``i`` one cycle later, recursively shoving its
            successors when they block."""
            if depth <= 0:
                return False
            target = cycles[i] + 1
            if target > budget:
                return False
            for s in self.succs[i]:
                if cycles[s] <= target and not push_right(s, depth - 1):
                    return False
            place(i, target)
            return True

        def find_violation() -> Optional[int]:
            for cycle in scan:
                members = by_cycle[cycle]
                for i in members:
                    if self.demand(i, members) > self.caps[i]:
                        return i
            return None

        for _ in range(MAX_REPAIR_MOVES):
            offender = find_violation()
            if offender is None:
                return
            earliest, latest = self.window(offender, cycles)
            # Cheapest violation-free cycle in the open window.
            best_cycle, best_cost = None, None
            current = cycles[offender]
            by_cycle[current].remove(offender)
            cap = self.caps[offender]
            for cycle in range(earliest, latest + 1):
                members = by_cycle[cycle]
                if cycle == current or self.demand(offender, members) > cap:
                    continue
                cost = self.placement_cost(offender, members)
                if best_cost is None or cost < best_cost:
                    best_cost, best_cycle = cost, cycle
            by_cycle[current].append(offender)
            if best_cycle is not None:
                place(offender, best_cycle)
            elif not push_right(offender, depth=24):
                # Window closed and nothing yields: the violation stands
                # (its cost stays penalized).
                return


def balance(
    graph: BodyFlowGraph,
    budget: int,
    weight_fn: WeightFn = _default_weight,
    cap_fn: PortCapFn = _default_cap,
) -> BodySchedule:
    """Schedule one body into ``budget`` cycles minimizing conflict cost.

    Three seeds (cost-greedy, ASAP and ALAP) are refined by
    occurrence-level and chain-level local search, a port-cap repair and
    another local search; the cheapest result wins (the earliest seed on
    a tie).
    """
    graph.check_budget(budget)
    kernel = _Kernel(graph, budget, weight_fn, cap_fn)
    labels = kernel.labels
    in_order = range(len(labels))
    best_schedule: Optional[BodySchedule] = None
    best_cost = float("inf")
    # The assignment's key order is the seed's (topological for the
    # greedy seed, occurrence order for the others): cost() and the
    # conflict graph sum their floats in it.
    for key_order, cycles in (
        (kernel.topological, kernel.seed_greedy()),
        (in_order, [graph.asap(label) for label in labels]),
        (in_order, list(kernel.alap)),
    ):
        kernel.improve(cycles)
        kernel.repair(cycles)
        kernel.improve(cycles)
        schedule = BodySchedule(
            graph=graph,
            budget=budget,
            assignment={labels[i]: cycles[i] for i in key_order},
        )
        cost = schedule.cost(weight_fn, cap_fn)
        if cost < best_cost:
            best_cost = cost
            best_schedule = schedule
    assert best_schedule is not None
    best_schedule.verify()
    return best_schedule
