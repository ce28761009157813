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

The search runs on an integer-indexed kernel.  Its budget-independent
tables (occurrence ids, predecessor and successor index lists, site
chains, port caps, a table of pair costs with 0.0 for mutually
exclusive pairs, and a same-group co-fire table) are built once per
flow graph and set of weight and cap values, and the graph holds them
(``BodyFlowGraph.kernel_tables``); a :func:`balance` call adds only its
budget, the ALAP cycles and int lists of each cycle's residents.  The
search prices nothing that cannot win: an occurrence whose window is
its own cycle, the rest of a scan once a cycle costs nothing (when no
term is negative), and a chain whose re-insertion could only put it
back or can no longer beat its current cost.  A schedule's cost is
summed over the same tables (:meth:`_Tables.schedule_cost`), by
:func:`balance` for each refined seed and by :meth:`BodySchedule.cost`;
only the winning seed becomes a :class:`BodySchedule`.  The label-keyed
version the kernel replaced, with its per-pair cost, is kept in the
tests (``tests/dtse/scbd_reference.py``), which check that both return
the same schedules and costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

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
    #: :meth:`cost` under the weight and cap functions :func:`balance`
    #: was given, which it computed while choosing this schedule; None
    #: for a schedule made otherwise.
    balanced_cost: Optional[float] = field(
        default=None, init=False, compare=False, repr=False
    )

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
        iterations = self.iterations
        exclusive: Dict[Tuple[str, str], bool] = {}
        for members in self.cycles().values():
            for i, first in enumerate(members):
                group = first.group
                tag = first.exclusive_class
                expected = first.expected
                for second in members[i + 1 :]:
                    if _exclusive(tag, second.exclusive_class, exclusive):
                        continue  # never simultaneous: no conflict
                    other = second.group
                    weight = expected * second.expected * iterations
                    if other < group:
                        yield other, group, weight
                    else:
                        yield group, other, weight

    def cost(
        self,
        weight_fn: WeightFn = _default_weight,
        cap_fn: PortCapFn = _default_cap,
    ) -> float:
        """Total weighted conflict cost, including port-cap violations.

        Summed over the graph's held kernel tables in the assignment's
        key order, as :func:`balance` sums it for the schedule it picks.
        """
        tables = _tables(self.graph, weight_fn, cap_fn)
        index = {label: i for i, label in enumerate(tables.labels)}
        return tables.schedule_cost(
            (index[label], cycle) for label, cycle in self.assignment.items()
        )

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


def _exclusive(tag_a: str, tag_b: str, memo: Dict[Tuple[str, str], bool]) -> bool:
    """:func:`are_exclusive` on two occurrence tags, once per pair per memo.

    An empty tag co-fires with everything, and so does an equal one.
    """
    if not tag_a or not tag_b or tag_a == tag_b:
        return False
    key = (tag_a, tag_b)
    exclusive = memo.get(key)
    if exclusive is None:
        exclusive = memo[key] = are_exclusive(tag_a, tag_b)
    return exclusive


class _Tables:
    """One body's budget-independent kernel tables, for one set of values
    of the weight and cap functions.

    Occurrence ``i`` is ``graph.occurrences[i]``.  Exclusivity, group
    weights and port caps are resolved once per pair or occurrence
    instead of once per candidate cycle.  :func:`_tables` builds them at
    most once per flow graph and set of values, and the graph holds them
    as long as it lives.  Pricing terms are shared per occurrence class
    (exclusive-class tag, group, expected accesses): every pair of two
    classes holds one float object.
    """

    def __init__(
        self,
        graph: BodyFlowGraph,
        names: List[str],
        weights: Tuple[float, ...],
        caps: Tuple[int, ...],
    ) -> None:
        occurrences = graph.occurrences
        index = {occ.label: i for i, occ in enumerate(occurrences)}
        self.labels = [occ.label for occ in occurrences]
        self.preds = [[index[s] for s in graph.preds[label]] for label in self.labels]
        # Successors keep the graph's iteration order: push_right visits
        # them in it.
        self.succs = [[index[t] for t in graph.succs[label]] for label in self.labels]
        self.topological = [index[occ.label] for occ in graph.topological_order()]
        self.asap = [graph.asap(label) for label in self.labels]
        #: The latest cycles under a budget of 0; a kernel adds its budget.
        self.alap_at_zero = [graph.alap(label, 0) for label in self.labels]
        self.iterations = graph.iterations

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

        # weights[a][b]: weight_fn's value for the groups named a and b,
        # in name order; the flat tuple holds each pair a <= b once.
        pair_weights = iter(weights)
        self.weights: List[List[float]] = [[0.0] * len(names) for _ in names]
        for a in range(len(names)):
            for b in range(a, len(names)):
                self.weights[a][b] = self.weights[b][a] = next(pair_weights)
        group = {name: k for k, name in enumerate(names)}
        self.group_of = [group[occ.group] for occ in occurrences]
        self.caps = [caps[k] for k in self.group_of]
        tags = sorted({occ.exclusive_class for occ in occurrences})
        self.tag_of = [tags.index(occ.exclusive_class) for occ in occurrences]
        self.exclusive = [
            [are_exclusive(a or None, b or None) for b in tags] for a in tags
        ]
        self.expected = [occ.expected for occ in occurrences]

        # pair_terms[i][j]: the cost of j's residence in i's cycle, 0.0
        # when the two never fire together or j is i; cofire[i][j]: 1
        # when j adds to the port demand of i's group.
        classes: Dict[Tuple[int, int, float], int] = {}
        class_of = [
            classes.setdefault((t, g, e), len(classes))
            for t, g, e in zip(self.tag_of, self.group_of, self.expected)
        ]
        class_terms = [
            [
                0.0 if self.exclusive[t][u] else e * f * self.weights[g][h]
                for u, h, f in classes
            ]
            for t, g, e in classes
        ]
        #: Whether a pricing term is negative: only then can a placement
        #: cost fall below 0.0.
        self.negative = any(term < 0 for row in class_terms for term in row)
        # An occurrence's rows are its class's, but for the diagonal.
        tags_and_groups = list(zip(self.tag_of, self.group_of))
        templates = []
        for (t, g, _), row in zip(classes, class_terms):
            excluded = self.exclusive[t]
            terms = [row[d] for d in class_of]
            cofire = [int(h == g and not excluded[u]) for u, h in tags_and_groups]
            templates.append((terms, cofire))
        self.pair_terms: List[List[float]] = []
        self.cofire: List[List[int]] = []
        for i, c in enumerate(class_of):
            terms, cofire = templates[c]
            self.pair_terms.append(terms[:])
            self.cofire.append(cofire[:])
            self.pair_terms[i][i] = 0.0
            self.cofire[i][i] = 0

    def schedule_cost(self, placed: Iterable[Tuple[int, int]]) -> float:
        """Conflict cost of occurrences placed at ``(index, cycle)`` pairs.

        One ``sum()`` over each same-cycle pair's
        ``expected * expected * iterations * weight``, the cycles in
        first-placement order and their residents in ``placed`` order,
        then each cycle's port-cap penalties: an access whose same-group
        demand, counting itself and the earlier residents that can fire
        with it, exceeds its cap costs :data:`PORT_VIOLATION_PENALTY`.
        """
        by_cycle: Dict[int, List[int]] = {}
        for i, cycle in placed:
            by_cycle.setdefault(cycle, []).append(i)
        total = sum(self._conflict_terms(by_cycle))
        for members in by_cycle.values():
            cost = 0.0
            for index, i in enumerate(members):
                cofire = self.cofire[i]
                demand = 1 + sum(cofire[j] for j in members[:index])
                if demand > self.caps[i]:
                    cost += PORT_VIOLATION_PENALTY
            total += cost
        return total

    def _conflict_terms(self, by_cycle: Dict[int, List[int]]) -> Iterator[float]:
        iterations = self.iterations
        expected, tag_of, group_of = self.expected, self.tag_of, self.group_of
        for members in by_cycle.values():
            for index, i in enumerate(members):
                excluded = self.exclusive[tag_of[i]]
                weights = self.weights[group_of[i]]
                e_i = expected[i]
                for j in members[index + 1 :]:
                    if not excluded[tag_of[j]]:
                        yield e_i * expected[j] * iterations * weights[group_of[j]]


def _tables(graph: BodyFlowGraph, weight_fn: WeightFn, cap_fn: PortCapFn) -> _Tables:
    """The graph's held kernel tables for these weight and cap values.

    Keyed by the values over the body's groups, not by the functions:
    the oracle makes fresh closures for every point.
    """
    names = sorted({occ.group for occ in graph.occurrences})
    weights = tuple(weight_fn(a, b) for k, a in enumerate(names) for b in names[k:])
    caps = tuple(cap_fn(name) for name in names)
    key = (weights, caps)
    tables = graph.kernel_tables.get(key)
    if tables is None:
        tables = graph.kernel_tables[key] = _Tables(graph, names, weights, caps)
    return tables


class _Kernel:
    """One :func:`balance` call's search over a body's held tables.

    Only the budget and the ALAP cycles are the call's own.  Each
    cycle's residents are an int list that sees the same appends and
    removes, in the same order, as the search's moves: the placement
    cost sums its float terms in that order.
    """

    def __init__(
        self,
        graph: BodyFlowGraph,
        budget: int,
        weight_fn: WeightFn,
        cap_fn: PortCapFn,
    ) -> None:
        tables = _tables(graph, weight_fn, cap_fn)
        self.tables = tables
        self.budget = budget
        self.alap = [budget + latest for latest in tables.alap_at_zero]
        self.labels = tables.labels
        self.preds = tables.preds
        self.succs = tables.succs
        self.topological = tables.topological
        self.chains = tables.chains
        self.outer_preds = tables.outer_preds
        self.outer_succs = tables.outer_succs
        self.caps = tables.caps
        self.pair_terms = tables.pair_terms
        self.cofire = tables.cofire

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
            cost += terms[j]
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
        # Without a negative term no cost is below 0.0, so a best cost
        # within 1e-12 of it cannot be beaten and ends the scan.
        floor = float("-inf") if self.tables.negative else 0.0
        for _ in range(IMPROVEMENT_PASSES):
            improved = False
            for i in order:
                current = cycles[i]
                earliest, latest = self.window(i, cycles)
                members = by_cycle[current]
                members.remove(i)
                if earliest == latest:
                    # The window is the occurrence's own cycle: it stays,
                    # at the end of the cycle's residents.
                    members.append(i)
                    continue
                best_cycle = current
                best_cost = self.placement_cost(i, members)
                if best_cost - 1e-12 > floor:
                    for cycle in range(earliest, latest + 1):
                        if cycle == current:
                            continue
                        cost = self.placement_cost(i, by_cycle[cycle])
                        if cost < best_cost - 1e-12:
                            best_cost = cost
                            best_cycle = cycle
                            if cost - 1e-12 <= floor:
                                break
                cycles[i] = best_cycle
                by_cycle[best_cycle].append(i)
                if best_cycle != current:
                    improved = True
            for chain in self.chains:
                if self.replace_chain(chain, cycles, by_cycle):
                    improved = True
            if not improved:
                break

    def chain_window(
        self, i: int, earliest: int, latest: int, cycles: List[int]
    ) -> Tuple[int, int]:
        """``earliest..latest`` narrowed by ``i``'s dependences off its chain."""
        for p in self.outer_preds[i]:
            if cycles[p] >= earliest:
                earliest = cycles[p] + 1
        for s in self.outer_succs[i]:
            if cycles[s] <= latest:
                latest = cycles[s] - 1
        return earliest, latest

    def replace_chain(
        self, chain: List[int], cycles: List[int], by_cycle: List[List[int]]
    ) -> bool:
        """Remove one site's whole chain and re-insert it greedily.

        Returns True (and keeps the new placement) only when the total
        cost strictly improved; otherwise restores the original cycles.

        The chain is a dependence chain, so in a legal schedule each of
        its occurrences has a cycle of its own.  An occurrence whose
        re-insertion window is just its original cycle goes back there
        among the same residents in the same order, at the cost it has
        now, so it is not priced again.
        """
        original = [cycles[i] for i in chain]
        last = self.budget - len(chain) + 1
        previous = 0
        for index, i in enumerate(chain):
            cycle = original[index]
            window = self.chain_window(i, previous + 1, last + index, cycles)
            if window != (cycle, cycle):
                break
            previous = cycle
        else:
            # Every occurrence would return to its cycle: no gain.  Only
            # the roll-back's reordering happens, each occurrence moving
            # to the end of its cycle's residents.
            for i in chain:
                members = by_cycle[cycles[i]]
                members.remove(i)
                members.append(i)
            return False

        costs = []
        before = 0.0
        for i in chain:
            members = by_cycle[cycles[i]]
            members.remove(i)
            costs.append(self.placement_cost(i, members))
            before += costs[-1]
            members.append(i)
        # Without a negative term the re-placed cost only grows with each
        # placement, so once it cannot end below the threshold the chain
        # stays.  Each of its occurrences then already sits last in its
        # cycle, as the roll-back below would leave it.
        threshold = before - 1e-9
        prune = not self.tables.negative
        if prune and not threshold > 0.0:
            return False
        for i in chain:
            by_cycle[cycles[i]].remove(i)

        after = 0.0
        previous = 0
        placed = len(chain)
        for index, i in enumerate(chain):
            earliest, latest = self.chain_window(i, previous + 1, last + index, cycles)
            if earliest > latest:
                placed = index
                break
            if earliest == latest == original[index]:
                best_cycle, best_cost = earliest, costs[index]
            else:
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
            if prune and not after < threshold:
                placed = index + 1
                break

        if placed == len(chain) and after < threshold:
            return True
        # Roll back: the re-placed part leaves, then the chain returns in
        # order to its original cycles.
        for i in chain[:placed]:
            by_cycle[cycles[i]].remove(i)
        for i, cycle in zip(chain, original):
            cycles[i] = cycle
            by_cycle[cycle].append(i)
        return False

    def push_right(
        self,
        i: int,
        depth: int,
        cycles: List[int],
        place: Callable[[int, int], None],
    ) -> bool:
        """Move ``i`` one cycle later, recursively shoving its successors
        when they block.

        A method, not a closure in :meth:`repair`: a recursive closure
        refers to itself, and that reference cycle would keep the
        kernel's tables alive after :func:`balance` returns, until the
        garbage collector next runs.
        """
        if depth <= 0:
            return False
        target = cycles[i] + 1
        if target > self.budget:
            return False
        for s in self.succs[i]:
            if cycles[s] <= target and not self.push_right(
                s, depth - 1, cycles, place
            ):
                return False
        place(i, target)
        return True

    def repair(self, cycles: List[int]) -> None:
        """Force port-cap violations out by moving offenders, pushing
        their successors right when the dependence window is closed.

        Local search alone stalls on zero-cost plateaus (a violating
        access cannot move because its successor chain sits tight behind
        it, and the successors see no penalty themselves); the push
        breaks exactly that coupling.
        """
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
            elif not self.push_right(offender, 24, cycles, place):
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
    in_order = range(len(kernel.labels))
    best: Optional[Tuple[Iterable[int], List[int]]] = None
    best_cost = float("inf")
    # The assignment's key order is the seed's (topological for the
    # greedy seed, occurrence order for the others): cost() and the
    # conflict graph sum their floats in it.
    for key_order, cycles in (
        (kernel.topological, kernel.seed_greedy()),
        (in_order, list(kernel.tables.asap)),
        (in_order, list(kernel.alap)),
    ):
        kernel.improve(cycles)
        kernel.repair(cycles)
        kernel.improve(cycles)
        cost = kernel.tables.schedule_cost((i, cycles[i]) for i in key_order)
        if cost < best_cost:
            best_cost = cost
            best = key_order, cycles
    assert best is not None
    key_order, cycles = best
    labels = kernel.labels
    schedule = BodySchedule(
        graph=graph,
        budget=budget,
        assignment={labels[i]: cycles[i] for i in key_order},
    )
    schedule.balanced_cost = best_cost
    schedule.verify()
    return schedule
