"""Storage cycle budget distribution over the loop nests (paper §4.5).

An overall cycle budget — derived from the real-time constraint — must
be distributed over the loop nests, giving every loop body a cycle
budget.  Spending one extra cycle on a body costs ``iterations(body)``
cycles of the global budget (this is what quantizes the budget steps the
paper's Table 3 shows); the payoff is a less parallel body schedule,
i.e. a cheaper conflict graph.

The distributor starts every body at its critical path and greedily
gives cycles to the body with the best conflict-cost reduction per
global cycle spent, until the budget is exhausted or no body improves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ...ir.program import Program
from .balancing import (
    PORT_VIOLATION_PENALTY,
    BodySchedule,
    PortCapFn,
    WeightFn,
    _default_cap,
    _default_weight,
    balance,
)
from .conflict import ConflictGraph
from .flowgraph import BodyFlowGraph, InfeasibleBudget


@dataclass
class BudgetDistribution:
    """The outcome of distributing the storage cycle budget."""

    program_name: str
    cycle_budget: float
    budgets: Dict[str, int]
    schedules: Dict[str, BodySchedule]
    conflict_graph: ConflictGraph

    @property
    def cycles_used(self) -> float:
        return sum(
            schedule.budget * schedule.iterations
            for schedule in self.schedules.values()
        )

    @property
    def spare_cycles(self) -> float:
        """Budget left over for datapath scheduling / pipeline slack."""
        return self.cycle_budget - self.cycles_used

    def describe(self) -> str:
        lines = [
            f"Cycle budget distribution for {self.program_name!r}:",
            f"  budget {self.cycle_budget:,.0f}, used {self.cycles_used:,.0f}, "
            f"spare {self.spare_cycles:,.0f}",
            f"  {'nest':<14}{'body budget':>12}{'critical path':>15}"
            f"{'sequential':>12}{'iterations':>14}",
        ]
        for name, schedule in self.schedules.items():
            graph = schedule.graph
            lines.append(
                f"  {name:<14}{schedule.budget:>12}{graph.macp:>15}"
                f"{graph.sequential_length:>12}{graph.iterations:>14,.0f}"
            )
        return "\n".join(lines)


def distribute(
    program: Program,
    cycle_budget: float,
    weight_fn: WeightFn = _default_weight,
    cap_fn: PortCapFn = _default_cap,
) -> BudgetDistribution:
    """Distribute ``cycle_budget`` over the loop bodies of ``program``.

    Raises :class:`InfeasibleBudget` when even critical-path-length
    bodies exceed the budget (the MACP bound; loop transformations are
    then required).
    """
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
    costs = {name: schedules[name].cost(weight_fn, cap_fn) for name in graphs}

    # Each body's schedule at one more cycle, and its cost.  balance is
    # deterministic, so a candidate holds until its body's budget moves:
    # every (body, budget) pair is balanced at most once per call.
    candidates: Dict[str, Tuple[BodySchedule, float]] = {}

    def candidate(name: str) -> Tuple[BodySchedule, float]:
        held = candidates.get(name)
        if held is None or held[0].budget != budgets[name] + 1:
            schedule = balance(graphs[name], budgets[name] + 1, weight_fn, cap_fn)
            held = candidates[name] = (schedule, schedule.cost(weight_fn, cap_fn))
        return held

    # Phase 1 — feasibility: clear port-cap violations everywhere before
    # optimizing anything, visiting the cheapest (fewest-iterations)
    # bodies first so no body starves the others of budget.
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
            schedule, cost = candidate(name)
            if cost < costs[name] - 1e-9:
                budgets[name] += 1
                schedules[name] = schedule
                costs[name] = cost
                used += graph.iterations
                progress = True
                break

    # Phase 2 — greedy relaxation: spend remaining cycles where they
    # pay off most.
    while True:
        best_name: Optional[str] = None
        best_gain = 0.0
        spare = cycle_budget - used
        for name, graph in graphs.items():
            if budgets[name] >= graph.sequential_length:
                continue  # already conflict-free
            if graph.iterations > spare:
                continue  # one more body cycle does not fit the budget
            gain = (costs[name] - candidate(name)[1]) / graph.iterations
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_name = name
        if best_name is None:
            break
        budgets[best_name] += 1
        schedules[best_name], costs[best_name] = candidates[best_name]
        used += graphs[best_name].iterations

    return BudgetDistribution(
        program_name=program.name,
        cycle_budget=cycle_budget,
        budgets=budgets,
        schedules=schedules,
        conflict_graph=ConflictGraph.from_schedules(schedules.values()),
    )
