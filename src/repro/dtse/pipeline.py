"""The physical memory management stage, end to end.

``run_pmm`` is the feedback oracle the whole methodology revolves
around: given a (possibly transformed) specification and a cycle budget,
it runs storage cycle budget distribution followed by memory
allocation/assignment and returns the accurate area/power cost report —
the paper's "Estimated A/T/P to guide decision" box (Figure 1).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Optional, Tuple

from ..costs.report import CostReport
from ..ir.program import Program
from ..memlib.library import MemoryLibrary, default_library
from .allocation.assign import (
    DEFAULT_AREA_WEIGHT,
    AllocationResult,
    AllocationTable,
    NestLoad,
    assign_memories,
    build_nest_loads,
)
from .scbd.balancing import PortCapFn, WeightFn
from .scbd.conflict import ConflictGraph
from .scbd.distribution import BodyTable, BudgetDistribution, distribute
from .scbd.flowgraph import InfeasibleBudget

#: Relative conflict penalties used to steer flow-graph balancing: a
#: conflict between two off-chip groups forces DRAM interleaving (very
#: expensive), mixed conflicts force parallel buses off chip, on-chip
#: conflicts just constrain the assignment.
OFFCHIP_PAIR_PENALTY = 12.0
OFFCHIP_SINGLE_PENALTY = 4.0
SELF_CONFLICT_FACTOR = 2.0


@dataclass
class PmmResult:
    """Everything the physical memory management stage produced."""

    program: Program
    distribution: BudgetDistribution
    allocation: AllocationResult

    @property
    def report(self) -> CostReport:
        return self.allocation.report

    @property
    def conflict_graph(self) -> ConflictGraph:
        return self.distribution.conflict_graph


#: Off-chip memories can interleave up to this many DRAM banks.
MAX_OFFCHIP_BANKS = 4


@dataclass(frozen=True)
class PmmRequest:
    """One self-contained feedback evaluation, ready to dispatch.

    Bundles everything :func:`run_pmm` needs so an evaluation can be
    shipped to a worker process (the dataclass pickles), fingerprinted
    for memoization, or replayed later.  ``label`` is presentation-only:
    it names the resulting report but does not change any cost number.
    """

    program: Program
    cycle_budget: float
    frame_time_s: float
    library: MemoryLibrary = field(default_factory=default_library)
    n_onchip: Optional[int] = None
    area_weight: float = DEFAULT_AREA_WEIGHT
    label: str = ""

    def relabeled(self, label: str) -> "PmmRequest":
        return replace(self, label=label)

    def run(self, tables: Optional[DispatchTables] = None) -> PmmResult:
        return run_pmm(
            self.program,
            self.cycle_budget,
            self.frame_time_s,
            library=self.library,
            n_onchip=self.n_onchip,
            area_weight=self.area_weight,
            label=self.label,
            tables=tables,
        )


def offchip_names(program: Program, library: MemoryLibrary) -> FrozenSet[str]:
    """The names of the program's groups that will live off-chip."""
    return frozenset(
        group.name for group in program.groups if library.is_offchip(group)
    )


def _weight_fn(offchip: FrozenSet[str]) -> WeightFn:
    def weight(group_a: str, group_b: str) -> float:
        factor = 1.0
        off_count = (group_a in offchip) + (group_b in offchip)
        if off_count == 2:
            factor = OFFCHIP_PAIR_PENALTY
        elif off_count == 1:
            factor = OFFCHIP_SINGLE_PENALTY
        if group_a == group_b:
            factor *= SELF_CONFLICT_FACTOR
        return factor

    return weight


def _cap_fn(offchip: FrozenSet[str]) -> PortCapFn:
    def cap(group: str) -> int:
        return MAX_OFFCHIP_BANKS if group in offchip else 2

    return cap


def make_weight_fn(program: Program, library: MemoryLibrary) -> WeightFn:
    """Balancing weights that know which groups will live off-chip."""
    return _weight_fn(offchip_names(program, library))


def make_cap_fn(program: Program, library: MemoryLibrary) -> PortCapFn:
    """Port caps per group: 2 for on-chip macros, 4 DRAM banks off-chip."""
    return _cap_fn(offchip_names(program, library))


class _Scbd:
    """One SCBD input's distribution and nest loads, or the error it raised."""

    __slots__ = ("program", "distribution", "nest_loads", "error")

    def __init__(self, program: Program) -> None:
        #: Held so the program's id stays its key while the table lives.
        self.program = program
        self.distribution: Optional[BudgetDistribution] = None
        self.nest_loads: Tuple[NestLoad, ...] = ()
        self.error: Optional[InfeasibleBudget] = None


class DispatchTables:
    """What the oracle runs of one dispatch share.

    One :class:`BodyTable` per off-chip group set (the only input of the
    oracle's weight and cap functions); one SCBD outcome per (program
    object, cycle budget, off-chip group set), its distribution and nest
    loads or the :class:`InfeasibleBudget` it raised; and one
    :class:`AllocationTable` (``allocation``) for the allocator.
    ``n_onchip`` reaches none of the keys, so points that differ only in
    it share one distribution and one allocator state.  Every entry is a
    pure function of its key, and each keeps its keyed objects alive, so
    a run returns what it would return through private tables.
    """

    def __init__(self) -> None:
        self._bodies: Dict[FrozenSet[str], BodyTable] = {}
        self._scbd: Dict[Tuple[int, float, FrozenSet[str]], _Scbd] = {}
        self.allocation = AllocationTable()

    def scbd(
        self, program: Program, cycle_budget: float, offchip: FrozenSet[str]
    ) -> _Scbd:
        """The SCBD outcome for the input, distributed on first use."""
        key = (id(program), cycle_budget, offchip)
        held = self._scbd.get(key)
        if held is None:
            held = _Scbd(program)
            table = self._bodies.setdefault(offchip, BodyTable())
            try:
                distribution = distribute(
                    program,
                    cycle_budget,
                    _weight_fn(offchip),
                    _cap_fn(offchip),
                    table=table,
                )
            except InfeasibleBudget as exc:
                # Held without its traceback, whose frames hold the table.
                held.error = exc.with_traceback(None)
            else:
                held.distribution = distribution
                held.nest_loads = build_nest_loads(program, distribution.budgets)
            self._scbd[key] = held
        return held


def run_pmm(
    program: Program,
    cycle_budget: float,
    frame_time_s: float,
    library: Optional[MemoryLibrary] = None,
    n_onchip: Optional[int] = None,
    area_weight: float = DEFAULT_AREA_WEIGHT,
    label: str = "",
    tables: Optional[DispatchTables] = None,
) -> PmmResult:
    """Run SCBD + allocation/assignment and return the cost feedback.

    Parameters
    ----------
    program:
        The (pruned, transformed) specification to evaluate.
    cycle_budget:
        Storage cycle budget for one frame.
    frame_time_s:
        Frame period; converts access counts into rates for the power
        models.
    n_onchip:
        Fix the number of on-chip memories (Table 4 axis); ``None``
        lets the allocator pick the cheapest count.
    tables:
        The :class:`DispatchTables` of the dispatch this run belongs to,
        shared with its other runs: body tables per off-chip group set,
        one distribution per (program, cycle budget, off-chip set) and
        one allocator state per allocator input, so a run that repeats
        another's SCBD input reuses its distribution and its searches.
        ``None`` gives the run private tables.
    """
    if library is None:
        library = default_library()
    if tables is None:
        tables = DispatchTables()
    scbd = tables.scbd(program, cycle_budget, offchip_names(program, library))
    if scbd.error is not None:
        raise copy.copy(scbd.error)
    distribution = scbd.distribution
    allocation = assign_memories(
        program=program,
        conflicts=distribution.conflict_graph,
        library=library,
        frame_time_s=frame_time_s,
        nest_loads=scbd.nest_loads,
        n_onchip=n_onchip,
        area_weight=area_weight,
        cycles_used=distribution.cycles_used,
        cycle_budget=cycle_budget,
        label=label or program.name,
        table=tables.allocation,
    )
    return PmmResult(
        program=program, distribution=distribution, allocation=allocation
    )
