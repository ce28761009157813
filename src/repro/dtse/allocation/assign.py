"""Memory allocation and signal-to-memory assignment (paper §4.6).

Given the conflict graph and concurrency profile from SCBD, this module
chooses the memory architecture: how many on-chip memories, which basic
groups share which memory, and which DRAM parts serve the off-chip
groups.  The optimizer minimizes a scalar cost (total power plus a small
area exchange rate) subject to:

* groups scheduled in the same cycle need enough ports on their memory
  (on-chip macros support at most two ports; off-chip parts interleave
  banks);
* on-chip macros respect the module generator's geometry limits;
* off-chip memories must sustain their traffic *per loop body* under
  the EDO page-mode model: raster streams burst at near page-hit speed,
  while multi-row stencil access patterns thrash the open row unless
  enough interleaved banks keep the working-set rows alive.

Bitwidth waste is modelled exactly as in the paper: a memory is as wide
as its widest group, so narrow groups waste the upper bits of every
word they occupy.  Basic groups accessed only by *foreground* accesses
(register hierarchy layers) are materialized as datapath register files
outside the allocation count.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ...costs.report import CostReport, MemoryCost
from ...ir.program import AccessCounts, Program
from ...memlib.library import MemoryLibrary
from ...memlib.module import MemoryKind
from ..scbd.conflict import ConflictGraph

#: Exchange rate between on-chip area and power in the scalar objective
#: [mW per mm^2].  Small: power leads, area breaks ties — matching the
#: paper's low-power focus while keeping area-wasteful solutions penalized.
DEFAULT_AREA_WEIGHT = 0.15

#: On-chip macros support at most this many ports.
MAX_ONCHIP_PORTS = 2

#: Effective cycles per off-chip access: raster/burst streams.
PAGE_HIT_FACTOR = 1.15
#: Multi-row working set that fits within the interleaved banks.
PAGE_MIX_FACTOR = 1.3
#: Row thrash: the working set exceeds the open rows.
PAGE_MISS_FACTOR = 2.6
#: Most banks we are willing to interleave for one logical memory.
MAX_BANKS = 4


class AssignmentError(ValueError):
    """Raised when no legal assignment exists."""


@dataclass(frozen=True)
class GroupNestLoad:
    """Traffic of one basic group inside one loop nest."""

    accesses_per_iteration: float
    row_streams: int
    all_sequential: bool


@dataclass(frozen=True)
class NestLoad:
    """Per-nest traffic table used by the off-chip occupancy check."""

    nest: str
    body_budget: int
    iterations: float
    per_group: Mapping[str, GroupNestLoad]


def build_nest_loads(
    program: Program, budgets: Mapping[str, int]
) -> Tuple[NestLoad, ...]:
    """Summarize each nest's per-group traffic for the page-mode model."""
    loads = []
    for nest in program.nests:
        per_group: Dict[str, GroupNestLoad] = {}
        accumulator: Dict[str, List] = {}
        for access in nest.iter_accesses():
            if access.foreground:
                continue
            entry = accumulator.setdefault(access.group, [0.0, 0, True])
            entry[0] += access.expected_accesses
            # Sites of one group share its address space: the row
            # working set is the widest stencil, not the sum of sites.
            entry[1] = max(entry[1], access.dram_rows)
            entry[2] = entry[2] and access.dram_rows == 1
        for group, (accesses, streams, sequential) in accumulator.items():
            per_group[group] = GroupNestLoad(
                accesses_per_iteration=accesses,
                row_streams=streams,
                all_sequential=sequential,
            )
        loads.append(
            NestLoad(
                nest=nest.name,
                body_budget=int(budgets.get(nest.name, 1)),
                iterations=nest.iterations,
                per_group=per_group,
            )
        )
    return tuple(loads)


def page_factor(row_streams: int, all_sequential: bool, banks: int) -> float:
    """Effective cycles per access under the EDO page-mode model."""
    if all_sequential:
        return PAGE_HIT_FACTOR
    if row_streams <= banks:
        return PAGE_MIX_FACTOR
    return PAGE_MISS_FACTOR


@dataclass(frozen=True)
class MemoryBin:
    """One memory with its assigned basic groups and evaluated cost."""

    groups: Tuple[str, ...]
    kind: MemoryKind
    words: int
    width: int
    ports: int
    area_mm2: float
    power_mw: float
    access_rate_hz: float
    module_name: str

    def as_memory_cost(self) -> MemoryCost:
        return MemoryCost(
            name=self.module_name,
            kind=self.kind,
            words=self.words,
            width=self.width,
            ports=self.ports,
            area_mm2=self.area_mm2,
            power_mw=self.power_mw,
            groups=self.groups,
            access_rate_hz=self.access_rate_hz,
        )


@dataclass
class AllocationResult:
    """Optimized memory architecture plus its cost report."""

    label: str
    onchip: Tuple[MemoryBin, ...]
    registers: Tuple[MemoryBin, ...]
    offchip: Tuple[MemoryBin, ...]
    cycles_used: float
    cycle_budget: float
    scalar_cost: float

    @property
    def onchip_memory_count(self) -> int:
        """Allocated on-chip macros (register files not counted)."""
        return len(self.onchip)

    @property
    def report(self) -> CostReport:
        memories = tuple(
            b.as_memory_cost()
            for b in tuple(self.offchip) + tuple(self.onchip) + tuple(self.registers)
        )
        return CostReport(
            label=self.label,
            memories=memories,
            cycles_used=self.cycles_used,
            cycle_budget=self.cycle_budget,
        )


#: One nest's traffic to an off-chip bin: (accesses per iteration, row
#: streams, all sequential, body budget, iterations).
_OffchipLoad = Tuple[float, int, bool, int, float]


class _ProgramInputs:
    """What the allocator reads of a program alone.

    The access counts and (words, width) per group, the group names in
    name order with their mask bits, and the register-layer groups: the
    groups that only foreground sites access, in name order.
    """

    __slots__ = ("program", "counts", "geometry", "names", "bit", "register_names")

    def __init__(self, program: Program) -> None:
        self.program = program
        self.counts: Dict[str, AccessCounts] = program.access_counts()
        self.geometry = {g.name: (g.words, g.bitwidth) for g in program.groups}
        self.names = sorted(self.geometry)
        self.bit = {name: 1 << k for k, name in enumerate(self.names)}
        background: Dict[str, bool] = {g.name: False for g in program.groups}
        touched: Dict[str, bool] = {g.name: False for g in program.groups}
        for nest in program.nests:
            for access in nest.iter_accesses():
                touched[access.group] = True
                if not access.foreground:
                    background[access.group] = True
        self.register_names = sorted(
            name for name in background if touched[name] and not background[name]
        )


class _Evaluator:
    """Caches per-bin cost evaluation for the local search.

    A bin is a bitmask over the program's group names, bit ``k`` for the
    ``k``-th name in name order, so ascending bits visit a bin's groups
    in name order.  The caches are keyed by mask; a frozen set of names
    is built only to evaluate a miss.
    """

    def __init__(
        self,
        inputs: _ProgramInputs,
        conflicts: ConflictGraph,
        library: MemoryLibrary,
        frame_time_s: float,
        nest_loads: Sequence[NestLoad],
        area_weight: float,
    ) -> None:
        self.conflicts = conflicts
        self.library = library
        self.frame_time_s = frame_time_s
        self.nest_loads = tuple(nest_loads)
        self.area_weight = area_weight
        self.counts = inputs.counts
        self.geometry = inputs.geometry
        self.names = inputs.names
        self.bit = inputs.bit
        self._bins: Dict[Tuple[bool, int], Optional[MemoryBin]] = {}
        self._scalars: Dict[int, Optional[float]] = {}

    # ------------------------------------------------------------------
    def rates(self, groups: Iterable[str]) -> Tuple[float, float]:
        # Name order, not set order: the float sums must not follow
        # string hashing.
        names = sorted(groups)
        reads = sum(self.counts[g].reads for g in names)
        writes = sum(self.counts[g].writes for g in names)
        return reads / self.frame_time_s, writes / self.frame_time_s

    def evaluate(self, mask: int, offchip: bool) -> Optional[MemoryBin]:
        """Cost of one memory holding the groups of ``mask``; None if illegal."""
        key = (offchip, mask)
        try:
            return self._bins[key]
        except KeyError:
            groups = frozenset(
                name for k, name in enumerate(self.names) if mask >> k & 1
            )
            evaluated = self._bins[key] = self._evaluate(groups, offchip)
            return evaluated

    def release(self) -> None:
        """Drop the cached bins, scalar costs and port demands."""
        self._bins.clear()
        self._scalars.clear()
        self.conflicts.clear_port_memo()

    def scalar(self, mask: int) -> Optional[float]:
        """An on-chip bin's power plus weighted area (0.0 when empty).

        None when the bin is illegal.
        """
        try:
            return self._scalars[mask]
        except KeyError:
            pass
        value: Optional[float] = 0.0
        if mask:
            evaluated = self.evaluate(mask, offchip=False)
            value = (
                None
                if evaluated is None
                else evaluated.power_mw + self.area_weight * evaluated.area_mm2
            )
        self._scalars[mask] = value
        return value

    # ------------------------------------------------------------------
    def _offchip_loads(self, groups: FrozenSet[str]) -> List[_OffchipLoad]:
        """The traffic of ``groups`` in each nest that touches them.

        Per nest, in nest order: the accesses, row streams and
        sequential flag summed over the groups in name order, then the
        body budget and the iterations.  Every banks count reuses them.
        """
        names = sorted(groups)
        loads = []
        for load in self.nest_loads:
            accesses = 0.0
            streams = 0
            sequential = True
            for group in names:
                entry = load.per_group.get(group)
                if entry is None:
                    continue
                accesses += entry.accesses_per_iteration
                streams += entry.row_streams
                sequential = sequential and entry.all_sequential
            if accesses == 0.0:
                continue
            loads.append(
                (accesses, streams, sequential, load.body_budget, load.iterations)
            )
        return loads

    @staticmethod
    def _offchip_occupancy(
        loads: Sequence[_OffchipLoad], banks: int
    ) -> Tuple[bool, float]:
        """(fits, effective access count) under the page-mode model.

        Checks, nest by nest, that the memory can serve its per-body
        traffic within the body budget given ``banks`` interleaved
        banks, and accumulates the effective (page-factor-weighted)
        access count for the power model.
        """
        effective_total = 0.0
        for accesses, streams, sequential, body_budget, iterations in loads:
            occupancy = accesses * page_factor(streams, sequential, banks)
            if occupancy > body_budget * banks:
                return False, 0.0
            effective_total += occupancy * iterations
        return True, effective_total

    def _evaluate_offchip(self, groups: FrozenSet[str]) -> Optional[MemoryBin]:
        words = sum(self.geometry[g][0] for g in groups)
        width = max(self.geometry[g][1] for g in groups)
        ports = self.conflicts.ports_for(groups)
        read_rate, write_rate = self.rates(groups)
        raw_rate = read_rate + write_rate
        loads = self._offchip_loads(groups)
        #: banks -> (fits, effective access count): the same for every part.
        occupancies: Dict[int, Tuple[bool, float]] = {}
        best: Optional[MemoryBin] = None
        for part in self.library.offchip.candidates(width):
            depth_banks = -(-words // part.words)
            for banks in range(max(ports, depth_banks), MAX_BANKS + 1):
                occupancy = occupancies.get(banks)
                if occupancy is None:
                    occupancy = occupancies[banks] = self._offchip_occupancy(
                        loads, banks
                    )
                fits, effective = occupancy
                if not fits:
                    continue
                effective_rate = effective / self.frame_time_s
                if effective_rate > banks * part.max_access_rate_hz:
                    continue
                duty = effective_rate / (banks * part.max_access_rate_hz)
                power = banks * part.standby_mw + banks * duty * (
                    part.active_mw - part.standby_mw
                )
                if best is None or power < best.power_mw:
                    suffix = f" x{banks}" if banks > 1 else ""
                    best = MemoryBin(
                        groups=tuple(sorted(groups)),
                        kind=MemoryKind.OFFCHIP,
                        words=words,
                        width=part.width,
                        ports=banks,
                        area_mm2=0.0,
                        power_mw=power,
                        access_rate_hz=raw_rate,
                        module_name=f"{part.part_number}{suffix}",
                    )
                # Keep exploring: extra banks add standby power but can
                # hold more DRAM rows open (cheaper page behaviour).
        return best

    def _evaluate(self, groups: FrozenSet[str], offchip: bool) -> Optional[MemoryBin]:
        if offchip:
            return self._evaluate_offchip(groups)
        words = sum(self.geometry[g][0] for g in groups)
        width = max(self.geometry[g][1] for g in groups)
        ports = self.conflicts.ports_for(groups)
        read_rate, write_rate = self.rates(groups)
        if ports > MAX_ONCHIP_PORTS:
            return None
        if not self.library.onchip.supports(words, width):
            return None
        module = self.library.generate_onchip(words, width, ports)
        if read_rate + write_rate > module.max_access_rate_hz:
            return None
        return MemoryBin(
            groups=tuple(sorted(groups)),
            kind=MemoryKind.ONCHIP,
            words=words,
            width=width,
            ports=ports,
            area_mm2=module.area_mm2,
            power_mw=module.total_power_mw(read_rate, write_rate),
            access_rate_hz=read_rate + write_rate,
            module_name=module.name,
        )

    def register_bin(self, group: str) -> MemoryBin:
        """A foreground group as a datapath register file."""
        words, width = self.geometry[group]
        module = self.library.registers.module(words, width)
        read_rate, write_rate = self.rates((group,))
        return MemoryBin(
            groups=(group,),
            kind=MemoryKind.ONCHIP,
            words=words,
            width=width,
            ports=module.ports,
            area_mm2=module.area_mm2,
            power_mw=module.total_power_mw(read_rate, write_rate),
            access_rate_hz=read_rate + write_rate,
            module_name=module.name,
        )


def _scalar(bins: Iterable[MemoryBin], area_weight: float) -> float:
    total = 0.0
    for memory_bin in bins:
        total += memory_bin.power_mw + area_weight * memory_bin.area_mm2
    return total


def _assign_offchip(groups: Sequence[str], evaluator: _Evaluator) -> List[MemoryBin]:
    """One DRAM memory per off-chip group, the paper tool's policy."""
    bins = []
    for name in sorted(groups):
        evaluated = evaluator.evaluate(evaluator.bit[name], offchip=True)
        if evaluated is None:
            raise AssignmentError(f"group {name!r} fits no off-chip part")
        bins.append(evaluated)
    return bins


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first: its groups in name order."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _greedy_onchip(
    n_memories: int, evaluator: _Evaluator, order: Sequence[str]
) -> Optional[List[int]]:
    """Greedy seeding: N singleton bins, then cheapest-fit for the rest."""
    if n_memories > len(order):
        return None
    bit = evaluator.bit
    bins = [bit[name] for name in order[:n_memories]]
    for name in order[n_memories:]:
        best_index = None
        best_delta = float("inf")
        for index, mask in enumerate(bins):
            after = evaluator.scalar(mask | bit[name])
            if after is None:
                continue
            before = evaluator.scalar(mask)
            delta = after - (0.0 if before is None else before)
            if delta < best_delta:
                best_delta = delta
                best_index = index
        if best_index is None:
            return None
        bins[best_index] |= bit[name]
    return bins


def _local_search(
    bins: List[int], evaluator: _Evaluator, max_rounds: int = 40
) -> List[int]:
    """Move/swap local search keeping every bin non-empty.

    The first improving move (or, when no move improves, swap) is taken
    and the next round starts over.
    """
    cost = evaluator.scalar
    current = list(bins)
    for _ in range(max_rounds):
        improved = False
        # Single-group moves, out of bins that keep a group.
        for src_index, src in enumerate(current):
            src_before = cost(src)
            if src & (src - 1) == 0 or src_before is None:
                continue
            for bit in _bits(src):
                src_after = cost(src ^ bit)
                if src_after is None:
                    continue
                for dst_index, dst in enumerate(current):
                    if dst_index == src_index:
                        continue
                    dst_before = cost(dst)
                    dst_after = cost(dst | bit)
                    if dst_before is None or dst_after is None:
                        continue
                    delta = (src_after - src_before) + (dst_after - dst_before)
                    if delta < -1e-9:
                        current[src_index] = src ^ bit
                        current[dst_index] = dst | bit
                        improved = True
                        break
                if improved:
                    break
            if improved:
                break
        if improved:
            continue
        # Pairwise swaps.
        for a_index, a in enumerate(current):
            old_a = cost(a)
            for b_index in range(a_index + 1, len(current)):
                b = current[b_index]
                old_b = cost(b)
                if old_a is None or old_b is None:
                    continue
                for bit_a in _bits(a):
                    for bit_b in _bits(b):
                        new_a = (a ^ bit_a) | bit_b
                        new_b = (b ^ bit_b) | bit_a
                        new_cost_a = cost(new_a)
                        new_cost_b = cost(new_b)
                        if new_cost_a is None or new_cost_b is None:
                            continue
                        if (new_cost_a + new_cost_b) < (old_a + old_b) - 1e-9:
                            current[a_index] = new_a
                            current[b_index] = new_b
                            improved = True
                            break
                    if improved:
                        break
                if improved:
                    break
            if improved:
                break
        if not improved:
            break
    return current


#: One (count, order) search's on-chip bins and their scalar cost, or
#: None when it ends in no legal assignment of that many memories.
_Outcome = Optional[Tuple[Tuple[MemoryBin, ...], float]]


class _AllocatorState:
    """What the allocator derives from one allocator input, once.

    The bin evaluator (with its caches), the register bins, the on-chip
    and off-chip groups, the off-chip bins or the error assigning them
    raised, and the three greedy orders of the on-chip groups.  None of
    it reads ``n_onchip``.  :meth:`outcome` runs the search for one
    (memory count, greedy order) pair on first use and holds what it
    found, so every count and order is searched at most once; once all
    are held, the evaluator's caches are freed.
    """

    def __init__(
        self,
        inputs: _ProgramInputs,
        conflicts: ConflictGraph,
        library: MemoryLibrary,
        frame_time_s: float,
        nest_loads: Tuple[NestLoad, ...],
        area_weight: float,
    ) -> None:
        evaluator = self.evaluator = _Evaluator(
            inputs, conflicts, library, frame_time_s, nest_loads, area_weight
        )
        register_names = inputs.register_names
        self.register_bins = [evaluator.register_bin(name) for name in register_names]
        remaining = [g for g in inputs.program.groups if g.name not in register_names]
        onchip_groups, offchip_groups = library.split(remaining)
        self.onchip_names = [g.name for g in onchip_groups]
        self.offchip_bins: List[MemoryBin] = []
        self.error: Optional[AssignmentError] = None
        try:
            self.offchip_bins = _assign_offchip(
                [g.name for g in offchip_groups], evaluator
            )
        except AssignmentError as exc:
            # Held without its traceback, whose frames hold this state.
            self.error = exc.with_traceback(None)
        geometry = evaluator.geometry
        traffic = {name: evaluator.counts[name].total for name in self.onchip_names}
        self.orders = (
            sorted(self.onchip_names, key=lambda n: (-geometry[n][1], -traffic[n])),
            sorted(self.onchip_names, key=lambda n: -traffic[n]),
            sorted(self.onchip_names, key=lambda n: (-traffic[n], geometry[n][1])),
        )
        self._outcomes: Dict[Tuple[int, int], _Outcome] = {}

    def outcome(self, count: int, order: int) -> _Outcome:
        """The greedy seed in ``orders[order]`` refined by local search."""
        key = (count, order)
        try:
            return self._outcomes[key]
        except KeyError:
            pass
        found = None
        evaluator = self.evaluator
        seeded = _greedy_onchip(count, evaluator, self.orders[order])
        if seeded is not None:
            bins = []
            legal = True
            for mask in _local_search(seeded, evaluator):
                evaluated = evaluator.evaluate(mask, offchip=False)
                if evaluated is None:
                    legal = False
                    break
                bins.append(evaluated)
            if legal and len(bins) == count:
                found = (tuple(bins), _scalar(bins, evaluator.area_weight))
        self._outcomes[key] = found
        if len(self._outcomes) == len(self.orders) * len(self.onchip_names):
            # Every search is held, so no bin is evaluated again: free
            # the caches (the evaluator stays, holding the keyed objects).
            evaluator.release()
        return found


class AllocationTable:
    """Allocator work shared by the :func:`assign_memories` calls given it.

    Entries are keyed by object identity and keep their objects alive
    (the program through its inputs, the rest through the evaluator):

    * per program object, what the allocator reads of the program alone
      (:class:`_ProgramInputs`);
    * per allocator input (the program, conflict graph, nest loads and
      library objects, the frame time and the area weight), an
      :class:`_AllocatorState` with the outcome of every (count, order)
      search run so far.

    Calls that differ only in ``n_onchip`` (or in the label, the cycles
    used or the budget they report) share one state.  Every state entry
    is a pure function of its key, so a call through a shared table
    returns what it would return through a private one.
    """

    def __init__(self) -> None:
        self._programs: Dict[int, _ProgramInputs] = {}
        #: (program, conflict graph, library, nest loads) ids, frame time
        #: and area weight -> state.
        self._states: Dict[Tuple[int, ...], _AllocatorState] = {}

    def state(
        self,
        program: Program,
        conflicts: ConflictGraph,
        library: MemoryLibrary,
        frame_time_s: float,
        nest_loads: Tuple[NestLoad, ...],
        area_weight: float,
    ) -> _AllocatorState:
        """The allocator input's state, built on first use."""
        key = (
            id(program),
            id(conflicts),
            id(library),
            id(nest_loads),
            frame_time_s,
            area_weight,
        )
        state = self._states.get(key)
        if state is None:
            inputs = self._programs.get(id(program))
            if inputs is None:
                inputs = self._programs[id(program)] = _ProgramInputs(program)
            state = self._states[key] = _AllocatorState(
                inputs, conflicts, library, frame_time_s, nest_loads, area_weight
            )
        return state


def assign_memories(
    program: Program,
    conflicts: ConflictGraph,
    library: MemoryLibrary,
    frame_time_s: float,
    nest_loads: Sequence[NestLoad] = (),
    n_onchip: Optional[int] = None,
    area_weight: float = DEFAULT_AREA_WEIGHT,
    cycles_used: float = 0.0,
    cycle_budget: float = 0.0,
    label: str = "",
    table: Optional[AllocationTable] = None,
) -> AllocationResult:
    """Optimize the full memory architecture for ``program``.

    ``n_onchip`` fixes the number of on-chip memories (the Table 4
    exploration axis); ``None`` sweeps and returns the best; when the
    requested count is infeasible the allocator grows it.  Register
    hierarchy layers (all-foreground groups) are materialized as
    register files and never counted in ``n_onchip``.

    ``table`` shares the evaluator and the search outcomes with the other
    calls given it (see :class:`AllocationTable`); without one the call
    uses a private table.  The loop below runs its comparisons over the
    held outcomes in the same order either way, so the result does not
    depend on the table.
    """
    if table is None:
        table = AllocationTable()
    # Keyed by the loads' identity: run_pmm's runs pass the tuple held
    # per SCBD input and share; loads passed as a list share nothing.
    state = table.state(
        program, conflicts, library, frame_time_s, tuple(nest_loads), area_weight
    )
    if state.error is not None:
        raise copy.copy(state.error)
    onchip_names = state.onchip_names

    if not onchip_names:
        counts: Sequence[int] = (0,)
    elif n_onchip is None:
        counts = range(1, len(onchip_names) + 1)
    else:
        if n_onchip < 1 or n_onchip > len(onchip_names):
            raise AssignmentError(
                f"cannot allocate {n_onchip} on-chip memories for "
                f"{len(onchip_names)} groups"
            )
        # A designer asked for N but bandwidth may demand more parallel
        # memories: grow until feasible.
        counts = range(n_onchip, len(onchip_names) + 1)

    best_bins: Optional[Tuple[MemoryBin, ...]] = None
    best_cost = float("inf")
    for count in counts:
        if count == 0:
            if 0.0 < best_cost:
                best_cost = 0.0
                best_bins = ()
            continue
        found_at_count = False
        for order in range(len(state.orders)):
            outcome = state.outcome(count, order)
            if outcome is None:
                continue
            found_at_count = True
            bins, cost = outcome
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_bins = bins
        if n_onchip is not None and found_at_count:
            # Fixed allocation: the first feasible count wins (growth is
            # a fallback, not an optimization opportunity).
            break
    if best_bins is None:
        raise AssignmentError(
            f"no legal on-chip assignment found (n_onchip={n_onchip})"
        )

    scalar_cost = (
        best_cost
        + _scalar(state.offchip_bins, area_weight)
        + _scalar(state.register_bins, area_weight)
    )
    return AllocationResult(
        label=label or program.name,
        onchip=tuple(sorted(best_bins, key=lambda b: -b.area_mm2)),
        registers=tuple(state.register_bins),
        offchip=tuple(sorted(state.offchip_bins, key=lambda b: -b.power_mw)),
        cycles_used=cycles_used,
        cycle_budget=cycle_budget,
        scalar_cost=scalar_cost,
    )
