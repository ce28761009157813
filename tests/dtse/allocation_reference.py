"""Reference allocator: the set-keyed search the bitmask allocator replaced.

A copy, comments aside, of the bin evaluator (a cache keyed by frozen
name sets, the off-chip occupancy summed again for every (part, banks)
pair), of the greedy on-chip seed, of the move/swap local search and of
``assign_memories``, as they stood before the allocator ran on
bitmasks, less the ``strict`` and ``offchip_sharing`` options that no
caller set and that both allocators have dropped.  Port demand comes
from ``scbd_reference.ports_for``, the per-slot branch-and-bound query,
so the reference runs no fast code.
Only tests import it: ``test_allocation_reference.py`` checks that
``repro.dtse.allocation.assign`` returns exactly what this module
returns (the same bins and a bit-equal scalar cost), because
tie-breaking here decides the golden files.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import scbd_reference

from repro.dtse.allocation.assign import (
    DEFAULT_AREA_WEIGHT,
    MAX_BANKS,
    MAX_ONCHIP_PORTS,
    AllocationResult,
    AssignmentError,
    MemoryBin,
    NestLoad,
    _scalar,
    page_factor,
)
from repro.dtse.scbd.conflict import ConflictGraph
from repro.ir.program import AccessCounts, Program
from repro.memlib.library import MemoryLibrary
from repro.memlib.module import MemoryKind


class _Evaluator:
    def __init__(
        self,
        program: Program,
        conflicts: ConflictGraph,
        library: MemoryLibrary,
        frame_time_s: float,
        nest_loads: Sequence[NestLoad],
    ) -> None:
        self.program = program
        self.conflicts = conflicts
        self.library = library
        self.frame_time_s = frame_time_s
        self.nest_loads = tuple(nest_loads)
        self.counts: Dict[str, AccessCounts] = program.access_counts()
        self.geometry = {g.name: (g.words, g.bitwidth) for g in program.groups}
        self._cache: Dict[Tuple[bool, FrozenSet[str]], Optional[MemoryBin]] = {}

    def ports_for(self, groups: Iterable[str]) -> int:
        return scbd_reference.ports_for(self.conflicts, groups)

    def rates(self, groups: Iterable[str]) -> Tuple[float, float]:
        names = sorted(groups)
        reads = sum(self.counts[g].reads for g in names)
        writes = sum(self.counts[g].writes for g in names)
        return reads / self.frame_time_s, writes / self.frame_time_s

    def evaluate(self, groups: FrozenSet[str], offchip: bool) -> Optional[MemoryBin]:
        key = (offchip, groups)
        if key not in self._cache:
            self._cache[key] = self._evaluate(groups, offchip)
        return self._cache[key]

    def _offchip_occupancy(self, groups: FrozenSet[str], banks: int):
        effective_total = 0.0
        names = sorted(groups)
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
            factor = page_factor(streams, sequential, banks)
            occupancy = accesses * factor
            if occupancy > load.body_budget * banks:
                return False, 0.0
            effective_total += occupancy * load.iterations
        return True, effective_total

    def _evaluate_offchip(self, groups: FrozenSet[str]) -> Optional[MemoryBin]:
        words = sum(self.geometry[g][0] for g in groups)
        width = max(self.geometry[g][1] for g in groups)
        ports = self.ports_for(groups)
        read_rate, write_rate = self.rates(groups)
        raw_rate = read_rate + write_rate
        best: Optional[MemoryBin] = None
        for part in self.library.offchip.candidates(width):
            depth_banks = -(-words // part.words)
            for banks in range(max(ports, depth_banks), MAX_BANKS + 1):
                fits, effective = self._offchip_occupancy(groups, banks)
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
        return best

    def _evaluate(self, groups: FrozenSet[str], offchip: bool) -> Optional[MemoryBin]:
        if offchip:
            return self._evaluate_offchip(groups)
        words = sum(self.geometry[g][0] for g in groups)
        width = max(self.geometry[g][1] for g in groups)
        ports = self.ports_for(groups)
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


def _assign_offchip(
    groups: Sequence[str],
    evaluator: _Evaluator,
) -> List[MemoryBin]:
    bins = []
    for name in sorted(groups):
        evaluated = evaluator.evaluate(frozenset((name,)), offchip=True)
        if evaluated is None:
            raise AssignmentError(f"group {name!r} fits no off-chip part")
        bins.append(evaluated)
    return bins


def _greedy_onchip(
    groups: Sequence[str],
    n_memories: int,
    evaluator: _Evaluator,
    area_weight: float,
    order: Sequence[str],
) -> Optional[List[FrozenSet[str]]]:
    if n_memories > len(groups):
        return None
    bins: List[set] = [{name} for name in order[:n_memories]]
    for name in order[n_memories:]:
        best_index = None
        best_delta = float("inf")
        for index, bin_groups in enumerate(bins):
            before = evaluator.evaluate(frozenset(bin_groups), offchip=False)
            after = evaluator.evaluate(frozenset(bin_groups | {name}), offchip=False)
            if after is None:
                continue
            delta = (after.power_mw + area_weight * after.area_mm2) - (
                (before.power_mw + area_weight * before.area_mm2) if before else 0.0
            )
            if delta < best_delta:
                best_delta = delta
                best_index = index
        if best_index is None:
            return None
        bins[best_index].add(name)
    return [frozenset(b) for b in bins]


def _local_search(
    bins: List[FrozenSet[str]],
    evaluator: _Evaluator,
    area_weight: float,
    max_rounds: int = 40,
) -> List[FrozenSet[str]]:
    def bin_cost(groups: FrozenSet[str]) -> Optional[float]:
        if not groups:
            return 0.0
        evaluated = evaluator.evaluate(groups, offchip=False)
        if evaluated is None:
            return None
        return evaluated.power_mw + area_weight * evaluated.area_mm2

    current = [set(b) for b in bins]
    for _ in range(max_rounds):
        improved = False
        for src_index in range(len(current)):
            if improved:
                break
            for name in sorted(current[src_index]):
                if len(current[src_index]) == 1:
                    continue
                src_before = bin_cost(frozenset(current[src_index]))
                src_after = bin_cost(frozenset(current[src_index] - {name}))
                if src_before is None or src_after is None:
                    continue
                moved = False
                for dst_index in range(len(current)):
                    if dst_index == src_index:
                        continue
                    dst_before = bin_cost(frozenset(current[dst_index]))
                    dst_after = bin_cost(frozenset(current[dst_index] | {name}))
                    if dst_before is None or dst_after is None:
                        continue
                    delta = (src_after - src_before) + (dst_after - dst_before)
                    if delta < -1e-9:
                        current[src_index].discard(name)
                        current[dst_index].add(name)
                        improved = True
                        moved = True
                        break
                if moved:
                    break
        if improved:
            continue
        for a_index in range(len(current)):
            if improved:
                break
            for b_index in range(a_index + 1, len(current)):
                if improved:
                    break
                for name_a in sorted(current[a_index]):
                    if improved:
                        break
                    for name_b in sorted(current[b_index]):
                        new_a = frozenset(current[a_index] - {name_a} | {name_b})
                        new_b = frozenset(current[b_index] - {name_b} | {name_a})
                        old_cost_a = bin_cost(frozenset(current[a_index]))
                        old_cost_b = bin_cost(frozenset(current[b_index]))
                        new_cost_a = bin_cost(new_a)
                        new_cost_b = bin_cost(new_b)
                        if None in (old_cost_a, old_cost_b, new_cost_a, new_cost_b):
                            continue
                        if (new_cost_a + new_cost_b) < (old_cost_a + old_cost_b) - 1e-9:
                            current[a_index] = set(new_a)
                            current[b_index] = set(new_b)
                            improved = True
                            break
        if not improved:
            break
    return [frozenset(b) for b in current]


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
) -> AllocationResult:
    evaluator = _Evaluator(program, conflicts, library, frame_time_s, nest_loads)

    background: Dict[str, bool] = {g.name: False for g in program.groups}
    touched: Dict[str, bool] = {g.name: False for g in program.groups}
    for nest in program.nests:
        for access in nest.iter_accesses():
            touched[access.group] = True
            if not access.foreground:
                background[access.group] = True
    register_names = sorted(
        name for name in background if touched[name] and not background[name]
    )
    register_bins = [evaluator.register_bin(name) for name in register_names]

    remaining = [g for g in program.groups if g.name not in register_names]
    onchip_groups, offchip_groups = library.split(remaining)
    onchip_names = [g.name for g in onchip_groups]
    offchip_names = [g.name for g in offchip_groups]

    offchip_bins = _assign_offchip(offchip_names, evaluator)

    if not onchip_names:
        counts = [0]
    elif n_onchip is None:
        counts = list(range(1, len(onchip_names) + 1))
    else:
        if n_onchip < 1 or n_onchip > len(onchip_names):
            raise AssignmentError(
                f"cannot allocate {n_onchip} on-chip memories for "
                f"{len(onchip_names)} groups"
            )
        counts = list(range(n_onchip, len(onchip_names) + 1))

    traffic = {name: evaluator.counts[name].total for name in onchip_names}
    orders = [
        sorted(onchip_names, key=lambda n: (-evaluator.geometry[n][1], -traffic[n])),
        sorted(onchip_names, key=lambda n: -traffic[n]),
        sorted(onchip_names, key=lambda n: (-traffic[n], evaluator.geometry[n][1])),
    ]

    best_bins: Optional[List[MemoryBin]] = None
    best_cost = float("inf")
    for count in counts:
        if count == 0:
            if 0.0 < best_cost:
                best_cost = 0.0
                best_bins = []
            continue
        found_at_count = False
        for order in orders:
            seeded = _greedy_onchip(onchip_names, count, evaluator, area_weight, order)
            if seeded is None:
                continue
            refined = _local_search(seeded, evaluator, area_weight)
            bins = []
            legal = True
            for groups in refined:
                evaluated = evaluator.evaluate(groups, offchip=False)
                if evaluated is None:
                    legal = False
                    break
                bins.append(evaluated)
            if not legal or len(bins) != count:
                continue
            found_at_count = True
            cost = _scalar(bins, area_weight)
            if cost < best_cost - 1e-9:
                best_cost = cost
                best_bins = bins
        if n_onchip is not None and found_at_count:
            break
    if best_bins is None:
        raise AssignmentError(
            f"no legal on-chip assignment found (n_onchip={n_onchip})"
        )

    scalar_cost = (
        best_cost
        + _scalar(offchip_bins, area_weight)
        + _scalar(register_bins, area_weight)
    )
    return AllocationResult(
        label=label or program.name,
        onchip=tuple(sorted(best_bins, key=lambda b: -b.area_mm2)),
        registers=tuple(register_bins),
        offchip=tuple(sorted(offchip_bins, key=lambda b: -b.power_mw)),
        cycles_used=cycles_used,
        cycle_budget=cycle_budget,
        scalar_cost=scalar_cost,
    )
