"""The (extended) conflict graph: SCBD's interface to allocation.

Accesses scheduled into the same cycle *conflict*: they must end up in
different memories, or in a memory with enough ports.  The conflict
graph aggregates, over all loop bodies, which basic groups conflict and
how often, plus the *concurrency profile*: for every (nest, cycle) slot,
which accesses may fire simultaneously.  Allocation uses the former for
legality/cost and the latter to size memory ports.

Port demand respects mutual exclusion: accesses with incomparable
exclusive-class tags (see :func:`repro.ir.loops.are_exclusive`) never
fire together, so they can share one port.  The demand of a slot is the
largest set of pairwise *co-firing* accesses — a maximum clique over the
co-fire relation, computed exactly (slots are small).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from ...ir.loops import are_exclusive
from .balancing import BodySchedule


def max_cofire(tags: Sequence[str]) -> int:
    """Largest pairwise co-firing subset of exclusive-class tags.

    Empty-string tags co-fire with everything.  Exact branch-and-bound
    over the co-fire graph (inputs are per-cycle access lists: tiny).
    """
    items = list(tags)
    best = 0

    def extend(chosen: List[str], remaining: List[str]) -> None:
        nonlocal best
        best = max(best, len(chosen))
        for index, tag in enumerate(remaining):
            if len(chosen) + len(remaining) - index <= best:
                return  # cannot beat the incumbent
            if all(not are_exclusive(tag or None, c or None) for c in chosen):
                extend(chosen + [tag], remaining[index + 1 :])

    extend([], items)
    return best


@dataclass(frozen=True)
class ConcurrencySlot:
    """Accesses sharing one (nest, cycle) slot."""

    nest: str
    cycle: int
    #: (group, exclusive_class) per occurrence scheduled in this slot.
    entries: Tuple[Tuple[str, str], ...]


class ConflictGraph:
    """Weighted conflict graph over basic groups."""

    def __init__(
        self,
        edges: Mapping[Tuple[str, str], float],
        slots: Sequence[ConcurrencySlot],
    ) -> None:
        #: (a, b) with a <= b -> accumulated expected co-access traffic.
        self.edges: Dict[Tuple[str, str], float] = dict(edges)
        self.slots: Tuple[ConcurrencySlot, ...] = tuple(slots)
        # The port-demand query's state: each distinct slot-entry tuple
        # once, and max_cofire per tag tuple it has met.
        self._entries = tuple(dict.fromkeys(slot.entries for slot in self.slots))
        self._cofire: Dict[Tuple[str, ...], int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_schedules(cls, schedules: Iterable[BodySchedule]) -> "ConflictGraph":
        edges: Dict[Tuple[str, str], float] = {}
        slots: List[ConcurrencySlot] = []
        for schedule in schedules:
            for a, b, weight in schedule.conflict_pairs():
                key = (a, b)
                edges[key] = edges.get(key, 0.0) + weight
            for cycle, members in schedule.cycles().items():
                if len(members) < 2:
                    continue
                slots.append(
                    ConcurrencySlot(
                        nest=schedule.nest_name,
                        cycle=cycle,
                        entries=tuple(
                            sorted(
                                (occ.group, occ.exclusive_class)
                                for occ in members
                            )
                        ),
                    )
                )
        return cls(edges, slots)

    # ------------------------------------------------------------------
    def groups(self) -> FrozenSet[str]:
        names = set()
        for a, b in self.edges:
            names.add(a)
            names.add(b)
        return frozenset(names)

    def are_conflicting(self, group_a: str, group_b: str) -> bool:
        key = (group_a, group_b) if group_a <= group_b else (group_b, group_a)
        return self.edges.get(key, 0.0) > 0.0

    def weight(self, group_a: str, group_b: str) -> float:
        key = (group_a, group_b) if group_a <= group_b else (group_b, group_a)
        return self.edges.get(key, 0.0)

    def self_conflict(self, group: str) -> float:
        return self.edges.get((group, group), 0.0)

    def port_requirement(self, group: str) -> int:
        """Ports a memory holding only ``group`` needs."""
        return self.ports_for((group,))

    def ports_for(self, groups: Iterable[str]) -> int:
        """Ports a memory holding all of ``groups`` needs.

        The peak, over slots, of the largest co-firing subset of the
        slot's accesses to ``groups`` (at least 1).  A slot with no more
        such accesses than the peak so far cannot raise it.
        """
        members = set(groups)
        peak = 1
        for entries in self._entries:
            if len(entries) <= peak:
                continue
            tags = tuple(tag for group, tag in entries if group in members)
            if len(tags) <= peak:
                continue
            demand = self._cofire.get(tags)
            if demand is None:
                demand = self._cofire[tags] = max_cofire(tags)
            peak = max(peak, demand)
        return peak

    def total_weight(self) -> float:
        return sum(self.edges.values())

    def clique_lower_bound(self) -> int:
        """Greedy lower bound on single-port memories needed.

        The size of a greedily-grown clique in the hard-conflict graph:
        groups that all pairwise conflict cannot share any single-port
        memory, so at least that many parallel memories (or ports) are
        needed.
        """
        ordered = sorted(
            self.groups(),
            key=lambda g: -sum(
                1 for other in self.groups() if self.are_conflicting(g, other)
            ),
        )
        clique: List[str] = []
        for group in ordered:
            if group in clique:
                continue
            if all(
                self.are_conflicting(group, member)
                for member in clique
                if member != group
            ):
                clique.append(group)
        return max(1, len(clique))

    def describe(self, top: int = 12) -> str:
        lines = [
            f"Conflict graph: {len(self.groups())} groups, "
            f"{len(self.edges)} conflict pairs, "
            f"clique lower bound {self.clique_lower_bound()}"
        ]
        ranked = sorted(self.edges.items(), key=lambda item: -item[1])[:top]
        for (a, b), weight in ranked:
            kind = "self" if a == b else "pair"
            lines.append(f"  {kind}: {a:<14} {b:<14} weight {weight:>14,.0f}")
        return "\n".join(lines)
