"""The top-level program specification.

A :class:`Program` bundles array declarations, the basic-group partition
and the loop nests of the pruned specification.  Programs are immutable;
the design-step transforms (structuring, hierarchy insertion, ...) return
modified copies, so an exploration session can keep many alternatives
alive at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .arrays import ArrayDecl, BasicGroup
from .loops import Access, LoopNest
from .types import AccessKind, IRError


@dataclass(frozen=True)
class AccessCounts:
    """Read/write totals for one basic group."""

    reads: float = 0.0
    writes: float = 0.0

    @property
    def total(self) -> float:
        return self.reads + self.writes

    def __add__(self, other: "AccessCounts") -> "AccessCounts":
        return AccessCounts(self.reads + other.reads, self.writes + other.writes)


@dataclass(frozen=True)
class Program:
    """An application specification ready for memory exploration."""

    name: str
    arrays: Tuple[ArrayDecl, ...]
    groups: Tuple[BasicGroup, ...]
    nests: Tuple[LoopNest, ...]
    description: str = ""

    def __post_init__(self) -> None:
        array_names = [array.name for array in self.arrays]
        if len(array_names) != len(set(array_names)):
            raise IRError(f"program {self.name!r} has duplicate array names")
        group_names = [group.name for group in self.groups]
        if len(group_names) != len(set(group_names)):
            raise IRError(f"program {self.name!r} has duplicate basic group names")
        nest_names = [nest.name for nest in self.nests]
        if len(nest_names) != len(set(nest_names)):
            raise IRError(f"program {self.name!r} has duplicate nest names")
        known = set(group_names)
        for nest in self.nests:
            for access in nest.iter_accesses():
                if access.group not in known:
                    raise IRError(
                        f"nest {nest.name!r} accesses unknown basic group "
                        f"{access.group!r}"
                    )

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def array(self, name: str) -> ArrayDecl:
        for array in self.arrays:
            if array.name == name:
                return array
        raise KeyError(f"program {self.name!r} has no array {name!r}")

    def group(self, name: str) -> BasicGroup:
        for group in self.groups:
            if group.name == name:
                return group
        raise KeyError(f"program {self.name!r} has no basic group {name!r}")

    def nest(self, name: str) -> LoopNest:
        for nest in self.nests:
            if nest.name == name:
                return nest
        raise KeyError(f"program {self.name!r} has no nest {name!r}")

    @property
    def group_names(self) -> Tuple[str, ...]:
        return tuple(group.name for group in self.groups)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def access_counts(self) -> Dict[str, AccessCounts]:
        """Total read/write counts per basic group over the whole program."""
        counts: Dict[str, AccessCounts] = {
            group.name: AccessCounts() for group in self.groups
        }
        for nest in self.nests:
            for access in nest.iter_accesses():
                executions = nest.iterations * access.expected_accesses
                current = counts[access.group]
                if access.kind is AccessKind.READ:
                    counts[access.group] = current + AccessCounts(reads=executions)
                else:
                    counts[access.group] = current + AccessCounts(writes=executions)
        return counts

    def total_accesses(self) -> float:
        return sum(count.total for count in self.access_counts().values())

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def with_groups(self, groups: Iterable[BasicGroup]) -> "Program":
        return replace(self, groups=tuple(groups))

    def with_nests(self, nests: Iterable[LoopNest]) -> "Program":
        return replace(self, nests=tuple(nests))

    def with_groups_and_nests(
        self, groups: Iterable[BasicGroup], nests: Iterable[LoopNest]
    ) -> "Program":
        """Atomic replacement (validation sees the final state only)."""
        return replace(self, groups=tuple(groups), nests=tuple(nests))

    def renamed(self, name: str, description: Optional[str] = None) -> "Program":
        return replace(
            self,
            name=name,
            description=self.description if description is None else description,
        )

    def map_accesses(self, mapper) -> "Program":
        """Apply :meth:`LoopNest.map_accesses` to every nest."""
        return self.with_nests(nest.map_accesses(mapper) for nest in self.nests)

    def replace_group(
        self,
        old_names: Tuple[str, ...],
        new_group: BasicGroup,
        retarget: Optional[Mapping[str, str]] = None,
    ) -> "Program":
        """Swap basic groups ``old_names`` for ``new_group``.

        Accesses to any of the old groups are retargeted at ``new_group``
        (or per ``retarget`` when given).
        """
        missing = [name for name in old_names if name not in self.group_names]
        if missing:
            raise KeyError(f"program {self.name!r} has no basic group(s) {missing}")
        kept = [group for group in self.groups if group.name not in old_names]
        mapping = dict(retarget or {})
        for name in old_names:
            mapping.setdefault(name, new_group.name)

        def mapper(access: Access):
            if access.group in mapping:
                return access.retargeted(mapping[access.group])
            return access

        new_nests = [nest.map_accesses(mapper) for nest in self.nests]
        return self.with_groups_and_nests(kept + [new_group], new_nests)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> str:
        """A human-readable overview used in example scripts."""
        counts = self.access_counts()
        lines = [
            f"Program {self.name!r}: {len(self.groups)} basic groups, "
            f"{len(self.nests)} loop nests, "
            f"{self.total_accesses():,.0f} memory accesses",
        ]
        header = f"  {'group':<18}{'words':>10}{'bits':>6}{'reads':>14}{'writes':>14}"
        lines.append(header)
        for group in sorted(self.groups, key=lambda g: -g.bits):
            count = counts[group.name]
            lines.append(
                f"  {group.name:<18}{group.words:>10,}{group.bitwidth:>6}"
                f"{count.reads:>14,.0f}{count.writes:>14,.0f}"
            )
        return "\n".join(lines)
