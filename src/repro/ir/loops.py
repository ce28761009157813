"""Loop nests, statements and memory accesses.

The pruned specification is a flat list of :class:`LoopNest` objects.
Each nest carries the loop structure (iterator names and trip counts,
outermost first) and a straight-line *body*: an ordered list of
:class:`Statement` objects whose :class:`Access` lists describe the
memory traffic of one body execution.  Dependences between accesses
(read-after-write on the same data, address computations, ...) are
recorded as edges between access labels; they constrain the access
ordering produced by the storage-cycle-budget-distribution step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .expr import AffineExpr
from .types import AccessKind, IRError


@dataclass(frozen=True)
class Access:
    """One memory access site inside a loop body.

    Parameters
    ----------
    group:
        Basic group name this access targets.
    kind:
        :data:`~repro.ir.types.READ` or :data:`~repro.ir.types.WRITE`.
    label:
        Unique label within the loop body; dependence edges refer to it.
    index:
        Optional affine index functions (one per array dimension) used by
        the reuse analysis.
    probability:
        Execution probability per body iteration.  Data-dependent
        conditionals (paper §3) are modelled by probabilities measured
        through profiling.  May exceed 1.0 when the site executes several
        times per body iteration.
    multiplicity:
        Number of *sequential* accesses performed when the site fires
        (e.g. a tree walk of average depth 3.4).  The scheduler expands
        the site into ``ceil(multiplicity)`` chained occurrences.
        Expected accesses per iteration = probability * multiplicity.
    pair_key:
        Accesses within the same nest sharing a ``pair_key`` hit the
        *same address in the same body iteration* (e.g. ``pyr[i]`` and
        ``ridge[i]``).  The basic-group merging transform uses this to
        recognize accesses that collapse into one after a merge.
    exclusive_class:
        Mutual-exclusion tag with prefix semantics: two accesses whose
        tags are *incomparable* (neither is a prefix of the other, split
        on ``:``) never execute in the same iteration — e.g. the H/V/D
        pixel types of BTPC, or its six pattern-selected coders
        (``"D:0"`` vs ``"D:1"``).  Exclusive accesses may share a cycle
        and a memory port.
    dram_rows:
        Number of distinct DRAM rows the site's access stream keeps
        alive (1 = raster/sequential, page-burst friendly; a vertical
        stencil touching rows y-1..y+1 keeps 3).  Drives the off-chip
        page-mode locality model.
    foreground:
        Foreground accesses are served by datapath registers: they cost
        energy but no storage cycles (they vanish from the SCBD flow
        graphs).  Used for register-file hierarchy layers (paper §4.4:
        the 12-register ``ylocal``).

    A probability above 1.0 with default multiplicity is shorthand for
    ``probability=1, multiplicity=p`` and is normalized on construction.
    """

    group: str
    kind: AccessKind
    label: str
    index: Optional[Tuple[AffineExpr, ...]] = None
    probability: float = 1.0
    multiplicity: float = 1.0
    pair_key: Optional[str] = None
    exclusive_class: Optional[str] = None
    dram_rows: int = 1
    foreground: bool = False

    def __post_init__(self) -> None:
        if not self.label:
            raise IRError("access label must be non-empty")
        if self.probability < 0:
            raise IRError(f"access {self.label!r} has negative probability")
        if self.multiplicity <= 0:
            raise IRError(f"access {self.label!r} has non-positive multiplicity")
        if self.probability > 1.0 and self.multiplicity == 1.0:
            object.__setattr__(self, "multiplicity", self.probability)
            object.__setattr__(self, "probability", 1.0)

    @property
    def expected_accesses(self) -> float:
        """Expected accesses per body iteration."""
        return self.probability * self.multiplicity

    @property
    def is_read(self) -> bool:
        return self.kind is AccessKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.WRITE

    def retargeted(self, group: str) -> "Access":
        """The same access aimed at a different basic group."""
        return replace(self, group=group)

    def scaled(self, factor: float) -> "Access":
        """The same access with its probability scaled by ``factor``."""
        return replace(self, probability=self.probability * factor)


def are_exclusive(tag_a: Optional[str], tag_b: Optional[str]) -> bool:
    """Whether two exclusive-class tags denote mutually exclusive accesses.

    Tags form a hierarchy with ``:`` separators.  Incomparable tags
    (neither a prefix of the other) are exclusive; equal or nested tags
    co-occur; untagged accesses co-occur with everything.

    >>> are_exclusive("H", "V")
    True
    >>> are_exclusive("D", "D:0")
    False
    >>> are_exclusive("D:0", "D:1")
    True
    >>> are_exclusive(None, "H")
    False
    """
    if tag_a is None or tag_b is None or tag_a == tag_b:
        return False
    parts_a = tag_a.split(":")
    parts_b = tag_b.split(":")
    depth = min(len(parts_a), len(parts_b))
    return parts_a[:depth] != parts_b[:depth]


@dataclass(frozen=True)
class Statement:
    """A group of accesses belonging to one source statement."""

    label: str
    accesses: Tuple[Access, ...] = ()
    #: Datapath (non-memory) work in cycles, used by the pruning step to
    #: decide whether a statement is memory-relevant.
    work_cycles: int = 0

    def __post_init__(self) -> None:
        labels = [access.label for access in self.accesses]
        if len(labels) != len(set(labels)):
            raise IRError(f"statement {self.label!r} has duplicate access labels")


@dataclass(frozen=True)
class LoopNest:
    """A manifest loop nest with a straight-line body.

    ``iterators`` and ``trip_counts`` describe the nesting, outermost
    first.  ``dependences`` is a set of ``(producer_label, consumer_label)``
    pairs between accesses of the body: the consumer may not be scheduled
    before the producer within one body execution.
    """

    name: str
    iterators: Tuple[str, ...]
    trip_counts: Tuple[int, ...]
    body: Tuple[Statement, ...]
    dependences: FrozenSet[Tuple[str, str]] = frozenset()
    #: Execution probability of the whole nest (e.g. a conditional branch
    #: around it); multiplies the iteration count.
    probability: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if len(self.iterators) != len(self.trip_counts):
            raise IRError(
                f"nest {self.name!r}: {len(self.iterators)} iterators but "
                f"{len(self.trip_counts)} trip counts"
            )
        if any(count <= 0 for count in self.trip_counts):
            raise IRError(f"nest {self.name!r} has non-positive trip count")
        if len(set(self.iterators)) != len(self.iterators):
            raise IRError(f"nest {self.name!r} has duplicate iterators")
        labels = [access.label for access in self.iter_accesses()]
        if len(labels) != len(set(labels)):
            raise IRError(f"nest {self.name!r} has duplicate access labels")
        label_set = set(labels)
        for src, dst in self.dependences:
            if src not in label_set or dst not in label_set:
                raise IRError(
                    f"nest {self.name!r}: dependence ({src!r}, {dst!r}) "
                    "references unknown access label"
                )
        if self._has_cycle():
            raise IRError(f"nest {self.name!r} has a cyclic dependence")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def iterations(self) -> float:
        """Total number of body executions (probability-weighted)."""
        return math.prod(self.trip_counts) * self.probability

    def iter_accesses(self) -> Iterator[Access]:
        for statement in self.body:
            yield from statement.accesses

    def access(self, label: str) -> Access:
        for candidate in self.iter_accesses():
            if candidate.label == label:
                return candidate
        raise KeyError(f"nest {self.name!r} has no access labelled {label!r}")

    def access_count(self, label: str) -> float:
        """Total accesses of one site over the whole nest."""
        return self.iterations * self.access(label).expected_accesses

    def predecessors(self) -> Dict[str, Tuple[str, ...]]:
        """Dependence predecessors per access label."""
        preds: Dict[str, list] = {a.label: [] for a in self.iter_accesses()}
        for src, dst in sorted(self.dependences):
            preds[dst].append(src)
        return {label: tuple(sources) for label, sources in preds.items()}

    def _has_cycle(self) -> bool:
        preds = {a.label: set() for a in self.iter_accesses()}
        for src, dst in self.dependences:
            preds[dst].add(src)
        resolved: set = set()
        pending = dict(preds)
        while pending:
            ready = [label for label, srcs in pending.items() if srcs <= resolved]
            if not ready:
                return True
            for label in ready:
                resolved.add(label)
                del pending[label]
        return False

    # ------------------------------------------------------------------
    # Rewriting helpers used by program transforms
    # ------------------------------------------------------------------
    def map_accesses(self, mapper) -> "LoopNest":
        """A copy with every access passed through ``mapper``.

        ``mapper(access)`` returns an access, a sequence of accesses
        (fission) or ``None`` (deletion).  Dependence edges touching a
        deleted access are dropped; edges touching a fissioned access are
        duplicated onto every fragment.
        """
        new_body = []
        replacement: Dict[str, Tuple[str, ...]] = {}
        for statement in self.body:
            new_accesses = []
            for access in statement.accesses:
                mapped = mapper(access)
                if mapped is None:
                    replacement[access.label] = ()
                    continue
                if isinstance(mapped, Access):
                    mapped = (mapped,)
                else:
                    mapped = tuple(mapped)
                replacement[access.label] = tuple(a.label for a in mapped)
                new_accesses.extend(mapped)
            new_body.append(replace(statement, accesses=tuple(new_accesses)))
        new_edges = set()
        for src, dst in self.dependences:
            for new_src in replacement.get(src, (src,)):
                for new_dst in replacement.get(dst, (dst,)):
                    if new_src != new_dst:
                        new_edges.add((new_src, new_dst))
        return replace(
            self, body=tuple(new_body), dependences=frozenset(new_edges)
        )
