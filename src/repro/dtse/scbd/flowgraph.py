"""Per-loop-body memory access flow graphs.

The storage-cycle-budget-distribution step works on one loop body at a
time: its access sites become *occurrences* (a site executing more than
once per iteration expands into several occurrences), dependence edges
carry over, and the scheduler packs occurrences into the body's cycle
budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Hashable, List

from ...ir.loops import LoopNest
from ...ir.types import AccessKind


class InfeasibleBudget(ValueError):
    """Raised when a body budget is below its dependence critical path."""


@dataclass(frozen=True)
class Occurrence:
    """One schedulable access occurrence inside a loop body."""

    label: str
    site: str
    group: str
    kind: AccessKind
    #: Execution probability of the site (per body iteration).
    probability: float
    #: Expected accesses carried by this occurrence when the site fires.
    share: float = 1.0
    #: Mutual-exclusion tag inherited from the site.
    exclusive_class: str = ""

    @property
    def expected(self) -> float:
        """Expected accesses per body iteration."""
        return self.probability * self.share


class BodyFlowGraph:
    """The dependence DAG of one loop body's access occurrences."""

    def __init__(self, nest: LoopNest) -> None:
        self.nest_name = nest.name
        self.iterations = nest.iterations
        self.occurrences: List[Occurrence] = []
        site_to_occurrences: Dict[str, List[str]] = {}
        foreground_sites = set()
        for access in nest.iter_accesses():
            if access.foreground:
                # Register-file traffic: costs no storage cycles.
                foreground_sites.add(access.label)
                site_to_occurrences[access.label] = []
                continue
            copies = max(1, math.ceil(access.multiplicity))
            share = access.multiplicity / copies
            labels = []
            for copy in range(copies):
                label = access.label if copies == 1 else f"{access.label}#{copy}"
                labels.append(label)
                self.occurrences.append(
                    Occurrence(
                        label=label,
                        site=access.label,
                        group=access.group,
                        kind=access.kind,
                        probability=access.probability,
                        share=share,
                        exclusive_class=access.exclusive_class or "",
                    )
                )
            site_to_occurrences[access.label] = labels
        # Bridge site-level dependences through foreground sites (their
        # accesses cost no cycles but still order their neighbours).
        site_edges = set(nest.dependences)
        changed = True
        while changed:
            changed = False
            for src, dst in list(site_edges):
                if dst in foreground_sites:
                    for src2, dst2 in list(site_edges):
                        if src2 == dst and (src, dst2) not in site_edges:
                            site_edges.add((src, dst2))
                            changed = True
        pred_sets: Dict[str, set] = {occ.label: set() for occ in self.occurrences}
        for src_site, dst_site in site_edges:
            sources = site_to_occurrences[src_site]
            targets = site_to_occurrences[dst_site]
            if not sources or not targets:
                continue
            # Pipelined walk semantics: step i of the consumer follows
            # step i of the producer (two multi-access walks overlap in
            # hardware; only matching steps are ordered).
            for index, dst in enumerate(targets):
                src = sources[min(index, len(sources) - 1)]
                pred_sets[dst].add(src)
        # Occurrences of one site are inherently sequential (repeated
        # executions of the same access in one iteration, e.g. a tree
        # walk): chain them so the scheduler cannot fake parallelism.
        for labels in site_to_occurrences.values():
            for src, dst in zip(labels, labels[1:]):
                pred_sets[dst].add(src)
        self.preds = {label: frozenset(srcs) for label, srcs in pred_sets.items()}
        self.succs: Dict[str, FrozenSet[str]] = self._invert(self.preds)
        self._by_label = {occ.label: occ for occ in self.occurrences}
        self._depth_from_source = self._longest_paths(self.preds)
        self._depth_to_sink = self._longest_paths(self.succs)
        #: The balancer's budget-independent tables, one per set of
        #: weight and cap values, held as long as the graph.
        self.kernel_tables: Dict[Hashable, Any] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def _invert(edges: Dict[str, FrozenSet[str]]) -> Dict[str, FrozenSet[str]]:
        inverted: Dict[str, set] = {label: set() for label in edges}
        for dst, sources in edges.items():
            for src in sources:
                inverted[src].add(dst)
        return {label: frozenset(targets) for label, targets in inverted.items()}

    def _longest_paths(self, preds: Dict[str, FrozenSet[str]]) -> Dict[str, int]:
        """Longest chain ending at each node (1 = source node)."""
        depth: Dict[str, int] = {}

        def visit(label: str) -> int:
            if label not in depth:
                best = 0
                for source in preds[label]:
                    best = max(best, visit(source))
                depth[label] = best + 1
            return depth[label]

        for label in preds:
            visit(label)
        return depth

    # ------------------------------------------------------------------
    def occurrence(self, label: str) -> Occurrence:
        return self._by_label[label]

    @property
    def macp(self) -> int:
        """Body critical path in cycles."""
        return max(self._depth_from_source.values(), default=0)

    @property
    def sequential_length(self) -> int:
        """Cycles needed when every occurrence has its own cycle."""
        return len(self.occurrences)

    def asap(self, label: str) -> int:
        """Earliest feasible cycle (1-based)."""
        return self._depth_from_source[label]

    def alap(self, label: str, budget: int) -> int:
        """Latest feasible cycle under ``budget``."""
        return budget - self._depth_to_sink[label] + 1

    def check_budget(self, budget: int) -> None:
        if budget < self.macp:
            raise InfeasibleBudget(
                f"nest {self.nest_name!r}: budget {budget} below critical "
                f"path {self.macp}"
            )

    def topological_order(self) -> List[Occurrence]:
        """Occurrences ordered so predecessors come first."""
        return sorted(
            self.occurrences,
            key=lambda occ: (self._depth_from_source[occ.label], occ.label),
        )
