"""The canonical BTPC exploration: every table and figure of the paper.

This module chains the methodology exactly as the paper does:

1. **Table 1** — basic group structuring alternatives, evaluated at the
   full cycle budget (no hierarchy yet).  Decision: merge ``ridge`` and
   ``pyr``.
2. **Table 2** — memory hierarchy alternatives for ``image`` on the
   merged program.  Decision: layer 0 only (the 12-register window).
3. **Table 3** — storage-cycle-budget trade-off on the chosen program at
   the designer's 4-memory allocation: how many cycles can be handed
   back to the datapath before the memory organization cost rises.
4. **Table 4** — memory allocation exploration (number of on-chip
   memories) at the tightened budget.

Since the ``repro.api`` redesign the study is a thin adapter over the
exploration engine: the alternatives are variants of the declarative
BTPC :class:`~repro.explore.space.DesignSpace` shared with the workload
registry (:func:`~repro.apps.btpc.app.build_btpc_space`) and the walk
itself is a :class:`~repro.explore.strategies.GreedyStepwise` strategy
whose decisions are the paper's designer decisions.  The exploration
tree (Fig. 1) renders from the walk's
:class:`~repro.explore.engine.ExplorationResult`
(:func:`render_tree`).

Figures 1-3 are regenerated as text artifacts: the exploration tree with
its cost feedback (Fig. 1), the structuring transforms' concrete effect
(Fig. 2) and the reuse/hierarchy layering for ``image`` (Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps.btpc import BtpcConstraints, BtpcProfile, profile_btpc
from ..apps.btpc.app import (  # noqa: F401 - re-exported for compatibility
    CHOSEN_BUDGET_FRACTION,
    HIERARCHY_VARIANTS,
    RMW_EXEMPT,
    STRUCTURING_VARIANTS,
    TABLE3_ALLOCATION,
    TABLE3_FRACTIONS,
    TABLE4_COUNTS,
    build_btpc_space,
)
from ..costs.report import CostReport, render_cost_table
from ..dtse.reuse import describe_stencil, find_stencil
from ..dtse.structuring import compact_group
from ..ir.program import Program
from ..memlib.library import MemoryLibrary, default_library
from .engine import ExplorationRecord, ExplorationResult, Explorer
from .strategies import GreedyStep, GreedyStepwise

# The methodology steps (and their Fig. 1 layer names), in walk order.
STEP_STRUCTURING = "Basic group structuring"
STEP_HIERARCHY = "Memory hierarchy"
STEP_BUDGET = "Cycle budget"
STEP_ALLOCATION = "Memory allocation"
STEP_ORDER = (STEP_STRUCTURING, STEP_HIERARCHY, STEP_BUDGET, STEP_ALLOCATION)

#: The paper's decision at each step.
DECISIONS = {
    STEP_STRUCTURING: "ridge and pyr merged",
    STEP_HIERARCHY: "Only layer 0 (ylocal)",
    STEP_BUDGET: f"{CHOSEN_BUDGET_FRACTION:.0%} budget",
    STEP_ALLOCATION: "8 on-chip memories",
}


def render_tree(result: ExplorationResult) -> str:
    """The exploration tree: our regeneration of the paper's Fig. 1.

    Every methodology step is one layer; the evaluated alternatives
    fan out below it with their cost feedback; the chosen branch (the
    step's entry in ``result.decisions``) is marked — the 'Estimated
    A/T/P to guide decision' loop made concrete.
    """
    steps: Dict[str, List[ExplorationRecord]] = {}
    for record in result.records:
        steps.setdefault(record.step, []).append(record)
    lines = ["Pruned System Specification", "        |"]
    for step, alternatives in steps.items():
        lines.append(f"  [{step}]  ({len(alternatives)} alternatives evaluated)")
        for record in alternatives:
            marker = "=>" if record.label == result.decisions.get(step) else "  "
            report = record.report
            lines.append(
                f"   {marker} {record.label:<28}"
                f" {report.onchip_area_mm2:7.1f} mm2"
                f" {report.onchip_power_mw:7.1f} mW on-chip"
                f" {report.offchip_power_mw:7.1f} mW off-chip"
                f"   [{record.seconds:.1f}s]"
            )
        lines.append("        |")
    lines.append("  [Physical memory management]  ->  accurate A/T/P")
    return "\n".join(lines)


@dataclass
class BtpcStudy:
    """Runs (and caches) the full BTPC exploration via the engine."""

    constraints: BtpcConstraints = field(default_factory=BtpcConstraints)
    profile: Optional[BtpcProfile] = None
    library: MemoryLibrary = field(default_factory=default_library)
    #: Process-parallelism for batch evaluation (1 = in-process).
    workers: int = 1

    def __post_init__(self) -> None:
        if self.profile is None:
            self.profile = profile_btpc()
        # The declarative design space, shared with the workload
        # registry (one definition, one set of memoization fingerprints).
        self.space = build_btpc_space(
            self.constraints, self.profile, self.library
        )
        self.explorer = Explorer(self.space, workers=self.workers)
        self._results: Dict[str, ExplorationResult] = {}

    def hierarchy_alternative(self, name: str) -> Program:
        """One of the four Table 2 programs (built once, by the space)."""
        return self.space.program(name)

    # ------------------------------------------------------------------
    # Programs along the decision chain
    # ------------------------------------------------------------------
    @property
    def base_program(self) -> Program:
        """The pruned specification (built once by the space)."""
        return self.space.program("No structuring")

    @property
    def merged_program(self) -> Program:
        """After the Table 1 decision (ridge+pyr merged)."""
        return self.space.program("ridge and pyr merged")

    @property
    def hierarchy_program(self) -> Program:
        """After the Table 2 decision (layer 0 registers)."""
        return self.hierarchy_alternative(DECISIONS[STEP_HIERARCHY])

    @property
    def chosen_budget(self) -> int:
        return int(self.constraints.cycle_budget * CHOSEN_BUDGET_FRACTION)

    # ------------------------------------------------------------------
    # The greedy walk
    # ------------------------------------------------------------------
    def greedy_steps(self) -> List[GreedyStep]:
        """The paper's four methodology steps with its fixed decisions."""
        point = self.space.point
        chosen_hier = DECISIONS[STEP_HIERARCHY]
        return [
            GreedyStep(
                STEP_STRUCTURING,
                points=[point(name) for name in STRUCTURING_VARIANTS],
                select=DECISIONS[STEP_STRUCTURING],
            ),
            GreedyStep(
                STEP_HIERARCHY,
                points=[point(name) for name in HIERARCHY_VARIANTS],
                select=DECISIONS[STEP_HIERARCHY],
            ),
            GreedyStep(
                STEP_BUDGET,
                points=[
                    point(
                        chosen_hier,
                        budget_fraction=fraction,
                        n_onchip=TABLE3_ALLOCATION,
                        label=f"{fraction:.0%} budget",
                    )
                    for fraction in TABLE3_FRACTIONS
                ],
                select=DECISIONS[STEP_BUDGET],
            ),
            GreedyStep(
                STEP_ALLOCATION,
                points=[
                    point(
                        chosen_hier,
                        budget_fraction=CHOSEN_BUDGET_FRACTION,
                        n_onchip=count,
                        label=f"{count} on-chip memories",
                    )
                    for count in TABLE4_COUNTS
                ],
                select=DECISIONS[STEP_ALLOCATION],
            ),
        ]

    def strategy(self) -> GreedyStepwise:
        """The full four-step walk as a reusable strategy object."""
        return GreedyStepwise(self.greedy_steps())

    def _step(self, name: str) -> ExplorationResult:
        """Run (once) and cache one methodology step."""
        if name not in self._results:
            step = next(s for s in self.greedy_steps() if s.name == name)
            self._results[name] = self.explorer.run(GreedyStepwise([step]))
        return self._results[name]

    def explore(self) -> ExplorationResult:
        """Walk all four steps and return the structured result."""
        result = ExplorationResult(
            space_name=self.space.name, strategy=GreedyStepwise.name
        )
        for name in STEP_ORDER:
            walk = self._step(name)
            result.records.extend(walk.records)
            result.decisions.update(walk.decisions)
        return result

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------
    def table1(self) -> List[CostReport]:
        """Basic group structuring (paper Table 1)."""
        return [record.report for record in self._step(STEP_STRUCTURING).records]

    def table2(self) -> List[CostReport]:
        """Memory hierarchy decision (paper Table 2)."""
        return [record.report for record in self._step(STEP_HIERARCHY).records]

    def table3(self) -> List[Tuple[float, CostReport]]:
        """Cycle budget distribution trade-off (paper Table 3).

        Returns (extra cycles for the datapath, report) rows.  Evaluated
        at the designer's working allocation, like the paper (its
        15.7 % row equals Table 4's 4-memory row).
        """
        full = self.constraints.cycle_budget
        return [
            (full - record.report.cycles_used, record.report)
            for record in self._step(STEP_BUDGET).records
        ]

    def table4(self) -> List[Tuple[int, CostReport]]:
        """Memory allocation exploration (paper Table 4)."""
        return [
            (count, record.report)
            for count, record in zip(
                TABLE4_COUNTS, self._step(STEP_ALLOCATION).records
            )
        ]

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------
    def figure1(self) -> str:
        """The stepwise methodology tree with live cost feedback."""
        return render_tree(self.explore())

    def figure2(self) -> str:
        """Concrete before/after of compaction and merging (Fig. 2)."""
        base = self.base_program
        compacted = compact_group(base, "ridge", 3)
        merged = self.merged_program
        ridge = base.group("ridge")
        pyr = base.group("pyr")
        ridge_c = compacted.group("ridge_x3")
        record = merged.group("pyrridge")
        base_counts = base.access_counts()
        comp_counts = compacted.access_counts()
        merge_counts = merged.access_counts()
        lines = [
            "(a) basic group compaction:",
            f"    ridge    {ridge.words:>9,} words x {ridge.bitwidth:>2} bit"
            f"  ->  ridge_x3 {ridge_c.words:>9,} words x {ridge_c.bitwidth:>2} bit",
            f"    accesses {base_counts['ridge'].total:>12,.0f}"
            f"  ->  {comp_counts['ridge_x3'].total:>12,.0f}"
            "   (reads coalesce; writes turn read-modify-write)",
            "",
            "(b) basic group merging:",
            f"    pyr      {pyr.words:>9,} words x {pyr.bitwidth:>2} bit   +"
            f"  ridge {ridge.words:>9,} words x {ridge.bitwidth:>2} bit",
            f"    ->  pyrridge {record.words:>9,} words x {record.bitwidth:>2} bit"
            " (record: value + class)",
            "    accesses "
            f"{base_counts['pyr'].total + base_counts['ridge'].total:>12,.0f}"
            f"  ->  {merge_counts['pyrridge'].total:>12,.0f}"
            "   (co-indexed pairs collapse into record accesses)",
        ]
        return "\n".join(lines)

    def figure3(self) -> str:
        """The memory hierarchy layering for image (Fig. 3)."""
        pattern = find_stencil(self.base_program, "encode_l0", "image")
        assert pattern is not None
        image = self.base_program.array("image")
        row_length = image.shape[1]
        window = pattern.window_words
        buffer_words = pattern.rowbuffer_words(row_length)
        lines = [
            describe_stencil(pattern, row_length),
            "",
            "  Layer 2          Layer 1            Layer 0        Data-paths",
            "  image         -> yhier           -> ylocal      -> predict",
            f"  {image.words:,} x8     {buffer_words:,} x8 (2-port)"
            f"   {window} registers",
            "  off-chip DRAM    on-chip SRAM       foreground",
            "",
            f"  feed rates: image->yhier {pattern.rowbuffer_feed_per_iteration():.2f}"
            f" w/iter, yhier->ylocal {pattern.window_feed_per_iteration():.2f} w/iter,"
            f" stencil {pattern.reads_per_iteration:.2f} reads/iter",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def render_all(self) -> str:
        """All four tables as text (the EXPERIMENTS.md payload)."""
        sections = [
            render_cost_table(self.table1(), "Table 1: basic group structuring")
        ]
        sections.append(
            render_cost_table(self.table2(), "Table 2: memory hierarchy decision")
        )
        full = self.constraints.cycle_budget
        rows3 = [
            CostReport(
                label=f"{extra:>11,.0f} ({extra / full:5.1%})",
                memories=report.memories,
                cycles_used=report.cycles_used,
                cycle_budget=report.cycle_budget,
            )
            for extra, report in self.table3()
        ]
        sections.append(
            render_cost_table(
                rows3,
                "Table 3: extra cycles for the datapath vs. cost",
                label_header="Extra cycles",
            )
        )
        rows4 = [
            CostReport(
                label=f"{count} on-chip memories",
                memories=report.memories,
                cycles_used=report.cycles_used,
                cycle_budget=report.cycle_budget,
            )
            for count, report in self.table4()
        ]
        sections.append(
            render_cost_table(rows4, "Table 4: memory allocation exploration")
        )
        return "\n\n".join(sections)
