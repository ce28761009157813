"""The system-level exploration session (the paper's contribution).

An :class:`ExplorationSession` is the designer-facing decision log of
the stepwise methodology of Figure 1: every alternative evaluated is
recorded with its step name, cost report and wall-clock evaluation time,
so the exploration tree can be rendered afterwards (our Figure 1
regeneration).

The session evaluates nothing itself.  A
:class:`~repro.explore.strategies.GreedyStepwise` walk, driven by the
:class:`~repro.explore.engine.Explorer`, fills it through
:meth:`ExplorationSession.log_record` and marks each step's decision
with :meth:`ExplorationSession.choose`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..costs.report import CostReport
from .engine import ExplorationRecord


@dataclass
class Evaluation:
    """One evaluated design alternative."""

    step: str
    label: str
    program_name: str
    report: CostReport
    seconds: float
    chosen: bool = False


@dataclass
class ExplorationSession:
    """The decision log of a feedback-driven exploration."""

    evaluations: List[Evaluation] = field(default_factory=list)

    def log_record(self, record: ExplorationRecord) -> Evaluation:
        """Mirror an engine record into the decision log."""
        evaluation = Evaluation(
            step=record.step,
            label=record.label,
            program_name=record.program_name,
            report=record.report,
            seconds=record.seconds,
        )
        self.evaluations.append(evaluation)
        return evaluation

    def choose(self, step: str, label: str) -> None:
        """Mark one alternative of a step as the decision taken.

        Re-choosing within a step moves the mark: any previously chosen
        alternative of that step is cleared first, so exactly the
        alternatives labelled ``label`` stay marked.
        """
        if not any(
            e.step == step and e.label == label for e in self.evaluations
        ):
            raise KeyError(f"no evaluation {label!r} in step {step!r}")
        for evaluation in self.evaluations:
            if evaluation.step == step:
                evaluation.chosen = evaluation.label == label

    def alternatives(self, step: str) -> List[Evaluation]:
        return [e for e in self.evaluations if e.step == step]

    def steps(self) -> List[str]:
        seen: List[str] = []
        for evaluation in self.evaluations:
            if evaluation.step not in seen:
                seen.append(evaluation.step)
        return seen

    def render_tree(self) -> str:
        """The exploration tree: our regeneration of the paper's Fig. 1.

        Every methodology step is one layer; the evaluated alternatives
        fan out below it with their cost feedback; the chosen branch is
        marked — the 'Estimated A/T/P to guide decision' loop made
        concrete.
        """
        lines = ["Pruned System Specification", "        |"]
        for step in self.steps():
            alternatives = self.alternatives(step)
            lines.append(f"  [{step}]  ({len(alternatives)} alternatives evaluated)")
            for evaluation in alternatives:
                marker = "=>" if evaluation.chosen else "  "
                report = evaluation.report
                lines.append(
                    f"   {marker} {evaluation.label:<28}"
                    f" {report.onchip_area_mm2:7.1f} mm2"
                    f" {report.onchip_power_mw:7.1f} mW on-chip"
                    f" {report.offchip_power_mw:7.1f} mW off-chip"
                    f"   [{evaluation.seconds:.1f}s]"
                )
            lines.append("        |")
        lines.append("  [Physical memory management]  ->  accurate A/T/P")
        return "\n".join(lines)
