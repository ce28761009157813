"""The canonical entry point for memory-organization exploration.

``repro.api`` gathers the whole methodology behind one import::

    from repro.api import DesignSpace, Explorer, ExhaustiveSweep, pareto_front

    space = DesignSpace("demo", cycle_budget=50_000, frame_time_s=1e-3)
    space.add_variant("baseline", program=program)
    space.budget_fractions = (1.0, 0.9, 0.8)
    space.onchip_counts = (None, 2, 4)

    explorer = Explorer(space, workers=4)
    result = explorer.run(ExhaustiveSweep())
    for record in result.pareto_front():
        print(record.report.describe())

The pieces:

* **Describe** the application with :class:`ProgramBuilder`, or pull a
  registered workload by name — :func:`list_apps` / :func:`get_app` /
  ``DesignSpace.for_app("wavelet")`` — from the workload registry
  (:mod:`repro.apps.registry`).
* **Declare** the alternatives as a :class:`DesignSpace`: program
  variants (named transform thunks), cycle-budget fractions, on-chip
  memory counts and technology libraries.
* **Search** with a pluggable strategy — :class:`ExhaustiveSweep`,
  :class:`GreedyStepwise` (the paper's Figure-1 walk),
  :class:`ParetoRefine` or :class:`LinearFrontier` (adaptive
  weighted-sum front bracketing) — through an :class:`Explorer` that
  memoizes every evaluation (content-addressed) and fans batches out
  over worker processes.  ``explorer.run(strategy,
  budget=SearchBudget(max_oracle_calls=50))`` runs the budgeted
  propose/observe loop, charging only the outcomes the oracle computed
  (failures included, cache hits free), and returns the per-round
  progress snapshots in ``result.rounds``; for live progress, step a
  :class:`SearchDriver` by hand (``next_batch``, then ``record`` with
  what ``explorer.evaluate_many`` returned: one record per point, an
  ``on_error="skip"`` failure as ``report=None`` with its ``error``).
* **Decide** with :func:`pareto_front` / :func:`knee_point`, and
  serialize everything (:class:`ExplorationResult` and
  :class:`CostReport` round-trip through JSON).
"""

from .apps.registry import AppSpec, Transform, get_app, list_apps, register_app
from .costs.report import CostReport, MemoryCost, render_cost_table
from .dtse.macp import analyze_macp
from .dtse.pipeline import PmmRequest, PmmResult, run_pmm
from .explore.btpc_study import BtpcStudy
from .explore.cache import (
    CacheBackend,
    CacheStats,
    DiskCache,
    MemoryCache,
    RemoteCache,
)
from .explore.engine import (
    BudgetState,
    EvaluationCache,
    ExplorationError,
    ExplorationRecord,
    ExplorationResult,
    Explorer,
    Proposal,
    RoundSnapshot,
    SearchBudget,
    SearchDriver,
)
from .explore.fingerprint import canonical_json, fingerprint_request
from .explore.pareto import (
    dominates,
    front_coverage,
    knee_point,
    pareto_front,
    pareto_indices,
)
from .explore.space import DesignPoint, DesignSpace, ProgramVariant
from .explore.strategies import (
    ExhaustiveSweep,
    GreedyStep,
    GreedyStepwise,
    LinearFrontier,
    ParetoRefine,
    SearchStrategy,
)
from .ir import Program, ProgramBuilder
from .memlib.library import MemoryLibrary, default_library

__all__ = [
    "AppSpec",
    "BtpcStudy",
    "BudgetState",
    "CacheBackend",
    "CacheStats",
    "CostReport",
    "DesignPoint",
    "DesignSpace",
    "DiskCache",
    "EvaluationCache",
    "MemoryCache",
    "ExhaustiveSweep",
    "ExplorationError",
    "ExplorationRecord",
    "ExplorationResult",
    "Explorer",
    "GreedyStep",
    "GreedyStepwise",
    "LinearFrontier",
    "MemoryCost",
    "MemoryLibrary",
    "ParetoRefine",
    "PmmRequest",
    "PmmResult",
    "Program",
    "ProgramBuilder",
    "ProgramVariant",
    "Proposal",
    "RemoteCache",
    "RoundSnapshot",
    "SearchBudget",
    "SearchDriver",
    "SearchStrategy",
    "Transform",
    "analyze_macp",
    "canonical_json",
    "default_library",
    "dominates",
    "fingerprint_request",
    "front_coverage",
    "get_app",
    "knee_point",
    "list_apps",
    "pareto_front",
    "pareto_indices",
    "register_app",
    "render_cost_table",
    "run_pmm",
]
