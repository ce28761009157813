"""Reproduction of "Global Multimedia System Design Exploration using
Accurate Memory Organization Feedback" (Vandecappelle et al., DAC 1999).

Start with :mod:`repro.api` — the facade bundling the exploration
engine: declare a :class:`~repro.api.DesignSpace`, run a search strategy
through an :class:`~repro.api.Explorer` (memoized, optionally
process-parallel) and pick from the Pareto front.

Subpackages::

    repro.api       the canonical entry point (DesignSpace, Explorer,
                    search strategies, Pareto tools, serialization)
    repro.ir        application specification IR (arrays, basic groups,
                    loop nests, accesses, pruning)
    repro.memlib    memory technology library (SRAM generator, EDO DRAM)
    repro.costs     cost reports (area / power feedback)
    repro.profiling instrumented arrays and access counters
    repro.dtse      the physical memory management tools: MACP, storage
                    cycle budget distribution, allocation/assignment,
                    structuring and hierarchy transforms
    repro.explore   the exploration subsystem behind the facade: design
                    spaces, the evaluation engine, strategies, the BTPC
                    study
    repro.apps      the workload registry and demonstrators: BTPC codec,
                    motion estimation, cavity detection, 2-D wavelet
"""

from . import api, apps, costs, dtse, explore, ir, memlib, profiling

__version__ = "0.2.0"

__all__ = [
    "api",
    "apps",
    "costs",
    "dtse",
    "explore",
    "ir",
    "memlib",
    "profiling",
    "__version__",
]
