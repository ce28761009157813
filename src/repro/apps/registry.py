"""The workload registry: every demonstrator behind one protocol.

The paper's methodology is application-independent, so the repo treats
workloads as first-class, *registered* objects rather than hand-wired
drivers.  An :class:`AppSpec` bundles what the exploration engine needs
to sweep an application:

* a **constraints** dataclass (anything exposing ``cycle_budget`` and
  ``frame_time_s``) produced by ``constraints_factory``,
* ``build_program`` — the pruned specification as a function of the
  constraints,
* named :class:`Transform`\\ s — the program alternatives (structuring,
  hierarchy, loop reordering, ...) derived from the baseline,
* the default exploration axes (budget fractions, on-chip counts,
  technology libraries) of its :class:`~repro.explore.space.DesignSpace`.

Registered apps are addressable by name everywhere::

    from repro.api import DesignSpace, ExhaustiveSweep, Explorer, list_apps

    list_apps()                              # ('btpc', 'cavity', ...)
    space = DesignSpace.for_app("wavelet")   # the app's default space
    result = Explorer.for_app("wavelet").run(ExhaustiveSweep())

The built-in workloads register themselves when :mod:`repro.apps` is
imported; user applications call :func:`register_app` with their own
spec and get the same by-name treatment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..ir.program import Program
from ..memlib.library import MemoryLibrary

if TYPE_CHECKING:  # pragma: no cover - import cycle: explore -> apps
    from ..explore.space import DesignSpace


@dataclass(frozen=True)
class Transform:
    """A named program alternative derived from the app's baseline.

    ``apply`` receives the (lazily built, shared) baseline program and
    the constraints, and returns the transformed program.  Transforms
    must be pure: the engine fingerprints their output for memoization.
    """

    name: str
    apply: Callable[[Program, Any], Program]
    description: str = ""


@dataclass(frozen=True)
class AppSpec:
    """One registered workload: constraints, programs, default axes.

    ``constraints_factory`` must produce an object with ``cycle_budget``
    and ``frame_time_s`` attributes (every app's constraints dataclass
    derives both from its throughput goal and clock).  ``space_factory``
    overrides the generic space construction for apps whose axes need
    extra state (the BTPC study threads a profiling run through its
    variants); most apps leave it unset.
    """

    name: str
    title: str
    description: str
    constraints_factory: Callable[[], Any]
    build_program: Callable[[Any], Program]
    transforms: Tuple[Transform, ...] = ()
    budget_fractions: Tuple[float, ...] = (1.0,)
    onchip_counts: Tuple[Optional[int], ...] = (None,)
    libraries_factory: Optional[Callable[[], Dict[str, MemoryLibrary]]] = None
    #: Variant name of the untransformed specification.
    baseline: str = "baseline"
    space_factory: Optional[Callable[[Any], "DesignSpace"]] = None

    #: How many distinct constraint configurations each spec remembers
    #: built programs for (see :meth:`_variant_store`).
    PROGRAM_CACHE_KEYS = 8

    # ------------------------------------------------------------------
    @property
    def variant_names(self) -> Tuple[str, ...]:
        if self.space_factory is not None:
            # The factory is the single source of truth for the
            # alternatives; declaring the space is cheap (variant
            # programs are lazy thunks, nothing is built here).
            return self.space().variant_names
        return (self.baseline,) + tuple(t.name for t in self.transforms)

    def default_constraints(self) -> Any:
        return self.constraints_factory()

    def program(self, constraints: Optional[Any] = None) -> Program:
        """The baseline program at the given (or default) constraints."""
        if constraints is None:
            constraints = self.constraints_factory()
        return self.build_program(constraints)

    def _variant_store(self, constraints: Any) -> Dict[str, Program]:
        """The per-constraints program store shared across spaces.

        Variant programs are deterministic functions of (spec,
        constraints) — ``build_program`` is pure and transforms are
        documented pure — so every space declared at equal constraints
        can share one set of built :class:`Program` objects.  Sharing
        is what makes a fresh ``Explorer.for_app(...)`` warm-path
        cheap: the identity-keyed fragment memo
        (:func:`~repro.explore.fingerprint.cached_canonical_json`)
        then serves the canonical program JSON without recanonicalizing
        per space.  Keyed by the constraints' canonical JSON; bounded
        to :attr:`PROGRAM_CACHE_KEYS` configurations (oldest dropped)
        so constraint sweeps cannot pin programs without limit.
        """
        from ..explore.fingerprint import canonical_json

        cache: Optional[Dict[str, Dict[str, Program]]]
        cache = getattr(self, "_program_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(self, "_program_cache", cache)
        key = canonical_json(constraints)
        store = cache.get(key)
        if store is None:
            while len(cache) >= self.PROGRAM_CACHE_KEYS:
                cache.pop(next(iter(cache)))
            store = cache[key] = {}
        return store

    def _build_variant(
        self, store: Dict[str, Program], name: str, constraints: Any
    ) -> Program:
        program = store.get(name)
        if program is not None:
            return program
        if name == self.baseline:
            program = self.build_program(constraints)
        else:
            transform = next(t for t in self.transforms if t.name == name)
            program = transform.apply(
                self._build_variant(store, self.baseline, constraints),
                constraints,
            )
        store[name] = program
        return program

    def space(self, constraints: Optional[Any] = None) -> "DesignSpace":
        """The app's default design space, swept by name everywhere.

        The baseline program is built at most once per (spec,
        constraints) configuration and shared by every space declared
        at those constraints; each transform variant derives from that
        shared baseline, so one expensive specification build serves
        all alternatives — across explorer instances, not just within
        one.  The shared programs are treated as immutable, exactly as
        the engine already assumes when fingerprinting them.
        """
        # Deferred: repro.explore imports repro.apps (the BTPC study),
        # so the registry cannot import the space module at load time.
        from ..explore.space import DesignSpace

        if constraints is None:
            constraints = self.constraints_factory()
        if self.space_factory is not None:
            return self.space_factory(constraints)
        space = DesignSpace(
            name=self.name,
            cycle_budget=constraints.cycle_budget,
            frame_time_s=constraints.frame_time_s,
            budget_fractions=self.budget_fractions,
            onchip_counts=self.onchip_counts,
            libraries=(
                dict(self.libraries_factory()) if self.libraries_factory else {}
            ),
            description=self.title,
        )
        store = self._variant_store(constraints)
        space.add_variant(
            self.baseline,
            build=lambda: self._build_variant(store, self.baseline, constraints),
            description="the pruned specification as written",
        )
        for transform in self.transforms:
            space.add_variant(
                transform.name,
                build=lambda t=transform: self._build_variant(
                    store, t.name, constraints
                ),
                description=transform.description,
            )
        return space


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, AppSpec] = {}


def register_app(spec: AppSpec, replace: bool = False) -> AppSpec:
    """Register a workload under ``spec.name``; returns the spec.

    Re-registering an existing name raises unless ``replace=True`` (a
    notebook re-running its cells wants replace; a typo'd duplicate in a
    package does not).
    """
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"app {spec.name!r} is already registered; pass replace=True "
            "to override it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def get_app(name: str) -> AppSpec:
    """Look up a registered workload by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise KeyError(
            f"no registered app {name!r} (registered: {known})"
        ) from None


def list_apps() -> Tuple[str, ...]:
    """Names of all registered workloads, sorted."""
    return tuple(sorted(_REGISTRY))
