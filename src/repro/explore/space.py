"""Declarative design spaces: the axes an exploration walks.

A :class:`DesignSpace` names every alternative the methodology can
evaluate along four orthogonal axes:

* **program variants** — named thunks producing transformed
  :class:`~repro.ir.program.Program` copies (structuring, hierarchy,
  ... applied lazily, built at most once),
* **cycle-budget fractions** — how much of the storage cycle budget the
  memory organization may use (the Table 3 axis),
* **on-chip memory counts** — the allocation axis (Table 4; ``None``
  lets the allocator pick),
* **memory libraries** — named technology libraries, so a technology
  shrink is just one more axis.

The cartesian product of the axes yields :class:`DesignPoint`\\ s, the
unit of work the :class:`~repro.explore.engine.Explorer` evaluates.
Points are plain frozen records (no programs inside), so they are cheap
to enumerate, hash, serialize and compare.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..ir.program import Program
from ..memlib.library import MemoryLibrary, default_library
from .fingerprint import cached_canonical_json

#: Name of the implicit library axis entry when none is declared.
DEFAULT_LIBRARY = "default"


@dataclass(frozen=True)
class DesignPoint:
    """One coordinate in a design space (axes only, no payloads)."""

    variant: str
    budget_fraction: float = 1.0
    n_onchip: Optional[int] = None
    library: str = DEFAULT_LIBRARY
    #: Presentation label for reports/logs; derived from the axes when empty.
    label: str = ""

    @property
    def display_label(self) -> str:
        if self.label:
            return self.label
        parts = [self.variant]
        if self.budget_fraction != 1.0:
            parts.append(f"{self.budget_fraction:.0%} budget")
        if self.n_onchip is not None:
            parts.append(f"{self.n_onchip} on-chip")
        if self.library != DEFAULT_LIBRARY:
            parts.append(self.library)
        return ", ".join(parts)

    def relabeled(self, label: str) -> "DesignPoint":
        return replace(self, label=label)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "variant": self.variant,
            "budget_fraction": self.budget_fraction,
            "n_onchip": self.n_onchip,
            "library": self.library,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DesignPoint":
        n_onchip = data.get("n_onchip")
        return cls(
            variant=data["variant"],
            budget_fraction=float(data.get("budget_fraction", 1.0)),
            n_onchip=None if n_onchip is None else int(n_onchip),
            library=data.get("library", DEFAULT_LIBRARY),
            label=data.get("label", ""),
        )


@dataclass
class ProgramVariant:
    """A named, lazily built program alternative."""

    name: str
    build: Callable[[], Program]
    description: str = ""


@dataclass
class DesignSpace:
    """The declarative enumeration of design alternatives.

    ``cycle_budget`` and ``frame_time_s`` are the full-throughput
    constraints; budget fractions scale the former exactly as the paper
    does (``int(budget * fraction)`` for partial budgets, the untouched
    budget for 1.0).
    """

    name: str
    cycle_budget: float
    frame_time_s: float
    variants: List[ProgramVariant] = field(default_factory=list)
    budget_fractions: Tuple[float, ...] = (1.0,)
    onchip_counts: Tuple[Optional[int], ...] = (None,)
    libraries: Dict[str, MemoryLibrary] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        self.budget_fractions = tuple(self.budget_fractions)
        self.onchip_counts = tuple(self.onchip_counts)
        if not self.libraries:
            self.libraries = {DEFAULT_LIBRARY: default_library()}
        self._programs: Dict[str, Program] = {}

    # ------------------------------------------------------------------
    # Registry lookup
    # ------------------------------------------------------------------
    @classmethod
    def for_app(cls, name: str, constraints: Optional[Any] = None) -> "DesignSpace":
        """The default design space of a registered workload.

        ``DesignSpace.for_app("wavelet")`` resolves ``name`` through the
        workload registry (:mod:`repro.apps.registry`) and returns the
        app's declared space — variants, budget fractions, allocation
        counts and libraries — at its default (or the given)
        constraints.
        """
        from .. import apps  # noqa: F401 - importing registers built-ins
        from ..apps.registry import get_app

        return get_app(name).space(constraints)

    # ------------------------------------------------------------------
    # Axis construction
    # ------------------------------------------------------------------
    def add_variant(
        self,
        name: str,
        build: Optional[Callable[[], Program]] = None,
        program: Optional[Program] = None,
        description: str = "",
    ) -> ProgramVariant:
        """Declare a program variant as a thunk or a prebuilt program."""
        if (build is None) == (program is None):
            raise ValueError("pass exactly one of build= or program=")
        if any(variant.name == name for variant in self.variants):
            raise ValueError(f"space {self.name!r} already has variant {name!r}")
        if program is not None:
            self._programs[name] = program
            build = lambda: program  # noqa: E731 - trivial thunk
        variant = ProgramVariant(name=name, build=build, description=description)
        self.variants.append(variant)
        return variant

    def add_library(self, name: str, library: MemoryLibrary) -> None:
        self.libraries[name] = library

    # ------------------------------------------------------------------
    # Axis lookup
    # ------------------------------------------------------------------
    @property
    def variant_names(self) -> Tuple[str, ...]:
        return tuple(variant.name for variant in self.variants)

    def variant(self, name: str) -> ProgramVariant:
        for variant in self.variants:
            if variant.name == name:
                return variant
        raise KeyError(f"space {self.name!r} has no variant {name!r}")

    def program(self, variant_name: str) -> Program:
        """The variant's program; the thunk runs at most once."""
        if variant_name not in self._programs:
            self._programs[variant_name] = self.variant(variant_name).build()
        return self._programs[variant_name]

    def library(self, name: str) -> MemoryLibrary:
        try:
            return self.libraries[name]
        except KeyError:
            raise KeyError(f"space {self.name!r} has no library {name!r}") from None

    def fingerprint_program_json(self, variant_name: str) -> str:
        """The variant's canonical program JSON, computed at most once.

        This is the sweep-invariant (and expensive) part of a design
        point's fingerprint; the engine splices it with the per-point
        knob digest in
        :meth:`~repro.explore.engine.Explorer.fingerprint_points`.
        The memo is the process-wide identity-keyed fragment store
        (:func:`~repro.explore.fingerprint.cached_canonical_json`), so
        fresh spaces sharing registry-built program objects pay the
        canonicalization once per process — and it revalidates against
        the live program object, so it can never drift from what
        :meth:`program` hands the oracle.
        """
        return cached_canonical_json(self.program(variant_name))

    def fingerprint_library_json(self, name: str) -> str:
        """The library's canonical JSON, computed at most once.

        Revalidated against the live ``libraries[name]`` object: any
        replacement — :meth:`add_library` or direct dict mutation —
        invalidates the memoized fragment automatically.
        """
        return cached_canonical_json(self.library(name))

    def effective_budget(self, fraction: float) -> float:
        """The paper's budget scaling: partial budgets truncate to int."""
        if fraction == 1.0:
            return self.cycle_budget
        return int(self.cycle_budget * fraction)

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def point(
        self,
        variant: str,
        budget_fraction: float = 1.0,
        n_onchip: Optional[int] = None,
        library: str = DEFAULT_LIBRARY,
        label: str = "",
    ) -> DesignPoint:
        """A validated point of this space."""
        self.variant(variant)
        self.library(library)
        return DesignPoint(
            variant=variant,
            budget_fraction=budget_fraction,
            n_onchip=n_onchip,
            library=library,
            label=label,
        )

    def iter_points(
        self,
        variants: Optional[Sequence[str]] = None,
        budget_fractions: Optional[Sequence[float]] = None,
        onchip_counts: Optional[Sequence[Optional[int]]] = None,
        libraries: Optional[Sequence[str]] = None,
    ) -> Iterator[DesignPoint]:
        """Lazily yield the cartesian product (optionally restricted).

        The streaming form of :meth:`points`: the driver's batched
        strategies (:class:`~repro.explore.strategies.ExhaustiveSweep`)
        pull bounded chunks from this iterator, so a sweep over a
        million-point space never holds more than one batch of points.
        """
        names = tuple(variants) if variants is not None else self.variant_names
        fractions = (
            tuple(budget_fractions)
            if budget_fractions is not None
            else self.budget_fractions
        )
        counts = (
            tuple(onchip_counts) if onchip_counts is not None else self.onchip_counts
        )
        library_names = (
            tuple(libraries) if libraries is not None else tuple(self.libraries)
        )
        for name, fraction, count, library in itertools.product(
            names, fractions, counts, library_names
        ):
            yield DesignPoint(
                variant=name,
                budget_fraction=fraction,
                n_onchip=count,
                library=library,
            )

    def points(
        self,
        variants: Optional[Sequence[str]] = None,
        budget_fractions: Optional[Sequence[float]] = None,
        onchip_counts: Optional[Sequence[Optional[int]]] = None,
        libraries: Optional[Sequence[str]] = None,
    ) -> List[DesignPoint]:
        """The cartesian product of the axes (optionally restricted)."""
        return list(
            self.iter_points(
                variants=variants,
                budget_fractions=budget_fractions,
                onchip_counts=onchip_counts,
                libraries=libraries,
            )
        )

    def restricted(
        self,
        variants: Optional[Sequence[str]] = None,
        budget_fractions: Optional[Sequence[float]] = None,
        onchip_counts: Optional[Sequence[Optional[int]]] = None,
        libraries: Optional[Sequence[str]] = None,
    ) -> "DesignSpace":
        """A sub-space with the given axis values (defaults keep an axis).

        Built programs, library objects and memoized fingerprint
        fragments are shared with the parent (axis values must already
        exist there — unknown names raise ``KeyError``), so restriction
        is cheap and sub-space evaluations stay cache-compatible with
        parent sweeps.  Strategy sweeps at the service boundary use
        this to honor axis restrictions: neighbourhoods and corners
        then come from the restricted axes, not the full space.
        """
        names = tuple(variants) if variants is not None else self.variant_names
        fractions = (
            tuple(budget_fractions)
            if budget_fractions is not None
            else self.budget_fractions
        )
        counts = (
            tuple(onchip_counts) if onchip_counts is not None else self.onchip_counts
        )
        library_names = (
            tuple(libraries) if libraries is not None else tuple(self.libraries)
        )
        sub = DesignSpace(
            name=self.name,
            cycle_budget=self.cycle_budget,
            frame_time_s=self.frame_time_s,
            variants=[self.variant(name) for name in names],
            budget_fractions=fractions,
            onchip_counts=counts,
            libraries={name: self.library(name) for name in library_names},
            description=self.description,
        )
        # Share built programs so variant thunks never rebuild.
        sub._programs = self._programs
        return sub

    def __len__(self) -> int:
        return (
            len(self.variants)
            * len(self.budget_fractions)
            * len(self.onchip_counts)
            * len(self.libraries)
        )

    def __iter__(self) -> Iterable[DesignPoint]:
        return iter(self.points())

    # ------------------------------------------------------------------
    # Neighbourhood (used by ParetoRefine)
    # ------------------------------------------------------------------
    def _axis_values(self) -> Dict[str, Tuple[Any, ...]]:
        return {
            "variant": self.variant_names,
            "budget_fraction": self.budget_fractions,
            "n_onchip": self.onchip_counts,
            "library": tuple(self.libraries),
        }

    def neighbors(self, point: DesignPoint) -> List[DesignPoint]:
        """Points one step away along each axis (axis order preserved)."""
        result: List[DesignPoint] = []
        axes = self._axis_values()
        for axis, values in axes.items():
            current = getattr(point, axis)
            if current not in values:
                continue
            index = values.index(current)
            for step in (-1, 1):
                other = index + step
                if 0 <= other < len(values):
                    result.append(replace(point, label="", **{axis: values[other]}))
        return result

    def corners(self) -> List[DesignPoint]:
        """The first/last value of every axis, combined (dedup'd)."""
        axes = self._axis_values()
        picks = []
        for values in axes.values():
            ends = (values[0], values[-1]) if len(values) > 1 else (values[0],)
            picks.append(tuple(dict.fromkeys(ends)))
        seen: Dict[DesignPoint, None] = {}
        for name, fraction, count, library in itertools.product(*picks):
            seen.setdefault(
                DesignPoint(
                    variant=name,
                    budget_fraction=fraction,
                    n_onchip=count,
                    library=library,
                )
            )
        return list(seen)
