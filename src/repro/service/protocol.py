"""Request/response schema of the exploration service.

The wire format is deliberately plain: JSON request bodies, JSON
responses for point lookups and introspection, and **NDJSON streams**
(one JSON object per line) for sweeps, so a client sees records the
moment their batch completes instead of waiting for the whole space.

Sweep request body (``POST /v1/sweep``)::

    {
      "app": "cavity",                  // required, a registered app
      "points": [{...DesignPoint...}],  // optional explicit points
      "variants": ["baseline"],         // optional axis restrictions
      "budget_fractions": [1.0, 0.9],   //   (used when "points" absent;
      "onchip_counts": [null, 6],       //    omitted axes take the
      "libraries": ["default"],         //    app's full default axis)
      "batch_size": 32,                 // optional per-request override
      "strategy": "frontier",           // optional driver-run search
      "budget": {"max_oracle_calls": 20}  // optional SearchBudget dict
    }

``strategy`` names a server-side search strategy (a key of
:data:`STRATEGIES`); the server then steps the budgeted
propose/observe driver instead of sweeping explicit points, and
the stream gains per-round ``progress`` events.  ``strategy`` is
mutually exclusive with explicit ``points`` (the strategy proposes its
own), and ``budget`` requires ``strategy``.  Requests without a
``strategy`` field take the legacy code path and are byte-compatible
with protocol version 1 clients.

Stream events, in order::

    {"type": "start", "app": ..., "request_id": ..., "points": N}
    {"type": "record", "record": {...ExplorationRecord...}}   // 0..N
    {"type": "failure", "point": {...}, "error": "..."}       // 0..N
    {"type": "progress", "progress": {...RoundSnapshot...}}   // strategy only
    {"type": "end", "summary": {...}}

``summary`` carries the per-request accounting the load bench and the
acceptance tests key on: ``records``/``failures`` counts, ``coalesced``
(points resolved by awaiting another request's in-flight evaluation)
and a cache-stats snapshot.  Strategy runs extend it with ``strategy``,
``rounds``, ``oracle_calls``, ``stopped`` and ``stop_reason`` (a
budget-exhausted run still ends with a well-formed ``end`` event and
HTTP 200 — exhaustion is an outcome, not an error).

Errors (any endpoint) are single JSON objects::

    {"error": {"code": "...", "message": "..."}}

with the HTTP status carrying the class: 400 malformed, 404 unknown
app/route, 413 over the per-request point budget, 429 admission
rejection (with a ``Retry-After`` header), 503 draining.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from ..explore.engine import ExplorationRecord, SearchBudget
from ..explore.space import DesignPoint, DesignSpace
from ..explore.strategies import (
    ExhaustiveSweep,
    LinearFrontier,
    ParetoRefine,
    SearchStrategy,
)

#: Bumped on incompatible wire-format changes; served by ``/v1/health``.
PROTOCOL_VERSION = 1

#: The ``strategy`` sweep-request field: name -> the class the server
#: builds one fresh instance of per request.
STRATEGIES: Dict[str, Type[SearchStrategy]] = {
    cls.name: cls for cls in (ExhaustiveSweep, LinearFrontier, ParetoRefine)
}


class ProtocolError(ValueError):
    """A malformed or rejected request, mapped onto an HTTP status."""

    def __init__(
        self,
        message: str,
        *,
        status: int = 400,
        code: str = "bad_request",
        retry_after: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after

    def to_payload(self) -> Dict[str, Any]:
        return {"error": {"code": self.code, "message": str(self)}}


def _optional_str_list(payload: Mapping[str, Any], key: str) -> Optional[List[str]]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, str) for item in value
    ):
        raise ProtocolError(f"{key!r} must be a list of strings")
    if not value:
        raise ProtocolError(f"{key!r} must not be empty when present")
    return list(value)


def _optional_number_list(
    payload: Mapping[str, Any], key: str
) -> Optional[List[float]]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(item, (int, float)) and not isinstance(item, bool)
        for item in value
    ):
        raise ProtocolError(f"{key!r} must be a list of numbers")
    if not value:
        raise ProtocolError(f"{key!r} must not be empty when present")
    return [float(item) for item in value]


def _optional_count_list(
    payload: Mapping[str, Any], key: str
) -> Optional[List[Optional[int]]]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise ProtocolError(f"{key!r} must be a list of integers or nulls")
    counts: List[Optional[int]] = []
    for item in value:
        if item is None:
            counts.append(None)
        elif isinstance(item, int) and not isinstance(item, bool):
            counts.append(item)
        else:
            raise ProtocolError(f"{key!r} must be a list of integers or nulls")
    if not counts:
        raise ProtocolError(f"{key!r} must not be empty when present")
    return counts


@dataclass
class SweepRequest:
    """A validated sweep (or point-evaluation) request body."""

    app: str
    points: Optional[List[DesignPoint]] = None
    variants: Optional[List[str]] = None
    budget_fractions: Optional[List[float]] = None
    onchip_counts: Optional[List[Optional[int]]] = None
    libraries: Optional[List[str]] = None
    batch_size: Optional[int] = None
    #: Server-side search strategy; when set, the sweep runs the
    #: budgeted driver loop instead of enumerating explicit points.
    strategy: Optional[str] = None
    budget: Optional[SearchBudget] = None
    #: Per explicit point: did the payload omit "library"?  An omitted
    #: library resolves against the app's own axis (first library) at
    #: :meth:`resolve_points` time — apps whose libraries carry real
    #: names (e.g. motion's "frames on-chip") stay addressable without
    #: clients knowing the axis up front.
    library_omitted: Optional[List[bool]] = None

    @classmethod
    def from_payload(cls, payload: Any) -> "SweepRequest":
        if not isinstance(payload, Mapping):
            raise ProtocolError("request body must be a JSON object")
        app = payload.get("app")
        if not isinstance(app, str) or not app:
            raise ProtocolError("'app' is required and must be a string")
        raw_points = payload.get("points")
        points: Optional[List[DesignPoint]] = None
        library_omitted: Optional[List[bool]] = None
        if raw_points is not None:
            if not isinstance(raw_points, (list, tuple)) or not raw_points:
                raise ProtocolError("'points' must be a non-empty list")
            points = []
            library_omitted = []
            for index, raw in enumerate(raw_points):
                if not isinstance(raw, Mapping):
                    raise ProtocolError(f"points[{index}] must be an object")
                try:
                    points.append(DesignPoint.from_dict(raw))
                except (KeyError, TypeError, ValueError) as exc:
                    raise ProtocolError(
                        f"points[{index}] is not a valid design point: {exc}"
                    ) from None
                library_omitted.append("library" not in raw)
        batch_size = payload.get("batch_size")
        if batch_size is not None:
            if (
                not isinstance(batch_size, int)
                or isinstance(batch_size, bool)
                or batch_size < 1
            ):
                raise ProtocolError("'batch_size' must be a positive integer")
        strategy = payload.get("strategy")
        if strategy is not None:
            if not isinstance(strategy, str):
                raise ProtocolError("'strategy' must be a string")
            if strategy not in STRATEGIES:
                raise ProtocolError(
                    f"unknown strategy {strategy!r} "
                    f"(known: {list(STRATEGIES)})",
                    code="unknown_strategy",
                )
            if raw_points is not None:
                raise ProtocolError(
                    "'strategy' is mutually exclusive with explicit "
                    "'points' (the strategy proposes its own)"
                )
        raw_budget = payload.get("budget")
        budget: Optional[SearchBudget] = None
        if raw_budget is not None:
            if strategy is None:
                raise ProtocolError("'budget' requires 'strategy'")
            if not isinstance(raw_budget, Mapping):
                raise ProtocolError(
                    "'budget' must be an object", code="bad_budget"
                )
            try:
                budget = SearchBudget.from_dict(raw_budget)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"invalid budget: {exc}", code="bad_budget"
                ) from None
        return cls(
            app=app,
            points=points,
            variants=_optional_str_list(payload, "variants"),
            budget_fractions=_optional_number_list(payload, "budget_fractions"),
            onchip_counts=_optional_count_list(payload, "onchip_counts"),
            libraries=_optional_str_list(payload, "libraries"),
            batch_size=batch_size,
            strategy=strategy,
            budget=budget,
            library_omitted=library_omitted,
        )

    def resolve_points(self, space: DesignSpace) -> List[DesignPoint]:
        """The concrete points this request asks for, validated."""
        if self.points is not None:
            omitted = self.library_omitted or [False] * len(self.points)
            validated = []
            for point, lib_omitted in zip(self.points, omitted):
                library = point.library
                if lib_omitted and library not in space.libraries:
                    # The payload never named a library; fall back to
                    # the app's own first axis entry instead of the
                    # parse-time "default" placeholder.
                    library = next(iter(space.libraries))
                try:
                    validated.append(
                        space.point(
                            point.variant,
                            budget_fraction=point.budget_fraction,
                            n_onchip=point.n_onchip,
                            library=library,
                            label=point.label,
                        )
                    )
                except KeyError as exc:
                    raise ProtocolError(str(exc), code="unknown_axis") from None
                except ValueError as exc:
                    # Non-axis validation failures (malformed axis
                    # values, variant/library resolution errors) are
                    # still the client's fault: 400, not a 500.
                    raise ProtocolError(str(exc)) from None
            return validated
        for axis, known in (
            ("variants", space.variant_names),
            ("libraries", tuple(space.libraries)),
        ):
            requested = getattr(self, axis)
            if requested is not None:
                unknown = sorted(set(requested) - set(known))
                if unknown:
                    raise ProtocolError(
                        f"unknown {axis} {unknown} for app {self.app!r} "
                        f"(known: {sorted(known)})",
                        code="unknown_axis",
                    )
        try:
            return space.points(
                variants=self.variants,
                budget_fractions=self.budget_fractions,
                onchip_counts=self.onchip_counts,
                libraries=self.libraries,
            )
        except (KeyError, ValueError) as exc:
            raise ProtocolError(str(exc)) from None


# ----------------------------------------------------------------------
# Stream events
# ----------------------------------------------------------------------
def start_event(app: str, request_id: int, points: int) -> Dict[str, Any]:
    return {
        "type": "start",
        "app": app,
        "request_id": request_id,
        "points": points,
    }


def record_event(record: ExplorationRecord) -> Dict[str, Any]:
    return {"type": "record", "record": record.to_dict()}


def failure_event(point: DesignPoint, error: str) -> Dict[str, Any]:
    return {"type": "failure", "point": point.to_dict(), "error": error}


def progress_event(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """A per-round driver snapshot (strategy sweeps only)."""
    return {"type": "progress", "progress": dict(snapshot)}


def end_event(summary: Mapping[str, Any]) -> Dict[str, Any]:
    return {"type": "end", "summary": dict(summary)}


@dataclass
class SweepSummary:
    """Mutable per-request accounting, emitted as the ``end`` event."""

    records: int = 0
    failures: int = 0
    #: Points resolved by awaiting another request's in-flight oracle
    #: evaluation (the single-flight fan-out).
    coalesced: int = 0
    batches: int = 0
    cache: Dict[str, Any] = field(default_factory=dict)
    #: Driver accounting, populated only for strategy sweeps.  The
    #: legacy (no-``strategy``) summary must stay byte-compatible, so
    #: these keys are emitted only when ``strategy`` is set.
    strategy: Optional[str] = None
    rounds: Optional[int] = None
    oracle_calls: Optional[int] = None
    stopped: Optional[str] = None
    stop_reason: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "records": self.records,
            "failures": self.failures,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "cache": dict(self.cache),
        }
        if self.strategy is not None:
            payload["strategy"] = self.strategy
            payload["rounds"] = self.rounds
            payload["oracle_calls"] = self.oracle_calls
            payload["stopped"] = self.stopped
            payload["stop_reason"] = self.stop_reason
        return payload


def chunked(points: Sequence[DesignPoint], size: int) -> List[Tuple[DesignPoint, ...]]:
    """Split a point list into evaluation batches of at most ``size``."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    return [tuple(points[i : i + size]) for i in range(0, len(points), size)]
