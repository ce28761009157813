"""The exploration engine: memoized, parallel feedback evaluation.

The :class:`Explorer` turns :class:`~repro.explore.space.DesignPoint`\\ s
into :class:`ExplorationRecord`\\ s by driving the ``run_pmm`` feedback
oracle, with two performance layers the ad-hoc drivers never had:

* **content-addressed memoization** — every evaluation request is
  fingerprinted over (program structure, cycle budget, knobs, library);
  a repeated point costs a dictionary lookup.  The fingerprint excludes
  the presentation label, so the same organization evaluated under two
  names is still one oracle run.  Fingerprints are built
  *incrementally* (:mod:`repro.explore.fingerprint`): the canonical
  program/library fragments are computed once per sweep and only the
  per-point knob digest is paid per design point.
* **process-parallel batches** — ``workers=N`` fans cache misses out
  over a **persistent** :class:`concurrent.futures.ProcessPoolExecutor`
  owned by the explorer (created lazily, reused across batches and
  strategy steps, released by :meth:`Explorer.close` or the context
  manager).  A cold pool is spun up only for batches of at least
  :attr:`Explorer.MIN_PARALLEL_BATCH` misses, so tiny sweeps never pay
  fork cost.

Serial and pooled batches share one miss path: one worker function
yields an outcome per miss, and one loop consumes them in point order,
counts them, fails on the first error in ``on_error="raise"`` mode and
stores the batch in one :meth:`EvaluationCache.store_many`.  A batch's
result therefore depends neither on ``workers`` nor on batch size.

The oracle runs of one dispatch share SCBD and allocation work: the
whole serial batch, or each pool chunk (one program's points) in its
worker, gets one :class:`~repro.dtse.pipeline.DispatchTables`.  Its
body tables (one per off-chip group set) let neighbouring points that
repeat a loop body at the same body budget balance it once; its
distributions and allocator states let points that differ only in
``n_onchip`` distribute once and run each on-chip search once.  The
tables live only as long as their dispatch: nothing carries over from
one :meth:`Explorer.evaluate_many` call to the next.

Search strategies (:mod:`repro.explore.strategies`) sit on top: a
:class:`SearchDriver` steps one through the budgeted propose/observe
loop, and :meth:`Explorer.run` runs that loop over
:meth:`Explorer.evaluate_many`, so caching and parallelism apply to
every strategy uniformly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..costs.report import INFEASIBLE_MARKER, CostReport
from ..dtse.allocation.assign import DEFAULT_AREA_WEIGHT
from ..dtse.pipeline import DispatchTables, PmmRequest
from .cache import REMOTE_SCHEME, CacheBackend, DiskCache, resolve_backend
from .fingerprint import canonical_value, fingerprint_request
from .pareto import knee_point, pareto_indices
from .space import DesignPoint, DesignSpace

__all__ = [
    "BudgetState",
    "EvaluationCache",
    "ExplorationError",
    "ExplorationRecord",
    "ExplorationResult",
    "Explorer",
    "Proposal",
    "RoundSnapshot",
    "SearchBudget",
    "SearchDriver",
    "canonical_value",
    "fingerprint_request",
]


# ----------------------------------------------------------------------
# Memoization cache
# ----------------------------------------------------------------------
class EvaluationCache:
    """Fingerprint -> cost report memo over an optional backend.

    The in-process memo is the **decoded tier**: a fingerprint ->
    (:class:`CostReport` | failure) map of everything this cache has
    decoded or stored, consulted before any backend probe, and the only
    in-process copy of an evaluation.  A warm re-probe costs one
    dictionary lookup — no payload fetch, no
    :meth:`CostReport.from_dict` materialization; ``decoded_hits``
    counts the probes it absorbed.  ``max_entries`` bounds it with LRU
    eviction (defaulting to the backend's own bound), so a bounded
    cache stays bounded end to end.

    Without ``path``/``backend`` the decoded tier is the whole memo.
    With ``path=`` a directory, a
    :class:`~repro.explore.cache.DiskCache` persists every entry (warm
    across processes and runs); with ``path=`` a ``remote://host:port``
    URL, a :class:`~repro.explore.cache.RemoteCache` shares them across
    *machines* via :mod:`repro.cacheserver`; ``backend=`` takes any
    caller-provided :class:`~repro.explore.cache.CacheBackend`.

    There is one probe, :meth:`lookup_many`, and one store,
    :meth:`store_many`, which takes reports and failure messages
    together; one fingerprint is a one-element batch.  Each makes at
    most one backend call (one wire round trip behind ``remote://``).

    ``hits``/``misses`` count *evaluations* the explorer resolved from
    cache versus ran through the oracle; the backend's own
    :class:`~repro.explore.cache.CacheStats` counts raw store traffic
    (gets, stores, evictions, corrupt shards).

    The cache is **thread-safe**: every probe, store and counter bump
    runs under one re-entrant :attr:`lock`, so concurrent explorers (or
    the :mod:`repro.service` request handlers sharing one process-wide
    cache) can hammer ``lookup_many``/``store_many`` without corrupting
    the decoded tier's LRU order or double-counting stats.  Backends
    are *not* internally synchronized — the lock here is their
    synchronization, which is why all backend traffic must flow through
    this facade (see :class:`~repro.explore.cache.CacheBackend`).
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        backend: Optional[CacheBackend] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if path is not None and backend is not None:
            raise ValueError("pass either path= or backend=, not both")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        # Remote URLs must reach resolve_backend as strings — Path()
        # would mangle the ``//`` scheme separator.
        target = backend if backend is not None else path
        if isinstance(target, Path) or (
            isinstance(target, str) and not target.startswith(REMOTE_SCHEME)
        ):
            target = Path(target)
        self.backend = resolve_backend(target, max_entries=max_entries)
        self.path = self.backend.root if isinstance(self.backend, DiskCache) else None
        if max_entries is None:
            max_entries = getattr(self.backend, "max_entries", None)
        self.max_entries = max_entries
        #: Serializes every probe/store/counter path (and thereby all
        #: backend access): re-entrant so locked methods can call each
        #: other, shared by explorers for their counter bumps.
        self.lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        #: The decoded tier: fingerprint -> (report, error), LRU-ordered,
        #: bounded by ``max_entries``.
        self._decoded: OrderedDict[
            str, Tuple[Optional[CostReport], Optional[str]]
        ] = OrderedDict()
        self.decoded_hits = 0

    def __len__(self) -> int:
        with self.lock:
            if self.backend is None:
                return len(self._decoded)
            return len(self.backend)

    #: Payload marker for negatively-cached evaluations (infeasible
    #: points).  Persisting failures means a warm on-disk cache never
    #: re-runs the oracle, not even for the corners it cannot satisfy.
    FAILURE_KEY = INFEASIBLE_MARKER

    # ------------------------------------------------------------------
    # Decoded tier plumbing
    # ------------------------------------------------------------------
    def _remember(
        self,
        fingerprint: str,
        entry: Tuple[Optional[CostReport], Optional[str]],
    ) -> None:
        """Keep a decoded entry with LRU recency under the bound."""
        decoded = self._decoded
        decoded[fingerprint] = entry
        decoded.move_to_end(fingerprint)
        if self.max_entries is not None:
            while len(decoded) > self.max_entries:
                decoded.popitem(last=False)

    @property
    def decoded_entries(self) -> int:
        """Current size of the decoded tier."""
        with self.lock:
            return len(self._decoded)

    # ------------------------------------------------------------------
    # The probe and the store
    # ------------------------------------------------------------------
    def lookup_many(
        self, fingerprints: Sequence[str]
    ) -> Dict[str, Tuple[Optional[CostReport], Optional[str]]]:
        """One bulk probe for a whole batch of fingerprints.

        Returns ``{fingerprint: (report, error)}`` for the fingerprints
        the cache holds; absent fingerprints are simply missing from
        the mapping.  Fingerprints already in the decoded tier never
        reach the backend; the rest go through one backend
        ``lookup_many`` (one wire round trip for a
        :class:`~repro.explore.cache.RemoteCache`), and their decoded
        entries fill the tier in bulk.
        """
        with self.lock:
            decoded = self._decoded
            resolved: Dict[str, Tuple[Optional[CostReport], Optional[str]]] = {}
            remaining: List[str] = []
            for fingerprint in dict.fromkeys(fingerprints):
                entry = decoded.get(fingerprint)
                if entry is not None:
                    decoded.move_to_end(fingerprint)
                    self.decoded_hits += 1
                    resolved[fingerprint] = entry
                else:
                    remaining.append(fingerprint)
            if not remaining or self.backend is None:
                return resolved
            for fingerprint, payload in self.backend.lookup_many(remaining).items():
                if self.FAILURE_KEY in payload:
                    entry = (None, str(payload[self.FAILURE_KEY]))
                else:
                    entry = (CostReport.from_dict(payload), None)
                self._remember(fingerprint, entry)
                resolved[fingerprint] = entry
            return resolved

    def store_many(
        self,
        reports: Mapping[str, CostReport],
        failures: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Store reports and failure messages in one backend ``store_many``.

        A failure is kept as a ``{FAILURE_KEY: message}`` payload, so a
        later probe returns it as ``(None, message)``.  An empty batch
        makes no backend call.
        """
        failures = failures or {}
        if not reports and not failures:
            return
        payloads = None
        if self.backend is not None:
            payloads = {
                fingerprint: report.to_dict()
                for fingerprint, report in reports.items()
            }
            for fingerprint, error in failures.items():
                payloads[fingerprint] = {self.FAILURE_KEY: error}
        with self.lock:
            if payloads is not None:
                self.backend.store_many(payloads)
            for fingerprint, report in reports.items():
                self._remember(fingerprint, (report, None))
            for fingerprint, error in failures.items():
                self._remember(fingerprint, (None, error))

    # ------------------------------------------------------------------
    # Counters (explorers bump these under the shared lock)
    # ------------------------------------------------------------------
    def count_hits(self, n: int = 1) -> None:
        """Atomically credit ``n`` evaluation-level cache hits."""
        with self.lock:
            self.hits += n

    def count_misses(self, n: int = 1) -> None:
        """Atomically credit ``n`` evaluation-level oracle misses."""
        with self.lock:
            self.misses += n

    def close_backend(self) -> None:
        """Release backend resources (a network connection).

        Backends without a ``close`` (the in-process ones) are a no-op;
        the cache itself stays usable — a :class:`RemoteCache` would
        reconnect on the next probe.
        """
        with self.lock:
            close = getattr(self.backend, "close", None)
            if close is not None:
                close()

    def clear(self) -> None:
        with self.lock:
            if self.backend is not None:
                self.backend.clear()
            self._decoded.clear()
            self.hits = 0
            self.misses = 0
            self.decoded_hits = 0

    def stats(self) -> str:
        """One display line; counts the backend's entries (may do I/O)."""
        return f"{len(self)} entries, {self.hits} hits, {self.misses} misses"

    def stats_dict(self) -> Dict[str, Any]:
        """Machine-readable counters.

        In-process counters only, never a backend call: the service
        puts this into every ``end`` event and ``/v1/stats``, and
        behind ``remote://`` an entry count would be a network round
        trip under :attr:`lock`.  ``len(cache)`` counts entries.
        """
        with self.lock:
            total = self.hits + self.misses
            backend = self.backend
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": round(self.hits / total, 6) if total else 0.0,
                "decoded_hits": self.decoded_hits,
                "decoded_entries": len(self._decoded),
                "backend": type(backend).__name__ if backend is not None else None,
                "backend_stats": (
                    backend.stats.to_dict() if backend is not None else None
                ),
            }


# ----------------------------------------------------------------------
# Search budgets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchBudget:
    """Hard limits on one driver run; ``None`` axes are unlimited.

    * ``max_points`` — successful evaluation *records* produced (cache
      hits included): the knob for bounding result size and stream
      length.
    * ``max_oracle_calls`` — oracle runs: outcomes the oracle computed
      for the run, failures included (cache hits, cached failures and
      in-batch duplicates are free); the knob that matters when the
      oracle dominates cost.
    * ``max_seconds`` — wall clock for the whole run.
    * ``max_rounds`` — propose/observe iterations.

    Budgets are checked *between* rounds: a round in flight always
    completes (its records are never discarded), so a run can overshoot
    by at most one proposal — except ``max_points``, which additionally
    trims the proposal that would cross it.
    """

    max_points: Optional[int] = None
    max_oracle_calls: Optional[int] = None
    max_seconds: Optional[float] = None
    max_rounds: Optional[int] = None

    #: The accepted (and serialized) budget axes, in check order.
    FIELDS = ("max_points", "max_oracle_calls", "max_seconds", "max_rounds")

    def __post_init__(self) -> None:
        for name in ("max_points", "max_oracle_calls", "max_rounds"):
            value = getattr(self, name)
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        seconds = self.max_seconds
        if seconds is not None:
            if isinstance(seconds, bool) or not isinstance(
                seconds, (int, float)
            ):
                raise ValueError(f"max_seconds must be a number, got {seconds!r}")
            if not math.isfinite(seconds) or seconds <= 0:
                raise ValueError(f"max_seconds must be > 0, got {seconds!r}")

    @property
    def unlimited(self) -> bool:
        return all(getattr(self, name) is None for name in self.FIELDS)

    def to_dict(self) -> Dict[str, Any]:
        """Only the limited axes; an empty dict is the unlimited budget."""
        return {
            name: getattr(self, name)
            for name in self.FIELDS
            if getattr(self, name) is not None
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchBudget":
        """Parse and validate; unknown keys are rejected, not ignored.

        Raises :class:`ValueError` on malformed input — the service
        boundary maps that to a 400, never a 500.
        """
        if not isinstance(data, Mapping):
            raise ValueError(f"budget must be an object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(cls.FIELDS))
        if unknown:
            raise ValueError(f"unknown budget field(s): {', '.join(unknown)}")
        return cls(**{name: data[name] for name in cls.FIELDS if name in data})


@dataclass
class BudgetState:
    """Live consumption counters, handed to ``propose`` every round."""

    budget: SearchBudget = field(default_factory=SearchBudget)
    rounds: int = 0
    points: int = 0
    oracle_calls: int = 0
    elapsed_seconds: float = 0.0

    def remaining_points(self) -> Optional[int]:
        limit = self.budget.max_points
        return None if limit is None else max(0, limit - self.points)

    def remaining_oracle_calls(self) -> Optional[int]:
        limit = self.budget.max_oracle_calls
        return None if limit is None else max(0, limit - self.oracle_calls)

    def remaining_seconds(self) -> Optional[float]:
        limit = self.budget.max_seconds
        return None if limit is None else max(0.0, limit - self.elapsed_seconds)

    def exhausted_reason(self) -> Optional[str]:
        """The first spent budget axis, or ``None`` while within budget."""
        if self.remaining_points() == 0:
            return "max_points"
        if self.remaining_oracle_calls() == 0:
            return "max_oracle_calls"
        remaining = self.remaining_seconds()
        if remaining is not None and remaining == 0.0:
            return "max_seconds"
        limit = self.budget.max_rounds
        if limit is not None and self.rounds >= limit:
            return "max_rounds"
        return None


@dataclass
class RoundSnapshot:
    """Per-round progress accounting, emitted by the driver.

    ``oracle_calls`` counts the round's outcomes the oracle computed
    (``cache_hit=False``), failures included; ``evaluated`` and
    ``cache_hits`` count its successful records.
    """

    round: int
    step: str
    proposed: int
    evaluated: int
    cache_hits: int
    oracle_calls: int
    total_points: int
    total_oracle_calls: int
    elapsed_seconds: float
    front_size: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "round": self.round,
            "step": self.step,
            "proposed": self.proposed,
            "evaluated": self.evaluated,
            "cache_hits": self.cache_hits,
            "oracle_calls": self.oracle_calls,
            "total_points": self.total_points,
            "total_oracle_calls": self.total_oracle_calls,
            "elapsed_seconds": self.elapsed_seconds,
            "front_size": self.front_size,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RoundSnapshot":
        return cls(
            round=int(data.get("round", 0)),
            step=data.get("step", ""),
            proposed=int(data.get("proposed", 0)),
            evaluated=int(data.get("evaluated", 0)),
            cache_hits=int(data.get("cache_hits", 0)),
            oracle_calls=int(data.get("oracle_calls", 0)),
            total_points=int(data.get("total_points", 0)),
            total_oracle_calls=int(data.get("total_oracle_calls", 0)),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            front_size=int(data.get("front_size", 0)),
        )


@dataclass
class Proposal:
    """One strategy round: the points to evaluate plus their step label.

    ``propose`` may also return a bare point sequence (the driver wraps
    it) or ``None``/an empty proposal to signal convergence.
    """

    points: List[DesignPoint]
    step: str = ""


# ----------------------------------------------------------------------
# Records and result sets
# ----------------------------------------------------------------------
@dataclass
class ExplorationRecord:
    """One evaluated design point with its provenance.

    A failed evaluation (``on_error="skip"``) is a record too, with
    ``report=None`` and the oracle's message in ``error``.
    """

    point: DesignPoint
    report: Optional[CostReport]
    fingerprint: str
    seconds: float = 0.0
    cache_hit: bool = False
    step: str = ""
    program_name: str = ""
    error: Optional[str] = None

    @property
    def label(self) -> str:
        if self.report is None:
            return self.point.display_label
        return self.report.label or self.point.display_label

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "point": self.point.to_dict(),
            "report": None if self.report is None else self.report.to_dict(),
            "fingerprint": self.fingerprint,
            "seconds": self.seconds,
            "cache_hit": self.cache_hit,
            "step": self.step,
            "program_name": self.program_name,
        }
        if self.error is not None:
            data["error"] = self.error
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExplorationRecord":
        report = data["report"]
        return cls(
            point=DesignPoint.from_dict(data["point"]),
            report=None if report is None else CostReport.from_dict(report),
            fingerprint=data["fingerprint"],
            seconds=float(data.get("seconds", 0.0)),
            cache_hit=bool(data.get("cache_hit", False)),
            step=data.get("step", ""),
            program_name=data.get("program_name", ""),
            error=data.get("error"),
        )


@dataclass
class ExplorationResult:
    """Everything one strategy run produced, JSON round-trippable."""

    space_name: str
    strategy: str
    #: The successful evaluations, in evaluation order.
    records: List[ExplorationRecord] = field(default_factory=list)
    #: Step name -> chosen label (greedy walks record their decisions).
    decisions: Dict[str, str] = field(default_factory=dict)
    #: The budget the driver ran under; ``None`` for unlimited runs
    #: (including legacy results parsed from pre-budget JSON).
    budget: Optional[SearchBudget] = None
    #: One snapshot per driver round, in order.
    rounds: List[RoundSnapshot] = field(default_factory=list)
    #: Oracle runs the run caused, failures included (see
    #: :class:`SearchBudget`).
    oracle_calls: int = 0
    #: How the run ended: ``"completed"`` (the strategy converged),
    #: ``"budget_exhausted"``, or ``""`` for results that never went
    #: through the driver (or whose driver was not stepped to its end).
    stopped: str = ""
    #: The spent budget axis (``"max_points"``, ...) when
    #: ``stopped == "budget_exhausted"``; empty otherwise.
    stop_reason: str = ""

    def reports(self) -> List[CostReport]:
        return [record.report for record in self.records]

    def pareto_front(self) -> List[ExplorationRecord]:
        costs = [
            (r.report.onchip_area_mm2, r.report.total_power_mw)
            for r in self.records
        ]
        return [self.records[i] for i in pareto_indices(costs)]

    def knee_point(self) -> ExplorationRecord:
        front = self.pareto_front()
        knee = knee_point([record.report for record in front])
        return next(record for record in front if record.report == knee)

    def cache_hit_count(self) -> int:
        return sum(1 for record in self.records if record.cache_hit)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "space_name": self.space_name,
            "strategy": self.strategy,
            "records": [record.to_dict() for record in self.records],
            "decisions": dict(self.decisions),
            "budget": self.budget.to_dict() if self.budget is not None else None,
            "rounds": [snapshot.to_dict() for snapshot in self.rounds],
            "oracle_calls": self.oracle_calls,
            "stopped": self.stopped,
            "stop_reason": self.stop_reason,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExplorationResult":
        budget = data.get("budget")
        return cls(
            space_name=data.get("space_name", ""),
            strategy=data.get("strategy", ""),
            records=[
                ExplorationRecord.from_dict(record)
                for record in data.get("records", ())
            ],
            decisions=dict(data.get("decisions", {})),
            budget=SearchBudget.from_dict(budget) if budget else None,
            rounds=[
                RoundSnapshot.from_dict(snapshot)
                for snapshot in data.get("rounds", ())
            ],
            oracle_calls=int(data.get("oracle_calls", 0)),
            stopped=data.get("stopped", ""),
            stop_reason=data.get("stop_reason", ""),
        )

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        text = json.dumps(self.to_dict(), indent=2, ensure_ascii=False)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "ExplorationResult":
        """Parse from a JSON string or a path to a JSON file."""
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source
        return cls.from_dict(json.loads(text))


class ExplorationError(RuntimeError):
    """An evaluation failed (e.g. an infeasible allocation count)."""


# ----------------------------------------------------------------------
# Worker entry point (module-level: must pickle into process pools)
# ----------------------------------------------------------------------
#: One oracle outcome: (report, oracle seconds, error message).
_Outcome = Tuple[Optional[CostReport], float, Optional[str]]


def _evaluate_request(request: PmmRequest, tables: DispatchTables) -> _Outcome:
    start = time.perf_counter()
    try:
        report = request.run(tables=tables).report
    except Exception as exc:  # noqa: BLE001 - reported to the caller
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return report, time.perf_counter() - start, None


def _evaluate_chunk(requests: Sequence[PmmRequest]) -> List[_Outcome]:
    """One pool chunk's outcomes, in order; its runs share one set of tables."""
    tables = DispatchTables()
    return [_evaluate_request(request, tables) for request in requests]


def _pool_chunks(requests: Sequence[PmmRequest], workers: int) -> List[List[int]]:
    """A pooled batch's request indices, one list per pool task.

    The points of one program object go to one task, in order of first
    appearance, so they share its dispatch tables also where the batch
    interleaves programs.  A program with more than ``ceil(n / workers)``
    points is split into near-equal pieces of at most that many, so
    every worker gets work.
    """
    by_program: Dict[int, List[int]] = {}
    for index, request in enumerate(requests):
        by_program.setdefault(id(request.program), []).append(index)
    limit = math.ceil(len(requests) / workers)
    chunks: List[List[int]] = []
    for indices in by_program.values():
        size = len(indices)
        pieces = math.ceil(size / limit)
        chunks.extend(
            indices[size * k // pieces : size * (k + 1) // pieces]
            for k in range(pieces)
        )
    return chunks


# ----------------------------------------------------------------------
# The explorer
# ----------------------------------------------------------------------
class Explorer:
    """Evaluates design points through the feedback oracle.

    Parameters
    ----------
    space:
        The design space points refer to: every evaluation resolves a
        :class:`~repro.explore.space.DesignPoint` against it.
    workers:
        Process-parallelism for batch evaluation.  1 (the default) stays
        in-process.  With ``workers=N`` the explorer owns a
        lazily-created, **persistent** process pool, reused across
        :meth:`evaluate_many` calls and strategy steps; release it with
        :meth:`close` or by using the explorer as a context manager.
        A cold pool is spun up only for a batch of at least
        :attr:`MIN_PARALLEL_BATCH` misses; once it exists, any batch of
        two or more misses uses it.
    cache:
        Shared :class:`EvaluationCache`, a bare
        :class:`~repro.explore.cache.CacheBackend`, a directory path
        (wrapped in a :class:`~repro.explore.cache.DiskCache` so the
        memo survives across processes and runs), or a
        ``remote://host:port`` URL (a
        :class:`~repro.explore.cache.RemoteCache` client of the
        :mod:`repro.cacheserver` network tier, so the memo is shared
        across machines; while the server is unreachable, probes miss
        and stores are dropped).  A private in-memory cache is created
        when omitted.
    on_error:
        ``"raise"`` (default) raises :class:`ExplorationError` for an
        infeasible point; ``"skip"`` returns it as a failure record
        (``report=None``, ``error`` set) instead (a sweep axis routinely
        contains corners the allocator cannot satisfy).

    :meth:`evaluate_many` keeps no state on the explorer.  Only
    :meth:`run` appends, to :attr:`failures`, the ``(point, error)``
    pairs its rounds skipped, once per round and point.  The oracle runs
    of one serial batch, or of one pool chunk, share one
    :class:`~repro.dtse.pipeline.DispatchTables` (body tables,
    distributions and allocator states), dropped when the batch or
    chunk is done.
    """

    #: Fewest misses worth spinning up a cold pool for.
    MIN_PARALLEL_BATCH = 4

    def __init__(
        self,
        space: DesignSpace,
        *,
        workers: int = 1,
        cache: Union[None, str, Path, CacheBackend, EvaluationCache] = None,
        area_weight: float = DEFAULT_AREA_WEIGHT,
        on_error: str = "raise",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if on_error not in ("raise", "skip"):
            raise ValueError("on_error must be 'raise' or 'skip'")
        self.space = space
        self.workers = workers
        if isinstance(cache, EvaluationCache):
            self.cache = cache
        elif isinstance(cache, (str, Path)):
            self.cache = EvaluationCache(cache)
        else:
            self.cache = EvaluationCache(backend=cache)
        self.area_weight = area_weight
        self.on_error = on_error
        self.failures: List[Tuple[DesignPoint, str]] = []
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_lock = threading.Lock()
        #: Discards whose ``shutdown`` itself raised (the pool was that
        #: broken) — counted, not swallowed, so a pathological worker
        #: setup is visible instead of silent.
        self._pool_discard_failures = 0

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return self._pool

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        Safe to call concurrently with an in-flight
        :meth:`evaluate_many` — a batch that loses its pool mid-flight
        runs its misses in-process and still completes — and safe to
        call from several threads at once (each pool is shut down
        exactly once).  The explorer stays usable afterwards: the next
        parallel batch simply spins up a fresh pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _discard_pool(self, pool: ProcessPoolExecutor) -> None:
        """Drop a known-bad pool without touching a fresh replacement.

        Concurrent batches can observe the same broken pool; only the
        first discard clears the attribute, so a new pool spun up by a
        recovering caller is never torn down by a late discard.
        """
        with self._pool_lock:
            if self._pool is pool:
                self._pool = None
        try:
            pool.shutdown(wait=False)
        except Exception:  # noqa: BLE001 - the pool is already broken
            with self._pool_lock:
                self._pool_discard_failures += 1

    def __enter__(self) -> "Explorer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        # A module-scope Explorer can be collected during interpreter
        # teardown, after module globals (ProcessPoolExecutor's own
        # included) have been None'd — touch only the instance dict and
        # builtins, never module-level names, and never block.
        try:
            pool = self.__dict__.get("_pool")
            if pool is not None:
                self.__dict__["_pool"] = None
                pool.shutdown(wait=False)
        # repro: allow[RA006] finalizer: logging/counters are torn down
        except Exception:  # noqa: BLE001 - interpreter is exiting
            pass

    @classmethod
    def for_app(
        cls,
        name: str,
        constraints: Optional[Any] = None,
        **kwargs,
    ) -> "Explorer":
        """An explorer over a registered workload's default space.

        ``Explorer.for_app("cavity", workers=4)`` is the one-liner from
        registry to sweep; keyword arguments pass through to the
        constructor.
        """
        return cls(DesignSpace.for_app(name, constraints), **kwargs)

    # ------------------------------------------------------------------
    # Request resolution
    # ------------------------------------------------------------------
    def request_for(self, point: DesignPoint) -> PmmRequest:
        """Resolve a point against the space into a concrete request."""
        return PmmRequest(
            program=self.space.program(point.variant),
            cycle_budget=self.space.effective_budget(point.budget_fraction),
            frame_time_s=self.space.frame_time_s,
            library=self.space.library(point.library),
            n_onchip=point.n_onchip,
            area_weight=self.area_weight,
            label=point.display_label,
        )

    # ------------------------------------------------------------------
    # Fingerprints (incremental hot path)
    # ------------------------------------------------------------------
    def fingerprint_points(self, points: Sequence[DesignPoint]) -> List[str]:
        """Content addresses for a whole batch in one assembly pass.

        The one fingerprint path for design points: byte-identical to
        :func:`~repro.explore.fingerprint.fingerprint_request` over
        :meth:`request_for` per point, but the batch shares everything
        shareable.  The canonical program and library fragments are
        fetched **once per distinct axis value** (not per point), the
        knob segments — area weight, frame time, each distinct cycle
        budget and on-chip count — are serialized once, and each point
        then pays one string join plus one SHA-256.  The keys are
        sorted, so the blob ends with the program fragment and ``}``.
        No :class:`PmmRequest` (or any other per-point object) is
        constructed.
        """
        space = self.space
        dumps = json.dumps
        sha256 = hashlib.sha256
        prefix = (
            f'{{"area_weight":{dumps(float(self.area_weight))},"cycle_budget":'
        )
        frame_mid = f',"frame_time_s":{dumps(float(space.frame_time_s))},"library":'
        budget_txt: Dict[float, str] = {}
        onchip_txt: Dict[Optional[int], str] = {}
        library_json: Dict[str, str] = {}
        program_json: Dict[str, str] = {}
        fingerprints: List[str] = []
        for point in points:
            budget = budget_txt.get(point.budget_fraction)
            if budget is None:
                budget = budget_txt[point.budget_fraction] = dumps(
                    float(space.effective_budget(point.budget_fraction))
                )
            library = library_json.get(point.library)
            if library is None:
                library = library_json[point.library] = (
                    space.fingerprint_library_json(point.library)
                )
            onchip = onchip_txt.get(point.n_onchip)
            if onchip is None:
                onchip = onchip_txt[point.n_onchip] = (
                    f',"n_onchip":{dumps(point.n_onchip)},"program":'
                )
            program = program_json.get(point.variant)
            if program is None:
                program = program_json[point.variant] = (
                    space.fingerprint_program_json(point.variant)
                )
            blob = "".join(
                (prefix, budget, frame_mid, library, onchip, program, "}")
            )
            fingerprints.append(sha256(blob.encode("utf-8")).hexdigest())
        return fingerprints

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, point: DesignPoint, step: str = "") -> ExplorationRecord:
        """Evaluate one point (cache-aware, serial)."""
        return self.evaluate_many([point], step=step)[0]

    def evaluate_many(
        self, points: Sequence[DesignPoint], step: str = ""
    ) -> List[ExplorationRecord]:
        """Evaluate a batch; misses fan out over the process pool.

        Returns one record per point, in the order of ``points``
        whatever the completion order, so parallel runs are
        bit-identical to serial ones.  With ``on_error="skip"`` a failed
        point is a record with ``report=None`` and its ``error``.
        Duplicate points within the batch are evaluated once: only the
        first occurrence of a fingerprint the oracle ran for has
        ``cache_hit=False`` (and carries the oracle seconds); the rest,
        cached failures included, are cache hits.  The explorer keeps
        no record of the batch; the cache holds its outcomes.

        The batch is assembled **vectorized**: fingerprints come from
        one :meth:`fingerprint_points` pass (shared fragments and knob
        segments, no per-point churn) and a concrete
        :class:`~repro.dtse.pipeline.PmmRequest` is built only for the
        points that actually miss the cache — a warm sweep constructs
        no request objects at all.

        With ``on_error="raise"`` an infeasible point raises
        :class:`ExplorationError` whatever ``workers`` and the batch
        size are.  A failure already in the cache raises before any
        oracle work; otherwise the first failing miss in point order
        raises once the successes before it are stored, and no later
        miss is consumed.
        """
        if not points:
            return []
        fingerprints = self.fingerprint_points(points)
        pending: Dict[str, DesignPoint] = {}
        for fingerprint, point in zip(fingerprints, points):
            pending.setdefault(fingerprint, point)
        # Outcomes are pinned batch-locally as soon as they are
        # resolved: a bounded cache may evict any entry between the
        # probe and record assembly, and correctness must not depend on
        # retention.
        known = self.cache.lookup_many(tuple(pending))
        fresh: Dict[str, PmmRequest] = {}
        for fingerprint, point in pending.items():
            report, error = known.get(fingerprint, (None, None))
            if report is not None:
                # Evaluation-level hits count backend resolutions, once
                # per unique fingerprint — in-batch duplicates and
                # in-batch computations never touch the backend, so
                # these counters reconcile with the backend's own.
                self.cache.count_hits()
            elif error is None:
                # The only point on the batch path that materializes a
                # request: the oracle needs one, a cache hit does not.
                fresh[fingerprint] = self.request_for(point)
            elif self.on_error == "raise":
                # A failure persisted by an earlier (skip-mode) run over
                # a shared cache: honoring raise semantics beats
                # silently dropping the point.
                raise ExplorationError(
                    f"evaluation of {point.display_label!r} failed: {error}"
                )
        seconds = self._evaluate_misses(fresh, known) if fresh else {}
        records = []
        program_names: Dict[str, str] = {}  # variant -> program.name
        for point, fingerprint in zip(points, fingerprints):
            report, error = known[fingerprint]
            label = point.display_label
            if report is not None and report.label != label:
                report = dataclasses.replace(report, label=label)
            # Only the first occurrence of a freshly computed
            # fingerprint is the miss and carries the oracle seconds;
            # duplicates resolved from the batch-local pin are hits.
            elapsed = seconds.pop(fingerprint, None)
            program_name = program_names.get(point.variant)
            if program_name is None:
                program_name = program_names[point.variant] = self.space.program(
                    point.variant
                ).name
            record = ExplorationRecord(
                point=point,
                report=report,
                fingerprint=fingerprint,
                seconds=0.0 if elapsed is None else elapsed,
                cache_hit=elapsed is None,
                step=step,
                program_name=program_name,
                error=error,
            )
            records.append(record)
        return records

    def _evaluate_misses(
        self,
        fresh: Dict[str, PmmRequest],
        known: Dict[str, Tuple[Optional[CostReport], Optional[str]]],
    ) -> Dict[str, float]:
        """Run the oracle for ``fresh``, pin the outcomes in ``known``.

        Outcomes come from the pool, one chunk of requests per task
        (:func:`_pool_chunks`: the points of one program object), put
        back into point order, when the pool pays off; else from a lazy
        in-process generator (also when the pool is lost).  The serial
        batch shares one set of dispatch tables, and each pool chunk one
        of its own.  One loop consumes the outcomes in point order,
        counting each as a miss; with ``on_error="raise"`` it raises at
        the first failure and consumes nothing after it.  What it
        consumed is stored in one :meth:`EvaluationCache.store_many`,
        also on a raise or an interrupt.  Returns the oracle seconds per
        computed outcome.
        """
        requests = list(fresh.values())
        # The generator is lazy: each oracle call runs only when the
        # loop below consumes its outcome.
        tables = DispatchTables()
        outcomes: Iterable[_Outcome] = (
            _evaluate_request(request, tables) for request in requests
        )
        # A warm pool costs nothing to reuse; a cold one is only worth
        # spinning up for batches that amortize the fork cost.
        if (
            self.workers > 1
            and len(requests) > 1
            and (self._pool is not None or len(requests) >= self.MIN_PARALLEL_BATCH)
        ):
            pool = self._ensure_pool()
            chunks = _pool_chunks(requests, self.workers)
            tasks = [[requests[index] for index in chunk] for chunk in chunks]
            try:
                by_index: Dict[int, _Outcome] = {}
                for chunk, computed in zip(chunks, pool.map(_evaluate_chunk, tasks)):
                    by_index.update(zip(chunk, computed))
                outcomes = [by_index[index] for index in range(len(requests))]
            except (BrokenProcessPool, RuntimeError) as exc:
                # BrokenProcessPool: a worker died under the batch.
                # RuntimeError: recoverable only when the pool was shut
                # down between submit and map (a concurrent close(),
                # e.g. a draining service) — map() iteration also
                # re-raises exceptions from the worker function, and
                # those must propagate instead of silently discarding
                # a healthy pool.
                pool_lost = isinstance(exc, BrokenProcessPool) or (
                    "shutdown" in str(exc) or getattr(pool, "_broken", False)
                )
                if not pool_lost:
                    raise
                # The batch must still complete: drop the dead pool
                # (never a replacement a concurrent recovering caller
                # already spun up) and run the batch in-process — the
                # oracle is deterministic and stores are idempotent, so
                # recovery is invisible to the caller beyond the lost
                # parallelism.
                self._discard_pool(pool)
        reports: Dict[str, CostReport] = {}
        failures: Dict[str, str] = {}
        seconds: Dict[str, float] = {}
        try:
            for (fingerprint, request), (report, elapsed, error) in zip(
                fresh.items(), outcomes
            ):
                self.cache.count_misses()
                known[fingerprint] = (report, error)
                seconds[fingerprint] = elapsed
                if error is None:
                    reports[fingerprint] = report
                elif self.on_error == "raise":
                    raise ExplorationError(
                        f"evaluation of {request.label!r} failed: {error}"
                    )
                else:
                    failures[fingerprint] = error
        finally:
            self.cache.store_many(reports, failures)
        return seconds

    # ------------------------------------------------------------------
    def run(
        self,
        strategy: "SearchStrategy",  # noqa: F821
        *,
        budget: Optional[SearchBudget] = None,
    ) -> ExplorationResult:
        """Run a search strategy to its end under ``budget``.

        The synchronous loop of :class:`SearchDriver`: every proposal is
        evaluated through :meth:`evaluate_many`.
        """
        return SearchDriver(self, strategy, budget=budget).run()


# ----------------------------------------------------------------------
# The driver loop
# ----------------------------------------------------------------------
class SearchDriver:
    """Steps a strategy through the budgeted propose/observe loop.

    The driver — not the strategy — charges budgets, snapshots progress
    and decides when to stop, so budget enforcement and progress
    accounting apply to every strategy uniformly.  Strategies only
    generate point batches (:meth:`~SearchStrategy.propose`) and digest
    the evaluated records (:meth:`~SearchStrategy.observe`).

    The caller owns evaluation: :meth:`next_batch` returns the next
    proposal (``None`` once the run is over), the caller evaluates its
    points, and :meth:`record` takes the outcomes back (one record per
    point, failures included, as :meth:`Explorer.evaluate_many`
    returns them) and returns the round's :class:`RoundSnapshot`;
    :meth:`result` assembles the run.
    :meth:`run` is that loop over :meth:`Explorer.evaluate_many`.  The
    sweep service steps the same driver on its event loop and evaluates
    each proposal through its single-flight table.

    Each :meth:`next_batch` asks the strategy for a proposal (``None``
    or empty means converged → ``"completed"``), stops *before*
    evaluating if the budget is already spent (→ ``"budget_exhausted"``
    with the axis in ``stop_reason``), and trims the batch to the
    remaining point and oracle-call budgets.  Asking for the proposal
    first keeps the labels honest: a strategy whose last round exactly
    lands the budget still reports ``"completed"``.
    """

    def __init__(
        self,
        explorer: Explorer,
        strategy: "SearchStrategy",  # noqa: F821
        *,
        budget: Optional[SearchBudget] = None,
    ) -> None:
        self.explorer = explorer
        self.strategy = strategy
        self.budget = budget if budget is not None else SearchBudget()
        self._state = BudgetState(budget=self.budget)
        self._result = ExplorationResult(
            space_name=explorer.space.name,
            strategy=strategy.name,
            budget=None if self.budget.unlimited else self.budget,
        )
        strategy.begin(explorer)
        self._start = time.perf_counter()

    def next_batch(self) -> Optional[Proposal]:
        """The next budget-trimmed proposal; ``None`` once the run is over."""
        state = self._state
        state.elapsed_seconds = time.perf_counter() - self._start
        proposal = self.strategy.propose(state)
        if isinstance(proposal, Proposal):
            points, step = list(proposal.points), proposal.step
        else:
            points, step = list(proposal or ()), ""
        if not points:
            self._result.stopped = "completed"
            return None
        reason = state.exhausted_reason()
        if reason is not None:
            self._result.stopped = "budget_exhausted"
            self._result.stop_reason = reason
            return None
        # Every trimmed-in point may run the oracle, so a round never
        # overshoots the oracle-call budget.
        for remaining in (state.remaining_points(), state.remaining_oracle_calls()):
            if remaining is not None:
                points = points[:remaining]
        return Proposal(points=points, step=step)

    def record(
        self, proposal: Proposal, outcomes: Sequence[ExplorationRecord]
    ) -> RoundSnapshot:
        """Charge one evaluated proposal and feed its successes back.

        Each outcome with ``cache_hit=False`` is one oracle run and is
        charged, failures included; only successes reach ``observe``,
        the result's records and the point count.
        """
        state = self._state
        charged = sum(1 for outcome in outcomes if not outcome.cache_hit)
        records = [outcome for outcome in outcomes if outcome.report is not None]
        cache_hits = sum(1 for record in records if record.cache_hit)
        state.rounds += 1
        state.points += len(records)
        state.oracle_calls += charged
        state.elapsed_seconds = time.perf_counter() - self._start
        result = self._result
        result.records.extend(records)
        self.strategy.observe(records)
        snapshot = RoundSnapshot(
            round=state.rounds,
            step=proposal.step,
            proposed=len(proposal.points),
            evaluated=len(records),
            cache_hits=cache_hits,
            oracle_calls=charged,
            total_points=state.points,
            total_oracle_calls=state.oracle_calls,
            elapsed_seconds=state.elapsed_seconds,
            front_size=len(result.pareto_front()),
        )
        result.rounds.append(snapshot)
        return snapshot

    def result(self) -> ExplorationResult:
        """The run so far; final once :meth:`next_batch` returned ``None``."""
        result = self._result
        result.oracle_calls = self._state.oracle_calls
        self.strategy.finalize(result)
        return result

    def run(self) -> ExplorationResult:
        """Step to the end, evaluating through the explorer.

        Each round's skipped points are appended to
        ``explorer.failures``, once each.
        """
        explorer = self.explorer
        proposal = self.next_batch()
        while proposal is not None:
            outcomes = explorer.evaluate_many(proposal.points, proposal.step)
            self.record(proposal, outcomes)
            explorer.failures.extend(
                dict.fromkeys(
                    (outcome.point, outcome.error)
                    for outcome in outcomes
                    if outcome.report is None
                )
            )
            proposal = self.next_batch()
        return self.result()
