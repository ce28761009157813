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
  manager); results come back in deterministic point order regardless
  of completion order.  Batches smaller than ``min_parallel_batch``
  fall back to the serial path so tiny sweeps never pay fork cost.

Search strategies (:mod:`repro.explore.strategies`) sit on top and only
ever talk to the explorer, so caching and parallelism apply to every
strategy uniformly.
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
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..costs.report import INFEASIBLE_MARKER, CostReport
from ..dtse.allocation.assign import DEFAULT_AREA_WEIGHT
from ..dtse.pipeline import PmmRequest
from .cache import REMOTE_SCHEME, CacheBackend, DiskCache, resolve_backend
from .fingerprint import canonical_value, fingerprint_request
from .pareto import knee_point, pareto_front, pareto_indices
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

    def _decode_payload(
        self, fingerprint: str, payload: Mapping[str, Any]
    ) -> Tuple[Optional[CostReport], Optional[str]]:
        if self.FAILURE_KEY in payload:
            entry: Tuple[Optional[CostReport], Optional[str]] = (
                None,
                str(payload[self.FAILURE_KEY]),
            )
        else:
            entry = (CostReport.from_dict(payload), None)
        self._remember(fingerprint, entry)
        return entry

    @property
    def decoded_entries(self) -> int:
        """Current size of the decoded tier."""
        with self.lock:
            return len(self._decoded)

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def lookup(
        self, fingerprint: str
    ) -> Tuple[Optional[CostReport], Optional[str]]:
        """One probe: (report, None), (None, error) or (None, None).

        The decoded tier is consulted first; only a decoded-tier miss
        touches the backend (and the decode it pays fills the tier).
        """
        with self.lock:
            entry = self._decoded.get(fingerprint)
            if entry is not None:
                self._decoded.move_to_end(fingerprint)
                self.decoded_hits += 1
                return entry
            if self.backend is None:
                return None, None
            payload = self.backend.get(fingerprint)
            if payload is None:
                return None, None
            return self._decode_payload(fingerprint, payload)

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
                resolved[fingerprint] = self._decode_payload(fingerprint, payload)
            return resolved

    def store_many(self, reports: Mapping[str, CostReport]) -> None:
        """Bulk report store (one backend ``store_many``)."""
        payloads = None
        if self.backend is not None:
            payloads = {
                fingerprint: report.to_dict()
                for fingerprint, report in reports.items()
            }
        with self.lock:
            if payloads is not None:
                self.backend.store_many(payloads)
            for fingerprint, report in reports.items():
                self._remember(fingerprint, (report, None))

    def get_report(self, fingerprint: str) -> Optional[CostReport]:
        return self.lookup(fingerprint)[0]

    def get_error(self, fingerprint: str) -> Optional[str]:
        """The cached failure message, if this evaluation is known bad."""
        return self.lookup(fingerprint)[1]

    def store_failure(self, fingerprint: str, error: str) -> None:
        with self.lock:
            if self.backend is not None:
                self.backend.put(fingerprint, {self.FAILURE_KEY: error})
            self._remember(fingerprint, (None, error))

    def store(self, fingerprint: str, report: CostReport) -> None:
        with self.lock:
            if self.backend is not None:
                self.backend.put(fingerprint, report.to_dict())
            self._remember(fingerprint, (report, None))

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

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Drain a write-behind backend (:class:`RemoteCache` queues
        stores); synchronous backends are a no-op True."""
        with self.lock:
            flush = getattr(self.backend, "flush", None)
            if flush is None:
                return True
            return bool(flush(timeout=timeout))

    def close_backend(self) -> None:
        """Release backend resources (network connections, flushers).

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

    * ``max_points`` — evaluation *records* produced (cache hits
      included): the knob for bounding result size and stream length.
    * ``max_oracle_calls`` — points that could not be served from
      cache; the knob that matters when the oracle dominates cost.
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

    ``oracle_calls`` charges every unique proposed point the round
    could not serve as a cache-hit record — fresh oracle runs and
    skipped failures alike — so the count is exact on a cold cache and
    a conservative upper bound on a warm one (a negatively-cached
    failure skips the oracle but is still charged).
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
    """One evaluated design point with its provenance."""

    point: DesignPoint
    report: CostReport
    fingerprint: str
    seconds: float = 0.0
    cache_hit: bool = False
    step: str = ""
    program_name: str = ""

    @property
    def label(self) -> str:
        return self.report.label or self.point.display_label

    def to_dict(self) -> Dict[str, Any]:
        return {
            "point": self.point.to_dict(),
            "report": self.report.to_dict(),
            "fingerprint": self.fingerprint,
            "seconds": self.seconds,
            "cache_hit": self.cache_hit,
            "step": self.step,
            "program_name": self.program_name,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExplorationRecord":
        return cls(
            point=DesignPoint.from_dict(data["point"]),
            report=CostReport.from_dict(data["report"]),
            fingerprint=data["fingerprint"],
            seconds=float(data.get("seconds", 0.0)),
            cache_hit=bool(data.get("cache_hit", False)),
            step=data.get("step", ""),
            program_name=data.get("program_name", ""),
        )


@dataclass
class ExplorationResult:
    """Everything one strategy run produced, JSON round-trippable."""

    space_name: str
    strategy: str
    records: List[ExplorationRecord] = field(default_factory=list)
    #: Step name -> chosen label (greedy walks record their decisions).
    decisions: Dict[str, str] = field(default_factory=dict)
    #: The budget the driver ran under; ``None`` for unlimited runs
    #: (including legacy results parsed from pre-budget JSON).
    budget: Optional[SearchBudget] = None
    #: One snapshot per driver round, in order.
    rounds: List[RoundSnapshot] = field(default_factory=list)
    #: Points the run could not serve from cache (see
    #: :class:`RoundSnapshot` for the exact charging rule).
    oracle_calls: int = 0
    #: How the run ended: ``"completed"`` (the strategy converged),
    #: ``"budget_exhausted"``, ``"cancelled"``, or ``""`` for results
    #: that never went through the driver.
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

    @classmethod
    def merged(cls, results: Sequence["ExplorationResult"]) -> "ExplorationResult":
        """Combine shard results into one, deduplicated by fingerprint.

        The inverse of :meth:`Explorer.shard_points`: each worker
        sweeps its shard, the results merge here.  Records keep their
        first-seen order across ``results``; a fingerprint appearing in
        several shards (e.g. overlapping manual partitions) contributes
        its first record only.  Metadata (space name, strategy) comes
        from the first result that sets it; decisions merge left to
        right.
        """
        if not results:
            raise ValueError("merged needs at least one result")
        merged = cls(
            space_name=next((r.space_name for r in results if r.space_name), ""),
            strategy=next((r.strategy for r in results if r.strategy), ""),
        )
        seen: set = set()
        for result in results:
            for record in result.records:
                if record.fingerprint in seen:
                    continue
                seen.add(record.fingerprint)
                merged.records.append(record)
            merged.decisions.update(result.decisions)
        return merged

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
def _evaluate_request(
    request: PmmRequest,
) -> Tuple[Optional[CostReport], float, Optional[str]]:
    start = time.perf_counter()
    try:
        report = request.run().report
    except Exception as exc:  # noqa: BLE001 - reported to the caller
        return None, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return report, time.perf_counter() - start, None


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
    min_parallel_batch:
        Miss batches smaller than this run serially even when
        ``workers > 1`` — tiny sweeps never pay pool spin-up.  Once the
        pool exists, any batch of two or more misses uses it.
    cache:
        Shared :class:`EvaluationCache`, a bare
        :class:`~repro.explore.cache.CacheBackend`, a directory path
        (wrapped in a :class:`~repro.explore.cache.DiskCache` so the
        memo survives across processes and runs), or a
        ``remote://host:port`` URL (a
        :class:`~repro.explore.cache.RemoteCache` client of the
        :mod:`repro.cacheserver` network tier, so the memo is shared
        across machines; an optional ``/local/dir`` path suffix adds a
        read-through fallback for server outages).  A private in-memory
        cache is created when omitted.
    on_error:
        ``"raise"`` (default) propagates oracle failures; ``"skip"``
        drops infeasible points from the batch instead, recording them
        in :attr:`failures` (a sweep axis routinely contains corners
        the allocator cannot satisfy).
    retain_records:
        ``True`` (default) appends every evaluation to :attr:`records`
        and every skipped point to :attr:`failures` — what strategies
        and result assembly expect.  ``False`` keeps both lists empty:
        the mode for long-lived callers (the :mod:`repro.service`
        server) that stream records straight to clients and must not
        grow per-request state without bound.
    """

    #: Default serial-fallback threshold for parallel miss batches.
    DEFAULT_MIN_PARALLEL_BATCH = 4

    def __init__(
        self,
        space: DesignSpace,
        *,
        workers: int = 1,
        min_parallel_batch: int = DEFAULT_MIN_PARALLEL_BATCH,
        cache: Union[None, str, Path, CacheBackend, EvaluationCache] = None,
        area_weight: float = DEFAULT_AREA_WEIGHT,
        seed: int = 0,
        on_error: str = "raise",
        retain_records: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if min_parallel_batch < 2:
            raise ValueError("min_parallel_batch must be >= 2")
        if on_error not in ("raise", "skip"):
            raise ValueError("on_error must be 'raise' or 'skip'")
        self.space = space
        self.workers = workers
        self.min_parallel_batch = min_parallel_batch
        if isinstance(cache, EvaluationCache):
            self.cache = cache
        elif isinstance(cache, (str, Path)):
            self.cache = EvaluationCache(cache)
        else:
            self.cache = EvaluationCache(backend=cache)
        self.area_weight = area_weight
        self.seed = seed
        self.on_error = on_error
        self.retain_records = retain_records
        self.records: List[ExplorationRecord] = []
        self.failures: List[Tuple[DesignPoint, str]] = []
        self._seconds: Dict[str, float] = {}
        self._errors: Dict[str, str] = {}
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
        falls back to the serial path and still completes — and safe to
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
            seed=self.seed,
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
        knob segments — area weight, frame time, seed, each distinct
        cycle budget and on-chip count — are serialized once, and each
        point then pays one string join plus one SHA-256.  No
        :class:`PmmRequest` (or any other per-point object) is
        constructed.
        """
        space = self.space
        dumps = json.dumps
        sha256 = hashlib.sha256
        prefix = (
            f'{{"area_weight":{dumps(float(self.area_weight))},"cycle_budget":'
        )
        frame_mid = f',"frame_time_s":{dumps(float(space.frame_time_s))},"library":'
        suffix = f',"seed":{dumps(self.seed)}}}'
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
                (prefix, budget, frame_mid, library, onchip, program, suffix)
            )
            fingerprints.append(sha256(blob.encode("utf-8")).hexdigest())
        return fingerprints

    def shard_points(
        self,
        count: int,
        index: int,
        points: Optional[Sequence[DesignPoint]] = None,
    ) -> List[DesignPoint]:
        """Deterministic fingerprint partition of a sweep into shards.

        Splits the space's full cartesian product (or ``points``) into
        ``count`` disjoint shards by content address: shard ``index``
        keeps the points whose fingerprint prefix falls in its residue
        class.  Because the partition key is the same fingerprint the
        memo cache is addressed by, a fleet of workers sharing one
        ``remote://`` cache tier can each sweep its shard with **zero**
        coordination and zero duplicate oracle evaluations, then
        combine with :meth:`ExplorationResult.merged`.  The partition
        is stable across processes and machines (content hashes, not
        ``hash()``), and every point lands in exactly one shard.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        if not 0 <= index < count:
            raise ValueError(f"index must be in [0, {count}), got {index}")
        if points is None:
            points = self.space.points()
        fingerprints = self.fingerprint_points(points)
        return [
            point
            for point, fingerprint in zip(points, fingerprints)
            if int(fingerprint[:8], 16) % count == index
        ]

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

        Records come back in the order of ``points`` whatever the
        completion order, so parallel runs are bit-identical to serial
        ones.  Duplicate points within the batch are evaluated once:
        only the first occurrence of a fingerprint counts as the miss
        (and carries the oracle seconds); the rest are cache hits.

        The batch is assembled **vectorized**: fingerprints come from
        one :meth:`fingerprint_points` pass (shared fragments and knob
        segments, no per-point churn) and a concrete
        :class:`~repro.dtse.pipeline.PmmRequest` is built only for the
        points that actually miss the cache — a warm sweep constructs
        no request objects at all.
        """
        if not points:
            return []
        fingerprints = self.fingerprint_points(points)
        # Reports are pinned batch-locally as soon as they are resolved:
        # a bounded backend may evict any entry between the cache probe
        # and record assembly, and correctness must not depend on
        # retention.
        known: Dict[str, CostReport] = {}
        fresh: Dict[str, PmmRequest] = {}
        pending: Dict[str, DesignPoint] = {}
        for fingerprint, point in zip(fingerprints, points):
            pending.setdefault(fingerprint, point)
        probed = self.cache.lookup_many(tuple(pending))
        for fingerprint, point in pending.items():
            report, error = probed.get(fingerprint, (None, None))
            if report is not None:
                known[fingerprint] = report
                # Evaluation-level hits count backend resolutions, once
                # per unique fingerprint — in-batch duplicates and
                # in-batch computations never touch the backend, so
                # these counters reconcile with the backend's own.
                self.cache.count_hits()
                continue
            if error is None:
                error = self._errors.get(fingerprint)
            if error is None:
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
        computed = self._evaluate_misses(fresh)
        known.update(computed)
        records = []
        charged: set = set()  # computed fingerprints already attributed
        program_names: Dict[str, str] = {}  # variant -> program.name
        for point, fingerprint in zip(points, fingerprints):
            report = known.get(fingerprint)
            if report is None:  # failed and on_error == "skip"
                if self.retain_records:
                    failure = (point, self._known_error(fingerprint) or "unknown")
                    if failure not in self.failures:
                        self.failures.append(failure)
                continue
            label = point.display_label
            if report.label != label:
                report = dataclasses.replace(report, label=label)
            # Only the first occurrence of a freshly computed
            # fingerprint is the miss; duplicates resolved from the
            # batch-local pin are hits and never re-attribute the
            # oracle seconds.
            miss = fingerprint in computed and fingerprint not in charged
            if miss:
                charged.add(fingerprint)
            program_name = program_names.get(point.variant)
            if program_name is None:
                program_name = program_names[point.variant] = self.space.program(
                    point.variant
                ).name
            record = ExplorationRecord(
                point=point,
                report=report,
                fingerprint=fingerprint,
                seconds=self._seconds.get(fingerprint, 0.0) if miss else 0.0,
                cache_hit=not miss,
                step=step,
                program_name=program_name,
            )
            records.append(record)
        if self.retain_records:
            self.records.extend(records)
        return records

    def _use_pool(self, batch_size: int) -> bool:
        if self.workers <= 1 or batch_size < 2:
            return False
        # A warm pool costs nothing to reuse; a cold one is only worth
        # spinning up for batches that amortize the fork cost.
        return self._pool is not None or batch_size >= self.min_parallel_batch

    def _evaluate_misses(
        self, fresh: Dict[str, PmmRequest]
    ) -> Dict[str, CostReport]:
        """Run the oracle for every fingerprint in ``fresh``.

        Returns the computed reports so the caller does not depend on
        the cache retaining them (a bounded backend may evict).
        """
        computed: Dict[str, CostReport] = {}
        if not fresh:
            return computed
        self.cache.count_misses(len(fresh))
        items = list(fresh.items())
        if self._use_pool(len(items)):
            pool = self._ensure_pool()
            # Chunk so each worker gets a handful of round trips, not
            # one IPC exchange per point.
            chunksize = max(1, math.ceil(len(items) / (self.workers * 4)))
            try:
                outcomes = list(
                    pool.map(
                        _evaluate_request,
                        [request for _, request in items],
                        chunksize=chunksize,
                    )
                )
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
                # already spun up) and rerun this batch serially — the
                # oracle is deterministic and stores are idempotent, so
                # recovery is invisible to the caller beyond the lost
                # parallelism.
                self._discard_pool(pool)
                self._evaluate_serially(items, computed)
                return computed
            failures: List[Tuple[str, PmmRequest, str]] = []
            stored: Dict[str, CostReport] = {}
            for (fingerprint, request), (report, seconds, error) in zip(
                items, outcomes
            ):
                if error is not None:
                    failures.append((fingerprint, request, error))
                    continue
                stored[fingerprint] = report
                computed[fingerprint] = report
                self._seconds[fingerprint] = seconds
            # Successes persist before any failure can raise, and in
            # one bulk store.
            if stored:
                self.cache.store_many(stored)
            for fingerprint, request, error in failures:
                self._record_failure(fingerprint, request, error)
        else:
            self._evaluate_serially(items, computed)
        return computed

    def _evaluate_serially(
        self,
        items: Sequence[Tuple[str, PmmRequest]],
        computed: Dict[str, CostReport],
    ) -> None:
        """The in-process miss path (also the pool-loss recovery path)."""
        for fingerprint, request in items:
            start = time.perf_counter()
            try:
                report = request.run().report
            except Exception as exc:
                if self.on_error == "raise":
                    raise
                self._record_failure(
                    fingerprint, request, f"{type(exc).__name__}: {exc}"
                )
                continue
            seconds = time.perf_counter() - start
            self.cache.store(fingerprint, report)
            computed[fingerprint] = report
            self._seconds[fingerprint] = seconds

    def _known_error(self, fingerprint: str) -> Optional[str]:
        """This explorer's (or the shared cache's) failure memo."""
        error = self._errors.get(fingerprint)
        if error is not None:
            return error
        return self.cache.get_error(fingerprint)

    def _record_failure(
        self, fingerprint: str, request: PmmRequest, error: str
    ) -> None:
        if self.on_error == "raise":
            raise ExplorationError(f"evaluation of {request.label!r} failed: {error}")
        self._errors[fingerprint] = error
        self.cache.store_failure(fingerprint, error)

    # ------------------------------------------------------------------
    def explore(
        self,
        strategy: "SearchStrategy",  # noqa: F821
        *,
        budget: Optional[SearchBudget] = None,
        on_round: Optional[Callable[[RoundSnapshot], None]] = None,
        evaluate: Optional[
            Callable[[Sequence[DesignPoint], str], List[ExplorationRecord]]
        ] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> ExplorationResult:
        """Drive a strategy through the budgeted propose/observe loop.

        The canonical entry point since the driver refactor: every
        keyword forwards to :class:`SearchDriver`.  ``explorer.run(s)``
        and ``s.run(explorer)`` are thin shims over this.
        """
        driver = SearchDriver(
            self,
            budget=budget,
            on_round=on_round,
            evaluate=evaluate,
            should_stop=should_stop,
        )
        return driver.run(strategy)

    def run(
        self,
        strategy: "SearchStrategy",  # noqa: F821
        *,
        budget: Optional[SearchBudget] = None,
    ) -> ExplorationResult:
        """Run a search strategy against this explorer (compat shim)."""
        return self.explore(strategy, budget=budget)

    def pareto_front(self) -> List[CostReport]:
        return pareto_front([record.report for record in self.records])


# ----------------------------------------------------------------------
# The driver loop
# ----------------------------------------------------------------------
class SearchDriver:
    """Owns the propose/observe loop every strategy runs under.

    The driver — not the strategy — evaluates batches, charges budgets,
    snapshots progress and decides when to stop, so caching,
    parallelism, budget enforcement and streaming apply to every
    strategy uniformly.  Strategies only generate point batches
    (:meth:`~SearchStrategy.propose`) and digest the evaluated records
    (:meth:`~SearchStrategy.observe`).

    Parameters
    ----------
    explorer:
        The evaluation engine (cache, pool, failure policy).
    budget:
        Limits for this run; ``None`` or an all-``None``
        :class:`SearchBudget` runs to strategy convergence.
    on_round:
        Called with each :class:`RoundSnapshot` as the round completes —
        the service streams these as NDJSON ``progress`` events.
    evaluate:
        Override for the evaluation callable (defaults to the
        explorer's :meth:`~Explorer.evaluate_many`).  The service
        injects a callable that routes batches through its request
        coalescer so concurrent sweeps share in-flight evaluations.
    should_stop:
        Polled once per round; returning ``True`` stops the run with
        ``stopped == "cancelled"`` (the service wires this to client
        disconnects).

    The loop per round: ask the strategy for a proposal (``None`` or
    empty means converged → ``"completed"``), stop *before* evaluating
    if the budget is already spent (→ ``"budget_exhausted"`` with the
    axis in ``stop_reason``), trim the batch to the remaining point
    budget, evaluate, feed the records back through ``observe``, then
    snapshot.  Asking for the proposal first keeps the labels honest: a
    strategy whose last round exactly lands the budget still reports
    ``"completed"``.
    """

    def __init__(
        self,
        explorer: Explorer,
        *,
        budget: Optional[SearchBudget] = None,
        on_round: Optional[Callable[[RoundSnapshot], None]] = None,
        evaluate: Optional[
            Callable[[Sequence[DesignPoint], str], List[ExplorationRecord]]
        ] = None,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> None:
        self.explorer = explorer
        self.budget = budget if budget is not None else SearchBudget()
        self.on_round = on_round
        self.should_stop = should_stop
        self._evaluate = evaluate

    def _coerce(self, proposal: Any) -> Tuple[List[DesignPoint], str]:
        if isinstance(proposal, Proposal):
            return list(proposal.points), proposal.step
        return list(proposal), ""

    def run(self, strategy: "SearchStrategy") -> ExplorationResult:  # noqa: F821
        explorer = self.explorer
        evaluate = (
            self._evaluate if self._evaluate is not None else explorer.evaluate_many
        )
        state = BudgetState(budget=self.budget)
        result = ExplorationResult(
            space_name=explorer.space.name,
            strategy=strategy.name,
            budget=None if self.budget.unlimited else self.budget,
        )
        strategy.begin(explorer)
        start = time.perf_counter()
        stopped, stop_reason = "completed", ""
        while True:
            state.elapsed_seconds = time.perf_counter() - start
            if self.should_stop is not None and self.should_stop():
                stopped = "cancelled"
                break
            proposal = strategy.propose(state)
            if proposal is None:
                break
            points, step = self._coerce(proposal)
            if not points:
                break
            reason = state.exhausted_reason()
            if reason is not None:
                stopped, stop_reason = "budget_exhausted", reason
                break
            remaining = state.remaining_points()
            if remaining is not None and len(points) > remaining:
                points = points[:remaining]
            # Oracle-call trimming is conservative (every trimmed-in
            # point might miss): exact on a cold cache, and on a warm
            # one uncharged hits just roll into the next proposal.
            remaining_calls = state.remaining_oracle_calls()
            if remaining_calls is not None and len(points) > remaining_calls:
                points = points[:remaining_calls]
            records = evaluate(points, step)
            # Budget charging: every unique proposed point the batch
            # could not serve as a cache-hit record ran the oracle (or
            # hit a skipped failure — conservatively charged too).
            unique = len(dict.fromkeys(points))
            cache_hits = sum(1 for record in records if record.cache_hit)
            charged = max(0, unique - cache_hits)
            state.rounds += 1
            state.points += len(records)
            state.oracle_calls += charged
            state.elapsed_seconds = time.perf_counter() - start
            result.records.extend(records)
            strategy.observe(records)
            snapshot = RoundSnapshot(
                round=state.rounds,
                step=step,
                proposed=len(points),
                evaluated=len(records),
                cache_hits=cache_hits,
                oracle_calls=charged,
                total_points=state.points,
                total_oracle_calls=state.oracle_calls,
                elapsed_seconds=state.elapsed_seconds,
                front_size=len(result.pareto_front()),
            )
            result.rounds.append(snapshot)
            if self.on_round is not None:
                self.on_round(snapshot)
        result.oracle_calls = state.oracle_calls
        result.stopped = stopped
        result.stop_reason = stop_reason
        strategy.finalize(result)
        return result
