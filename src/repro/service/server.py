"""The async sweep server: exploration feedback as a shared service.

One long-lived process owns a warm :class:`~repro.api.EvaluationCache`
(decoded reports in memory, optionally backed by a
:class:`~repro.explore.cache.DiskCache` or the network tier) and one
:class:`~repro.api.Explorer` per registered app, all sharing that
cache.  Clients POST point-evaluation and sweep requests
over plain HTTP (stdlib only — ``asyncio.start_server`` plus a minimal
HTTP/1.1 layer) and receive :class:`~repro.api.ExplorationRecord`\\ s
back as an NDJSON stream, batch by batch, while the sweep is still
running.

The interesting machinery sits between the socket and the explorer:

* **single-flight coalescing** (:mod:`repro.service.coalesce`) — the
  first request to reach a fingerprint evaluates it, concurrent
  requests for the same fingerprint await that evaluation's future, and
  the outcome (report *or* cached failure) fans out to all of them.
  Overlapping sweeps from N clients cost one oracle pass.
* **request batching** — admitted points are chunked onto
  :meth:`~repro.api.Explorer.evaluate_many`, so misses ride the
  explorer's persistent worker pool and bulk cache probes exactly as
  library sweeps do.
* **admission control** — per-request point budgets (413), a bounded
  pool of in-flight points with backpressure (429 + ``Retry-After``),
  a concurrency cap on oracle batches, and 503 while draining.
* **graceful shutdown** — SIGTERM/SIGINT stop accepting work, in-flight
  sweeps drain to completion (bounded by ``drain_seconds``), then the
  explorer pools shut down.

Run it with ``python -m repro.service``; talk to it with
:class:`repro.service.client.ServiceClient`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    AsyncIterator,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..apps.registry import get_app, list_apps
from ..explore.cache import CacheBackend
from ..explore.engine import (
    EvaluationCache,
    ExplorationRecord,
    Explorer,
    SearchDriver,
)
from ..explore.space import DesignPoint
from ..serverthread import ServerThread
from .coalesce import Outcome, SingleFlight
from .protocol import (
    PROTOCOL_VERSION,
    STRATEGIES,
    ProtocolError,
    SweepRequest,
    SweepSummary,
    chunked,
    end_event,
    failure_event,
    progress_event,
    record_event,
    start_event,
)

__all__ = ["ServiceConfig", "SweepService", "ServiceThread", "serve"]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the sweep server, one frozen record.

    The admission-control knobs:

    ``max_points_per_request``
        Hard per-request budget; larger requests are rejected with 413
        before any work is admitted.
    ``max_pending_points``
        Bound on points admitted across all in-flight requests; a
        request that would overflow it gets 429 with ``Retry-After:
        retry_after_seconds``.
    ``max_inflight_batches``
        Concurrent oracle batches (each an ``evaluate_many`` call on a
        worker thread); further batches queue on the semaphore.
    """

    host: str = "127.0.0.1"
    port: int = 8642
    #: Worker processes per app explorer (1 = in-process oracle).
    workers: int = 1
    #: DiskCache directory for the shared cache, or a
    #: ``remote://host:port`` URL plugging the service into the
    #: :mod:`repro.cacheserver` network tier; ``None`` stays in memory.
    cache_dir: Optional[Union[str, Path]] = None
    #: Points per ``evaluate_many`` batch (and per stream flush).
    batch_size: int = 32
    max_points_per_request: int = 4096
    max_pending_points: int = 16384
    max_inflight_batches: int = 4
    retry_after_seconds: int = 1
    #: Grace window for in-flight sweeps after a stop signal.
    drain_seconds: float = 10.0
    #: Apps to warm eagerly at startup (explorer + space built).
    preload_apps: Tuple[str, ...] = ()

    def knobs(self) -> Dict[str, Any]:
        """The admission/batching knobs, surfaced by ``/v1/stats``."""
        return {
            "workers": self.workers,
            "batch_size": self.batch_size,
            "max_points_per_request": self.max_points_per_request,
            "max_pending_points": self.max_pending_points,
            "max_inflight_batches": self.max_inflight_batches,
            "retry_after_seconds": self.retry_after_seconds,
            "drain_seconds": self.drain_seconds,
        }


#: One prepared point: (point, fingerprint, program name).
_Prepared = Tuple[DesignPoint, str, str]


# ----------------------------------------------------------------------
# The service core (transport-independent)
# ----------------------------------------------------------------------
class SweepService:
    """Request handling over shared explorers, cache and flight table.

    All async methods run on one event loop; oracle work is pushed to
    worker threads via ``asyncio.to_thread`` (the engine's cache lock
    makes the shared :class:`EvaluationCache` safe there), and the
    single-flight table stays loop-confined.
    """

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        *,
        cache: Union[None, EvaluationCache, CacheBackend] = None,
    ) -> None:
        self.config = config
        if isinstance(cache, EvaluationCache):
            self.cache = cache
        elif cache is not None:
            self.cache = EvaluationCache(backend=cache)
        else:
            self.cache = EvaluationCache(path=config.cache_dir)
        self._explorers: Dict[str, Explorer] = {}
        self._explorer_lock = threading.Lock()
        self._flight = SingleFlight()
        self._batch_sem = asyncio.Semaphore(config.max_inflight_batches)
        self._draining = False
        self._drained = asyncio.Event()
        self._request_ids = 0
        self._active_requests = 0
        self._pending_points = 0
        # Lifetime counters for /v1/stats.
        self.requests_total = 0
        self.rejected_budget = 0
        self.rejected_busy = 0
        self.rejected_draining = 0
        self.records_served = 0
        self.failures_served = 0
        self.points_coalesced = 0
        for app in dict.fromkeys(config.preload_apps):
            self.explorer(app)

    # ------------------------------------------------------------------
    # App state
    # ------------------------------------------------------------------
    def explorer(self, app: str) -> Explorer:
        """The app's long-lived explorer (created on first use).

        Every explorer shares the service cache, and ``on_error="skip"``
        turns infeasible corners into streamable failure events.  The
        service only calls ``evaluate_many``, which keeps no state on
        the explorer, so it stays stateless across requests.
        """
        with self._explorer_lock:
            explorer = self._explorers.get(app)
            if explorer is None:
                explorer = Explorer.for_app(
                    app,
                    cache=self.cache,
                    workers=self.config.workers,
                    on_error="skip",
                )
                self._explorers[app] = explorer
            return explorer

    def close(self) -> None:
        """Release every explorer's worker pool and the cache backend's
        connection (idempotent)."""
        with self._explorer_lock:
            explorers = list(self._explorers.values())
        for explorer in explorers:
            explorer.close()
        self.cache.close_backend()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def _admit(self, n_points: int) -> None:
        config = self.config
        if self._draining:
            self.rejected_draining += 1
            raise ProtocolError(
                "server is draining, not accepting new work",
                status=503,
                code="draining",
            )
        if n_points > config.max_points_per_request:
            self.rejected_budget += 1
            raise ProtocolError(
                f"request asks for {n_points} points, over the per-request "
                f"budget of {config.max_points_per_request}",
                status=413,
                code="over_budget",
            )
        if self._pending_points + n_points > config.max_pending_points:
            self.rejected_busy += 1
            raise ProtocolError(
                f"admitting {n_points} points would exceed the in-flight "
                f"bound of {config.max_pending_points} "
                f"({self._pending_points} already admitted); retry later",
                status=429,
                code="busy",
                retry_after=config.retry_after_seconds,
            )
        self._pending_points += n_points

    def _release(self, n_points: int) -> None:
        self._pending_points -= n_points

    def _request_started(self) -> int:
        self._request_ids += 1
        self.requests_total += 1
        self._active_requests += 1
        return self._request_ids

    def _request_finished(self) -> None:
        self._active_requests -= 1
        if self._draining and self._active_requests == 0:
            self._drained.set()

    # ------------------------------------------------------------------
    # Drain lifecycle
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting work; in-flight requests run to completion."""
        self._draining = True
        if self._active_requests == 0:
            self._drained.set()

    @property
    def draining(self) -> bool:
        return self._draining

    async def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Await in-flight request completion; False on timeout."""
        if self._active_requests == 0:
            return True
        try:
            await asyncio.wait_for(self._drained.wait(), timeout)
        except asyncio.TimeoutError:
            return False
        return True

    # ------------------------------------------------------------------
    # Introspection payloads
    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "apps": list(list_apps()),
        }

    def apps_payload(self) -> Dict[str, Any]:
        apps: Dict[str, Any] = {}
        for name in list_apps():
            spec = get_app(name)
            apps[name] = {
                "title": spec.title,
                "variants": list(spec.variant_names),
                "loaded": name in self._explorers,
            }
        return {"apps": apps}

    def stats_payload(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self._draining else "ok",
            "protocol": PROTOCOL_VERSION,
            "requests": {
                "total": self.requests_total,
                "active": self._active_requests,
                "rejected_budget": self.rejected_budget,
                "rejected_busy": self.rejected_busy,
                "rejected_draining": self.rejected_draining,
            },
            "points": {
                "pending": self._pending_points,
                "records_served": self.records_served,
                "failures_served": self.failures_served,
                "coalesced": self.points_coalesced,
            },
            "singleflight": {
                "inflight_keys": len(self._flight),
                "coalesced_waits": self._flight.coalesced_waits,
            },
            "apps": {"loaded": sorted(self._explorers)},
            "cache": self.cache.stats_dict(),
            "config": self.config.knobs(),
        }

    # ------------------------------------------------------------------
    # Evaluation plumbing
    # ------------------------------------------------------------------
    def _prepare(
        self, explorer: Explorer, points: Sequence[DesignPoint]
    ) -> Tuple[List[_Prepared], Dict[str, Outcome]]:
        """Fingerprint a batch and probe the shared cache for it.

        Runs on a worker thread: it may build variant programs and wait
        on the cache lock and backend.  Returns the prepared points plus
        the cached outcomes (reports and known failures) by fingerprint,
        with the report hits already credited; only the rest need the
        single-flight table.
        """
        space = explorer.space
        fingerprints = explorer.fingerprint_points(points)
        names: Dict[str, str] = {}
        prepared: List[_Prepared] = []
        for point, fingerprint in zip(points, fingerprints):
            name = names.get(point.variant)
            if name is None:
                name = names[point.variant] = space.program(point.variant).name
            prepared.append((point, fingerprint, name))
        cached = self.cache.lookup_many(fingerprints)
        self.cache.count_hits(
            sum(1 for report, _ in cached.values() if report is not None)
        )
        return prepared, cached

    async def _evaluate_owned(
        self,
        explorer: Explorer,
        points: Sequence[DesignPoint],
        fingerprints: Sequence[str],
    ) -> Dict[str, ExplorationRecord]:
        """Run one owned batch and fan its outcomes out to all waiters.

        ``points`` holds one point per fingerprint, so the batch's
        records (failures included) map one to one onto
        ``fingerprints``.  Runs as its own task so a cancelled
        (disconnected) owner never strands waiters: the futures claimed
        here are always resolved or failed, whatever happens to the
        request that spawned it.
        """
        try:
            async with self._batch_sem:
                records = await asyncio.to_thread(
                    explorer.evaluate_many, list(points), "service"
                )
        except BaseException as exc:
            for fingerprint in fingerprints:
                self._flight.fail(fingerprint, exc)
            raise
        for record in records:
            self._flight.resolve(record.fingerprint, (record.report, record.error))
        return {record.fingerprint: record for record in records}

    async def _batch_events(
        self,
        explorer: Explorer,
        batch: Sequence[DesignPoint],
        summary: SweepSummary,
    ) -> Tuple[List[Dict[str, Any]], List[ExplorationRecord]]:
        """Evaluate one admitted batch into its stream events.

        Also returns one record per point, failures included, in batch
        order, for a strategy sweep's driver to charge and feed back.
        Only an owned point's own record keeps the explorer's
        ``cache_hit``; cached, coalesced and in-batch duplicate points
        carry ``cache_hit=True``, so the oracle work is charged once.

        Points the cache already holds stream at once and never enter
        the single-flight table: claiming them after another request
        stored them would dispatch a redundant batch.  A point stored
        between the probe and the claim can still be owned again; that
        batch then resolves from cache with no oracle work.
        """
        prepared, cached = await asyncio.to_thread(self._prepare, explorer, batch)
        owned, waited = self._flight.claim(
            [fp for _, fp, _ in prepared if fp not in cached]
        )
        first_for: Dict[str, DesignPoint] = {}
        for point, fingerprint, _ in prepared:
            first_for.setdefault(fingerprint, point)
        outcomes: Dict[str, ExplorationRecord] = {}
        if owned:
            task = asyncio.create_task(
                self._evaluate_owned(explorer, [first_for[fp] for fp in owned], owned)
            )
            # Consume the exception if nobody ends up awaiting (the
            # request got cancelled): waiters already saw it via fail().
            task.add_done_callback(
                lambda t: t.exception() if not t.cancelled() else None
            )
            # Awaiting the task (rather than the coroutine) means a
            # cancelled request abandons the wait, not the evaluation.
            outcomes = await asyncio.shield(task)
        summary.batches += 1
        events: List[Dict[str, Any]] = []
        records: List[ExplorationRecord] = []
        for point, fingerprint, program_name in prepared:
            record = outcomes.get(fingerprint)
            if fingerprint in cached:
                report, error = cached[fingerprint]
            elif record is not None:
                report, error = record.report, record.error
            else:
                report, error = await self._flight.wait(waited[fingerprint])
                summary.coalesced += 1
                self.points_coalesced += 1
            if record is None or record.point is not point:
                # A cache hit, a waiter, or an in-batch duplicate of the
                # owned point: rebuild the record around *this* point's
                # label; the oracle work happened at most once.
                label = point.display_label
                if report is not None and report.label != label:
                    report = dataclasses.replace(report, label=label)
                record = ExplorationRecord(
                    point=point,
                    report=report,
                    fingerprint=fingerprint,
                    seconds=0.0,
                    cache_hit=True,
                    step="service",
                    program_name=program_name,
                    error=error,
                )
            records.append(record)
            if report is None:
                summary.failures += 1
                self.failures_served += 1
                events.append(failure_event(point, error))
                continue
            summary.records += 1
            self.records_served += 1
            events.append(record_event(record))
        return events, records

    # ------------------------------------------------------------------
    # Strategy sweeps (the budgeted propose/observe driver)
    # ------------------------------------------------------------------
    def _strategy_explorer(self, request: SweepRequest, base: Explorer) -> Explorer:
        """The explorer a strategy run drives, restricted if asked.

        Axis restrictions build a per-request sub-space (sharing the
        base space's programs, so cache keys line up with plain sweeps)
        wrapped in a private explorer over the shared service cache,
        which the caller closes.
        """
        if not any(
            (
                request.variants,
                request.budget_fractions,
                request.onchip_counts,
                request.libraries,
            )
        ):
            return base
        try:
            space = base.space.restricted(
                variants=request.variants,
                budget_fractions=request.budget_fractions,
                onchip_counts=request.onchip_counts,
                libraries=request.libraries,
            )
        except KeyError as exc:
            raise ProtocolError(str(exc), code="unknown_axis") from None
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
        return Explorer(
            space,
            cache=self.cache,
            workers=self.config.workers,
            on_error="skip",
        )

    async def _strategy_events(
        self, request: SweepRequest, base: Explorer
    ) -> AsyncIterator[Dict[str, Any]]:
        """The event stream of one strategy-driven sweep.

        The :class:`~repro.explore.engine.SearchDriver` is stepped here,
        on the event loop: each proposal is chunked onto the same
        single-flight/batching path as plain sweeps (concurrent strategy
        runs and sweeps coalesce against each other), and only
        :meth:`~repro.explore.engine.SearchDriver.record` runs on a
        worker thread, because it re-ranks the front over every record
        so far.  No thread is held between batches.  Records stream as
        their batch completes and a ``progress`` event closes every
        round; budget exhaustion ends the stream with a well-formed
        ``end`` summary, not an error.
        """
        strategy = STRATEGIES[request.strategy]()
        explorer = self._strategy_explorer(request, base)
        budget = request.budget
        admitted = len(explorer.space)
        if budget is not None and budget.max_points is not None:
            admitted = min(admitted, budget.max_points)
        self._admit(admitted)
        request_id = self._request_started()
        try:
            yield start_event(request.app, request_id, admitted)
            summary = SweepSummary(strategy=request.strategy)
            batch_size = request.batch_size or self.config.batch_size
            driver = SearchDriver(explorer, strategy, budget=budget)
            proposal = driver.next_batch()
            while proposal is not None:
                outcomes: List[ExplorationRecord] = []
                for batch in chunked(proposal.points, batch_size):
                    events, batch_outcomes = await self._batch_events(
                        explorer, batch, summary
                    )
                    for event in events:
                        yield event
                    outcomes.extend(batch_outcomes)
                snapshot = await asyncio.to_thread(driver.record, proposal, outcomes)
                yield progress_event(snapshot.to_dict())
                proposal = driver.next_batch()
            result = driver.result()
            summary.rounds = len(result.rounds)
            summary.oracle_calls = result.oracle_calls
            summary.stopped = result.stopped
            summary.stop_reason = result.stop_reason
            summary.cache = self.cache.stats_dict()
            yield end_event(summary.to_dict())
        finally:
            if explorer is not base:
                explorer.close()
            self._release(admitted)
            self._request_finished()

    async def sweep_events(
        self, request: SweepRequest
    ) -> AsyncIterator[Dict[str, Any]]:
        """The full event stream of one admitted sweep request."""
        try:
            explorer = self.explorer(request.app)
        except KeyError as exc:
            raise ProtocolError(str(exc), status=404, code="unknown_app") from None
        if request.strategy is not None:
            stream = self._strategy_events(request, explorer)
            try:
                async for event in stream:
                    yield event
            finally:
                await stream.aclose()
            return
        points = await asyncio.to_thread(request.resolve_points, explorer.space)
        if not points:
            raise ProtocolError("request selects no points", code="empty_request")
        self._admit(len(points))
        request_id = self._request_started()
        try:
            yield start_event(request.app, request_id, len(points))
            summary = SweepSummary()
            batch_size = request.batch_size or self.config.batch_size
            for batch in chunked(points, batch_size):
                events, _outcomes = await self._batch_events(explorer, batch, summary)
                for event in events:
                    yield event
            summary.cache = self.cache.stats_dict()
            yield end_event(summary.to_dict())
        finally:
            self._release(len(points))
            self._request_finished()

    async def evaluate_payload(self, request: SweepRequest) -> Dict[str, Any]:
        """One-point evaluation: a single JSON response body."""
        events = [event async for event in self.sweep_events(request)]
        body: Dict[str, Any] = {}
        for event in events:
            if event["type"] == "record" and "record" not in body:
                body["record"] = event["record"]
            elif event["type"] == "failure" and "failure" not in body:
                body["failure"] = {
                    "point": event["point"],
                    "error": event["error"],
                }
            elif event["type"] == "end":
                body["summary"] = event["summary"]
        return body


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 layer
# ----------------------------------------------------------------------
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request bodies above this are rejected outright.
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_LINES = 100
#: Once a request line has arrived, the rest of the request (headers
#: and body) must land within this window; a half-sent request from a
#: dead client would otherwise pin its handler task forever.  The wait
#: *for* a request line is unbounded: idle keep-alive is the normal
#: state of a persistent client.
REQUEST_READ_TIMEOUT = 30.0


@dataclass
class _HttpRequest:
    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"

    def json(self) -> Any:
        if not self.body:
            raise ProtocolError("request body is empty")
        try:
            return json.loads(self.body)
        except ValueError:
            raise ProtocolError("request body is not valid JSON") from None


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader) -> Optional[_HttpRequest]:
    try:
        line = await reader.readline()
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    except ValueError:
        # readline() raises once a line overruns the StreamReader
        # limit (64 KiB by default): a bounded 400, not a dead task.
        raise _HttpError(400, "request line too long") from None
    if not line:
        return None
    try:
        method, path, _version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _HttpError(400, "malformed request line") from None
    deadline = asyncio.get_running_loop().time() + REQUEST_READ_TIMEOUT

    async def _timed(awaitable: Any) -> Any:
        remaining = deadline - asyncio.get_running_loop().time()
        try:
            return await asyncio.wait_for(awaitable, max(0.0, remaining))
        except asyncio.TimeoutError:
            raise _HttpError(408, "timed out reading request") from None

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_LINES):
        try:
            raw = await _timed(reader.readline())
        except ValueError:
            raise _HttpError(400, "header line too long") from None
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "too many headers")
    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError:
            raise _HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise _HttpError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        try:
            body = await _timed(reader.readexactly(length))
        except asyncio.IncompleteReadError:
            return None
    elif headers.get("transfer-encoding"):
        raise _HttpError(400, "chunked request bodies are not supported")
    return _HttpRequest(method=method.upper(), path=path, headers=headers, body=body)


def _response_head(
    status: int,
    *,
    content_type: str = "application/json",
    content_length: Optional[int] = None,
    chunked_body: bool = False,
    extra: Sequence[Tuple[str, str]] = (),
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
    ]
    if chunked_body:
        lines.append("Transfer-Encoding: chunked")
    elif content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    for name, value in extra:
        lines.append(f"{name}: {value}")
    lines.append("Connection: keep-alive")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _send_json(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    *,
    extra: Sequence[Tuple[str, str]] = (),
) -> None:
    body = (json.dumps(payload, ensure_ascii=False) + "\n").encode("utf-8")
    writer.write(_response_head(status, content_length=len(body), extra=extra) + body)
    await writer.drain()


async def _send_chunk(writer: asyncio.StreamWriter, data: bytes) -> None:
    writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
    await writer.drain()


async def _end_chunks(writer: asyncio.StreamWriter) -> None:
    writer.write(b"0\r\n\r\n")
    await writer.drain()


def _error_extra(error: ProtocolError) -> Sequence[Tuple[str, str]]:
    if error.retry_after is not None:
        return (("Retry-After", str(error.retry_after)),)
    return ()


# ----------------------------------------------------------------------
# Connection handling and the server loop
# ----------------------------------------------------------------------
class _ServerState:
    """One running server: connections, sockets, stop signal."""

    def __init__(self, service: SweepService) -> None:
        self.service = service
        self.stop_event = asyncio.Event()
        self.connections: set = set()
        #: Connections currently serving a request (vs. parked idle in
        #: keep-alive); drain closes the idle ones immediately.
        self.busy: set = set()
        self.tasks: set = set()

    def close_idle_connections(self) -> None:
        """Hang up connections that are not serving a request.

        Idle keep-alive clients sit in ``readline()`` indefinitely;
        on Python >= 3.12.1 ``server.wait_closed()`` waits for *all*
        client connections, so shutdown must not hinge on those
        clients hanging up first.  Busy connections are left alone —
        their requests drain, then their handlers see ``draining``
        and close themselves.
        """
        for writer in tuple(self.connections):
            if writer not in self.busy:
                writer.close()

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self.tasks.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    await _send_json(
                        writer,
                        exc.status,
                        {"error": {"code": "http", "message": str(exc)}},
                    )
                    break
                if request is None:
                    break
                self.busy.add(writer)
                try:
                    await self._dispatch(request, writer)
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except Exception as exc:  # noqa: BLE001 - connection fenced
                    # A handler bug or a mid-stream failure: best-effort
                    # 500 (harmless if the stream already started — the
                    # connection is dropped either way, so the client
                    # sees a truncated response, not a hang).
                    try:
                        await _send_json(
                            writer,
                            500,
                            {
                                "error": {
                                    "code": "internal",
                                    "message": f"{type(exc).__name__}: {exc}",
                                }
                            },
                        )
                    # repro: allow[RA006] best-effort 500 on a dying connection
                    except Exception:  # noqa: BLE001
                        pass
                    break
                finally:
                    self.busy.discard(writer)
                if request.wants_close or self.service.draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            self.connections.discard(writer)
            self.busy.discard(writer)
            if task is not None:
                self.tasks.discard(task)
            writer.close()

    async def _dispatch(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        service = self.service
        route = (request.method, request.path)
        try:
            if route == ("GET", "/v1/health"):
                await _send_json(writer, 200, service.health_payload())
            elif route == ("GET", "/v1/stats"):
                await _send_json(writer, 200, service.stats_payload())
            elif route == ("GET", "/v1/apps"):
                await _send_json(writer, 200, service.apps_payload())
            elif route == ("POST", "/v1/evaluate"):
                await self._handle_evaluate(request, writer)
            elif route == ("POST", "/v1/sweep"):
                await self._handle_sweep(request, writer)
            elif request.path.startswith("/v1/"):
                status = 405 if request.method not in ("GET", "POST") else 404
                await _send_json(
                    writer,
                    status,
                    {"error": {"code": "unknown_route", "message": request.path}},
                )
            else:
                await _send_json(
                    writer,
                    404,
                    {"error": {"code": "unknown_route", "message": request.path}},
                )
        except ProtocolError as exc:
            await _send_json(
                writer, exc.status, exc.to_payload(), extra=_error_extra(exc)
            )

    async def _handle_evaluate(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        spec = SweepRequest.from_payload(request.json())
        points = 1 if spec.points is None else len(spec.points)
        if points != 1:
            raise ProtocolError(
                "/v1/evaluate takes exactly one explicit point; "
                "use /v1/sweep for batches",
                code="not_single_point",
            )
        if spec.points is None:
            raise ProtocolError(
                "/v1/evaluate requires an explicit 'points' entry",
                code="not_single_point",
            )
        body = await self.service.evaluate_payload(spec)
        await _send_json(writer, 200, body)

    async def _handle_sweep(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        spec = SweepRequest.from_payload(request.json())
        stream = self.service.sweep_events(spec)
        # Pull the first event before committing to a 200: admission
        # rejections and validation errors still map to their status.
        try:
            first = await anext(stream)
        except ProtocolError:
            raise
        writer.write(
            _response_head(200, content_type="application/x-ndjson", chunked_body=True)
        )
        await writer.drain()
        try:
            await _send_chunk(
                writer, (json.dumps(first, ensure_ascii=False) + "\n").encode("utf-8")
            )
            async for event in stream:
                await _send_chunk(
                    writer,
                    (json.dumps(event, ensure_ascii=False) + "\n").encode("utf-8"),
                )
        except BaseException:
            await stream.aclose()
            raise
        await _end_chunks(writer)


async def serve(
    service: SweepService,
    *,
    host: Optional[str] = None,
    port: Optional[int] = None,
    install_signal_handlers: bool = True,
    ready: Optional[Any] = None,
    log: Any = print,
) -> bool:
    """Run the server until stopped; returns True on a clean drain.

    ``ready`` (optional) is called with the bound ``(host, port)`` once
    the socket is listening — the thread facade and tests use it to
    learn an ephemeral port.  On SIGTERM/SIGINT (or an external
    ``state.stop_event``) the server stops accepting connections,
    drains in-flight requests for ``config.drain_seconds``, closes the
    explorer pools and returns.
    """
    config = service.config
    state = _ServerState(service)
    server = await asyncio.start_server(
        state.handle_connection,
        host if host is not None else config.host,
        port if port is not None else config.port,
    )
    bound = server.sockets[0].getsockname()[:2]
    if install_signal_handlers:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, state.stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or unsupported platform
    if ready is not None:
        ready(bound, state)
    log(f"repro.service: serving on http://{bound[0]}:{bound[1]}", flush=True)
    drained = False
    try:
        await state.stop_event.wait()
        log("repro.service: stop requested, draining in-flight sweeps", flush=True)
        service.begin_drain()
        server.close()
        # Hang up idle keep-alive connections *before* any wait on the
        # server: on Python >= 3.12.1 wait_closed() blocks until every
        # client connection is gone, so a persistent idle client would
        # otherwise wedge shutdown forever.  Busy connections drain
        # below and close themselves.
        state.close_idle_connections()
        drained = await service.wait_drained(timeout=config.drain_seconds)
    finally:
        service.close()
        # Settle whatever connections remain (drain-timeout stragglers)
        # so their handler tasks finish before the loop tears down.
        for writer in tuple(state.connections):
            writer.close()
        if state.tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*tuple(state.tasks), return_exceptions=True),
                    timeout=5.0,
                )
            except asyncio.TimeoutError:
                pass
        # All connections are down; this is immediate (bounded anyway,
        # defensively — it must never be able to hang shutdown).
        try:
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
        except asyncio.TimeoutError:
            pass
    if drained:
        log("repro.service: drained cleanly, shutting down", flush=True)
    else:
        log(
            f"repro.service: drain timed out after {config.drain_seconds:.1f}s",
            flush=True,
        )
    return drained


# ----------------------------------------------------------------------
# Thread facade (tests, the load bench, embedding)
# ----------------------------------------------------------------------
class ServiceThread(ServerThread):
    """A sweep server on a background thread with its own event loop.

    The synchronous face of :func:`serve` for tests and the perf
    harness::

        with ServiceThread(ServiceConfig(port=0)) as server:
            client = ServiceClient(*server.address)
            ...

    ``port=0`` binds an ephemeral port; :attr:`address` reports the
    real one.  :meth:`stop` triggers the same drain path as SIGTERM.
    """

    def __init__(
        self,
        config: ServiceConfig = ServiceConfig(),
        *,
        cache: Union[None, EvaluationCache, CacheBackend] = None,
    ) -> None:
        self.service = SweepService(config, cache=cache)
        super().__init__(self.service, serve, name="service")
