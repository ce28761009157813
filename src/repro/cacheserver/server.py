"""The network cache tier's server: one warm corpus, many workers.

A :class:`CacheServer` owns a single :class:`~repro.explore.cache`
backend — a sharded compact :class:`~repro.explore.cache.DiskCache`
when started with ``--cache DIR``, an in-memory
:class:`~repro.explore.cache.MemoryCache` otherwise — and serves it to
any number of :class:`~repro.explore.cache.RemoteCache` clients over a
compact length-prefixed binary protocol (:mod:`.protocol`), the same
``.rpc`` record codec the disk shards use.  Every worker process that
points ``Explorer(space, cache="remote://host:port")`` here shares one warm
corpus: a fingerprint evaluated by any client is a cache hit for all of
them.

Transport is ``asyncio.start_server``; backend calls run on worker
threads behind one lock (mirroring the engine's
:class:`~repro.explore.engine.EvaluationCache` discipline — the lock
*is* the backend's synchronization), so a slow disk read never stalls
the event loop.  SIGTERM/SIGINT stop accepting connections, settle the
in-flight requests, and exit 0 on a clean drain.

Run it with ``python -m repro.cacheserver``; embed it in tests and
benchmarks with :class:`CacheServerThread`.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from ..costs.report import FrameError, frame_length, pack_frame
from ..explore.cache import CacheBackend, DiskCache, MemoryCache
from ..serverthread import ServerThread
from . import protocol

__all__ = ["CacheServerConfig", "CacheServer", "CacheServerThread", "serve"]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CacheServerConfig:
    """Every knob of the cache server, one frozen record."""

    host: str = "127.0.0.1"
    port: int = 8712
    #: DiskCache directory for the corpus; ``None`` stays in memory.
    cache_dir: Optional[Union[str, Path]] = None
    #: Entry bound for the backend (LRU eviction past it).
    max_entries: Optional[int] = None
    #: Grace window for in-flight requests after a stop signal.
    drain_seconds: float = 5.0


# ----------------------------------------------------------------------
# The server core
# ----------------------------------------------------------------------
class CacheServer:
    """Protocol dispatch over one shared backend."""

    def __init__(
        self,
        config: CacheServerConfig = CacheServerConfig(),
        *,
        backend: Optional[CacheBackend] = None,
    ) -> None:
        self.config = config
        if backend is not None:
            self.backend = backend
        elif config.cache_dir is not None:
            self.backend = DiskCache(config.cache_dir, max_entries=config.max_entries)
        else:
            self.backend = MemoryCache(max_entries=config.max_entries)
        #: Serializes all backend access (handlers run on worker
        #: threads; backends are not internally synchronized).
        self.lock = threading.Lock()
        #: Guards the counters alone.  Unlike ``lock`` it is never held
        #: across backend (disk) I/O, so the event loop thread can bump
        #: ``requests_total``/``errors`` without stalling behind a slow
        #: GET/PUT batch.
        self.counters_lock = threading.Lock()
        self.requests_total = 0
        self.keys_requested = 0
        self.keys_served = 0
        self.keys_stored = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # Handlers (called on worker threads, one frame each)
    # ------------------------------------------------------------------
    def _handle_get(self, operand: bytes) -> bytes:
        keys = protocol.parse_get(operand)
        with self.lock:
            found = self.backend.lookup_many(keys)
        with self.counters_lock:
            self.keys_requested += len(keys)
            self.keys_served += len(found)
        return protocol.ok_records(found)

    def _handle_put(self, operand: bytes) -> bytes:
        payloads = protocol.parse_put(operand)
        with self.lock:
            self.backend.store_many(payloads)
        with self.counters_lock:
            self.keys_stored += len(payloads)
        return protocol.ok_count(len(payloads))

    def _handle_len(self) -> bytes:
        with self.lock:
            return protocol.ok_count(len(self.backend))

    def _handle_clear(self) -> bytes:
        with self.lock:
            self.backend.clear()
        return protocol.ok_response()

    def _handle_stats(self) -> bytes:
        return protocol.ok_payload(self.stats_payload())

    def stats_payload(self) -> Dict[str, Any]:
        with self.lock:
            entries = len(self.backend)
            backend_stats = self.backend.stats.to_dict()
        with self.counters_lock:
            counters = {
                "requests": self.requests_total,
                "keys_requested": self.keys_requested,
                "keys_served": self.keys_served,
                "keys_stored": self.keys_stored,
                "errors": self.errors,
            }
        return {
            "server": "repro.cacheserver",
            "protocol": protocol.CACHE_PROTOCOL_VERSION,
            "entries": entries,
            **counters,
            "backend": type(self.backend).__name__,
            "backend_stats": backend_stats,
        }

    def hello_payload(self) -> Dict[str, Any]:
        # No entry count: on a DiskCache corpus that is a scan of every
        # shard directory, and every client connect would wait for it.
        return {
            "server": "repro.cacheserver",
            "protocol": protocol.CACHE_PROTOCOL_VERSION,
        }

    # ------------------------------------------------------------------
    async def handle_frame(self, body: bytes, handshook: bool) -> Tuple[bytes, bool]:
        """Dispatch one request frame; returns (response, handshook).

        Every op that takes the backend lock — including LEN/STATS,
        which need ``len(backend)`` — runs on a worker thread so a slow
        disk batch never stalls the event loop; only protocol parsing
        and HELLO, which touches no backend, happen inline.
        """
        # repro: allow[RA001] sub-microsecond counter bump, never held over I/O
        with self.counters_lock:
            self.requests_total += 1
        try:
            opcode, operand = protocol.parse_request(body)
            if not handshook and opcode != protocol.OP_HELLO:
                raise protocol.WireProtocolError(
                    "first frame on a connection must be HELLO"
                )
            if opcode == protocol.OP_HELLO:
                protocol.parse_hello(operand)
                return protocol.ok_payload(self.hello_payload()), True
            if opcode == protocol.OP_GET:
                return await asyncio.to_thread(self._handle_get, operand), True
            if opcode == protocol.OP_PUT:
                return await asyncio.to_thread(self._handle_put, operand), True
            if opcode == protocol.OP_LEN:
                return await asyncio.to_thread(self._handle_len), True
            if opcode == protocol.OP_CLEAR:
                return await asyncio.to_thread(self._handle_clear), True
            if opcode == protocol.OP_STATS:
                return await asyncio.to_thread(self._handle_stats), True
            raise protocol.WireProtocolError(f"unknown opcode {opcode}")
        except protocol.WireProtocolError as exc:
            # repro: allow[RA001] sub-microsecond counter bump, no I/O under it
            with self.counters_lock:
                self.errors += 1
            return protocol.error_response(str(exc)), handshook
        except Exception as exc:  # noqa: BLE001 - fenced per request
            # repro: allow[RA001] sub-microsecond counter bump, no I/O under it
            with self.counters_lock:
                self.errors += 1
            return (
                protocol.error_response(f"{type(exc).__name__}: {exc}"),
                handshook,
            )


# ----------------------------------------------------------------------
# Connection handling and the server loop
# ----------------------------------------------------------------------
class _ServerState:
    """One running server: connections, tasks, stop signal."""

    def __init__(self, core: CacheServer) -> None:
        self.core = core
        self.stop_event = asyncio.Event()
        self.connections: set = set()
        self.tasks: set = set()

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self.tasks.add(task)
        handshook = False
        try:
            while True:
                try:
                    header = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                try:
                    length = frame_length(header)
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                except FrameError:
                    # A framing violation means the stream is lost —
                    # there is no trustworthy boundary to resume from.
                    break
                response, handshook = await self.core.handle_frame(
                    body, handshook
                )
                writer.write(pack_frame(response))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away, or shutdown cancelled the task
        finally:
            self.connections.discard(writer)
            if task is not None:
                self.tasks.discard(task)
            writer.close()


async def serve(
    core: CacheServer,
    *,
    host: Optional[str] = None,
    port: Optional[int] = None,
    install_signal_handlers: bool = True,
    ready: Optional[Any] = None,
    log: Any = print,
) -> bool:
    """Run the cache server until stopped; True on a clean drain.

    ``ready`` (optional) is called with the bound ``(host, port)`` and
    the server state once the socket is listening — the thread facade
    and tests use it to learn an ephemeral port.
    """
    config = core.config
    state = _ServerState(core)
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
    log(f"repro.cacheserver: serving on {bound[0]}:{bound[1]}", flush=True)
    drained = True
    try:
        await state.stop_event.wait()
        log("repro.cacheserver: stop requested, draining", flush=True)
        server.close()
    finally:
        # Requests are single short frames: hang up every connection
        # and give the in-flight handlers a bounded window to settle.
        for writer in tuple(state.connections):
            writer.close()
        if state.tasks:
            try:
                await asyncio.wait_for(
                    asyncio.gather(*tuple(state.tasks), return_exceptions=True),
                    timeout=config.drain_seconds,
                )
            except asyncio.TimeoutError:
                drained = False
        try:
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
        except asyncio.TimeoutError:
            pass
    if drained:
        log("repro.cacheserver: drained cleanly, shutting down", flush=True)
    else:
        log(
            f"repro.cacheserver: drain timed out after "
            f"{config.drain_seconds:.1f}s",
            flush=True,
        )
    return drained


# ----------------------------------------------------------------------
# Thread facade (tests, the perf harness, embedding)
# ----------------------------------------------------------------------
class CacheServerThread(ServerThread):
    """A cache server on a background thread with its own event loop.

    The synchronous face of :func:`serve`::

        with CacheServerThread(CacheServerConfig(port=0)) as server:
            remote = RemoteCache(*server.address)
            ...

    ``port=0`` binds an ephemeral port; :attr:`address` reports the
    real one.
    """

    def __init__(
        self,
        config: CacheServerConfig = CacheServerConfig(),
        *,
        backend: Optional[CacheBackend] = None,
    ) -> None:
        self.core = CacheServer(config, backend=backend)
        super().__init__(self.core, serve, name="cache server")

    @property
    def url(self) -> str:
        host, port = self.address
        return f"remote://{host}:{port}"
