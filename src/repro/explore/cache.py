"""Pluggable memoization backends for the exploration engine.

The :class:`~repro.explore.engine.Explorer` memoizes every oracle
evaluation under a content-addressed fingerprint.  In-process, the
:class:`~repro.explore.engine.EvaluationCache` keeps decoded reports
itself; this module owns the optional *persistent* store behind it:

* :class:`DiskCache` — a plain content-addressed file store (sharded
  files, atomic writes, corruption-tolerant reads; no index, no
  in-memory copy) that keeps sweeps warm across *processes and runs*.
  Entries are written as compact payload records
  (:mod:`repro.costs.report`'s struct-packed codec); legacy ``.json``
  shards stay readable, so old cache directories remain valid.
* :class:`RemoteCache` — the **network tier**: a client for the
  :mod:`repro.cacheserver` server, so sweeps stay warm across
  *machines*.  Probes batch into single wire round trips; stores are
  **write-behind** (a background flusher drains them, the sweep hot
  path never blocks on the network); when the server is unreachable,
  reads fall through to an optional local ``fallback`` backend and
  stores land there too.
* :class:`MemoryCache` — an in-process LRU payload store: the cache
  server's memory-only corpus.

``resolve_backend`` understands ``remote://host:port`` URLs (with an
optional ``/local/fallback/dir`` path suffix), so
``Explorer(space, cache="remote://...")`` and ``python -m repro.service
--cache remote://...`` plug whole worker fleets into one shared warm
corpus.

Every backend implements the :class:`CacheBackend` protocol, including
the bulk hooks ``lookup_many``/``store_many`` that probe or fill a
whole sweep batch in one call, and exposes a :class:`CacheStats`
counter block (hits, misses, stores, evictions, corrupt reads).

Backends store plain JSON payloads (``dict``\\ s), not domain objects;
the :class:`~repro.explore.engine.EvaluationCache` facade converts
:class:`~repro.costs.report.CostReport`\\ s at the boundary so every
backend is automatically persistence-capable.
"""

from __future__ import annotations

import json
import os
import re
import socket
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from ..cacheserver import protocol as wire
from ..costs.report import (
    FrameError,
    frame_length,
    is_compact_payload,
    pack_frame,
    pack_payload,
    unpack_payload,
)

#: Shard-file suffix of compact payload records (the only format
#: written); legacy ``.json`` shards stay readable.
COMPACT_SUFFIX = ".rpc"
JSON_SUFFIX = ".json"


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Counter block every backend maintains.

    ``hits``/``misses`` count :meth:`CacheBackend.get` outcomes at the
    backend level (the explorer keeps its own evaluation-level counters
    on :class:`~repro.explore.engine.EvaluationCache`); ``corrupt``
    counts unreadable on-disk entries that were tolerated as misses.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 6),
            "stores": self.stores,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }

    def reset(self) -> None:
        self.hits = self.misses = self.stores = 0
        self.evictions = self.corrupt = 0


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
@runtime_checkable
class CacheBackend(Protocol):
    """Fingerprint -> JSON payload store.

    Payloads must be JSON-serializable mappings; keys are hex content
    fingerprints.  Implementations keep a :class:`CacheStats` and may
    bound their size via ``max_entries`` (LRU order).

    ``lookup_many(keys)`` returns the payloads of the present keys
    (stats counted exactly as per-key ``get`` calls would) and
    ``store_many(payloads)`` stores a batch: the engine and the cache
    server probe and fill whole sweeps through these bulk hooks.

    **Thread-safety contract:** backends are *not* required to be
    internally synchronized.  All engine and service traffic flows
    through the :class:`~repro.explore.engine.EvaluationCache` facade,
    whose re-entrant ``lock`` serializes every backend call — that lock
    is the synchronization.  Code that bypasses the facade and shares a
    backend across threads must bring its own locking.
    """

    stats: CacheStats

    def get(self, key: str) -> Optional[Dict[str, Any]]: ...

    def put(self, key: str, payload: Mapping[str, Any]) -> None: ...

    def lookup_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]: ...

    def store_many(self, payloads: Mapping[str, Mapping[str, Any]]) -> None: ...

    def __len__(self) -> int: ...

    def clear(self) -> None: ...


# ----------------------------------------------------------------------
# In-memory LRU
# ----------------------------------------------------------------------
class MemoryCache:
    """In-process payload store; optional LRU bound via ``max_entries``.

    The cache server's memory-only corpus (explorers keep decoded
    reports in their :class:`~repro.explore.engine.EvaluationCache`
    instead).  Unbounded by default.  With ``max_entries=N`` the store
    never holds more than N payloads:
    inserting beyond the bound evicts the least-recently-*used* entry
    (both :meth:`get` and :meth:`put` refresh recency) and increments
    ``stats.evictions``.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        payload = self._entries.get(key)
        if payload is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        self._entries[key] = dict(payload)
        self._entries.move_to_end(key)
        self.stats.stores += 1
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def lookup_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Bulk :meth:`get`: payloads of the present keys, stats included.

        Duplicate keys are probed once; recency refreshes exactly as the
        equivalent sequence of ``get`` calls would.
        """
        found: Dict[str, Dict[str, Any]] = {}
        for key in dict.fromkeys(keys):
            payload = self.get(key)
            if payload is not None:
                found[key] = payload
        return found

    def store_many(self, payloads: Mapping[str, Mapping[str, Any]]) -> None:
        """Bulk :meth:`put` (insertion order = recency order)."""
        for key, payload in payloads.items():
            self.put(key, payload)

    def keys(self) -> Tuple[str, ...]:
        """Current keys, least-recently-used first."""
        return tuple(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.stats.reset()


# ----------------------------------------------------------------------
# On-disk content-addressed store
# ----------------------------------------------------------------------
#: The keys a :class:`DiskCache` accepts: hex fingerprints and other
#: plain names.  Anything else (``/``, ``..``, NUL) could name a file
#: outside the store's root.
_KEY = re.compile(r"[0-9A-Za-z_-]+")


def _check_key(key: str) -> None:
    if _KEY.fullmatch(key) is None:
        raise ValueError(f"cache key {key!r} does not match [0-9A-Za-z_-]+")


def _mtime(entry: os.DirEntry) -> float:
    # A sibling process may unlink a shard between scan and stat;
    # treat the vanished file as the oldest.
    try:
        return entry.stat().st_mtime
    except OSError:
        return 0.0


class DiskCache:
    """Content-addressed file store under ``root``, safe across runs.

    Layout is sharded by key prefix — ``root/<key[:2]>/<key>.rpc``
    (compact payload records) or ``<key>.json`` (legacy shards) — so
    directories stay small at scale.  Keys must match
    ``[0-9A-Za-z_-]+``; any other key raises :class:`ValueError` before
    the filesystem is touched.  The store keeps no index and no
    in-memory copy: opening one costs a ``mkdir``, and :meth:`get`
    opens the key's ``.rpc`` file, then its legacy ``.json`` file.
    :meth:`put` writes compact records only, through a same-directory
    temp file plus ``os.replace``, so a crashed writer can never leave
    a half-written shard.  A file that cannot be read or decoded is
    counted in ``stats.corrupt``, unlinked, and the other format is
    tried; a key with no readable file is a miss.

    ``max_entries`` (optional) bounds the number of stored keys: each
    store batch ends with one directory pass that unlinks the least
    recently stored keys (oldest shard mtime) beyond the bound.
    """

    #: Read order when a key exists in both formats (a legacy shard
    #: left behind next to its compact rewrite).
    _SUFFIXES = (COMPACT_SUFFIX, JSON_SUFFIX)

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None for unbounded)")
        self.root = Path(root)
        self.max_entries = max_entries
        self.stats = CacheStats()
        self.root.mkdir(parents=True, exist_ok=True)

    def _file(self, key: str, suffix: str) -> Path:
        return self.root / key[:2] / f"{key}{suffix}"

    def _scan(self) -> Tuple[List[str], Dict[str, List[os.DirEntry]]]:
        """One ``os.scandir`` pass over the shard directories.

        Returns the shard directories and, per key, its ``.rpc`` and
        ``.json`` files; temp files are skipped.  A shard that a
        sibling process removes mid-pass is skipped too.
        """
        try:
            with os.scandir(self.root) as listing:
                shards = [entry.path for entry in listing if entry.is_dir()]
        except OSError:
            return [], {}
        files: Dict[str, List[os.DirEntry]] = {}
        for shard in shards:
            try:
                with os.scandir(shard) as listing:
                    for entry in listing:
                        key, suffix = os.path.splitext(entry.name)
                        if suffix in self._SUFFIXES:
                            files.setdefault(key, []).append(entry)
            except OSError:
                continue
        return shards, files

    def __len__(self) -> int:
        return len(self._scan()[1])

    # ------------------------------------------------------------------
    @staticmethod
    def _decode(data: bytes) -> Dict[str, Any]:
        """Decode one shard's bytes, whatever format it was written in."""
        if is_compact_payload(data):
            return unpack_payload(data)
        payload = json.loads(data.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("cache entry is not a JSON object")
        return payload

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        _check_key(key)
        for suffix in self._SUFFIXES:
            path = self._file(key, suffix)
            try:
                payload = self._decode(path.read_bytes())
            except FileNotFoundError:
                continue
            except (OSError, ValueError):  # unreadable, or not a record
                self.stats.corrupt += 1
                self._unlink(path)
                continue
            self.stats.hits += 1
            return payload
        self.stats.misses += 1
        return None

    def lookup_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Bulk :meth:`get`: one probe per unique key, stats included."""
        found: Dict[str, Dict[str, Any]] = {}
        for key in dict.fromkeys(keys):
            payload = self.get(key)
            if payload is not None:
                found[key] = payload
        return found

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        self.store_many({key: payload})

    def store_many(self, payloads: Mapping[str, Mapping[str, Any]]) -> None:
        """Write a batch; every key is checked before any file is written."""
        for key in payloads:
            _check_key(key)
        for key, payload in payloads.items():
            self._write(key, payload)
        if self.max_entries is not None and payloads:
            self._evict(payloads)

    def _write(self, key: str, payload: Mapping[str, Any]) -> None:
        shard = self.root / key[:2]
        shard.mkdir(parents=True, exist_ok=True)
        blob = pack_payload(payload)
        fd, temp_name = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(temp_name, self._file(key, COMPACT_SUFFIX))
        except BaseException:
            self._unlink(temp_name)
            raise
        # A rewrite supersedes the entry's legacy .json shard, which
        # would otherwise resurface if the new record were ever
        # discarded as corrupt.
        self._unlink(self._file(key, JSON_SUFFIX))
        self.stats.stores += 1

    def _evict(self, stored: Mapping[str, Any]) -> None:
        """Unlink the least recently stored keys beyond ``max_entries``.

        A key's recency is its newest shard mtime (ties broken by key).
        The batch just stored ranks newest, in store order: writes made
        within one filesystem clock tick share an mtime.
        """
        _, files = self._scan()
        excess = len(files) - self.max_entries
        if excess <= 0:
            return
        older = sorted(
            (key for key in files if key not in stored),
            key=lambda key: (max(_mtime(entry) for entry in files[key]), key),
        )
        newest = [key for key in stored if key in files]
        for key in (older + newest)[:excess]:
            for entry in files[key]:
                self._unlink(entry.path)
            self.stats.evictions += 1

    @staticmethod
    def _unlink(path: Union[str, Path]) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def clear(self) -> None:
        """Remove every entry, including shards written by siblings.

        Emptied shard directories are removed too, so a cleared cache
        leaves nothing but its root behind.
        """
        shards, files = self._scan()
        for entries in files.values():
            for entry in entries:
                self._unlink(entry.path)
        for shard in shards:
            try:
                os.rmdir(shard)
            except OSError:
                pass  # non-empty (a sibling raced a write) or busy
        self.stats.reset()


# ----------------------------------------------------------------------
# The network tier
# ----------------------------------------------------------------------
class RemoteCacheError(RuntimeError):
    """The cache server could not be reached (or the stream broke)."""


class RemoteCache:
    """Client backend for the :mod:`repro.cacheserver` network tier.

    Implements the full :class:`CacheBackend` protocol over one
    persistent TCP connection speaking the compact length-prefixed
    wire protocol (the ``.rpc`` record codec end to end):

    * :meth:`lookup_many` is **one** batched ``GET`` round trip for a
      whole sweep's fingerprints; :meth:`get` is the one-key case.
    * :meth:`put`/:meth:`store_many` are **write-behind**: entries land
      in a bounded in-memory queue and a background flusher pushes them
      in batches, so the sweep hot path never blocks on the network.
      Queued entries are visible to this process's reads immediately
      (read-your-writes), and :meth:`flush` drains the queue on demand.
    * When the server is unreachable, reads fall through to the
      optional ``fallback`` backend (typically a local
      :class:`DiskCache`) and queued stores are flushed there instead,
      so a sweep keeps its warm corpus across a server outage.
      Connection attempts back off for ``retry_seconds`` between
      failures.

    Like every backend, instances are not internally synchronized
    against *callers* — the :class:`~repro.explore.engine.
    EvaluationCache` facade lock serializes backend traffic — but the
    internal flusher thread is coordinated with its own locks, so the
    write-behind path is safe by construction.
    """

    DEFAULT_PORT = 8712

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        fallback: Optional[CacheBackend] = None,
        timeout: float = 5.0,
        retry_seconds: float = 1.0,
        write_behind: bool = True,
        max_pending: int = 4096,
        flush_batch: int = 512,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if flush_batch < 1:
            raise ValueError("flush_batch must be >= 1")
        self.host = host
        self.port = port
        self.fallback = fallback
        self.timeout = timeout
        self.retry_seconds = retry_seconds
        self.write_behind = write_behind
        self.max_pending = max_pending
        self.flush_batch = flush_batch
        #: Remote stores are unbounded from the client's point of view
        #: (the server owns any entry bound).
        self.max_entries: Optional[int] = None
        self.stats = CacheStats()
        self._sock: Optional[socket.socket] = None
        #: Serializes the socket (foreground probes vs. the flusher).
        self._io_lock = threading.Lock()
        #: Guards ``_pending``/``_down_until``/``_closed``; the
        #: condition wakes the flusher on new stores.
        self._state_lock = threading.Lock()
        self._flush_wakeup = threading.Condition(self._state_lock)
        self._pending: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: Entries taken out of ``_pending`` for a push that has not
        #: landed yet.  Keeping them here keeps them visible to reads
        #: (read-your-writes) and lets :meth:`flush` distinguish "queue
        #: empty" from "queue drained".
        self._inflight: Dict[str, Dict[str, Any]] = {}
        self._down_until = 0.0
        self._closed = False
        self._flusher: Optional[threading.Thread] = None
        #: The fallback backend is shared between foreground reads and
        #: the flusher's outage writes; backends bring no locking of
        #: their own.
        self._fallback_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Socket plumbing
    # ------------------------------------------------------------------
    def _recv_exact(self, sock: socket.socket, n: int) -> bytes:
        chunks: List[bytes] = []
        remaining = n
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                raise ConnectionError("cache server closed the connection")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _read_frame(self, sock: socket.socket) -> bytes:
        length = frame_length(self._recv_exact(sock, 4))
        return self._recv_exact(sock, length) if length else b""

    def _connect_locked(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), self.timeout)
        try:
            sock.sendall(pack_frame(wire.hello_request()))
            wire.parse_payload_response(self._read_frame(sock))
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        return sock

    def _close_socket_locked(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _rpc(self, body: bytes) -> bytes:
        """One request/response round trip, marking outages as it goes.

        Raises :class:`RemoteCacheError` when the server is unreachable
        (or inside its retry cooldown after a failure); raises
        :class:`repro.cacheserver.protocol.RemoteError` when the server
        itself rejected the request.
        """
        with self._state_lock:
            if time.monotonic() < self._down_until:
                raise RemoteCacheError(
                    f"cache server {self.host}:{self.port} is in its "
                    "retry cooldown"
                )
        # Framing the request can fail on its own (a body over the
        # 64 MiB frame bound) — that is a client-side size error, not
        # an outage: let FrameError propagate without closing a healthy
        # socket or starting the retry cooldown.
        frame = pack_frame(body)
        with self._io_lock:
            try:
                sock = self._sock if self._sock is not None else self._connect_locked()
                # repro: allow[RA002] _io_lock exists to serialize this socket
                sock.sendall(frame)
                return self._read_frame(sock)
            except (OSError, FrameError, wire.WireProtocolError) as exc:
                self._close_socket_locked()
                with self._state_lock:
                    self._down_until = time.monotonic() + self.retry_seconds
                raise RemoteCacheError(
                    f"cache server {self.host}:{self.port} unreachable: "
                    f"{type(exc).__name__}: {exc}"
                ) from exc

    def server_available(self) -> bool:
        """One live round trip (HELLO-equivalent LEN); False on outage."""
        try:
            self._rpc(wire.len_request())
        except (RemoteCacheError, wire.RemoteError):
            return False
        return True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self.lookup_many((key,)).get(key)

    def lookup_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Bulk probe: queued writes, then one wire round trip.

        Keys still sitting in the write-behind queue — or taken out of
        it for a push that has not landed yet — resolve locally
        (read-your-writes); the rest go to the server in a single
        ``GET`` frame, falling through to the ``fallback`` backend when
        the server is unreachable.
        """
        unique = dict.fromkeys(keys)
        found: Dict[str, Dict[str, Any]] = {}
        remaining: List[str] = []
        with self._state_lock:
            for key in unique:
                payload = self._pending.get(key)
                if payload is None:
                    payload = self._inflight.get(key)
                if payload is not None:
                    found[key] = dict(payload)
                else:
                    remaining.append(key)
        self.stats.hits += len(found)
        if not remaining:
            return found
        records: Optional[Dict[str, Dict[str, Any]]] = None
        try:
            records = wire.parse_records_response(
                self._rpc(wire.get_request(remaining))
            )
        except (RemoteCacheError, wire.RemoteError):
            if self.fallback is not None:
                records = self._fallback_lookup(remaining)
        if records is None:
            records = {}
        for key in remaining:
            payload = records.get(key)
            if payload is not None:
                found[key] = payload
                self.stats.hits += 1
            else:
                self.stats.misses += 1
        return found

    def _fallback_lookup(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        with self._fallback_lock:
            return self.fallback.lookup_many(keys)

    # ------------------------------------------------------------------
    # Writes (write-behind)
    # ------------------------------------------------------------------
    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        self.store_many({key: payload})

    def store_many(self, payloads: Mapping[str, Mapping[str, Any]]) -> None:
        entries = {key: dict(payload) for key, payload in payloads.items()}
        if not entries:
            return
        self.stats.stores += len(entries)
        if not self.write_behind:
            self._push(entries)
            return
        with self._flush_wakeup:
            if self._closed:
                raise RuntimeError("RemoteCache is closed")
            for key, payload in entries.items():
                self._pending[key] = payload
                self._pending.move_to_end(key)
            overflow = len(self._pending) > self.max_pending
            self._ensure_flusher_locked()
            self._flush_wakeup.notify_all()
        if overflow:
            # The queue bound is the hot path's memory protection:
            # drain synchronously rather than grow without limit.
            self.flush()

    def _ensure_flusher_locked(self) -> None:
        if self._flusher is None or not self._flusher.is_alive():
            self._flusher = threading.Thread(
                target=self._flush_loop, name="repro-remote-cache-flush", daemon=True
            )
            self._flusher.start()

    def _take_batch_locked(self) -> Dict[str, Dict[str, Any]]:
        batch: Dict[str, Dict[str, Any]] = {}
        while self._pending and len(batch) < self.flush_batch:
            key, payload = self._pending.popitem(last=False)
            batch[key] = payload
            self._inflight[key] = payload
        return batch

    def _store_on_fallback(self, entries: Mapping[str, Dict[str, Any]]) -> None:
        with self._fallback_lock:
            self.fallback.store_many(entries)

    def _push(self, entries: Mapping[str, Dict[str, Any]]) -> bool:
        """Land a batch server-side, or on the fallback during outages.

        Returns False only when the entries could not be stored
        anywhere (server down, no fallback) — the caller decides
        whether to re-queue them.
        """
        try:
            wire.parse_count_response(self._rpc(wire.put_request(entries)))
            return True
        except FrameError:
            # The batch serialized past the frame bound — a client-side
            # size problem, never an outage.  Split and retry; a single
            # entry that is itself oversized is a poison entry, so land
            # it on the fallback when there is one, else drop it rather
            # than requeue it forever.
            if len(entries) > 1:
                items = list(entries.items())
                mid = len(items) // 2
                first = self._push(dict(items[:mid]))
                second = self._push(dict(items[mid:]))
                return first and second
            if self.fallback is not None:
                self._store_on_fallback(entries)
            else:
                self.stats.evictions += len(entries)
            return True
        except (RemoteCacheError, wire.RemoteError):
            if self.fallback is None:
                return False
            self._store_on_fallback(entries)
            return True

    def _finish_batch(self, entries: Mapping[str, Dict[str, Any]]) -> None:
        """Retire a delivered batch and wake anyone waiting in flush()."""
        with self._flush_wakeup:
            for key in entries:
                self._inflight.pop(key, None)
            self._flush_wakeup.notify_all()

    def _requeue(self, entries: Dict[str, Dict[str, Any]]) -> None:
        with self._flush_wakeup:
            for key in entries:
                self._inflight.pop(key, None)
            # Undelivered entries go back to the *front* (oldest-first
            # order is preserved for the next attempt); the bound still
            # holds — beyond it the oldest entries are dropped and
            # counted as evictions.  Entries re-stored while the batch
            # was in flight keep their fresher values (update() wins).
            fresh = self._pending
            self._pending = OrderedDict(entries)
            self._pending.update(fresh)
            while len(self._pending) > self.max_pending:
                self._pending.popitem(last=False)
                self.stats.evictions += 1
            self._flush_wakeup.notify_all()

    def _flush_loop(self) -> None:
        while True:
            with self._flush_wakeup:
                while not self._pending and not self._closed:
                    self._flush_wakeup.wait()
                if not self._pending:
                    return  # closed and drained
                batch = self._take_batch_locked()
            if self._push(batch):
                self._finish_batch(batch)
            else:
                self._requeue(batch)
                with self._flush_wakeup:
                    if self._closed:
                        return
                    # Back off until the cooldown passes (an incoming
                    # store or close() wakes the wait early).
                    self._flush_wakeup.wait(self.retry_seconds)

    def flush(self, timeout: Optional[float] = None) -> bool:
        """Drain the write-behind queue now.

        Returns True once every queued entry has landed (server or
        fallback) — including batches the background flusher had
        already taken but not yet delivered; False if the server is
        unreachable with no fallback to absorb the queue, or the
        timeout expired first.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            with self._flush_wakeup:
                if not self._pending and not self._inflight:
                    return True
                if deadline is not None and time.monotonic() > deadline:
                    return False
                batch = self._take_batch_locked()
                if not batch:
                    # The background flusher owns every outstanding
                    # entry; wait for it to deliver (or requeue) its
                    # batch rather than reporting a drain that has not
                    # happened yet.
                    if deadline is None:
                        self._flush_wakeup.wait(self.retry_seconds)
                    else:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return False
                        self._flush_wakeup.wait(
                            min(self.retry_seconds, remaining)
                        )
                    continue
            if self._push(batch):
                self._finish_batch(batch)
            else:
                self._requeue(batch)
                if deadline is None:
                    return False
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                # The retry cooldown (possibly refreshed by the
                # background flusher's own attempts) blocks immediate
                # retries; spend the timeout budget waiting it out —
                # a restarted server is reached on a later pass.
                time.sleep(min(self.retry_seconds, remaining))

    # ------------------------------------------------------------------
    # The rest of the protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        try:
            return wire.parse_count_response(self._rpc(wire.len_request()))
        except (RemoteCacheError, wire.RemoteError):
            with self._state_lock:
                pending = len(self._pending) + len(self._inflight)
            if self.fallback is not None:
                with self._fallback_lock:
                    return len(self.fallback)
            return pending

    def server_stats(self) -> Dict[str, Any]:
        """The server's live counter payload (one ``STATS`` round trip)."""
        return wire.parse_payload_response(self._rpc(wire.stats_request()))

    def clear(self) -> None:
        """Drop queued writes, the server corpus, and the fallback.

        A clear during an outage still clears the local side; the
        server is cleared on a best-effort basis (it may keep its
        corpus until it is reachable again).
        """
        with self._state_lock:
            self._pending.clear()
            self._inflight.clear()
        try:
            wire.parse_response(self._rpc(wire.clear_request()))
        except (RemoteCacheError, wire.RemoteError):
            pass
        if self.fallback is not None:
            with self._fallback_lock:
                self.fallback.clear()
        self.stats.reset()

    def close(self, timeout: float = 5.0) -> None:
        """Flush what the window allows, stop the flusher, hang up."""
        self.flush(timeout=timeout)
        with self._flush_wakeup:
            self._closed = True
            flusher = self._flusher
            self._flush_wakeup.notify_all()
        if flusher is not None and flusher.is_alive():
            flusher.join(timeout)
        with self._io_lock:
            self._close_socket_locked()

    def __enter__(self) -> "RemoteCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:
        # A module-scope RemoteCache collected at interpreter exit must
        # not run close(): flush() would block on the network and the
        # module globals it touches (time, the wire codec) may already
        # be None'd.  Signal the daemon flusher, hang up the socket —
        # instance state and builtins only, nothing that can block.
        try:
            wakeup = self.__dict__.get("_flush_wakeup")
            if wakeup is not None and wakeup.acquire(blocking=False):
                try:
                    self._closed = True
                    wakeup.notify_all()
                finally:
                    wakeup.release()
            io_lock = self.__dict__.get("_io_lock")
            if io_lock is not None and io_lock.acquire(blocking=False):
                try:
                    sock = self._sock
                    self._sock = None
                    if sock is not None:
                        sock.close()
                finally:
                    io_lock.release()
        # repro: allow[RA006] finalizer: logging/counters are torn down
        except Exception:  # noqa: BLE001 - interpreter is exiting
            pass


# ----------------------------------------------------------------------
# User-facing cache= resolution
# ----------------------------------------------------------------------
#: Scheme prefix selecting the network tier in ``cache=`` arguments.
REMOTE_SCHEME = "remote://"


def parse_remote_url(url: str) -> Tuple[str, int, Optional[str]]:
    """``remote://host:port[/fallback/dir]`` -> (host, port, fallback).

    The optional path component names a **local** directory used as the
    read-through/write-through fallback while the server is
    unreachable; without it the remote tier stands alone.
    """
    if not url.startswith(REMOTE_SCHEME):
        raise ValueError(f"not a remote cache URL: {url!r}")
    rest = url[len(REMOTE_SCHEME) :]
    netloc, slash, path = rest.partition("/")
    host, colon, port_text = netloc.rpartition(":")
    if not colon or not host or not port_text:
        raise ValueError(
            f"remote cache URL must be remote://host:port[/fallback/dir], "
            f"got {url!r}"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad port in remote cache URL {url!r}") from None
    fallback = f"/{path}" if slash and path else None
    return host, port, fallback


def resolve_backend(
    cache: Union[None, str, Path, CacheBackend],
    *,
    max_entries: Optional[int] = None,
) -> Optional[CacheBackend]:
    """Normalize a user-facing ``cache=`` argument into a backend.

    ``None`` -> ``None``: no backend, the
    :class:`~repro.explore.engine.EvaluationCache` decoded tier is the
    whole memo.  A ``remote://host:port`` URL -> a :class:`RemoteCache`
    (with a local :class:`DiskCache` fallback when the URL carries a
    path).  Any other string or path -> a :class:`DiskCache` rooted
    there, bounded by ``max_entries``.  An existing backend passes
    through (``max_entries`` then must be left unset — the backend
    already owns its bound).  For ``None`` and remote URLs,
    ``max_entries`` bounds only the caller's in-process memo; the
    server owns the remote corpus bound.
    """
    if cache is None:
        return None
    if isinstance(cache, str) and cache.startswith(REMOTE_SCHEME):
        host, port, fallback_root = parse_remote_url(cache)
        fallback = DiskCache(fallback_root) if fallback_root is not None else None
        return RemoteCache(host, port, fallback=fallback)
    if isinstance(cache, (str, Path)):
        return DiskCache(cache, max_entries=max_entries)
    if isinstance(cache, CacheBackend):
        if max_entries is not None:
            raise ValueError(
                "max_entries cannot be combined with an explicit backend; "
                "configure the bound on the backend itself"
            )
        return cache
    raise TypeError(
        f"cache must be None, a path, a remote:// URL, or a CacheBackend, "
        f"not {type(cache).__name__}"
    )
