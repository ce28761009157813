"""Pluggable memoization backends for the exploration engine.

The :class:`~repro.explore.engine.Explorer` memoizes every oracle
evaluation under a content-addressed fingerprint.  In-process, the
:class:`~repro.explore.engine.EvaluationCache` keeps decoded reports
itself; this module owns the optional *persistent* store behind it:

* :class:`DiskCache` — a plain content-addressed file store (sharded
  files, atomic writes, corruption-tolerant reads; no index, no
  in-memory copy) that keeps sweeps warm across *processes and runs*.
  Entries are compact payload records (:mod:`repro.costs.report`'s
  struct-packed codec), the one format it reads and writes.
* :class:`RemoteCache` — the **network tier**: a client for the
  :mod:`repro.cacheserver` server, so sweeps stay warm across
  *machines*.  A probe batch is one synchronous ``GET`` round trip and
  a store batch one ``PUT``; while the server is unreachable, probes
  miss and stores are dropped.
* :class:`MemoryCache` — an in-process LRU payload store: the cache
  server's memory-only corpus.

``resolve_backend`` understands ``remote://host:port`` URLs, so
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

import os
import re
import socket
import tempfile
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
    pack_frame,
    pack_payload,
    unpack_payload,
)

#: Shard-file suffix of compact payload records, the one format a
#: :class:`DiskCache` reads and writes.
COMPACT_SUFFIX = ".rpc"


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Counter block every backend maintains.

    ``hits``/``misses`` count :meth:`CacheBackend.get` outcomes at the
    backend level (the explorer keeps its own evaluation-level counters
    on :class:`~repro.explore.engine.EvaluationCache`); ``evictions``
    counts entries removed to honour a bound, and entries a
    :class:`RemoteCache` dropped instead of storing; ``corrupt`` counts
    unreadable on-disk entries that were tolerated as misses.
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


def _make_shard(root: str, prefix: str) -> str:
    """The shard directory ``root/prefix``, made if missing.

    Creates the root too when it is gone (a sibling removed the corpus).
    """
    shard = f"{root}{os.sep}{prefix}"
    try:
        os.mkdir(shard)
    except FileExistsError:
        pass
    except FileNotFoundError:
        os.makedirs(shard, exist_ok=True)
    return shard


def _mtime(entry: os.DirEntry) -> float:
    # A sibling process may unlink a shard between scan and stat;
    # treat the vanished file as the oldest.
    try:
        return entry.stat().st_mtime
    except OSError:
        return 0.0


class DiskCache:
    """Content-addressed file store under ``root``, safe across runs.

    Layout is sharded by key prefix — ``root/<key[:2]>/<key>.rpc``, one
    compact payload record per key — so directories stay small at
    scale.  Keys must match ``[0-9A-Za-z_-]+``; any other key raises
    :class:`ValueError` before the filesystem is touched.  The store
    keeps no index and no in-memory copy: opening one costs a
    ``mkdir``, and :meth:`get` opens the key's one record file.
    :meth:`put` writes through a same-directory temp file plus
    ``os.replace``, so a crashed writer can never leave a half-written
    record.  A record that cannot be read or decoded is counted in
    ``stats.corrupt``, unlinked, and reported as a miss.  Files the
    store does not write (any other suffix) are never read, counted,
    evicted or removed.

    ``max_entries`` (optional) bounds the number of stored keys: each
    store batch ends with one directory pass that unlinks the least
    recently stored keys (oldest record mtime) beyond the bound.
    """

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

    def _scan(self) -> Tuple[List[str], Dict[str, os.DirEntry]]:
        """One ``os.scandir`` pass over the shard directories.

        Returns the shard directories and each key's ``.rpc`` record;
        temp files and files of other suffixes are skipped.  A shard
        that a sibling process removes mid-pass is skipped too.
        """
        try:
            with os.scandir(self.root) as listing:
                shards = [entry.path for entry in listing if entry.is_dir()]
        except OSError:
            return [], {}
        records: Dict[str, os.DirEntry] = {}
        for shard in shards:
            try:
                with os.scandir(shard) as listing:
                    for entry in listing:
                        key, suffix = os.path.splitext(entry.name)
                        if suffix == COMPACT_SUFFIX:
                            records[key] = entry
            except OSError:
                continue
        return shards, records

    def __len__(self) -> int:
        return len(self._scan()[1])

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        _check_key(key)
        path = f"{self.root}{os.sep}{key[:2]}{os.sep}{key}{COMPACT_SUFFIX}"
        try:
            with open(path, "rb") as handle:
                payload = unpack_payload(handle.read())
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError):  # unreadable, or not a record
            self.stats.corrupt += 1
            self._unlink(path)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

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
        """Write a batch; every key is checked before any file is written.

        Each shard directory the batch writes to is made once.
        """
        for key in payloads:
            _check_key(key)
        root = os.fspath(self.root)
        shards: Dict[str, str] = {}
        for key, payload in payloads.items():
            shard = shards.get(key[:2])
            if shard is None:
                shard = shards[key[:2]] = _make_shard(root, key[:2])
            self._write(shard, key, pack_payload(payload))
        if self.max_entries is not None and payloads:
            self._evict(payloads)

    def _write(self, shard: str, key: str, blob: bytes) -> None:
        try:
            fd, temp_name = tempfile.mkstemp(dir=shard, suffix=".tmp")
        except FileNotFoundError:
            # A sibling's clear() removed the shard after the batch made it.
            os.makedirs(shard, exist_ok=True)
            fd, temp_name = tempfile.mkstemp(dir=shard, suffix=".tmp")
        try:
            try:
                view = memoryview(blob)
                while view:
                    view = view[os.write(fd, view) :]
            finally:
                os.close(fd)
            os.replace(temp_name, f"{shard}{os.sep}{key}{COMPACT_SUFFIX}")
        except BaseException:
            self._unlink(temp_name)
            raise
        self.stats.stores += 1

    def _evict(self, stored: Mapping[str, Any]) -> None:
        """Unlink the least recently stored keys beyond ``max_entries``.

        A key's recency is its record's mtime (ties broken by key).
        The batch just stored ranks newest, in store order: writes made
        within one filesystem clock tick share an mtime.
        """
        _, records = self._scan()
        excess = len(records) - self.max_entries
        if excess <= 0:
            return
        older = sorted(
            (key for key in records if key not in stored),
            key=lambda key: (_mtime(records[key]), key),
        )
        newest = [key for key in stored if key in records]
        for key in (older + newest)[:excess]:
            self._unlink(records[key].path)
            self.stats.evictions += 1

    @staticmethod
    def _unlink(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def clear(self) -> None:
        """Remove every entry, including records written by siblings.

        Emptied shard directories are removed too, so a cleared cache
        leaves nothing but its root and files it did not write behind.
        """
        shards, records = self._scan()
        for entry in records.values():
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
    wire protocol (the ``.rpc`` record codec end to end).  Every call
    is one synchronous round trip: :meth:`lookup_many` is **one**
    batched ``GET`` for a whole sweep's fingerprints and
    :meth:`store_many` one ``PUT`` (:meth:`get` and :meth:`put` are
    the one-key cases).  A batch over the frame bound is split in
    halves; a single entry over it is dropped and counted in
    ``stats.evictions``.

    **Outages.**  While the server is unreachable a probe is a miss
    (``stats.misses``) and a store is dropped (``stats.evictions``;
    ``stats.stores`` counts only entries the server acknowledged).
    After a failed round trip the client makes no connection attempt
    for :attr:`RETRY_SECONDS`.  ``len()``, :meth:`clear` and
    :meth:`server_stats` raise :class:`RemoteCacheError` instead.

    The client starts no thread and owns no lock: like every backend
    it relies on the :class:`~repro.explore.engine.EvaluationCache`
    facade lock to serialize its calls.
    """

    DEFAULT_PORT = 8712
    #: Socket timeout (seconds) for connecting and for each round trip.
    TIMEOUT = 5.0
    #: Cooldown (seconds) after a failed round trip.
    RETRY_SECONDS = 1.0

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
        self.host = host
        self.port = port
        self.stats = CacheStats()
        self._sock: Optional[socket.socket] = None
        self._down_until = 0.0

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

    def _connect(self) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), self.TIMEOUT)
        try:
            sock.sendall(pack_frame(wire.hello_request()))
            wire.parse_payload_response(self._read_frame(sock))
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        return sock

    def _rpc(self, body: bytes) -> bytes:
        """One request/response round trip, marking outages as it goes.

        Raises :class:`RemoteCacheError` when the server is unreachable
        (or inside its retry cooldown after a failure); raises
        :class:`repro.cacheserver.protocol.RemoteError` when the server
        itself rejected the request.
        """
        if time.monotonic() < self._down_until:
            raise RemoteCacheError(
                f"cache server {self.host}:{self.port} is in its retry cooldown"
            )
        # Framing the request can fail on its own (a body over the
        # 64 MiB frame bound) — that is a client-side size error, not
        # an outage: let FrameError propagate without closing a healthy
        # socket or starting the retry cooldown.
        frame = pack_frame(body)
        try:
            sock = self._sock if self._sock is not None else self._connect()
            sock.sendall(frame)
            return self._read_frame(sock)
        except (OSError, FrameError, wire.WireProtocolError) as exc:
            self.close()
            self._down_until = time.monotonic() + self.RETRY_SECONDS
            raise RemoteCacheError(
                f"cache server {self.host}:{self.port} unreachable: "
                f"{type(exc).__name__}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self.lookup_many((key,)).get(key)

    def lookup_many(self, keys: Sequence[str]) -> Dict[str, Dict[str, Any]]:
        """Bulk probe: one ``GET`` round trip for the unique keys."""
        unique = list(dict.fromkeys(keys))
        if not unique:
            return {}
        try:
            records = wire.parse_records_response(self._rpc(wire.get_request(unique)))
        except (RemoteCacheError, wire.RemoteError):
            records = {}
        found: Dict[str, Dict[str, Any]] = {}
        for key in unique:
            payload = records.get(key)
            if payload is not None:
                found[key] = payload
        self.stats.hits += len(found)
        self.stats.misses += len(unique) - len(found)
        return found

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        self.store_many({key: payload})

    def store_many(self, payloads: Mapping[str, Mapping[str, Any]]) -> None:
        """One ``PUT`` round trip; the batch is dropped on failure."""
        if not payloads:
            return
        try:
            stored = wire.parse_count_response(self._rpc(wire.put_request(payloads)))
        except FrameError:
            # The batch serialized past the frame bound — a client-side
            # size problem, never an outage.  Split it; a single entry
            # that is itself oversized can never be sent.
            if len(payloads) == 1:
                self.stats.evictions += 1
                return
            items = list(payloads.items())
            mid = len(items) // 2
            self.store_many(dict(items[:mid]))
            self.store_many(dict(items[mid:]))
            return
        except (RemoteCacheError, wire.RemoteError):
            self.stats.evictions += len(payloads)
            return
        self.stats.stores += stored

    def __len__(self) -> int:
        """The server's entry count (one ``LEN`` round trip)."""
        return wire.parse_count_response(self._rpc(wire.len_request()))

    def server_stats(self) -> Dict[str, Any]:
        """The server's live counter payload (one ``STATS`` round trip)."""
        return wire.parse_payload_response(self._rpc(wire.stats_request()))

    def clear(self) -> None:
        """Drop the server corpus and reset this client's counters."""
        wire.parse_response(self._rpc(wire.clear_request()))
        self.stats.reset()

    def close(self) -> None:
        """Hang up; the next call reconnects."""
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "RemoteCache":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# User-facing cache= resolution
# ----------------------------------------------------------------------
#: Scheme prefix selecting the network tier in ``cache=`` arguments.
REMOTE_SCHEME = "remote://"


def parse_remote_url(url: str) -> Tuple[str, int]:
    """``remote://host:port`` -> (host, port); any other form is a ValueError."""
    rest = url[len(REMOTE_SCHEME) :] if url.startswith(REMOTE_SCHEME) else ""
    host, _, port = rest.rpartition(":")
    if "/" in rest or not host or not port.isdigit() or int(port) > 65535:
        raise ValueError(f"remote cache URL must be remote://host:port, got {url!r}")
    return host, int(port)


def resolve_backend(
    cache: Union[None, str, Path, CacheBackend],
    *,
    max_entries: Optional[int] = None,
) -> Optional[CacheBackend]:
    """Normalize a user-facing ``cache=`` argument into a backend.

    ``None`` -> ``None``: no backend, the
    :class:`~repro.explore.engine.EvaluationCache` decoded tier is the
    whole memo.  A ``remote://host:port`` URL -> a :class:`RemoteCache`.
    Any other string or path -> a :class:`DiskCache` rooted
    there, bounded by ``max_entries``.  An existing backend passes
    through (``max_entries`` then must be left unset — the backend
    already owns its bound).  For ``None`` and remote URLs,
    ``max_entries`` bounds only the caller's in-process memo; the
    server owns the remote corpus bound.
    """
    if cache is None:
        return None
    if isinstance(cache, str) and cache.startswith(REMOTE_SCHEME):
        return RemoteCache(*parse_remote_url(cache))
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
