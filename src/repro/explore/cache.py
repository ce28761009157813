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

import json
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
        # A rewrite supersedes the entry's legacy .json shard, which
        # would otherwise resurface if the new record were ever
        # discarded as corrupt.
        self._unlink(f"{shard}{os.sep}{key}{JSON_SUFFIX}")
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
