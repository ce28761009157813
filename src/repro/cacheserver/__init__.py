"""The shared network cache tier: ``python -m repro.cacheserver``.

One long-lived server process owns a warm corpus (a sharded compact
:class:`~repro.explore.cache.DiskCache`, or memory-only) and serves it
over a compact length-prefixed binary protocol built on the ``.rpc``
record codec.  Worker processes point
``Explorer(space, cache="remote://host:port")`` at it and share every
evaluation they make; see :class:`~repro.explore.cache.RemoteCache`
for the client side.

The server symbols are re-exported lazily: :mod:`repro.explore.cache`
imports :mod:`.protocol` for its wire client, and an eager import of
:mod:`.server` here would close that cycle (the server builds on the
backend classes themselves).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = ["CacheServer", "CacheServerConfig", "CacheServerThread", "serve"]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .server import (  # noqa: F401
        CacheServer,
        CacheServerConfig,
        CacheServerThread,
        serve,
    )


def __getattr__(name: str):
    if name in __all__:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
