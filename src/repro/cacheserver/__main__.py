"""``python -m repro.cacheserver`` — run the shared cache-tier server.

Examples::

    # Serve a persistent warm corpus on the default port (8712).
    PYTHONPATH=src python -m repro.cacheserver --cache /var/tmp/repro-cache

    # Memory-only corpus on an ephemeral port (the bound port is
    # printed on startup), LRU-bounded to 10k entries.
    PYTHONPATH=src python -m repro.cacheserver --port 0 --max-entries 10000

Point workers at it with ``Explorer(space, cache="remote://host:port")``,
or front the sweep service with it via ``python -m repro.service --cache
remote://host:port``.  While it is down, client probes miss and client
stores are dropped.  The server drains on SIGTERM/SIGINT and exits 0 on
a clean drain.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from .server import CacheServer, CacheServerConfig, serve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cacheserver",
        description="shared network cache tier over the compact .rpc "
        "record codec (length-prefixed binary protocol)",
    )
    defaults = CacheServerConfig()
    parser.add_argument("--host", default=defaults.host, help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="bind port (0 = ephemeral; the bound port is printed)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="DiskCache directory for the corpus (default: in-memory)",
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        default=None,
        help="LRU entry bound for the corpus (default: unbounded)",
    )
    parser.add_argument(
        "--drain-seconds",
        type=float,
        default=defaults.drain_seconds,
        help="grace window for in-flight requests on shutdown "
        "(default: %(default)s)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = CacheServerConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache,
        max_entries=args.max_entries,
        drain_seconds=args.drain_seconds,
    )
    drained = asyncio.run(serve(CacheServer(config)))
    return 0 if drained else 1


if __name__ == "__main__":
    sys.exit(main())
