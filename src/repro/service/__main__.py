"""``python -m repro.service`` — run the exploration sweep server.

Examples::

    # In-memory cache, default admission knobs, port 8642.
    PYTHONPATH=src python -m repro.service

    # Warm on-disk corpus shared across restarts, 4 oracle workers,
    # ephemeral port (the bound port is printed on startup).
    PYTHONPATH=src python -m repro.service --port 0 --workers 4 \
        --cache /var/tmp/repro-cache

The server drains on SIGTERM/SIGINT: new work is rejected with 503,
in-flight sweeps finish (bounded by ``--drain-seconds``), worker pools
shut down, and the exit status reports the drain outcome (0 = clean).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
from typing import Optional, Sequence

from .server import ServiceConfig, SweepService, serve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="async exploration sweep server (NDJSON streaming, "
        "single-flight coalescing, admission control)",
    )
    defaults = ServiceConfig()
    parser.add_argument("--host", default=defaults.host, help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=defaults.port,
        help="bind port (0 = ephemeral; the bound port is printed)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=defaults.workers,
        help="oracle worker processes per app explorer (default: %(default)s)",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR_OR_URL",
        default=None,
        help="DiskCache directory for the shared cache, or a "
        "remote://host:port URL for the repro.cacheserver network "
        "tier (default: in-memory)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=defaults.batch_size,
        help="points per oracle batch / stream flush (default: %(default)s)",
    )
    parser.add_argument(
        "--max-points-per-request",
        type=int,
        default=defaults.max_points_per_request,
        help="per-request point budget, 413 beyond it (default: %(default)s)",
    )
    parser.add_argument(
        "--max-pending-points",
        type=int,
        default=defaults.max_pending_points,
        help="admitted in-flight point bound, 429 beyond it "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--max-inflight-batches",
        type=int,
        default=defaults.max_inflight_batches,
        help="concurrent oracle batches (default: %(default)s)",
    )
    parser.add_argument(
        "--drain-seconds",
        type=float,
        default=defaults.drain_seconds,
        help="grace window for in-flight sweeps on shutdown "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--preload",
        nargs="*",
        metavar="APP",
        default=(),
        help="apps to warm eagerly at startup",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_dir=args.cache,
        batch_size=args.batch_size,
        max_points_per_request=args.max_points_per_request,
        max_pending_points=args.max_pending_points,
        max_inflight_batches=args.max_inflight_batches,
        drain_seconds=args.drain_seconds,
        preload_apps=tuple(args.preload),
    )
    service = SweepService(config)
    drained = asyncio.run(serve(service))
    return 0 if drained else 1


if __name__ == "__main__":
    sys.exit(main())
