"""Benchmark of the memory-organization feedback loop, driven from outside.

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 20 --trace 0

Workloads (why each was chosen: ``perfbench/NOTES.md``): ``cold_sweep``,
``btpc_oracle``, ``warm_resweep`` and ``serve_mixed``.  The seed picks
points, order and mix; it never changes the amount of work per stratum.

Every measured process starts from a fresh HOME, temp and corpus
directory under ``.perfbench-work/`` and compiles the program's sources
afresh (no bytecode is written), so no run inherits state from an
earlier one.

``--trace 0`` measures the end-to-end metrics: three fresh processes
each set the program up and measure a third of the window
(``btpc_oracle``: two only set up, the third measures the whole
window); ``setup_s`` is the median of the three set-ups.  Timings of the
in-process workloads are reported at a reference host speed (see
``HostClock`` in ``child.py`` and ``NOTES.md``).  ``--trace 1`` measures
the per-layer metrics: half the window untraced, then half traced with
wrappers around the program's public functions (``tracing.py``); the
difference of their throughput is the tracing overhead.

The processes of a run follow one plan, so their timing-independent
counts must agree op by op; the first two rounds' stable counts must
also match the digest recorded for the seed in ``counts.json``.  Either
mismatch is a failure.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are diagnostics (host probe, percentile sample counts, per-operation
count digest, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_sweep", "btpc_oracle", "warm_resweep", "serve_mixed")
#: Processes per untraced run.  Each sets the program up afresh
#: (``setup_s`` is the median of their set-ups) and measures a third of
#: the window, so no single process's luck (its memory layout) decides
#: a run.  A BTPC round outlasts a third of the window,
#: so ``btpc_oracle`` measures the whole window in its last process and
#: the other two only set up.
PROCESSES = 3
WHOLE_WINDOW = ("btpc_oracle",)
#: Wall-clock limit for one whole benchmark run.
RUN_LIMIT_S = 170.0
#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: Digests of the first rounds' stable counts, per workload and seed.
RECORDED_COUNTS = HERE / "counts.json"
DIGEST_ROUNDS = 2


class ChildFailed(RuntimeError):
    pass


def spawn(
    run_dir: Path,
    name: str,
    args: argparse.Namespace,
    seconds: float,
    deadline: float,
    *,
    setup_only: bool = False,
    trace: bool = False,
    count_balance: bool = False,
) -> Dict[str, Any]:
    """Run one benchmark process hermetically; returns its result dict."""
    work = run_dir / name
    for sub in ("home", "tmp"):
        (work / sub).mkdir(parents=True)
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env.update(
        HOME=str(work / "home"),
        XDG_CACHE_HOME=str(work / "home" / ".cache"),
        TMPDIR=str(work / "tmp"),
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    out = work / "result.json"
    command = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--root", str(ROOT),
        "--work", str(work),
        "--out", str(out),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
    if count_balance:
        command.append("--count-balance")
    with open(work / "child.log", "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            command,
            cwd=work,
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise ChildFailed(f"{name}: over the {RUN_LIMIT_S:.0f}-s run limit") from None
        finally:
            # Servers a crashed child started share its process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    if proc.returncode != 0 or not out.exists():
        tail = (work / "child.log").read_text(encoding="utf-8")[-2000:]
        raise ChildFailed(f"{name}: exit {proc.returncode}\n{tail}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["wall_setup_s"] = result["first_op"] - spawned
    result["setup_s"] = (result["wall_setup_s"] - result["setup_ticks_s"]) * result["setup_factor"]
    return result


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The q-quantile, or None unless ``TAIL_SAMPLES`` lie beyond it."""
    if not values or (q > 0.5 and len(values) * (1 - q) < TAIL_SAMPLES):
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if q > 0.5 else statistics.median(ordered)


def describe(name: str, values: Sequence[float]) -> str:
    parts = [f"{name}: n={len(values)}"]
    for label, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
        value = percentile(values, q)
        parts.append(f"{label}=" + ("unsupported" if value is None else f"{value:.3f}"))
    return " ".join(parts)


def points_per_s(results: Sequence[Dict[str, Any]], key: str = "window_s") -> float:
    """Points resolved per second of the timed windows, all pooled.

    A total over a total, not a median of per-round rates: a median
    jumps between the rates of the host's speed modes when a run holds
    about as much of each, where a total moves smoothly with the mix.
    """
    window = sum(r[key] for r in results)
    return sum(r["points"] for r in results) / window if window else 0.0


def end_to_end(runs: List[Dict[str, Any]], measured: List[Dict[str, Any]]) -> Dict[str, Any]:
    setups = [result["setup_s"] for result in runs]
    op_ms = [ms for result in measured for ms in result["op_ms"]]
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
    print("wall setup_s samples: " + ", ".join(f"{r['wall_setup_s']:.4f}" for r in runs))
    print(f"wall points_per_s: {points_per_s(measured, 'wall_window_s'):.4f}")
    print(describe("op_ms", op_ms))
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "points_per_s": {"value": points_per_s(measured), "unit": "1/s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in measured), "unit": "MB"},
        "op_p50_ms": {"value": statistics.median(op_ms) if op_ms else 0.0, "unit": "ms"},
    }


#: Metrics filled from the serve_mixed client and stats endpoints; zero
#: on the workloads that start no server.
SERVICE_METRICS = (
    "service.requests",
    "service.rejected",
    "service.coalesced",
    "service.oracle_misses",
    "cacheserver.requests",
    "cacheserver.keys_requested",
    "cacheserver.keys_served",
    "cacheserver.keys_stored",
    "cacheserver.errors",
)


def per_layer(reference: Dict[str, Any], traced: Dict[str, Any]) -> Dict[str, Any]:
    layers = dict(traced["layers"])
    # Layer times are wall-clock span times, so shares are of the wall window.
    window = traced["wall_window_s"]
    untraced_pps = points_per_s([reference])
    traced_pps = points_per_s([traced])
    overhead = 100.0 * (1.0 - traced_pps / untraced_pps) if untraced_pps else 0.0
    print(f"tracing overhead: {overhead:.2f}% of points_per_s ({untraced_pps:.4f} untraced, {traced_pps:.4f} traced)")
    missing = traced.get("missing", [])
    for target in missing:
        print(f"missing wrap target: {target}")
    requests = reference.get("requests") or []
    latencies = [1000.0 * sample["latency"] for sample in requests]
    firsts = [1000.0 * sample["first"] for sample in requests if sample["first"] is not None]
    print(describe("serve op_ms (untraced)", latencies))
    print(describe("serve first_record_ms (untraced)", firsts))
    traced_requests = traced.get("requests") or []
    headers = [1000.0 * sample["headers"] for sample in traced_requests]
    gaps = [1000.0 * gap for sample in traced_requests for gap in sample["gaps"]]
    service = traced.get("service", {})
    metrics = {name: (value, "s" if name.endswith(("_s", ".s")) else "count") for name, value in layers.items()}
    metrics["dtse.scbd.balance.reuse"] = (layers["dtse.scbd.balance.reuse"], "ratio")
    metrics.update(
        {
            "window.s": (window, "s"),
            "dtse.scbd.balance.share": (layers["dtse.scbd.balance.s"] / window if window else 0.0, "ratio"),
            "explore.share": (layers["explore.root_s"] / window if window else 0.0, "ratio"),
            "service.headers_ms": (_median(headers), "ms"),
            "service.record_gap_ms": (_median(gaps), "ms"),
            "service.redundant_batches": (
                layers["explore.evaluate_many.cache_only"] if requests else 0,
                "count",
            ),
            # No requests (an in-process workload): 0.  Too few for a
            # 90th percentile: null, and the run fails (main).
            "serve.op_p90_ms": (percentile(latencies, 0.9) if latencies else 0.0, "ms"),
            "serve.first_record_ms": (_median(firsts), "ms"),
            "host.probe_ms": (statistics.median(traced["probe_ms"]), "ms"),
            "trace.overhead_pct": (overhead, "%"),
            "trace.missing_targets": (len(missing), "count"),
        }
    )
    for name in SERVICE_METRICS:
        metrics[name] = (service.get(name, 0), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def repeat_errors(workload: str, seed: int, results: Sequence[Dict[str, Any]]) -> List[str]:
    """Where the processes' timing-independent counts fail to repeat.

    Every process of a run follows the plan the seed makes, so their
    counts must agree op by op over the operations all of them ran.
    The first rounds' stable counts (those no optimization may change:
    points, oracle calls, infeasible points, points streamed) must also
    hash to the digest recorded for the seed, when one is.
    """
    errors = []
    first = results[0]["counts"]
    for other in results[1:]:
        for index, (mine, theirs) in enumerate(zip(first, other["counts"])):
            if mine != theirs:
                errors.append(f"counts of op {index} differ between identical processes: {mine} != {theirs}")
                break
    ops = DIGEST_ROUNDS * results[0]["round_size"]
    stable = results[0]["stable_counts"][:ops]
    if len(stable) < ops:
        print(f"counts: {len(stable)} ops, fewer than the {ops} a digest covers")
        return errors
    digest = stable_digest(stable)
    recorded = json.loads(RECORDED_COUNTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    print(f"counts: first {ops} ops {stable}, digest={digest}, recorded={recorded or 'none for this seed'}")
    if recorded is not None and digest != recorded:
        errors.append(f"counts digest {digest} of the first {ops} ops != recorded {recorded}")
    return errors


def stable_digest(stable: Sequence[Sequence[int]]) -> str:
    return hashlib.sha256(json.dumps(stable).encode()).hexdigest()[:16]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "api.py").is_file() or not (ROOT / "tests" / "golden").is_dir():
        print(f"perfbench: no repro sources or golden files under {ROOT}", file=sys.stderr)
        return 2
    # Processes run in sessions of their own; a terminated run still
    # unwinds through spawn's cleanup, which kills them.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            half = args.seconds / 2
            reference = spawn(run_dir, "reference", args, half, deadline, count_balance=True)
            traced = spawn(run_dir, "traced", args, half, deadline, trace=True, count_balance=True)
            runs = measured = [reference, traced]
            metrics = per_layer(reference, traced)
            trace_dir = ROOT / ".perfbench-work" / f"trace-{args.workload}"
            shutil.rmtree(trace_dir, ignore_errors=True)
            trace_dir.mkdir(parents=True)
            for spans in (run_dir / "traced").glob("*spans.jsonl"):
                shutil.copy(spans, trace_dir / spans.name)
        elif args.workload in WHOLE_WINDOW:
            runs = [
                spawn(run_dir, f"setup{i}", args, args.seconds, deadline, setup_only=True)
                for i in range(PROCESSES - 1)
            ]
            runs.append(spawn(run_dir, "full", args, args.seconds, deadline))
            measured = runs[-1:]
            metrics = end_to_end(runs, measured)
        else:
            runs = measured = [
                spawn(run_dir, f"part{i}", args, args.seconds / PROCESSES, deadline)
                for i in range(PROCESSES)
            ]
            metrics = end_to_end(runs, measured)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("host.probe_ms: " + ", ".join(f"{p:.2f}" for r in measured for p in r["probe_ms"]))
    for result in measured:
        for note in ("exhausted", "stopped"):
            if note in result:
                print(f"window ended early: {result[note]}")
    problems = repeat_errors(args.workload, args.seed, measured)
    if metrics.get("serve.op_p90_ms", {}).get("value", 0.0) is None:
        problems.append("too few requests for a 90th percentile")
    for error in [error for run in runs for error in run["errors"]] + problems:
        print(f"failure: {error}")
    failed = sum(run["failed"] for run in runs) + len(problems)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(run["attempted"] for run in runs),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
