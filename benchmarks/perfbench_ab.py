"""Same-runner perfbench A/B: a change against its parent commit.

    python3 benchmarks/perfbench_ab.py PARENT_ROOT

The change is this script's own repository; ``PARENT_ROOT`` is a
checkout of its parent commit.  Each side runs its own
``perfbench/run.py``, which puts that tree's ``src/`` on the path, so
each side measures its own code.  Every workload runs once per seed on
each side, back to back: on odd seeds the parent runs first, on even
seeds the change.  Workloads, end-to-end metrics, their direction and
their bounds come from the change's ``BENCHMARK.json``.

The gate fails when any run exits non-zero, prints no JSON result line
or reports ``"correct": false`` (its output is printed), or when a
metric's change median is worse than the parent median by more than
the metric's bound; that failure lists both sides' values seed by seed,
so it shows whether one seed moved or all of them did.  One markdown
table goes to stdout, and is appended
to ``$GITHUB_STEP_SUMMARY`` when that is set; the exit status is 1 on
any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: One pair of runs per seed and workload.
SEEDS = (1, 2, 3)
#: Window of each run, in seconds.  At 6 s, over seeds 1-6 on a 2-core VM,
#: every end-to-end metric's quartile spread stayed within 0.08 of its
#: median, under a third of the tightest timing bound.
SECONDS = 6

#: ``{side: {workload: {seed: parsed result, or None for a failed run}}}``
Results = Dict[str, Dict[str, Dict[int, Optional[Dict[str, Any]]]]]


class Row(NamedTuple):
    workload: str
    metric: str
    parent: float
    change: float
    bound: float
    passed: bool

    def markdown(self) -> str:
        pct = (
            f"{100 * (self.change - self.parent) / self.parent:+.1f}%"
            if self.parent
            else "n/a"
        )
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"| {self.workload} | {self.metric} | {self.parent:.4g} "
            f"| {self.change:.4g} | {pct} | {self.bound:.0%} | {verdict} |"
        )


def within_bound(parent: float, change: float, better: str, bound: float) -> bool:
    """Whether ``change`` is no worse than ``parent`` by more than ``bound``."""
    if better == "higher":
        return change >= parent * (1 - bound)
    return change <= parent * (1 + bound)


def compare(spec: Dict[str, Any], results: Results) -> Tuple[List[Row], List[str]]:
    """The verdict on parsed results: table rows and failure messages."""
    rows: List[Row] = []
    failures: List[str] = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        measured = {}
        for side in SIDES:
            runs = results[side].get(workload) or {}
            if not runs:
                failures.append(f"{workload}: no {side} result")
            for seed, result in sorted(runs.items()):
                if result is None:
                    failures.append(f"{workload}: {side} seed {seed} failed to run")
                elif result.get("correct") is not True:
                    failures.append(
                        f'{workload}: {side} seed {seed} reports "correct": false'
                    )
            measured[side] = {
                seed: result for seed, result in sorted(runs.items()) if result
            }
        if not all(measured.values()):
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                side: {
                    seed: r["metrics"][name]["value"]
                    for seed, r in measured[side].items()
                }
                for side in SIDES
            }
            parent, change = (
                statistics.median(values[side].values()) for side in SIDES
            )
            passed = within_bound(parent, change, metric["better"], metric["bound"])
            rows.append(Row(workload, name, parent, change, metric["bound"], passed))
            if not passed:
                per_seed = "; ".join(
                    f"{side} by seed "
                    + ", ".join(f"{seed}: {v:.4g}" for seed, v in values[side].items())
                    for side in SIDES
                )
                failures.append(
                    f"{workload}: {name} median {change:.4g} against the parent's "
                    f"{parent:.4g}, beyond the {metric['bound']:.0%} bound "
                    f"({per_seed})"
                )
    return rows, failures


def report(rows: Sequence[Row], failures: Sequence[str]) -> str:
    lines = [
        "| workload | metric | parent median | change median | change "
        "| bound | verdict |",
        "|---|---|---|---|---|---|---|",
        *(row.markdown() for row in rows),
        "",
        *(f"- failure: {failure}" for failure in failures),
    ]
    return "\n".join(lines) + "\n"


def run(root: Path, workload: str, seed: int) -> Optional[Dict[str, Any]]:
    """One perfbench run in ``root``: its JSON result, or None if it failed."""
    proc = subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(SECONDS),
        ],
        cwd=root,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or result.get("correct") is not True:
        print(proc.stdout + proc.stderr, end="", flush=True)
    return result if isinstance(result, dict) else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root", type=Path, help="a checkout of the parent")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    roots = {"parent": args.parent_root.resolve(), "change": ROOT}
    results: Results = {side: {} for side in SIDES}
    for seed in SEEDS:
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in (entry["name"] for entry in spec["workloads"]):
            for side in order:
                print(f"{workload} seed {seed}: {side}", flush=True)
                result = run(roots[side], workload, seed)
                results[side].setdefault(workload, {})[seed] = result
    rows, failures = compare(spec, results)
    table = report(rows, failures)
    print(table, end="")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write(table)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
