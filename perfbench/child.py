"""One benchmark process: set up a workload, time it, check its outputs.

``run.py`` starts this file in a fresh interpreter with a fresh HOME,
temp and corpus directory for every set-up it measures::

    python perfbench/child.py --workload cold_sweep --seed 1 \\
        --seconds 20 --work DIR --out result.json \\
        [--setup-only] [--trace] [--count-balance]

The process records when its first timed operation starts (the end of
set-up), runs whole rounds of operations until the timed window holds
``--seconds`` of work, checks every result, and writes one JSON result
file.  ``--setup-only`` stops right after set-up.  ``--trace`` wraps the
program's public functions (``tracing.py``) and adds per-layer metrics;
``--count-balance`` counts the SCBD balance calls of every operation.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

sys.dont_write_bytecode = True

import checks  # noqa: E402 - after the bytecode switch
import tracing  # noqa: E402
from hostclock import HostClock, host_probe_ms  # noqa: E402

REGISTRY_APPS = ("cavity", "wavelet", "motion")
#: A window ends early after this many operations failed in a row, so
#: an operation that fails at once (a renamed API) cannot spin the
#: window until the run limit; the errors still reach the result file.
MAX_FAILURES_IN_A_ROW = 3


class WindowExhausted(Exception):
    """The workload has no fresh inputs left for another round."""


class Workload:
    """Shared plumbing: the timed loop, failure accounting, the result."""

    #: Operations per round; the window always ends on a round boundary,
    #: so every run holds the same mix of operations.
    round_size = 1
    #: False where the program runs in another process (the service),
    #: which installs the wrappers itself.
    traces_in_process = True

    def __init__(self, args: argparse.Namespace, clock: HostClock) -> None:
        self.args = args
        self.clock = clock
        self.root = Path(args.root)
        self.work = Path(args.work)
        self.rng = random.Random(f"{args.workload}:{args.seed}")
        self.balance: Optional[tracing.CallCounter] = None
        if args.count_balance and self.traces_in_process:
            self.balance = tracing.CallCounter(tracing.BALANCE_TARGET)
        self.tracer: Optional[tracing.Tracer] = None
        if args.trace and self.traces_in_process:
            self.tracer = tracing.Tracer()
            self.tracer.install(tracing.targets())
        self.attempted = 0
        self.failed = 0
        self.infeasible = 0
        self.errors: List[str] = []
        self.points = 0
        #: Timing-independent counts per operation, a function of the
        #: seed alone: the ``stable`` ones no optimization may change
        #: (points, oracle calls, infeasible points), then the rest
        #: (balance calls).  ``run.py`` compares them across processes.
        self.stable_counts: List[List[int]] = []
        self.counts: List[List[int]] = []
        self.result: Dict[str, Any] = {}

    # -- hooks ---------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, index: int) -> Tuple[float, float, int]:
        """Run and check operation ``index``.

        Returns the monotonic start and end of the timed part and the
        points it resolved.
        """
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def kill(self) -> None:
        """Stop whatever a failed run left running."""

    def finish(self) -> None:
        """Work left for after the teardown."""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_metrics(self, window: Tuple[float, float]) -> Dict[str, float]:
        assert self.tracer is not None
        return tracing.aggregate(self.tracer.spans, lambda span: span[5] >= 0)

    # -- accounting ----------------------------------------------------
    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def record_counts(self, stable: List[int]) -> None:
        self.stable_counts.append(stable)
        extra = [self.balance.take()] if self.balance is not None else []
        self.counts.append(stable + extra)

    # -- the run -------------------------------------------------------
    def _probe(self) -> float:
        # The clock's ticks would land inside the probe's loop.
        self.clock.stop()
        try:
            return host_probe_ms()
        finally:
            self.clock.start()

    def timed_window(self) -> Tuple[float, float]:
        """Run whole rounds until the window holds ``--seconds`` of work.

        The window is the sum of the operations' own durations at the
        reference host speed (:class:`HostClock`): checks between
        operations and the host probes are not timed, and a slow spell
        of the host does not change how many rounds a run holds.
        """
        probes = [self._probe()]
        seconds = self.args.seconds
        window = 0.0
        #: Each operation's timed interval; None where it failed.
        spans: List[Optional[Tuple[float, float]]] = []
        index = 0
        in_a_row = 0
        start = time.monotonic()
        while window < seconds or index % self.round_size:
            if len(probes) == 1 and window >= seconds / 2 and index % self.round_size == 0:
                probes.append(self._probe())
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op = index
            try:
                op_start, op_end, points = self.operation(index)
            except WindowExhausted as exc:
                self.attempted -= 1
                self.result["exhausted"] = str(exc)
                break
            except Exception as exc:  # noqa: BLE001 - counted and reported
                self.fail(f"op {index}: {type(exc).__name__}: {exc}")
                spans.append(None)
                index += 1
                in_a_row += 1
                if in_a_row >= MAX_FAILURES_IN_A_ROW:
                    self.result["stopped"] = f"{in_a_row} operations failed in a row"
                    break
                continue
            finally:
                if self.tracer is not None:
                    self.tracer.op = -1
            in_a_row = 0
            spans.append((op_start, op_end))
            self.points += points
            window += self.clock.measure(op_start, op_end)[1]
            index += 1
        end = time.monotonic()
        probes.append(self._probe())
        reference = [self.clock.measure(*span)[1] if span else 0.0 for span in spans]
        size = self.round_size
        self.result.update(
            probe_ms=probes,
            window_s=sum(reference),
            wall_window_s=sum(span[1] - span[0] for span in spans if span),
            op_ms=[1000.0 * sum(reference[i : i + size]) for i in range(0, len(reference), size)],
        )
        return start, end


# ----------------------------------------------------------------------
# cold_sweep
# ----------------------------------------------------------------------
class FreshFractions:
    """Budget fractions inside an app's declared range, never repeated.

    Every drawn fraction maps to an effective cycle budget no earlier
    point of the run used, so each drawn point is a new fingerprint.
    Draws are stratified: the i-th of ``k`` fractions falls in the i-th
    of ``k`` equal slices of the range, so the mix of tight and loose
    budgets (and with it the work per sweep) does not depend on the seed.
    """

    def __init__(self, space: Any, rng: random.Random) -> None:
        self.space = space
        self.rng = rng
        self.low = min(space.budget_fractions)
        self.high = max(space.budget_fractions)
        self.used = {space.effective_budget(f) for f in space.budget_fractions}

    def draw(self, k: int) -> Tuple[float, ...]:
        width = (self.high - self.low) / k
        fractions = []
        for i in range(k):
            while True:
                fraction = round(self.rng.uniform(self.low + i * width, self.low + (i + 1) * width), 6)
                budget = self.space.effective_budget(fraction)
                if fraction != 1.0 and budget not in self.used:
                    break
            self.used.add(budget)
            fractions.append(fraction)
        return tuple(fractions)


class ColdSweep(Workload):
    """Exhaustive sweeps, each with a fresh Explorer over a fresh disk cache.

    A round sweeps cavity, wavelet and motion once each, in a seeded
    order.  Round 0 uses each app's declared axes (checked against the
    golden files); later rounds draw fresh budget fractions, so every
    point is a new fingerprint and runs the oracle.
    """

    round_size = len(REGISTRY_APPS)

    def setup(self) -> None:
        from repro import api

        self.api = api
        self.fresh = {}
        self.golden = {}
        self.registers = {}
        for app in REGISTRY_APPS:
            space = api.DesignSpace.for_app(app)
            for variant in space.variant_names:
                self.registers[app, variant] = checks.register_groups(space.program(variant))
            self.fresh[app] = FreshFractions(space, self.rng)
            self.golden[app] = checks.load_golden(self.root, app)
        self.plan: List[Tuple[str, Optional[Tuple[float, ...]]]] = []

    def _plan(self, index: int) -> Tuple[str, Optional[Tuple[float, ...]]]:
        while len(self.plan) <= index:
            first = not self.plan
            for app in self.rng.sample(REGISTRY_APPS, len(REGISTRY_APPS)):
                if first:
                    self.plan.append((app, None))
                else:
                    declared = len(self.fresh[app].space.budget_fractions)
                    self.plan.append((app, self.fresh[app].draw(declared)))
        return self.plan[index]

    def operation(self, index: int) -> Tuple[float, float, int]:
        api = self.api
        app, fractions = self._plan(index)
        cache_dir = self.work / "caches" / str(index)
        space = api.DesignSpace.for_app(app)
        if fractions is not None:
            space.budget_fractions = fractions
        start = time.monotonic()
        explorer = api.Explorer(space, cache=str(cache_dir), on_error="skip")
        result = explorer.run(api.ExhaustiveSweep())
        end = time.monotonic()
        explorer.close()
        points = len(result.records) + len(explorer.failures)
        oracle = explorer.cache.misses
        self.infeasible += len(explorer.failures)
        self.record_counts([points, oracle, len(explorer.failures)])
        problems = []
        if points != len(space) or oracle != len(space):
            problems.append(
                f"{app}: {points} points and {oracle} oracle calls for a "
                f"cold {len(space)}-point sweep"
            )
        if fractions is None:
            problems += checks.diff(
                self.golden[app], checks.sweep_payload(result, explorer.failures)
            )
        else:
            for record in result.records:
                problems += checks.invariant_errors(
                    record.report,
                    record.point.n_onchip,
                    self.registers[app, record.point.variant],
                )
        if problems:
            self.fail(f"op {index} {app}: " + "; ".join(problems[:3]))
        shutil.rmtree(cache_dir, ignore_errors=True)
        return start, end, points


# ----------------------------------------------------------------------
# btpc_oracle
# ----------------------------------------------------------------------
class BtpcOracle(Workload):
    """Cold single-point evaluations of the paper's BTPC table rows.

    A round evaluates one row of each of Tables 1 to 4, each with a
    fresh Explorer (cold in-memory cache); no fingerprint repeats within
    a run.  Round 0 holds the row of each table that the paper's greedy
    walk decided on, in a seeded order; later rounds draw the tables'
    other rows in a seeded order.  Rows differ in cost (3 to 10 s) and
    a run holds one round at today's speed, so a seed-drawn first round
    would change the work per run with the seed; the fixed first round
    does not.  When a table has no fresh row for another round, the
    window ends.
    """

    round_size = 4
    TABLES = ("table1_structuring", "table2_hierarchy", "table3_cycle_budget", "table4_allocation")

    def setup(self) -> None:
        from repro import api

        self.api = api
        study = api.BtpcStudy()
        self.space = study.space
        for variant in self.space.variant_names:
            self.space.program(variant)
        golden = checks.load_golden(self.root, "btpc_tables")
        self.full_budget = self.space.cycle_budget
        probe = api.Explorer(self.space)
        #: Per table: its rows as (point, table, golden row, fingerprint),
        #: the paper's decision first.
        self.strata: List[List[Tuple[Any, str, Dict[str, Any], str]]] = []
        for step, table in zip(study.greedy_steps(), self.TABLES):
            fingerprints = probe.fingerprint_points(step.points)
            rows = [
                (point, table, row, fp)
                for point, row, fp in zip(step.points, golden[table], fingerprints)
            ]
            decided = [row for row in rows if row[0].display_label == step.select]
            others = [row for row in rows if row[0].display_label != step.select]
            self.rng.shuffle(others)
            self.strata.append(decided + others)
        self.used: set = set()
        self.round: List[Tuple[Any, str, Dict[str, Any], str]] = []

    def _next_round(self) -> List[Tuple[Any, str, Dict[str, Any], str]]:
        """One fresh row per table, in a seeded order."""
        rows = []
        for stratum in self.strata:
            taken = self.used | {row[3] for row in rows}
            row = next((row for row in stratum if row[3] not in taken), None)
            if row is None:
                raise WindowExhausted(f"{stratum[0][1]} has no fresh row for another round")
            rows.append(row)
        return self.rng.sample(rows, len(rows))

    def operation(self, index: int) -> Tuple[float, float, int]:
        api = self.api
        if index % self.round_size == 0:
            self.round = self._next_round()
        candidate = self.round[index % self.round_size]
        point, table, golden_row, fingerprint = candidate
        self.used.add(fingerprint)
        start = time.monotonic()
        explorer = api.Explorer(self.space)
        record = explorer.evaluate(point)
        end = time.monotonic()
        oracle = explorer.cache.misses
        self.record_counts([1, oracle, 0])
        live = checks.report_row(record.report)
        if table == "table3_cycle_budget":
            live["extra_cycles"] = self.full_budget - record.report.cycles_used
        if table == "table4_allocation":
            live["n_onchip"] = point.n_onchip
        problems = checks.diff(golden_row, live, f"{table}[{point.display_label}]")
        if oracle != 1 or record.fingerprint != fingerprint:
            problems.append(f"{oracle} oracle calls, fingerprint {record.fingerprint[:12]}")
        if problems:
            self.fail(f"op {index}: " + "; ".join(problems[:3]))
        return start, end, 1


# ----------------------------------------------------------------------
# warm_resweep
# ----------------------------------------------------------------------
def fill_corpus(api: Any, corpus: Path, spaces: Sequence[Any]) -> Tuple[Dict[str, List[float]], set]:
    """Cold-sweep ``spaces`` into the on-disk corpus.

    Returns the reference values of every evaluated fingerprint and the
    keys (:func:`point_key`) of the infeasible points.
    """
    reference: Dict[str, List[float]] = {}
    infeasible: set = set()
    for space in spaces:
        explorer = api.Explorer(space, cache=str(corpus), on_error="skip")
        result = explorer.run(api.ExhaustiveSweep())
        for record in result.records:
            reference[record.fingerprint] = checks.reference_values(record.report)
        for point, _error in explorer.failures:
            infeasible.add(point_key(space.name, point.to_dict()))
        explorer.close()
    return reference, infeasible


class WarmResweep(Workload):
    """Re-sweeps over an on-disk corpus filled during set-up.

    The corpus holds each app's declared space plus one seed-drawn set
    of budget fractions.  A round re-sweeps every app once, in a seeded
    order, each time over a seed-chosen one of its two corpus spaces,
    with a fresh Explorer and a fresh EvaluationCache: the oracle must
    never run.
    """

    round_size = len(REGISTRY_APPS)

    def setup(self) -> None:
        from repro import api

        self.api = api
        self.corpus = self.work / "corpus"
        self.choices: Dict[str, List[Tuple[float, ...]]] = {}
        spaces = []
        for app in REGISTRY_APPS:
            space = api.DesignSpace.for_app(app)
            declared = tuple(space.budget_fractions)
            drawn = FreshFractions(space, self.rng).draw(len(declared))
            self.choices[app] = [declared, drawn]
            for fractions in (declared, drawn):
                space = api.DesignSpace.for_app(app)
                space.budget_fractions = fractions
                spaces.append(space)
        self.reference, self.infeasible_keys = fill_corpus(api, self.corpus, spaces)
        self.plan: List[Tuple[str, Tuple[float, ...]]] = []

    def _plan(self, index: int) -> Tuple[str, Tuple[float, ...]]:
        while len(self.plan) <= index:
            for app in self.rng.sample(REGISTRY_APPS, len(REGISTRY_APPS)):
                self.plan.append((app, self.rng.choice(self.choices[app])))
        return self.plan[index]

    def operation(self, index: int) -> Tuple[float, float, int]:
        api = self.api
        app, fractions = self._plan(index)
        space = api.DesignSpace.for_app(app)
        space.budget_fractions = fractions
        start = time.monotonic()
        cache = api.EvaluationCache(str(self.corpus))
        explorer = api.Explorer(space, cache=cache, on_error="skip")
        result = explorer.run(api.ExhaustiveSweep())
        end = time.monotonic()
        points = len(result.records) + len(explorer.failures)
        self.infeasible += len(explorer.failures)
        self.record_counts([points, cache.misses, len(explorer.failures)])
        problems = []
        if cache.misses or points != len(space):
            problems.append(f"{cache.misses} oracle calls, {points}/{len(space)} points")
        for point, _error in explorer.failures:
            if point_key(app, point.to_dict()) not in self.infeasible_keys:
                problems.append(f"{point.display_label}: infeasible only on re-sweep")
        for record in result.records:
            if not checks.matches_reference(self.reference, record.fingerprint, record.report):
                problems.append(f"{record.label}: differs from the corpus")
                break
        if problems:
            self.fail(f"op {index} {app}: " + "; ".join(problems))
        return start, end, points


# ----------------------------------------------------------------------
# serve_mixed
# ----------------------------------------------------------------------
_BANNER = re.compile(r"serving on (?:http://)?([\w.\-]+):(\d+)")


class _Stream:
    """One NDJSON sweep request over a keep-alive connection, timed."""

    def __init__(self, connection: Any, payload: Dict[str, Any]) -> None:
        self.status = 0
        self.error = "stream ended without an end event"
        self.events: List[Dict[str, Any]] = []
        body = json.dumps(payload).encode("utf-8")
        self.sent = time.monotonic()
        connection.request(
            "POST", "/v1/sweep", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        self.headers = time.monotonic()
        self.status = response.status
        self.first: Optional[float] = None
        self.gaps: List[float] = []
        self.end: Optional[float] = None
        #: Points resolved: record and failure events.
        self.points = 0
        if response.status >= 400:
            self.error = response.read().decode("utf-8", "replace")[:200]
            return
        last = None
        while True:
            line = response.readline()
            if not line:
                break
            if not line.strip():
                continue
            now = time.monotonic()
            event = json.loads(line)
            self.events.append(event)
            kind = event.get("type")
            if kind in ("record", "failure"):
                self.points += 1
                if self.first is None:
                    self.first = now
                if last is not None:
                    self.gaps.append(now - last)
                last = now
            elif kind == "end":
                self.end = now
                break
        if self.end is not None:
            response.read()


class ServeMixed(Workload):
    """The sweep service over the network cache tier, two closed-loop clients.

    ``python -m repro.service`` runs with ``--cache remote://...`` in
    front of ``python -m repro.cacheserver`` serving a disk corpus.  The
    two clients run closed loops in lockstep: in every slot each sends
    one request and both wait for both answers.  A block of twelve
    slots holds, in a seeded order:

    * eight slots of warm sweeps beside warm sweeps (24 corpus points,
      three batches each);
    * two slots where one client's cold slice (four points at a fresh
      budget fraction) runs beside the other client's warm sweep, one
      for each client, so warm requests also meet oracle work;
    * one slot of one cold slice sent by both clients (single flight);
    * one slot of budgeted ``strategy: "frontier"`` sweeps over fresh
      fractions, one per client.

    Per client that is nine warm requests in twelve: the median sits
    inside the warm latency mode, the 90th percentile inside the cold
    and frontier one.  The window runs at least ``MIN_BLOCKS`` blocks,
    so a run always holds the 100 requests a 90th percentile needs.
    """

    traces_in_process = False
    BLOCK = 12
    MIN_BLOCKS = 5
    BATCH = 8
    WARM = 24
    SLICE = 4
    COLD_APPS = ("cavity", "wavelet")

    def setup(self) -> None:
        from repro import api

        self.api = api
        self.procs: Dict[str, subprocess.Popen] = {}
        self.corpus = self.work / "corpus"
        self.spaces = {}
        self.fresh = {}
        self.registers = {}
        #: Every corpus point per app, as request payload points.
        self.warm_points: Dict[str, List[Dict[str, Any]]] = {}
        corpus_spaces = []
        for app in REGISTRY_APPS:
            space = api.DesignSpace.for_app(app)
            self.spaces[app] = space
            for variant in space.variant_names:
                self.registers[app, variant] = checks.register_groups(space.program(variant))
            self.fresh[app] = FreshFractions(space, self.rng)
            declared = tuple(space.budget_fractions)
            self.warm_points[app] = []
            for fractions in (declared, self.fresh[app].draw(len(declared))):
                corpus_space = api.DesignSpace.for_app(app)
                corpus_space.budget_fractions = fractions
                corpus_spaces.append(corpus_space)
                self.warm_points[app] += [p.to_dict() for p in corpus_space.points()]
        self.reference, self.infeasible_keys = fill_corpus(api, self.corpus, corpus_spaces)
        self.cache_addr = self._boot(
            "cacheserver",
            [sys.executable, "-m", "repro.cacheserver", "--port", "0", "--cache", str(self.corpus)],
        )
        # The launcher runs the service's own main with the host clock
        # (and, traced, the wrappers) installed.
        self.tick_file = self.work / "service-ticks.json"
        self.span_file = self.work / "service-spans.jsonl"
        command = [
            sys.executable,
            str(Path(__file__).with_name("service_launcher.py")),
            str(self.tick_file),
            str(self.span_file) if self.args.trace else "-",
            "--port", "0",
            "--cache", "remote://%s:%d" % self.cache_addr,
            "--preload", *REGISTRY_APPS,
        ]
        self.service_addr = self._boot("service", command)
        import http.client

        self.http = http.client
        # Warm-up: build every app's variant programs inside the service.
        connection = http.client.HTTPConnection(*self.service_addr, timeout=120)
        for app in REGISTRY_APPS:
            stream = _Stream(connection, {"app": app})
            if stream.status != 200 or stream.end is None:
                raise RuntimeError(f"warm-up sweep of {app} failed ({stream.status})")
        connection.close()
        self.remote = api.RemoteCache(*self.cache_addr)

    def _boot(self, name: str, command: List[str]) -> Tuple[str, int]:
        """Start a server; returns the address from its banner line."""
        with open(self.work / f"{name}.log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(
                command, cwd=self.work, stdout=subprocess.PIPE, stderr=log, text=True
            )
        self.procs[name] = proc
        assert proc.stdout is not None
        line = proc.stdout.readline()
        match = _BANNER.search(line)
        if match is None:
            raise RuntimeError(f"{name} did not start: {line!r}")
        return match.group(1), int(match.group(2))

    def teardown(self) -> None:
        """Drain both servers; each must exit 0."""
        remote = getattr(self, "remote", None)
        if remote is not None:
            remote.close()
        for name in ("service", "cacheserver"):
            proc = self.procs.get(name)
            if proc is None:
                continue
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            if proc.returncode != 0:
                self.fail(f"{name} exited {proc.returncode} after SIGTERM")

    def kill(self) -> None:
        for proc in getattr(self, "procs", {}).values():
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    def peak_rss_mb(self) -> float:
        return self._service_rss

    # -- requests ------------------------------------------------------
    def _point(self, app: str, fraction: float) -> Dict[str, Any]:
        space = self.spaces[app]
        return {
            "variant": self.rng.choice(space.variant_names),
            "budget_fraction": fraction,
            "n_onchip": self.rng.choice(space.onchip_counts),
            "library": self.rng.choice(list(space.libraries)),
        }

    def _cold_slice(self) -> Dict[str, Any]:
        app = self.rng.choice(self.COLD_APPS)
        (fraction,) = self.fresh[app].draw(1)
        points: List[Dict[str, Any]] = []
        while len(points) < self.SLICE:
            point = self._point(app, fraction)
            if point not in points:
                points.append(point)
        return {"app": app, "points": points, "batch_size": self.BATCH}

    def _warm(self) -> Dict[str, Any]:
        # Every warm sweep has the same size (three batches), so the
        # warm latency mode does not split by app.
        app = self.rng.choice(REGISTRY_APPS)
        points = self.rng.sample(self.warm_points[app], self.WARM)
        return {"app": app, "points": points, "batch_size": self.BATCH}

    def _frontier(self) -> Dict[str, Any]:
        declared = len(self.spaces["cavity"].budget_fractions)
        return {
            "app": "cavity",
            "strategy": "frontier",
            "budget_fractions": list(self.fresh["cavity"].draw(declared)),
            "budget": {"max_oracle_calls": 6},
            "batch_size": self.BATCH,
        }

    def _block(self) -> List[List[Tuple[str, Dict[str, Any]]]]:
        """Both clients' requests for one block (drawn in a fixed order).

        Which kinds meet in a slot is fixed by the plan (see the class
        docstring), not by which client happens to run ahead.
        """
        slots = [("warm", "warm")] * (self.BLOCK - 4) + [
            ("cold", "warm"),
            ("warm", "cold"),
            ("pair", "pair"),
            ("frontier", "frontier"),
        ]
        self.rng.shuffle(slots)
        draw = {"warm": self._warm, "cold": self._cold_slice, "frontier": self._frontier}
        plans: List[List[Tuple[str, Dict[str, Any]]]] = [[], []]
        for kinds in slots:
            shared = self._cold_slice() if kinds[0] == "pair" else None
            for deck, kind in zip(plans, kinds):
                deck.append((kind, shared if shared is not None else draw[kind]()))
        return plans

    def timed_window(self) -> Tuple[float, float]:
        # The program runs in the service; the client's own clock would
        # only measure its contention with it.  Timings are scaled by
        # the service's clock once it has drained (finish).
        self.clock.stop()
        probes = [host_probe_ms()]
        before = self._stats()
        deadline = time.monotonic() + self.args.seconds
        blocks: List[List[List[Tuple[str, Dict[str, Any]]]]] = []
        #: The service's oracle misses at the start of every block.
        misses: List[int] = []
        samples: List[Tuple[Tuple[int, int], str, Dict[str, Any], _Stream]] = []
        lock = threading.Lock()
        expired = threading.Event()
        slot = [-1]

        def next_slot() -> None:
            # Runs once per barrier trip, before either client is
            # released: both clients then read the same slot.  Between
            # blocks no request is in flight, so the service's counters
            # are read there; a new block starts only while the window
            # is open (and always for the first MIN_BLOCKS).
            slot[0] += 1
            if slot[0] % self.BLOCK == 0:
                misses.append(self._service_stats()["cache"]["misses"])
                if len(blocks) >= self.MIN_BLOCKS and time.monotonic() >= deadline:
                    expired.set()
                else:
                    blocks.append(self._block())

        barrier = threading.Barrier(2, action=next_slot)

        def client(index: int) -> None:
            connection = self.http.HTTPConnection(*self.service_addr, timeout=120)
            try:
                while True:
                    barrier.wait(timeout=300)
                    if expired.is_set():
                        return
                    block, position = divmod(slot[0], self.BLOCK)
                    kind, payload = blocks[block][index][position]
                    self._request(connection, (block, index), kind, payload, samples, lock)
            except threading.BrokenBarrierError:
                return
            except Exception as exc:  # noqa: BLE001 - counted and reported
                with lock:
                    self.fail(f"client {index}: {type(exc).__name__}: {exc}")
            finally:
                barrier.abort()
                connection.close()

        start = time.monotonic()
        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.monotonic()
        probes.append(host_probe_ms())
        after = self._stats()
        self._service_rss = _vm_hwm_mb(self.procs["service"].pid)
        cold_points: List[set] = [set() for _ in blocks]
        streamed: List[List[List[int]]] = [[[], []] for _ in blocks]
        for (block, index), kind, payload, stream in samples:
            self._check(kind, payload, stream, cold_points[block])
            streamed[block][index].append(stream.points)
        self._check_stats(before, after, set().union(*cold_points))
        for block in range(len(misses) - 1):
            # Stable: points streamed by the warm, cold and paired
            # requests.  The rest also depends on the frontier
            # strategy's proposals: every frontier's points, and the
            # block's oracle misses and distinct cold points.
            frontier = [
                position
                for position, (kind, _) in enumerate(blocks[block][0])
                if kind == "frontier"
            ]
            stable = [
                n
                for deck in streamed[block]
                for position, n in enumerate(deck)
                if position not in frontier
            ]
            self.stable_counts.append(stable)
            self.counts.append(
                stable
                + [deck[p] for deck in streamed[block] for p in frontier if p < len(deck)]
                + [misses[block + 1] - misses[block], len(cold_points[block])]
            )
        self.points = sum(stream.points for *_, stream in samples)
        requests = [
            {
                "kind": kind,
                "sent": stream.sent,
                "points": stream.points,
                "latency": stream.end - stream.sent,
                "first": None if stream.first is None else stream.first - stream.sent,
                "headers": stream.headers - stream.sent,
                "gaps": stream.gaps,
            }
            for _slot, kind, _payload, stream in samples
            if stream.end is not None
        ]
        self.result.update(probe_ms=probes, requests=requests)
        self.window = (start, end)
        return start, end

    def finish(self) -> None:
        """Scale the window and the latencies by the service's clock."""
        if self.tick_file.exists():
            measure = HostClock.read(str(self.tick_file)).measure
        else:
            self.fail("the service wrote no clock ticks")

            def measure(start: float, end: float) -> Tuple[float, float]:
                return end - start, end - start

        start, end = self.window
        self.result.update(
            wall_window_s=end - start,
            window_s=measure(start, end)[1],
            op_ms=[
                1000.0 * measure(r["sent"], r["sent"] + r["latency"])[1]
                for r in self.result["requests"]
            ],
        )

    def _request(
        self,
        connection: Any,
        slot: Tuple[int, int],
        kind: str,
        payload: Dict[str, Any],
        samples: list,
        lock: threading.Lock,
    ) -> None:
        """Send one request and keep its stream; checks run after the window."""
        with lock:
            self.attempted += 1
        try:
            stream = _Stream(connection, payload)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            with lock:
                self.fail(f"{kind} request: {type(exc).__name__}: {exc}")
            connection.close()
            return
        with lock:
            samples.append((slot, kind, payload, stream))

    def _check(self, kind: str, payload: Dict[str, Any], stream: _Stream, cold_points: set) -> None:
        """Check one request's stream: warm records against the corpus,
        cold ones against the report invariants."""
        app = payload["app"]
        problems = []
        if stream.status != 200 or stream.end is None:
            problems.append(f"HTTP {stream.status}: {stream.error}")
        expected = None
        for event in stream.events:
            kind_ = event.get("type")
            if kind_ == "record":
                record = event["record"]
                point = record["point"]
                report = self.api.CostReport.from_dict(record["report"])
                if kind == "warm":
                    if not checks.matches_reference(self.reference, record["fingerprint"], report):
                        problems.append(f"record {record['fingerprint'][:12]} differs from the corpus")
                else:
                    cold_points.add(point_key(app, point))
                    problems += checks.invariant_errors(
                        report, point["n_onchip"], self.registers[app, point["variant"]]
                    )
            elif kind_ == "failure":
                self.infeasible += 1
                key = point_key(app, event["point"])
                if kind != "warm":
                    cold_points.add(key)
                elif key not in self.infeasible_keys:
                    problems.append(f"warm point failed: {event.get('error')}")
            elif kind_ == "start" and "strategy" not in payload:
                expected = event.get("points")
        if stream.end is not None and "strategy" not in payload and stream.points != expected:
            problems.append(f"{stream.points} of {expected} points streamed")
        if problems:
            self.fail(f"{kind} {app}: " + "; ".join(problems[:3]))

    def _service_stats(self) -> Dict[str, Any]:
        connection = self.http.HTTPConnection(*self.service_addr, timeout=60)
        try:
            connection.request("GET", "/v1/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def _stats(self) -> Dict[str, Any]:
        return {"service": self._service_stats(), "cacheserver": self.remote.server_stats()}

    def _check_stats(self, before: Dict[str, Any], after: Dict[str, Any], cold_points: set) -> None:
        def delta(*path: str, side: str = "service") -> float:
            a, b = after[side], before[side]
            for key in path:
                a, b = a[key], b[key]
            return a - b

        misses = delta("cache", "misses")
        if misses != len(cold_points):
            self.fail(
                f"service ran the oracle {misses} times for {len(cold_points)} "
                "distinct cold points"
            )
        requests = after["service"]["requests"]
        rejected_keys = ("rejected_budget", "rejected_busy", "rejected_draining")
        self.result["service"] = {
            "service.requests": delta("requests", "total"),
            "service.rejected": sum(
                requests[k] - before["service"]["requests"][k] for k in rejected_keys
            ),
            "service.coalesced": delta("points", "coalesced"),
            "service.oracle_misses": misses,
            "cacheserver.requests": delta("requests", side="cacheserver"),
            "cacheserver.keys_requested": delta("keys_requested", side="cacheserver"),
            "cacheserver.keys_served": delta("keys_served", side="cacheserver"),
            "cacheserver.keys_stored": delta("keys_stored", side="cacheserver"),
            "cacheserver.errors": delta("errors", side="cacheserver"),
        }

    def layer_metrics(self, window: Tuple[float, float]) -> Dict[str, float]:
        spans, missing = tracing.read_spans(str(self.span_file))
        self.result["missing"] = missing
        start, end = window
        return tracing.aggregate(spans, lambda span: start <= span[3] <= end)


def point_key(app: str, point: Dict[str, Any]) -> Tuple[Any, ...]:
    return (app, point["variant"], float(point["budget_fraction"]), point["n_onchip"], point.get("library"))


def _vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process (Linux ``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported")


WORKLOADS = {
    "cold_sweep": ColdSweep,
    "btpc_oracle": BtpcOracle,
    "warm_resweep": WarmResweep,
    "serve_mixed": ServeMixed,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--count-balance", action="store_true")
    args = parser.parse_args(argv)
    clock = HostClock()
    clock_start = time.monotonic()
    clock.start()
    workload = WORKLOADS[args.workload](args, clock)
    result = workload.result
    try:
        workload.setup()
        result["first_op"] = time.monotonic()
        # run.py times set-up from the spawn; it needs the ticks' own
        # time and the speed ratio of the part this clock saw.
        raw, reference = clock.measure(clock_start, result["first_op"])
        result["setup_ticks_s"] = result["first_op"] - clock_start - raw
        result["setup_factor"] = reference / raw
        if not args.setup_only:
            window = workload.timed_window()
            result["window"] = window
            result["peak_rss_mb"] = workload.peak_rss_mb()
        clock.stop()
        workload.teardown()
        if not args.setup_only:
            workload.finish()
        if args.trace and not args.setup_only:
            result["layers"] = workload.layer_metrics(window)
        if workload.tracer is not None:
            result["missing"] = workload.tracer.missing
            workload.tracer.write(str(Path(args.work) / "spans.jsonl"))
    finally:
        clock.stop()
        workload.kill()
    result.update(
        attempted=workload.attempted,
        failed=workload.failed,
        infeasible=workload.infeasible,
        errors=workload.errors,
        points=workload.points,
        stable_counts=workload.stable_counts,
        counts=workload.counts,
        round_size=workload.round_size,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
