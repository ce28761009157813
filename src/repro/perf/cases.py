"""Built-in perf cases: the throughput surface of the methodology.

Four scenario families per fast workload (registered on import, tagged
``quick`` when cheap enough for the CI gate):

* ``oracle_single_*`` — one cold ``run_pmm`` call: the raw cost of a
  single feedback evaluation, the floor every exploration pays.
* ``sweep_cold_*`` — a full default-space exhaustive sweep through a
  cold explorer: the realistic cold-start exploration path.
* ``resweep_memoized_*`` — the same sweep against an already-warm
  in-memory memo: measures the content-addressed cache's ceiling
  (fingerprinting is the only remaining cost).
* ``registry_sweep_warm_disk`` — every fast app swept into one shared
  :class:`~repro.explore.cache.DiskCache`, then re-swept by *fresh*
  explorer instances over the same directory: the cross-process /
  cross-run warm path (compact shard decoding included).  Zero oracle
  re-evaluations by construction.
* ``registry_resweep_warm_decoded`` — the same registry-wide re-sweep
  through one shared :class:`~repro.api.EvaluationCache` whose
  **decoded-report tier** is already warm: every probe resolves to a
  live :class:`~repro.costs.report.CostReport` without payload
  fetching or ``from_dict`` materialization.  This is the cache
  stack's in-process ceiling.
* ``registry_resweep_remote_warm`` — the registry re-swept by fresh
  :class:`~repro.explore.cache.RemoteCache` clients against a warm
  :mod:`repro.cacheserver` over loopback: the cross-machine warm path
  (one batched wire round trip per app sweep, compact records end to
  end).  Zero oracle re-evaluations by construction.

``sweep_parallel_cavity`` exercises the ``workers=N`` process pool from
cold (pool spin-up included), ``sweep_parallel_warm_pool_cavity``
measures a batch through an already-warm persistent pool, and
``oracle_single_btpc`` tracks the paper demonstrator's heavyweight
oracle (tagged ``full`` — too slow for the CI quick subset).

``frontier_vs_exhaustive_cavity`` (quick) and
``frontier_vs_exhaustive_btpc`` (full) pit :class:`LinearFrontier` at a
20% oracle-call budget against a cold exhaustive sweep of a densified
space, asserting the driver refactor's headline contract — at least 95%
of the exhaustive Pareto front at a fifth of the calls — and reporting
both oracle-call counts.

``service_concurrent_clients`` load-tests the sweep server: N client
threads stream overlapping warm-cache cavity sweeps over loopback HTTP
(single-flight + shared cache guarantee zero oracle re-evaluations) and
the per-sweep completion latency lands in the report as p50/p95/p99.
The 2-client ``service_concurrent_clients_quick`` variant carries the
``quick`` tag for the CI gate; the 8-client case is ``full``-tagged.

``service_first_result_latency`` times a service restart over a warm
disk corpus — cavity's space built live in the fresh process — until
the first record reaches a streaming client.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Tuple

from ..api import (
    DesignSpace,
    EvaluationCache,
    ExhaustiveSweep,
    Explorer,
    LinearFrontier,
    SearchBudget,
    front_coverage,
    pareto_front,
)
from .harness import CaseRun, PerfCase, register_case

#: Workloads whose oracle is cheap enough for repeated timing.
FAST_APPS: Tuple[str, ...] = ("cavity", "motion", "wavelet")


def _evals(explorer: Explorer) -> int:
    """Oracle-visible evaluations an explorer has resolved so far."""
    return explorer.cache.hits + explorer.cache.misses


# ----------------------------------------------------------------------
# Single-oracle and sweep cases, one per fast workload
# ----------------------------------------------------------------------
def _oracle_single(app: str) -> PerfCase:
    def setup() -> Any:
        explorer = Explorer.for_app(app)
        return explorer.request_for(explorer.space.points()[0])

    def run(request: Any) -> CaseRun:
        request.run()
        return CaseRun(evals=1, points=1)

    return PerfCase(
        name=f"oracle_single_{app}",
        run=run,
        setup=setup,
        tags=("quick", "oracle") if app in FAST_APPS else ("full", "oracle"),
        description=f"one cold run_pmm feedback call on the {app} baseline",
    )


def _sweep_cold(app: str) -> PerfCase:
    def run(_: Any) -> CaseRun:
        explorer = Explorer.for_app(app, on_error="skip")
        explorer.run(ExhaustiveSweep())
        return CaseRun(
            evals=_evals(explorer),
            points=len(explorer.space),
            cache=explorer.cache.stats_dict(),
        )

    return PerfCase(
        name=f"sweep_cold_{app}",
        run=run,
        tags=("quick", "sweep"),
        description=f"full default-space sweep of {app} through a cold explorer",
    )


def _resweep_memoized(app: str) -> PerfCase:
    def setup() -> Explorer:
        explorer = Explorer.for_app(app, on_error="skip")
        explorer.run(ExhaustiveSweep())
        # The warm-up misses are setup cost, not the measured path.
        explorer.cache.hits = explorer.cache.misses = 0
        return explorer

    def run(explorer: Explorer) -> CaseRun:
        before = _evals(explorer)
        result = explorer.run(ExhaustiveSweep())
        assert result.cache_hit_count() == len(result.records)
        return CaseRun(
            evals=_evals(explorer) - before,
            points=len(explorer.space),
            cache=explorer.cache.stats_dict(),
        )

    return PerfCase(
        name=f"resweep_memoized_{app}",
        run=run,
        setup=setup,
        tags=("quick", "memo"),
        description=f"warm re-sweep of {app}: memo lookups only, no oracle",
    )


# ----------------------------------------------------------------------
# Parallel batches
# ----------------------------------------------------------------------
def _sweep_parallel_cavity() -> PerfCase:
    def run(_: Any) -> CaseRun:
        # Context manager: the persistent pool is released with the
        # explorer; the measurement includes one cold pool spin-up.
        with Explorer.for_app("cavity", workers=2, on_error="skip") as explorer:
            explorer.run(ExhaustiveSweep())
            return CaseRun(
                evals=_evals(explorer),
                points=len(explorer.space),
                cache=explorer.cache.stats_dict(),
            )

    return PerfCase(
        name="sweep_parallel_cavity",
        run=run,
        tags=("parallel", "sweep"),
        description="cavity cold sweep fanned over a 2-process pool "
        "(includes pool spin-up)",
    )


def _sweep_parallel_warm_pool_cavity() -> PerfCase:
    def setup() -> Explorer:
        explorer = Explorer.for_app(
            "cavity", workers=2, min_parallel_batch=2, on_error="skip"
        )
        # Spin the persistent pool up on a two-point batch so the
        # timed sweep below measures reuse, not fork cost.
        explorer.evaluate_many(explorer.space.points()[:2])
        explorer.cache.hits = explorer.cache.misses = 0
        return explorer

    def run(explorer: Explorer) -> CaseRun:
        points = explorer.space.points()[2:]
        explorer.evaluate_many(points)
        return CaseRun(
            evals=_evals(explorer),
            points=len(points),
            cache=explorer.cache.stats_dict(),
        )

    def teardown(explorer: Any) -> None:
        if explorer is not None:
            explorer.close()

    return PerfCase(
        name="sweep_parallel_warm_pool_cavity",
        run=run,
        setup=setup,
        teardown=teardown,
        tags=("parallel", "sweep"),
        description="cavity cold batch through an already-warm "
        "persistent 2-process pool",
    )


# ----------------------------------------------------------------------
# Cross-run disk warm path
# ----------------------------------------------------------------------
def _registry_sweep_warm_disk() -> PerfCase:
    def setup() -> Dict[str, Any]:
        cache_dir = Path(tempfile.mkdtemp(prefix="repro-perf-cache-"))
        warm = EvaluationCache(path=cache_dir)
        for app in FAST_APPS:
            Explorer.for_app(app, cache=warm, on_error="skip").run(ExhaustiveSweep())
        return {"cache_dir": cache_dir}

    def run(state: Dict[str, Any]) -> CaseRun:
        # Fresh cache objects over the same directory: only the on-disk
        # entries carry over, exactly like a new process would see.
        shared = EvaluationCache(path=state["cache_dir"])
        evals = 0
        points = 0
        for app in FAST_APPS:
            explorer = Explorer.for_app(app, cache=shared, on_error="skip")
            result = explorer.run(ExhaustiveSweep())
            evals += len(result.records)
            points += len(explorer.space)
        if shared.misses:
            raise AssertionError(
                "warm DiskCache re-sweep re-ran the oracle "
                f"{shared.misses} time(s)"
            )
        return CaseRun(
            evals=evals,
            points=points,
            cache=shared.stats_dict(),
            notes="registry-wide re-sweep against a warm DiskCache "
            "(zero oracle re-evaluations)",
        )

    def teardown(state: Any) -> None:
        if state is not None:
            shutil.rmtree(state["cache_dir"], ignore_errors=True)

    return PerfCase(
        name="registry_sweep_warm_disk",
        run=run,
        setup=setup,
        teardown=teardown,
        tags=("quick", "disk", "memo"),
        description="all fast apps re-swept by fresh explorers over a "
        "warm on-disk cache",
    )


def _registry_resweep_warm_decoded() -> PerfCase:
    def setup() -> Dict[str, Any]:
        cache_dir = Path(tempfile.mkdtemp(prefix="repro-perf-decoded-"))
        shared = EvaluationCache(path=cache_dir)
        for app in FAST_APPS:
            Explorer.for_app(app, cache=shared, on_error="skip").run(ExhaustiveSweep())
        # One untimed re-sweep fills the decoded tier from disk; the
        # measured runs below never leave it.
        for app in FAST_APPS:
            Explorer.for_app(app, cache=shared, on_error="skip").run(ExhaustiveSweep())
        shared.hits = shared.misses = 0
        shared.decoded_hits = 0
        return {"cache": shared, "cache_dir": cache_dir}

    def run(state: Dict[str, Any]) -> CaseRun:
        shared = state["cache"]
        decoded_before = shared.decoded_hits
        evals = 0
        points = 0
        for app in FAST_APPS:
            explorer = Explorer.for_app(app, cache=shared, on_error="skip")
            result = explorer.run(ExhaustiveSweep())
            evals += len(result.records)
            points += len(explorer.space)
        if shared.misses:
            raise AssertionError(
                "warm decoded-tier re-sweep re-ran the oracle "
                f"{shared.misses} time(s)"
            )
        if shared.decoded_hits == decoded_before:
            raise AssertionError("decoded tier served no probes")
        return CaseRun(
            evals=evals,
            points=points,
            cache=shared.stats_dict(),
            notes="registry-wide re-sweep against a warm decoded-report "
            "tier (no payload decoding, zero oracle re-evaluations)",
        )

    def teardown(state: Any) -> None:
        if state is not None:
            shutil.rmtree(state["cache_dir"], ignore_errors=True)

    return PerfCase(
        name="registry_resweep_warm_decoded",
        run=run,
        setup=setup,
        teardown=teardown,
        tags=("quick", "memo", "decoded"),
        description="all fast apps re-swept through a warm decoded-report "
        "tier: live CostReports, no payload decoding",
    )


def _registry_resweep_remote_warm() -> PerfCase:
    def setup() -> Dict[str, Any]:
        from ..cacheserver import CacheServerConfig, CacheServerThread

        server = CacheServerThread(
            CacheServerConfig(host="127.0.0.1", port=0)
        ).start()
        warm = EvaluationCache(server.url)
        for app in FAST_APPS:
            Explorer.for_app(app, cache=warm, on_error="skip").run(ExhaustiveSweep())
        if not warm.flush(timeout=60):
            raise AssertionError("write-behind queue failed to drain into server")
        warm.close_backend()
        return {"server": server}

    def run(state: Dict[str, Any]) -> CaseRun:
        # A fresh client per run: every probe crosses the wire, exactly
        # like a new worker machine joining the fleet would.
        shared = EvaluationCache(state["server"].url)
        evals = 0
        points = 0
        for app in FAST_APPS:
            explorer = Explorer.for_app(app, cache=shared, on_error="skip")
            result = explorer.run(ExhaustiveSweep())
            evals += len(result.records)
            points += len(explorer.space)
        if shared.misses:
            raise AssertionError(
                "warm RemoteCache re-sweep re-ran the oracle "
                f"{shared.misses} time(s)"
            )
        stats = shared.stats_dict()
        shared.close_backend()
        return CaseRun(
            evals=evals,
            points=points,
            cache=stats,
            notes="registry-wide re-sweep by fresh RemoteCache clients "
            "against a warm cache server over loopback (zero oracle "
            "re-evaluations)",
        )

    def teardown(state: Any) -> None:
        if state is not None:
            state["server"].stop()

    return PerfCase(
        name="registry_resweep_remote_warm",
        run=run,
        setup=setup,
        teardown=teardown,
        tags=("quick", "remote", "memo"),
        description="all fast apps re-swept by fresh remote-cache clients "
        "against a warm loopback cache server",
    )


# ----------------------------------------------------------------------
# Frontier search vs the exhaustive oracle sweep
# ----------------------------------------------------------------------
def _densified_space(app: str, budget_fractions, onchip_counts) -> DesignSpace:
    """The app's registered space with extra axis values.

    The default spaces are small enough that a 20% oracle budget is a
    rounding artifact; densifying the budget-fraction / on-chip axes
    makes the frontier's sub-linear call count a real, measurable win.
    """
    space = DesignSpace.for_app(app)
    space.budget_fractions = budget_fractions
    space.onchip_counts = onchip_counts
    return space


def _frontier_vs_exhaustive(
    name: str, app: str, budget_fractions, onchip_counts, tags
) -> PerfCase:
    def run(_: Any) -> CaseRun:
        space = _densified_space(app, budget_fractions, onchip_counts)
        with Explorer(space, on_error="skip") as explorer:
            full = explorer.run(ExhaustiveSweep())
        reference = pareto_front([r.report for r in full.records])
        budget = SearchBudget(
            max_oracle_calls=max(1, math.floor(0.20 * full.oracle_calls))
        )
        with Explorer(space, on_error="skip") as explorer:
            frontier = explorer.explore(LinearFrontier(), budget=budget)
        coverage = front_coverage(
            reference, [r.report for r in frontier.records]
        )
        # The PR 10 acceptance contract, enforced on every perf run:
        # >= 95% of the exhaustive front at <= 20% of its oracle calls.
        assert coverage >= 0.95, f"{app} frontier coverage {coverage:.3f}"
        assert frontier.oracle_calls <= 0.20 * full.oracle_calls, (
            f"{app} frontier spent {frontier.oracle_calls} oracle calls "
            f"vs exhaustive {full.oracle_calls}"
        )
        return CaseRun(
            evals=full.oracle_calls + frontier.oracle_calls,
            points=len(space),
            cache={
                "exhaustive_oracle_calls": full.oracle_calls,
                "frontier_oracle_calls": frontier.oracle_calls,
                "frontier_rounds": len(frontier.rounds),
            },
            notes=(
                f"frontier {frontier.oracle_calls} vs exhaustive "
                f"{full.oracle_calls} oracle calls, "
                f"coverage {coverage:.3f}"
            ),
        )

    return PerfCase(
        name=name,
        run=run,
        tags=tags,
        description=(
            f"cold LinearFrontier at a 20% oracle budget vs a cold "
            f"exhaustive sweep of a densified {app} space (asserts "
            f">= 95% front coverage)"
        ),
    )


def _frontier_vs_exhaustive_cavity() -> PerfCase:
    return _frontier_vs_exhaustive(
        "frontier_vs_exhaustive_cavity",
        "cavity",
        budget_fractions=(1.0, 0.95, 0.9, 0.85, 0.8),
        onchip_counts=(None, 2, 4, 6),
        tags=("quick", "frontier", "sweep"),
    )


def _frontier_vs_exhaustive_btpc() -> PerfCase:
    # The paper demonstrator's heavyweight oracle: ~6 minutes for the
    # pair of sweeps, so full-tagged like oracle_single_btpc.
    return _frontier_vs_exhaustive(
        "frontier_vs_exhaustive_btpc",
        "btpc",
        budget_fractions=(1.0, 0.9, 0.82, 0.7, 0.6, 0.5),
        onchip_counts=(None, 4, 14),
        tags=("full", "frontier", "sweep"),
    )


# ----------------------------------------------------------------------
# Service restart: first-result latency
# ----------------------------------------------------------------------
def _cold_process(app: str) -> None:
    """Defeat the in-process warm layers a fresh process lacks.

    Two caches survive between repeats and would otherwise make the
    "cold" measurement a lie: the registry's per-spec program cache and
    the process-wide canonical-fragment memo.
    """
    from ..apps.registry import get_app
    from ..explore.fingerprint import clear_fragment_memo

    spec = get_app(app)
    if hasattr(spec, "_program_cache"):
        object.__delattr__(spec, "_program_cache")
    clear_fragment_memo()


def _service_first_result_latency() -> PerfCase:
    def setup() -> Dict[str, Any]:
        state_dir = Path(tempfile.mkdtemp(prefix="repro-perf-firstresult-"))
        warm = EvaluationCache(path=state_dir / "cache")
        Explorer.for_app("cavity", cache=warm, on_error="skip").run(ExhaustiveSweep())
        return {"dir": state_dir}

    def run(state: Dict[str, Any]) -> CaseRun:
        from ..service import ServiceClient, ServiceConfig, ServiceThread

        _cold_process("cavity")
        first_s = None
        # The restart path end to end: boot the service over the warm
        # corpus and time until the first record reaches a streaming
        # client — the live space build included.
        start = time.perf_counter()
        cache = EvaluationCache(path=state["dir"] / "cache")
        server = ServiceThread(ServiceConfig(port=0), cache=cache).start()
        try:
            with ServiceClient(*server.address) as client:
                events = []
                for event in client.sweep("cavity"):
                    if first_s is None and event["type"] == "record":
                        first_s = time.perf_counter() - start
                    events.append(event)
        finally:
            server.stop()
        if first_s is None:
            raise AssertionError("sweep streamed no records")
        if cache.misses:
            raise AssertionError(
                f"warm first-result boot re-ran the oracle {cache.misses} time(s)"
            )
        assert events[-1]["type"] == "end"
        stats = cache.stats_dict()
        stats["first_record_ms"] = round(first_s * 1e3, 3)
        return CaseRun(
            evals=len(events) - 2,  # minus the start and end frames
            points=len(events) - 2,
            cache=stats,
            notes="service boot to first streamed record over a warm "
            f"corpus: {first_s * 1e3:.1f}ms",
        )

    def teardown(state: Any) -> None:
        if state is not None:
            shutil.rmtree(state["dir"], ignore_errors=True)

    return PerfCase(
        name="service_first_result_latency",
        run=run,
        setup=setup,
        teardown=teardown,
        tags=("quick", "service"),
        description="service restart to first streamed record over a warm "
        "disk corpus",
    )


# ----------------------------------------------------------------------
# Serving explorations: concurrent clients against one warm server
# ----------------------------------------------------------------------
def _percentile(sorted_samples: "list[float]", q: float) -> float:
    """The q-quantile (0..1) of pre-sorted samples, nearest-rank."""
    index = max(0, math.ceil(q * len(sorted_samples)) - 1)
    return sorted_samples[index]


def _service_concurrent_clients(
    name: str, n_clients: int, sweeps_per_client: int, tags: Tuple[str, ...]
) -> PerfCase:
    """Warm-cache load: N clients stream overlapping cavity sweeps.

    Setup warms the shared cache directly (untimed) and boots a
    :class:`~repro.service.ServiceThread` on an ephemeral port; the
    timed window covers only the serving path — admission, single
    flight, cache probes and NDJSON streaming over loopback HTTP.
    Per-sweep completion latency lands in the report as p50/p95/p99.
    """

    def setup() -> Dict[str, Any]:
        from ..service import ServiceConfig, ServiceThread

        cache = EvaluationCache()
        Explorer.for_app("cavity", cache=cache, on_error="skip").run(ExhaustiveSweep())
        server = ServiceThread(
            ServiceConfig(port=0, batch_size=8, max_inflight_batches=8),
            cache=cache,
        ).start()
        return {"server": server, "cache": cache}

    def run(state: Dict[str, Any]) -> CaseRun:
        import threading

        from ..service import ServiceClient

        server = state["server"]
        cache = state["cache"]
        misses_before = cache.misses
        latencies: "list[float]" = []
        lock = threading.Lock()
        errors: "list[BaseException]" = []
        barrier = threading.Barrier(n_clients)

        def client_loop() -> None:
            try:
                with ServiceClient(*server.address) as client:
                    barrier.wait(timeout=60)
                    for _ in range(sweeps_per_client):
                        start = time.perf_counter()
                        events = list(client.sweep("cavity"))
                        elapsed = time.perf_counter() - start
                        assert events[-1]["type"] == "end"
                        with lock:
                            latencies.append(elapsed)
            except BaseException as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client_loop) for _ in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        if errors:
            raise AssertionError(f"client failures: {errors!r}")
        if cache.misses != misses_before:
            raise AssertionError(
                "warm concurrent-client load re-ran the oracle "
                f"{cache.misses - misses_before} time(s)"
            )
        space_points = len(Explorer.for_app("cavity").space)
        latencies.sort()
        stats = cache.stats_dict()
        stats["latency_ms"] = {
            "clients": n_clients,
            "sweeps": len(latencies),
            "p50": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p95": round(_percentile(latencies, 0.95) * 1e3, 3),
            "p99": round(_percentile(latencies, 0.99) * 1e3, 3),
        }
        return CaseRun(
            evals=n_clients * sweeps_per_client * space_points,
            points=space_points,
            cache=stats,
            notes=f"{n_clients} concurrent clients x {sweeps_per_client} "
            "warm cavity sweeps over loopback HTTP (zero oracle "
            "re-evaluations)",
        )

    def teardown(state: Any) -> None:
        if state is not None:
            state["server"].stop()

    return PerfCase(
        name=name,
        run=run,
        setup=setup,
        teardown=teardown,
        tags=tags,
        description=f"{n_clients} concurrent clients streaming overlapping "
        "warm-cache cavity sweeps through the service",
    )


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def register_builtin_cases(replace: bool = False) -> None:
    """Register the built-in suite (idempotent with ``replace=True``)."""
    for app in FAST_APPS:
        register_case(_oracle_single(app), replace=replace)
        register_case(_sweep_cold(app), replace=replace)
        register_case(_resweep_memoized(app), replace=replace)
    register_case(_oracle_single("btpc"), replace=replace)
    register_case(_frontier_vs_exhaustive_cavity(), replace=replace)
    register_case(_frontier_vs_exhaustive_btpc(), replace=replace)
    register_case(_sweep_parallel_cavity(), replace=replace)
    register_case(_sweep_parallel_warm_pool_cavity(), replace=replace)
    register_case(_registry_sweep_warm_disk(), replace=replace)
    register_case(_registry_resweep_warm_decoded(), replace=replace)
    register_case(_registry_resweep_remote_warm(), replace=replace)
    register_case(_service_first_result_latency(), replace=replace)
    register_case(
        _service_concurrent_clients(
            "service_concurrent_clients", 8, 3, ("service", "full")
        ),
        replace=replace,
    )
    register_case(
        _service_concurrent_clients(
            "service_concurrent_clients_quick", 2, 2, ("quick", "service")
        ),
        replace=replace,
    )


register_builtin_cases(replace=True)
