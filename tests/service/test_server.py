"""The sweep server end to end: streaming, coalescing, admission.

Every test boots a real :class:`ServiceThread` on an ephemeral port and
talks to it over HTTP with :class:`ServiceClient`.  Oracle timing is
made deterministic by patching ``Explorer.evaluate_many`` — the server
runs in this process, so a class-level patch reaches its explorers.
"""

import socket
import threading
import time

import pytest

from repro.api import ExhaustiveSweep, Explorer
from repro.dtse import pipeline
from repro.explore.engine import ExplorationRecord
from repro.service import (
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceThread,
)

#: cavity's default space: 20 points, 6 infeasible (n_onchip=6 corners).
CAVITY_POINTS = 20
CAVITY_RECORDS = 14
CAVITY_FAILURES = 6


@pytest.fixture()
def server():
    with ServiceThread(ServiceConfig(port=0, batch_size=4)) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServiceClient(*server.address) as c:
        yield c


class OracleGate:
    """Wrap ``Explorer.evaluate_many`` with a hold point and a call log."""

    def __init__(self, monkeypatch, delay=0.0):
        self.calls = []
        self.release = threading.Event()
        self.release.set()
        original = Explorer.evaluate_many
        gate = self

        def wrapped(explorer, points, step=""):
            gate.calls.append(len(points))
            gate.release.wait(timeout=30)
            if delay:
                time.sleep(delay)
            return original(explorer, points, step)

        monkeypatch.setattr(Explorer, "evaluate_many", wrapped)

    def hold(self):
        self.release.clear()


# ----------------------------------------------------------------------
# Introspection endpoints
# ----------------------------------------------------------------------
def test_health_and_apps(client):
    health = client.health()
    assert health["status"] == "ok"
    assert "cavity" in health["apps"]
    apps = client.apps()
    assert apps["cavity"]["loaded"] is False
    assert "baseline" in apps["cavity"]["variants"]


def test_stats_reflect_served_work(server, client):
    list(client.sweep("cavity", variants=["baseline"], onchip_counts=[None]))
    stats = client.stats()
    assert stats["requests"]["total"] == 1
    assert stats["points"]["records_served"] == 2
    assert stats["apps"]["loaded"] == ["cavity"]
    assert stats["cache"]["misses"] == 2
    assert stats["config"]["batch_size"] == 4


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def test_full_sweep_stream(server, client):
    events = list(client.sweep("cavity"))
    assert events[0]["type"] == "start"
    assert events[0]["points"] == CAVITY_POINTS
    assert events[-1]["type"] == "end"
    kinds = [e["type"] for e in events[1:-1]]
    assert kinds.count("record") == CAVITY_RECORDS
    assert kinds.count("failure") == CAVITY_FAILURES
    summary = events[-1]["summary"]
    assert summary["records"] == CAVITY_RECORDS
    assert summary["failures"] == CAVITY_FAILURES
    assert summary["batches"] == 5
    assert summary["cache"]["misses"] == CAVITY_POINTS


def test_sweep_records_match_direct_evaluation(server, client):
    served = client.sweep_records("cavity")
    explorer = Explorer.for_app("cavity", on_error="skip")
    direct = explorer.evaluate_many(explorer.space.points(), "direct")
    assert [r.fingerprint for r in served] == [r.fingerprint for r in direct]
    assert [r.report.to_dict() for r in served] == [
        r.report.to_dict() for r in direct
    ]


def test_warm_sweep_serves_from_cache(server, client):
    list(client.sweep("cavity"))
    events = list(client.sweep("cavity"))
    summary = events[-1]["summary"]
    assert summary["records"] == CAVITY_RECORDS
    # Second pass: no new misses; every feasible point is a cache hit
    # (negatively cached corners are served without touching either
    # counter).
    assert summary["cache"]["misses"] == CAVITY_POINTS
    assert summary["cache"]["hits"] >= CAVITY_RECORDS


def test_streams_results_before_sweep_finishes(monkeypatch, server, client):
    gate = OracleGate(monkeypatch, delay=0.05)
    stream = client.sweep("cavity", batch_size=2)
    assert next(stream)["type"] == "start"
    event = next(stream)
    # The first record lands while most batches have not even been
    # submitted to the oracle: the stream is genuinely incremental.
    assert event["type"] in ("record", "failure")
    assert len(gate.calls) < CAVITY_POINTS // 2
    rest = list(stream)
    assert rest[-1]["type"] == "end"
    assert rest[-1]["summary"]["batches"] == CAVITY_POINTS // 2


def test_explicit_points_and_duplicates(server, client):
    point = {"variant": "baseline", "budget_fraction": 1.0}
    events = list(client.sweep("cavity", points=[point, point, point]))
    records = [e for e in events if e["type"] == "record"]
    assert len(records) == 3
    assert len({r["record"]["fingerprint"] for r in records}) == 1
    # The oracle ran once; the duplicates are in-batch coalesced.
    assert events[-1]["summary"]["cache"]["misses"] == 1


# ----------------------------------------------------------------------
# Strategy sweeps (the budgeted propose/observe driver over HTTP)
# ----------------------------------------------------------------------
def test_legacy_sweep_has_no_strategy_keys_or_progress(client):
    # Byte-compatibility: clients that send no "strategy" field get
    # exactly the protocol-1 stream — same summary keys, no progress.
    events = list(client.sweep("cavity"))
    assert {e["type"] for e in events} <= {"start", "record", "failure", "end"}
    assert sorted(events[-1]["summary"].keys()) == [
        "batches",
        "cache",
        "coalesced",
        "failures",
        "records",
    ]


def test_frontier_strategy_streams_progress_and_accounting(client):
    events = list(
        client.sweep(
            "cavity", strategy="frontier", budget={"max_oracle_calls": 8}
        )
    )
    assert events[0]["type"] == "start"
    assert events[-1]["type"] == "end"
    progress = [e["progress"] for e in events if e["type"] == "progress"]
    assert progress
    assert [p["round"] for p in progress] == list(range(1, len(progress) + 1))
    assert all("front_size" in p and "total_oracle_calls" in p for p in progress)
    summary = events[-1]["summary"]
    assert summary["strategy"] == "frontier"
    assert summary["rounds"] == len(progress)
    assert summary["oracle_calls"] <= 8
    assert summary["stopped"] in ("completed", "budget_exhausted")


def test_strategy_budget_exhausted_ends_stream_cleanly(client):
    # Budget exhaustion is an outcome, not an error: the stream ends
    # with a well-formed end event (HTTP 200 was already committed).
    events = list(
        client.sweep("cavity", strategy="exhaustive", budget={"max_points": 3})
    )
    assert events[-1]["type"] == "end"
    summary = events[-1]["summary"]
    assert summary["stopped"] == "budget_exhausted"
    assert summary["stop_reason"] == "max_points"
    assert summary["records"] == 3


def test_exhaustive_strategy_matches_legacy_sweep(server, client):
    legacy = {
        e["record"]["fingerprint"]
        for e in client.sweep("cavity")
        if e["type"] == "record"
    }
    via_strategy = {
        e["record"]["fingerprint"]
        for e in client.sweep("cavity", strategy="exhaustive")
        if e["type"] == "record"
    }
    assert via_strategy == legacy


def test_strategy_sweeps_share_the_service_cache(client):
    first = list(client.sweep("cavity", strategy="exhaustive"))[-1]["summary"]
    second = list(client.sweep("cavity", strategy="exhaustive"))[-1]["summary"]
    assert first["stopped"] == second["stopped"] == "completed"
    # The warm run does no new oracle work: the global miss counter is
    # unchanged.  (Its charged calls are exactly the cached *failures*
    # — they yield no record to prove the hit, so the driver's
    # conservative rule still bills them.)
    assert second["cache"]["misses"] == first["cache"]["misses"]
    assert second["oracle_calls"] == CAVITY_FAILURES


def test_strategy_with_restricted_axes(client):
    events = list(
        client.sweep(
            "cavity",
            strategy="exhaustive",
            variants=["baseline"],
            budget_fractions=[1.0, 0.9],
            onchip_counts=[None, 2],
        )
    )
    records = [e["record"] for e in events if e["type"] == "record"]
    assert records
    assert {r["point"]["variant"] for r in records} == {"baseline"}
    assert events[-1]["summary"]["stopped"] == "completed"


@pytest.mark.parametrize(
    "payload, code",
    [
        ({"app": "cavity", "strategy": "simulated-annealing"}, "unknown_strategy"),
        ({"app": "cavity", "strategy": 7}, "bad_request"),
        (
            {"app": "cavity", "strategy": "frontier", "budget": {"max_points": 0}},
            "bad_budget",
        ),
        (
            {"app": "cavity", "strategy": "frontier", "budget": {"bogus": 3}},
            "bad_budget",
        ),
        (
            {"app": "cavity", "strategy": "frontier", "budget": [3]},
            "bad_budget",
        ),
        ({"app": "cavity", "budget": {"max_points": 3}}, "bad_request"),
        (
            {
                "app": "cavity",
                "strategy": "frontier",
                "points": [{"variant": "baseline"}],
            },
            "bad_request",
        ),
        (
            {"app": "cavity", "strategy": "frontier", "variants": ["nope"]},
            "unknown_axis",
        ),
    ],
)
def test_malformed_strategy_requests_are_400s(client, payload, code):
    with pytest.raises(ServiceError) as excinfo:
        response = client._request("POST", "/v1/sweep", payload)
        response.read()
    assert excinfo.value.status == 400
    assert excinfo.value.code == code


# ----------------------------------------------------------------------
# Single-flight coalescing
# ----------------------------------------------------------------------
def _concurrent_sweeps(server, n_clients, **sweep_kwargs):
    """Run N clients' identical sweeps concurrently; return summaries."""
    barrier = threading.Barrier(n_clients)
    summaries = [None] * n_clients
    errors = []

    def worker(slot):
        try:
            with ServiceClient(*server.address) as c:
                barrier.wait(timeout=30)
                for event in c.sweep("cavity", **sweep_kwargs):
                    if event["type"] == "end":
                        summaries[slot] = event["summary"]
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors
    assert all(summary is not None for summary in summaries)
    return summaries


def test_single_flight_one_oracle_call_per_fingerprint(monkeypatch, server):
    gate = OracleGate(monkeypatch)
    gate.hold()
    release_thread = threading.Timer(0.3, gate.release.set)
    release_thread.start()
    try:
        summaries = _concurrent_sweeps(
            server, 6, variants=["baseline"], onchip_counts=[None]
        )
    finally:
        release_thread.cancel()
        gate.release.set()
    # 6 clients x 2 shared points: the oracle saw each fingerprint once.
    assert server.service.cache.misses == 2
    assert sum(gate.calls) == 2
    assert all(summary["records"] == 2 for summary in summaries)
    # Whoever did not own an in-flight point either awaited it
    # (coalesced) or hit the cache afterwards; nobody re-evaluated.
    assert server.service.cache.stats_dict()["hits"] >= 0


def test_single_flight_failure_fans_out(monkeypatch, server):
    gate = OracleGate(monkeypatch)
    gate.hold()
    release_thread = threading.Timer(0.3, gate.release.set)
    release_thread.start()
    try:
        # "gauss line buffer" x n_onchip=6 is infeasible: every client
        # must see the same negative outcome from one oracle attempt.
        summaries = _concurrent_sweeps(
            server, 4, variants=["gauss line buffer"]
        )
    finally:
        release_thread.cancel()
        gate.release.set()
    assert server.service.cache.misses == 4  # 2 feasible + 2 infeasible
    assert sum(gate.calls) == 4
    for summary in summaries:
        assert summary["records"] == 2
        assert summary["failures"] == 2


def count_oracle_calls(monkeypatch):
    """Log every ``run_pmm`` call (infeasible points enter it too)."""
    oracle_calls = []
    run_pmm = pipeline.run_pmm

    def counting_run_pmm(*args, **kwargs):
        oracle_calls.append(kwargs.get("label"))
        return run_pmm(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_pmm", counting_run_pmm)
    return oracle_calls


def test_eight_concurrent_clients_zero_duplicate_oracle_work(monkeypatch, server):
    """The acceptance load test: >=8 overlapping sweeps, one oracle pass.

    Oracle work is counted where it happens, at ``run_pmm``: infeasible
    points enter it too (and fail there), so every fingerprint costs
    exactly one call however the requests interleave.
    """
    oracle_calls = count_oracle_calls(monkeypatch)
    summaries = _concurrent_sweeps(server, 8)
    assert server.service.cache.misses == CAVITY_POINTS
    assert len(oracle_calls) == CAVITY_POINTS
    for summary in summaries:
        assert summary["records"] == CAVITY_RECORDS
        assert summary["failures"] == CAVITY_FAILURES
    stats = server.service.stats_payload()
    assert stats["points"]["records_served"] == 8 * CAVITY_RECORDS
    assert stats["points"]["failures_served"] == 8 * CAVITY_FAILURES
    # Every point beyond the one oracle pass was coalesced (awaited an
    # in-flight evaluation) or served from the shared cache; the
    # single-flight table is fully retired afterwards.
    assert stats["singleflight"]["inflight_keys"] == 0
    assert stats["cache"]["hits"] + stats["points"]["coalesced"] <= (
        8 * CAVITY_POINTS - CAVITY_POINTS
    )


def test_boot_over_a_warm_disk_corpus_streams_without_the_oracle(
    monkeypatch, tmp_path
):
    """A restarted service reads the corpus an earlier sweep left on disk."""
    Explorer.for_app("cavity", cache=str(tmp_path), on_error="skip").run(
        ExhaustiveSweep()
    )
    oracle_calls = count_oracle_calls(monkeypatch)
    with ServiceThread(ServiceConfig(port=0, cache_dir=tmp_path)) as thread:
        with ServiceClient(*thread.address) as client:
            events = list(client.sweep("cavity"))
    assert events[0]["type"] == "start"
    assert events[-1]["type"] == "end"
    kinds = [e["type"] for e in events[1:-1]]
    assert kinds.count("record") == CAVITY_RECORDS
    assert oracle_calls == []


# ----------------------------------------------------------------------
# /v1/evaluate
# ----------------------------------------------------------------------
def test_evaluate_single_point(client):
    body = client.evaluate("cavity", {"variant": "baseline"})
    record = ExplorationRecord.from_dict(body["record"])
    assert record.point.variant == "baseline"
    assert body["summary"]["records"] == 1


def test_evaluate_named_library_app_without_library(client):
    # motion's library axis has real names; omitting "library" in the
    # payload must evaluate against the app's first library.
    body = client.evaluate("motion", {"variant": "full-search"})
    assert body["record"]["point"]["library"] == "frames on-chip"


def test_evaluate_infeasible_point(client):
    body = client.evaluate(
        "cavity", {"variant": "gauss line buffer", "n_onchip": 6}
    )
    assert "record" not in body
    assert "cannot allocate" in body["failure"]["error"]


def test_evaluate_rejects_sweeps(server):
    with ServiceClient(*server.address) as c:
        with pytest.raises(ServiceError) as excinfo:
            c._json_call("POST", "/v1/evaluate", {"app": "cavity"})
        assert excinfo.value.code == "not_single_point"


# ----------------------------------------------------------------------
# Admission control and error mapping
# ----------------------------------------------------------------------
def test_over_budget_413():
    config = ServiceConfig(port=0, max_points_per_request=5)
    with ServiceThread(config) as server, ServiceClient(*server.address) as c:
        with pytest.raises(ServiceError) as excinfo:
            list(c.sweep("cavity"))
        assert excinfo.value.status == 413
        assert excinfo.value.code == "over_budget"
        assert server.service.rejected_budget == 1


def test_busy_429_with_retry_after(monkeypatch):
    config = ServiceConfig(port=0, max_pending_points=3, retry_after_seconds=7)
    with ServiceThread(config) as server:
        gate = OracleGate(monkeypatch)
        gate.hold()
        holder_done = threading.Event()

        def holder():
            with ServiceClient(*server.address) as c:
                list(c.sweep("cavity", variants=["baseline"], onchip_counts=[None]))
            holder_done.set()

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            # Wait until the holder's 2 points are admitted and parked
            # in the oracle gate.
            deadline = time.monotonic() + 10
            while not gate.calls and time.monotonic() < deadline:
                time.sleep(0.01)
            assert gate.calls
            with ServiceClient(*server.address) as c:
                with pytest.raises(ServiceError) as excinfo:
                    list(
                        c.sweep(
                            "cavity", variants=["baseline"], onchip_counts=[None, 6]
                        )
                    )
            assert excinfo.value.status == 429
            assert excinfo.value.code == "busy"
            assert excinfo.value.retry_after == 7
        finally:
            gate.release.set()
            thread.join(timeout=30)
        assert holder_done.is_set()
        assert server.service.rejected_busy == 1


def test_unknown_app_404(client):
    with pytest.raises(ServiceError) as excinfo:
        list(client.sweep("no-such-app"))
    assert excinfo.value.status == 404
    assert excinfo.value.code == "unknown_app"


def test_unknown_axis_400(client):
    with pytest.raises(ServiceError) as excinfo:
        list(client.sweep("cavity", variants=["no-such-variant"]))
    assert excinfo.value.status == 400
    assert excinfo.value.code == "unknown_axis"


def test_oversized_request_line_400(server):
    # A request line over the StreamReader limit (64 KiB) must come
    # back as a bounded 400, not kill the handler task with an
    # unhandled ValueError.
    with socket.create_connection(server.address, timeout=10) as sock:
        sock.sendall(b"GET /" + b"x" * (80 * 1024) + b" HTTP/1.1\r\n\r\n")
        data = sock.recv(4096)
    assert data.startswith(b"HTTP/1.1 400")


def test_half_sent_request_times_out_408(monkeypatch, server):
    import repro.service.server as server_module

    monkeypatch.setattr(server_module, "REQUEST_READ_TIMEOUT", 0.2)
    with socket.create_connection(server.address, timeout=10) as sock:
        # Promise a body, never send it: the read deadline must fire
        # instead of pinning the handler task forever.
        sock.sendall(b"POST /v1/sweep HTTP/1.1\r\nContent-Length: 100\r\n\r\n")
        data = sock.recv(4096)
    assert data.startswith(b"HTTP/1.1 408")


def test_unknown_route_and_method(client):
    with pytest.raises(ServiceError) as excinfo:
        client._json_call("GET", "/v1/nope")
    assert excinfo.value.status == 404
    with pytest.raises(ServiceError) as excinfo:
        client._json_call("DELETE", "/v1/sweep")
    assert excinfo.value.status == 405


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------
def test_stop_drains_cleanly():
    thread = ServiceThread(ServiceConfig(port=0)).start()
    with ServiceClient(*thread.address) as c:
        list(c.sweep("cavity", variants=["baseline"], onchip_counts=[None]))
    assert thread.drained is None  # still running
    assert thread.stop() is True
    assert thread.drained is True


def test_stop_with_idle_keepalive_client():
    # Regression: on Python >= 3.12.1, server.wait_closed() blocks
    # until every client connection is gone — shutdown must hang up
    # idle keep-alive clients itself, not wait for them.
    thread = ServiceThread(ServiceConfig(port=0)).start()
    with ServiceClient(*thread.address) as c:
        c.health()  # the connection now sits idle in keep-alive
        assert thread.stop(timeout=30) is True
    assert thread.drained is True


def test_stop_waits_for_inflight_sweep(monkeypatch):
    thread = ServiceThread(ServiceConfig(port=0, batch_size=4)).start()
    gate = OracleGate(monkeypatch, delay=0.05)
    events = []
    sweep_done = threading.Event()

    def sweeper():
        with ServiceClient(*thread.address) as c:
            events.extend(c.sweep("cavity"))
        sweep_done.set()

    worker = threading.Thread(target=sweeper)
    gate.hold()
    worker.start()
    try:
        deadline = time.monotonic() + 10
        while not gate.calls and time.monotonic() < deadline:
            time.sleep(0.01)
        assert gate.calls
        # Trigger the drain while the sweep is parked in the oracle,
        # then let it finish: the server must hold the door open.
        threading.Timer(0.1, gate.release.set).start()
        assert thread.stop(timeout=60) is True
    finally:
        gate.release.set()
        worker.join(timeout=60)
    assert sweep_done.is_set()
    assert events[-1]["type"] == "end"
    assert events[-1]["summary"]["records"] == CAVITY_RECORDS
