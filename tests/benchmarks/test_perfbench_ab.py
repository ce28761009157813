"""The perfbench A/B gate's verdict, driven with synthetic results.

``benchmarks/perfbench_ab.py`` takes minutes to run both trees; its
comparison is a pure function of the parsed results, checked here over
``BENCHMARK.json``'s real workloads and metrics.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "perfbench_ab", ROOT / "benchmarks" / "perfbench_ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
BASE = {"setup_s": 1.0, "points_per_s": 100.0, "peak_rss_mb": 40.0, "op_p50_ms": 10.0}


def result(correct=True, **scale):
    """One run's JSON result: every metric at its base value times ``scale``."""
    return {
        "correct": correct,
        "attempted": 12,
        "failed": 0 if correct else 1,
        "metrics": {
            name: {"value": value * scale.get(name, 1.0), "unit": "-"}
            for name, value in BASE.items()
        },
    }


def results(**change_scale):
    """Parent runs at the base values, change runs scaled on every workload."""
    return {
        "parent": {w: {seed: result() for seed in ab.SEEDS} for w in WORKLOADS},
        "change": {
            w: {seed: result(**change_scale) for seed in ab.SEEDS} for w in WORKLOADS
        },
    }


def test_the_real_metric_list_is_covered():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(BASE)


@pytest.mark.parametrize(
    "scale",
    [
        {},
        {"setup_s": 0.5, "points_per_s": 2.0, "peak_rss_mb": 0.8, "op_p50_ms": 0.5},
        {"points_per_s": 0.76},
        {"op_p50_ms": 1.24},
        {"peak_rss_mb": 1.09},
    ],
    ids=["identical", "improved", "pps-0.76x", "p50-1.24x", "rss-1.09x"],
)
def test_within_bounds_passes(scale):
    rows, failures = ab.compare(SPEC, results(**scale))
    assert failures == []
    assert len(rows) == len(WORKLOADS) * len(BASE)
    assert all(row.passed for row in rows)


@pytest.mark.parametrize(
    "metric, factor",
    [("points_per_s", 0.74), ("op_p50_ms", 1.26), ("peak_rss_mb", 1.11)],
)
def test_beyond_the_bound_fails_and_names_the_metric(metric, factor):
    rows, failures = ab.compare(SPEC, results(**{metric: factor}))
    failed = {(row.workload, row.metric) for row in rows if not row.passed}
    assert failed == {(w, metric) for w in WORKLOADS}
    assert len(failures) == len(WORKLOADS)
    assert all(metric in failure for failure in failures)


def test_one_slow_workload_is_the_one_named():
    runs = results()
    runs["change"]["warm_resweep"] = {
        seed: result(points_per_s=0.6) for seed in ab.SEEDS
    }
    _, failures = ab.compare(SPEC, runs)
    assert len(failures) == 1
    assert failures[0].startswith("warm_resweep: points_per_s")


def test_the_median_absorbs_one_outlier_run():
    runs = results()
    runs["change"]["cold_sweep"][1] = result(points_per_s=0.5)
    rows, failures = ab.compare(SPEC, runs)
    assert failures == []
    assert all(row.passed for row in rows)


@pytest.mark.parametrize("side", ab.SIDES)
def test_a_run_that_is_not_correct_fails(side):
    runs = results()
    runs[side]["serve_mixed"][2] = result(correct=False)
    _, failures = ab.compare(SPEC, runs)
    assert failures == [f'serve_mixed: {side} seed 2 reports "correct": false']


def test_a_run_without_a_result_fails():
    runs = results()
    runs["change"]["btpc_oracle"][3] = None
    rows, failures = ab.compare(SPEC, runs)
    assert failures == ["btpc_oracle: change seed 3 failed to run"]
    # The other seeds still give the workload its medians.
    assert {row.workload for row in rows} == set(WORKLOADS)


def test_a_workload_with_no_parent_result_fails():
    runs = results()
    del runs["parent"]["cold_sweep"]
    rows, failures = ab.compare(SPEC, runs)
    assert failures == ["cold_sweep: no parent result"]
    assert "cold_sweep" not in {row.workload for row in rows}


def test_report_is_one_markdown_table_with_a_verdict_per_row():
    rows, failures = ab.compare(SPEC, results(points_per_s=0.5))
    text = ab.report(rows, failures)
    table = [line for line in text.splitlines() if line.startswith("|")]
    assert table[0].split("|")[1:-1] == [
        " workload ",
        " metric ",
        " parent median ",
        " change median ",
        " change ",
        " bound ",
        " verdict ",
    ]
    assert len(table) == 2 + len(rows)
    assert "| warm_resweep | points_per_s | 100 | 50 | -50.0% | 25% | FAIL |" in text
    assert "| warm_resweep | setup_s | 1 | 1 | +0.0% | 25% | pass |" in text
    assert text.count("- failure: ") == len(WORKLOADS)
