"""Output checks: golden snapshots and report invariants.

Declared-axis sweeps and BTPC table rows are compared with the
committed snapshots under ``tests/golden/`` at the golden harness's
tolerance; points off the declared grid have no snapshot, so they are
held to the invariants every cost report must satisfy.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: The golden harness's float tolerance (tests/golden/conftest.py).
REL_TOL = 1e-9
ABS_TOL = 1e-9


def load_golden(root: Path, name: str) -> Dict[str, Any]:
    with open(root / "tests" / "golden" / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def diff(expected: Any, actual: Any, path: str = "$") -> List[str]:
    """Human-readable differences between two JSON-shaped values."""
    # Round-trip so the live value is compared as the snapshot stores it.
    actual = json.loads(json.dumps(actual))
    mismatches: List[str] = []
    _diff(expected, actual, path, mismatches)
    return mismatches


def _diff(expected: Any, actual: Any, path: str, out: List[str]) -> None:
    if len(out) >= 10:
        return
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}.{key}: present on one side only")
            else:
                _diff(expected[key], actual[key], f"{path}.{key}", out)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(actual)} != golden {len(expected)}")
            return
        for index, (exp, act) in enumerate(zip(expected, actual)):
            _diff(exp, act, f"{path}[{index}]", out)
        return
    numeric = (
        isinstance(expected, (int, float))
        and not isinstance(expected, bool)
        and isinstance(actual, (int, float))
        and not isinstance(actual, bool)
    )
    if numeric:
        if not math.isclose(expected, actual, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"{path}: {actual!r} != golden {expected!r}")
    elif expected != actual:
        out.append(f"{path}: {actual!r} != golden {expected!r}")


def report_row(report: Any) -> Dict[str, Any]:
    """The snapshot columns of one cost report (as the golden suite)."""
    return {
        "label": report.label,
        "onchip_area_mm2": report.onchip_area_mm2,
        "onchip_power_mw": report.onchip_power_mw,
        "offchip_power_mw": report.offchip_power_mw,
        "total_power_mw": report.total_power_mw,
        "onchip_memories": report.onchip_memory_count,
        "cycles_used": report.cycles_used,
        "cycle_budget": report.cycle_budget,
    }


def sweep_payload(result: Any, failures: Iterable[Any]) -> Dict[str, Any]:
    """Snapshot of one default-space exhaustive sweep (as the golden suite)."""
    return {
        "space": result.space_name,
        "evaluations": [
            {"point": record.point.to_dict(), **report_row(record.report)}
            for record in result.records
        ],
        "skipped_infeasible": sorted(point.display_label for point, _ in failures),
        "pareto_front": [record.label for record in result.pareto_front()],
        "knee_point": result.knee_point().label,
    }


def register_groups(program: Any) -> frozenset:
    """Groups only foreground (register-file) accesses touch.

    The allocator materializes them as register files and never counts
    them against a requested on-chip memory count.
    """
    background = set()
    touched = set()
    for nest in program.nests:
        for access in nest.iter_accesses():
            touched.add(access.group)
            if not access.foreground:
                background.add(access.group)
    return frozenset(touched - background)


def invariant_errors(
    report: Any, n_onchip: Optional[int], registers: frozenset
) -> List[str]:
    """Violations of the cost-report invariants for one evaluated point.

    * the schedule fits its budget: ``cycles_used <= cycle_budget``;
    * a requested on-chip count is honoured: the allocator may grow it
      when bandwidth demands, never shrink it — unless the program has
      no on-chip-eligible group at all (then only register files sit
      on chip).
    """
    errors = []
    if report.cycles_used > report.cycle_budget * (1 + REL_TOL):
        errors.append(
            f"{report.label}: cycles_used {report.cycles_used} > budget "
            f"{report.cycle_budget}"
        )
    if n_onchip is not None:
        memories = [
            memory
            for memory in report.onchip
            if not set(memory.groups) <= registers
        ]
        if memories and len(memories) < n_onchip:
            errors.append(
                f"{report.label}: {len(memories)} on-chip memories < "
                f"requested {n_onchip}"
            )
    return errors


def matches_reference(
    reference: Mapping[str, Sequence[float]], fingerprint: str, report: Any
) -> bool:
    """Whether ``report`` equals what the oracle computed for
    ``fingerprint`` when the corpus was filled."""
    expected = reference.get(fingerprint)
    return expected is not None and values_match(expected, reference_values(report))


def values_match(expected: Sequence[float], actual: Sequence[float]) -> bool:
    return len(expected) == len(actual) and all(
        math.isclose(a, e, rel_tol=REL_TOL, abs_tol=ABS_TOL)
        for a, e in zip(actual, expected)
    )


def reference_values(report: Any) -> List[float]:
    """The values :func:`matches_reference` compares a report by."""
    return [report.total_power_mw, report.onchip_area_mm2, report.cycles_used]
