"""Pareto utilities and the cost table."""

import pytest
from hypothesis import given, strategies as st

from repro.costs import CostReport, MemoryCost, render_cost_table
from repro.explore import dominates, knee_point, pareto_front
from repro.memlib import MemoryKind


def _report(label, area, power):
    memory = MemoryCost(
        name="m", kind=MemoryKind.ONCHIP, words=64, width=8, ports=1,
        area_mm2=area, power_mw=power,
    )
    return CostReport(label=label, memories=(memory,))


def test_dominance():
    a = _report("a", 1.0, 1.0)
    b = _report("b", 2.0, 2.0)
    assert dominates(a, b)
    assert not dominates(b, a)
    assert not dominates(a, a)


def test_pareto_front_filters_dominated():
    reports = [
        _report("a", 1.0, 5.0),
        _report("b", 3.0, 3.0),
        _report("c", 5.0, 1.0),
        _report("dominated", 4.0, 4.0),
    ]
    front = pareto_front(reports)
    assert [r.label for r in front] == ["a", "b", "c"]


@given(
    st.lists(
        st.tuples(st.floats(0.1, 100), st.floats(0.1, 100)),
        min_size=1, max_size=20,
    )
)
def test_pareto_front_is_mutually_nondominated(points):
    reports = [_report(str(i), a, p) for i, (a, p) in enumerate(points)]
    front = pareto_front(reports)
    assert front  # never empty
    for first in front:
        assert not any(dominates(other, first) for other in front)


def test_knee_point_in_front():
    reports = [_report("a", 1.0, 5.0), _report("b", 2.0, 2.0),
               _report("c", 5.0, 1.0)]
    front = pareto_front(reports)
    assert knee_point(front).label == "b"
    with pytest.raises(ValueError):
        knee_point([])


def test_knee_point_singleton_front():
    only = _report("only", 3.0, 3.0)
    assert knee_point([only]) is only


def test_knee_point_all_equal_front_is_deterministic():
    front = [_report("first", 2.0, 2.0), _report("second", 2.0, 2.0),
             _report("third", 2.0, 2.0)]
    assert knee_point(front) is front[0]


def test_knee_point_zero_span_axis():
    # All areas equal: only the power axis discriminates, and the zero
    # area span must not bias the distance.
    front = [_report("hot", 2.0, 9.0), _report("cool", 2.0, 1.0)]
    assert knee_point(front).label == "cool"


def test_render_cost_table_layout():
    text = render_cost_table(
        [_report("alpha", 10.0, 20.0)], title="Costs", label_header="Version"
    )
    assert "alpha" in text
    assert "10.0" in text and "20.0" in text
    assert "on-chip area" in text
