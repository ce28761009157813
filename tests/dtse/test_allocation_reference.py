"""The bitmask allocator returns exactly what the reference allocator returns.

``allocation_reference`` keeps the set-keyed evaluator, greedy seed,
local search and ``assign_memories`` that the bitmask search, the
per-set off-chip loads and the closed-form port query replaced.  Equal
means equal: the same bins (groups, modules, ports, floats) in the same
order and a bit-equal scalar cost, or the same error, on drawn programs
and on every point the golden files pin.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import allocation_reference as reference
from repro.api import Explorer
from repro.dtse.allocation.assign import (
    DEFAULT_AREA_WEIGHT,
    _Evaluator,
    assign_memories,
    build_nest_loads,
)
from repro.dtse.pipeline import make_cap_fn, make_weight_fn, offchip_names
from repro.dtse.scbd import BodyFlowGraph, InfeasibleBudget, distribute
from repro.dtse.scbd.distribution import BodyTable
from repro.ir import ProgramBuilder
from repro.memlib.library import default_library

TAGS = (None, "H", "V", "D", "D:0", "D:1")


@st.composite
def drawn_allocations(draw):
    """A program, its off-chip groups, a cycle budget and allocator options.

    Groups differ in size and width, so bins differ in module, area and
    power, and nests draw same-cycle accesses under tight budgets, so
    bins need ports.
    """
    builder = ProgramBuilder("drawn")
    groups = [f"g{k}" for k in range(draw(st.integers(1, 7)))]
    for name in groups:
        words = draw(st.sampled_from((16, 64, 256, 2048)))
        builder.array(name, (words,), draw(st.sampled_from((1, 8, 12, 16, 32))))
    for n in range(draw(st.integers(1, 3))):
        trips = draw(st.sampled_from((1, 50, 1000, 20000)))
        nest = builder.nest(f"n{n}", ("i",), (trips,))
        labels = []
        for a in range(draw(st.integers(1, 10))):
            access = nest.write if draw(st.booleans()) else nest.read
            after = []
            if labels:
                after = draw(st.lists(st.sampled_from(labels), max_size=1))
            labels.append(
                access(
                    draw(st.sampled_from(groups)),
                    label=f"n{n}a{a}",
                    after=after,
                    # Values without a short binary expansion: float sums
                    # then depend on their order.
                    prob=draw(st.sampled_from((1.0, 0.5, 0.3, 0.7, 0.1))),
                    mult=draw(st.sampled_from((1.0, 1.0, 1.3, 2.0, 2.5))),
                    cls=draw(st.sampled_from(TAGS)),
                    foreground=a > 0 and draw(st.integers(0, 9)) == 0,
                )
            )
    program = builder.build()
    offchip = draw(st.sets(st.sampled_from(groups)))
    fraction = draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)))
    options = {
        "n_onchip": draw(st.sampled_from((None, 1, 2, 3))),
        "strict": draw(st.booleans()),
        "offchip_sharing": draw(st.booleans()),
        "frame_time_s": draw(st.sampled_from((1e-3, 4e-2))),
    }
    return program, offchip, fraction, options


def _placed_library(offchip):
    library = default_library()

    def is_offchip(group):
        return group.name in offchip

    library.is_offchip = is_offchip
    return library


def _outcome(allocate, **kwargs):
    """The allocation, or the type and text of the error it raised."""
    try:
        return allocate(**kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)


def _assert_same_allocation(**kwargs):
    fast = _outcome(assign_memories, **kwargs)
    slow = _outcome(reference.assign_memories, **kwargs)
    assert fast == slow
    if not isinstance(fast, tuple):
        assert fast.scalar_cost.hex() == slow.scalar_cost.hex()
        assert [b.power_mw.hex() for b in fast.onchip + fast.offchip] == [
            b.power_mw.hex() for b in slow.onchip + slow.offchip
        ]
    return fast


def _distribute(program, library, fraction):
    """SCBD at ``fraction`` of the way from the dependence-limited minimum
    to fully sequential bodies: (cycle budget, distribution)."""
    bodies = [BodyFlowGraph(nest) for nest in program.nests]
    lowest = sum(body.macp * body.iterations for body in bodies)
    highest = sum(body.sequential_length * body.iterations for body in bodies)
    cycle_budget = lowest + (highest - lowest) * fraction
    weight_fn = make_weight_fn(program, library)
    cap_fn = make_cap_fn(program, library)
    return cycle_budget, distribute(program, cycle_budget, weight_fn, cap_fn)


@given(drawn_allocations())
@settings(deadline=None, max_examples=60, derandomize=True)
def test_assign_matches_reference_on_drawn_programs(drawn):
    program, offchip, fraction, options = drawn
    library = _placed_library(offchip)
    cycle_budget, distribution = _distribute(program, library, fraction)
    _assert_same_allocation(
        program=program,
        conflicts=distribution.conflict_graph,
        library=library,
        nest_loads=build_nest_loads(program, distribution.budgets),
        cycles_used=distribution.cycles_used,
        cycle_budget=cycle_budget,
        **options,
    )


@given(drawn_allocations())
@settings(deadline=None, max_examples=40, derandomize=True)
def test_every_bin_evaluates_as_in_reference(drawn):
    """Every group set of a drawn program, on chip and off chip.

    The search reaches only some sets; this prices them all, so an
    off-chip bin of three or more groups sums its per-nest traffic in
    the reference's order even when no search would choose it.
    """
    program, offchip, fraction, options = drawn
    library = _placed_library(offchip)
    _, distribution = _distribute(program, library, fraction)
    args = (
        program,
        distribution.conflict_graph,
        library,
        options["frame_time_s"],
        build_nest_loads(program, distribution.budgets),
    )
    fast = _Evaluator(*args, area_weight=DEFAULT_AREA_WEIGHT)
    slow = reference._Evaluator(*args)
    names = sorted(group.name for group in program.groups)
    for size in range(1, len(names) + 1):
        for groups in combinations(names, size):
            for offchip_bin in (False, True):
                evaluated = fast.evaluate(fast.mask(groups), offchip_bin)
                expected = slow.evaluate(frozenset(groups), offchip_bin)
                assert evaluated == expected, (groups, offchip_bin)
                if evaluated is not None:
                    assert evaluated.power_mw.hex() == expected.power_mw.hex()


def _assert_points_match(space, points):
    """Each point's allocation as the oracle runs it, against the reference.

    SCBD runs once per point through shared body tables, as in one
    dispatch; points the allocator rejects must fail the same way.
    """
    explorer = Explorer(space)
    tables = {}
    checked = 0
    for point in points:
        request = explorer.request_for(point)
        program, library = request.program, request.library
        table = tables.setdefault(offchip_names(program, library), BodyTable())
        try:
            distribution = distribute(
                program,
                request.cycle_budget,
                make_weight_fn(program, library),
                make_cap_fn(program, library),
                table=table,
            )
        except InfeasibleBudget:
            continue
        _assert_same_allocation(
            program=program,
            conflicts=distribution.conflict_graph,
            library=library,
            frame_time_s=request.frame_time_s,
            nest_loads=build_nest_loads(program, distribution.budgets),
            n_onchip=request.n_onchip,
            area_weight=request.area_weight,
            cycles_used=distribution.cycles_used,
            cycle_budget=request.cycle_budget,
            label=request.label,
        )
        checked += 1
    return checked


@pytest.mark.parametrize("app", ["cavity", "wavelet", "motion"])
def test_assign_matches_reference_on_default_space_points(app):
    """All 48 points of the three default sweeps."""
    space = Explorer.for_app(app).space
    assert _assert_points_match(space, space.points())


def test_assign_matches_reference_on_btpc_table_rows(study):
    """The 17 rows of the paper's Tables 1-4."""
    rows = sum(
        _assert_points_match(study.space, step.points)
        for step in study.greedy_steps()
    )
    assert rows == 17
