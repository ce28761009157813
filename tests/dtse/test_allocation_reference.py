"""The bitmask allocator returns exactly what the reference allocator returns.

``allocation_reference`` keeps the set-keyed evaluator, greedy seed,
local search and ``assign_memories`` that the bitmask search, the
per-set off-chip loads and the closed-form port query replaced.  Equal
means equal: the same bins (groups, modules, ports, floats) in the same
order and a bit-equal scalar cost, or the same error, on drawn programs,
on drawn dispatches that share one set of tables, and on every point the
golden files pin.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import allocation_reference as reference
from repro.api import Explorer
from repro.dtse.allocation.assign import (
    DEFAULT_AREA_WEIGHT,
    _Evaluator,
    _ProgramInputs,
    assign_memories,
    build_nest_loads,
)
from repro.dtse.pipeline import (
    DispatchTables,
    make_cap_fn,
    make_weight_fn,
    offchip_names,
    run_pmm,
)
from repro.dtse.scbd import BodyFlowGraph, InfeasibleBudget, distribute
from repro.dtse.scbd.distribution import BodyTable
from repro.ir import ProgramBuilder
from repro.memlib.library import MemoryLibrary, default_library
from repro.memlib.onchip import OnChipGenerator, OnChipTechnology

TAGS = (None, "H", "V", "D", "D:0", "D:1")


@st.composite
def drawn_programs(draw):
    """A program and its off-chip groups.

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
    return program, draw(st.sets(st.sampled_from(groups)))


@st.composite
def drawn_allocations(draw):
    """A program, its off-chip groups, a budget fraction and allocator options."""
    program, offchip = draw(drawn_programs())
    fraction = draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)))
    options = {
        "n_onchip": draw(st.sampled_from((None, 1, 2, 3))),
        "frame_time_s": draw(st.sampled_from((1e-3, 4e-2))),
    }
    return program, offchip, fraction, options


def _placed_library(offchip, library=None):
    """``library`` (the default one when None) with exactly ``offchip``
    placed off chip."""
    if library is None:
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


def _assert_same_outcome(fast, slow):
    """Equal allocations, floats bit for bit, or the same error."""
    assert fast == slow
    if not isinstance(fast, tuple):
        assert fast.scalar_cost.hex() == slow.scalar_cost.hex()
        assert [b.power_mw.hex() for b in fast.onchip + fast.offchip] == [
            b.power_mw.hex() for b in slow.onchip + slow.offchip
        ]


def _assert_same_allocation(**kwargs):
    fast = _outcome(assign_memories, **kwargs)
    _assert_same_outcome(fast, _outcome(reference.assign_memories, **kwargs))
    return fast


def _cycle_budget(program, fraction):
    """``fraction`` of the way from the dependence-limited minimum to fully
    sequential bodies; one cycle below the minimum when None."""
    bodies = [BodyFlowGraph(nest) for nest in program.nests]
    lowest = sum(body.macp * body.iterations for body in bodies)
    if fraction is None:
        return lowest - 1
    highest = sum(body.sequential_length * body.iterations for body in bodies)
    return lowest + (highest - lowest) * fraction


def _distribute(program, library, fraction):
    """SCBD at ``fraction``, fresh: (cycle budget, distribution)."""
    cycle_budget = _cycle_budget(program, fraction)
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
    fast = _Evaluator(
        _ProgramInputs(program), *args[1:], area_weight=DEFAULT_AREA_WEIGHT
    )
    slow = reference._Evaluator(*args)
    names = sorted(group.name for group in program.groups)
    for size in range(1, len(names) + 1):
        for groups in combinations(names, size):
            for offchip_bin in (False, True):
                mask = sum(fast.bit[name] for name in groups)
                evaluated = fast.evaluate(mask, offchip_bin)
                expected = slow.evaluate(frozenset(groups), offchip_bin)
                assert evaluated == expected, (groups, offchip_bin)
                if evaluated is not None:
                    assert evaluated.power_mw.hex() == expected.power_mw.hex()


#: A second library: smaller fixed macro area and slower macros, so its
#: allocations differ from the default library's in cost and legality.
_OTHER_TECHNOLOGY = OnChipTechnology(fixed_area_mm2=0.3, cycle_base_ns=12.0)


@st.composite
def drawn_dispatches(draw):
    """Runs of one program and off-chip set, as one dispatch makes them.

    Two cycle budgets (one may sit below the dependence-limited
    minimum), two libraries and 2-6 runs, each a drawn budget, library
    and ``n_onchip``: None, a count in range, 0 or a count above the
    program's groups.
    """
    program, offchip = draw(drawn_programs())
    fractions = draw(
        st.lists(st.sampled_from((None, 0.0, 0.2, 0.6, 1.0)), min_size=2, max_size=2)
    )
    counts = st.one_of(st.none(), st.integers(0, len(program.groups) + 1))
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(0, 1), counts),
            min_size=2,
            max_size=6,
        )
    )
    frame_time_s = draw(st.sampled_from((1e-3, 4e-2)))
    return program, offchip, fractions, runs, frame_time_s


def _run_outcome(program, cycle_budget, frame_time_s, **kwargs):
    """run_pmm's result, or the type and text of the error it raised."""
    try:
        return run_pmm(program, cycle_budget, frame_time_s, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)


@given(drawn_dispatches())
@settings(deadline=None, max_examples=60, derandomize=True)
def test_shared_tables_match_fresh_reference(drawn):
    """Runs through one set of dispatch tables, in the drawn order.

    Each must equal a fresh distribution followed by the reference
    allocator: the held distribution the same budgets, assignments in
    key order and conflict edges, the allocation the same bins and a
    bit-equal scalar cost, or the same error type and text.
    """
    program, offchip, fractions, runs, frame_time_s = drawn
    libraries = (
        _placed_library(offchip),
        _placed_library(
            offchip, MemoryLibrary(onchip=OnChipGenerator(_OTHER_TECHNOLOGY))
        ),
    )
    budgets = [_cycle_budget(program, fraction) for fraction in fractions]
    tables = DispatchTables()
    for budget_index, library_index, n_onchip in runs:
        cycle_budget = budgets[budget_index]
        library = libraries[library_index]
        shared = _run_outcome(
            program,
            cycle_budget,
            frame_time_s,
            library=library,
            n_onchip=n_onchip,
            tables=tables,
        )
        weight_fn = make_weight_fn(program, library)
        cap_fn = make_cap_fn(program, library)
        try:
            fresh = distribute(program, cycle_budget, weight_fn, cap_fn)
        except InfeasibleBudget as exc:
            assert shared == (InfeasibleBudget, str(exc))
            continue
        slow = _outcome(
            reference.assign_memories,
            program=program,
            conflicts=fresh.conflict_graph,
            library=library,
            frame_time_s=frame_time_s,
            nest_loads=build_nest_loads(program, fresh.budgets),
            n_onchip=n_onchip,
            cycles_used=fresh.cycles_used,
            cycle_budget=cycle_budget,
            label=program.name,
        )
        if isinstance(shared, tuple):
            assert shared == slow
            continue
        held = shared.distribution
        assert list(held.budgets.items()) == list(fresh.budgets.items())
        for name, schedule in held.schedules.items():
            assert list(schedule.assignment.items()) == list(
                fresh.schedules[name].assignment.items()
            ), name
        assert list(held.conflict_graph.edges.items()) == list(
            fresh.conflict_graph.edges.items()
        )
        _assert_same_outcome(shared.allocation, slow)


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
