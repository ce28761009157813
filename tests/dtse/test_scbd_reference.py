"""The SCBD fast path returns exactly what the reference scheduler returns.

``scbd_reference`` keeps the label-keyed balancer, the eager budget
distributor, the per-slot port-demand query and the per-pair cost that
the indexed kernel, the body tables, the pruned query and the memoized
exclusivity replaced.  Equal means equal: the same assignment in the
same key order (the conflict graph sums its floats in it), bit-equal
costs and edge weights, the same body budgets, slots and port counts,
because tie-breaking decides the golden files.  A body table shared by
a sequence of distributions must change none of them.
"""

import dataclasses
import pickle
from itertools import combinations, product

import pytest
import scbd_reference as reference
from hypothesis import given, settings, strategies as st

from repro.apps.registry import get_app
from repro.dtse.pipeline import DispatchTables, make_cap_fn, make_weight_fn, run_pmm
from repro.dtse.scbd import (
    BodyFlowGraph,
    ConflictGraph,
    InfeasibleBudget,
    balance,
    distribute,
)
from repro.dtse.scbd.balancing import _Kernel
from repro.dtse.scbd.conflict import max_cofire
from repro.dtse.scbd.distribution import BodyTable
from repro.ir import ProgramBuilder
from repro.memlib.library import default_library

TAGS = (None, "H", "V", "D", "D:0", "D:1")


@st.composite
def drawn_programs(draw):
    """A small program plus the off-chip subset of its groups."""
    groups = [f"g{k}" for k in range(draw(st.integers(1, 5)))]
    builder = ProgramBuilder("drawn")
    for name in groups:
        builder.array(name, (64,), 8)
    for n in range(draw(st.integers(1, 4))):
        trips = draw(st.sampled_from((1, 4, 50, 100)))
        nest = builder.nest(f"n{n}", ("i",), (trips,))
        labels = []
        for a in range(draw(st.integers(1, 12))):
            access = nest.write if draw(st.booleans()) else nest.read
            # Forward dependences only: producers come first.
            after = []
            if labels:
                after = draw(st.lists(st.sampled_from(labels), max_size=2))
            labels.append(
                access(
                    draw(st.sampled_from(groups)),
                    label=f"n{n}a{a}",
                    after=after,
                    prob=draw(st.sampled_from((1.0, 0.5, 0.3, 0.125))),
                    mult=draw(st.sampled_from((1.0, 1.0, 2.0, 2.5, 3.0))),
                    cls=draw(st.sampled_from(TAGS)),
                    foreground=a > 0 and draw(st.integers(0, 7)) == 0,
                )
            )
    offchip = draw(st.sets(st.sampled_from(groups)))
    return builder.build(), offchip


def _placed_library(offchip):
    """The default library with the drawn groups, and only those, off-chip."""
    library = default_library()

    def is_offchip(group):
        return group.name in offchip

    library.is_offchip = is_offchip
    return library


def _cost_fns(program, offchip):
    """Weight and cap functions as the oracle builds them."""
    library = _placed_library(offchip)
    return make_weight_fn(program, library), make_cap_fn(program, library)


@st.composite
def drawn_balance_calls(draw):
    """One flow graph, balanced at every budget under two off-chip sets.

    The calls visit every (budget, set) pair in a drawn order, so the
    graph's held kernel tables serve budgets out of order and the two
    sets interleave on one graph object.
    """
    program, first = draw(drawn_programs())
    graph = BodyFlowGraph(draw(st.sampled_from(program.nests)))
    groups = sorted(group.name for group in program.groups)
    second = draw(st.sets(st.sampled_from(groups)))
    budgets = range(graph.macp, graph.sequential_length + 1)
    calls = [(budget, offchip) for budget in budgets for offchip in (0, 1)]
    return program, graph, (first, second), draw(st.permutations(calls))


@given(drawn_balance_calls())
@settings(deadline=None, max_examples=40, derandomize=True)
def test_held_tables_and_kernel_cost_match_reference(drawn):
    """Budgets in any order, off-chip sets interleaved, one graph object.

    Each schedule equals the reference's, key order included, and the
    cost balance hands over is the reference cost bit for bit.  The
    graph holds one set of kernel tables per distinct weight and cap
    values, however many budgets it was balanced at.
    """
    program, graph, offchip_sets, calls = drawn
    fns = [_cost_fns(program, offchip) for offchip in offchip_sets]
    for budget, pick in calls:
        weight_fn, cap_fn = fns[pick]
        fast = balance(graph, budget, weight_fn, cap_fn)
        slow = reference.balance(graph, budget, weight_fn, cap_fn)
        where = f"{graph.nest_name} at {budget} under set {pick}"
        assert list(fast.assignment.items()) == list(slow.assignment.items()), where
        expected = reference.schedule_cost(slow, weight_fn, cap_fn).hex()
        assert fast.balanced_cost.hex() == expected, where
    body_groups = {occ.group for occ in graph.occurrences}
    values = {frozenset(body_groups & offchip) for offchip in offchip_sets}
    assert len(graph.kernel_tables) == (len(values) if body_groups else 0)


@given(drawn_programs(), st.data())
@settings(deadline=None, max_examples=20, derandomize=True)
def test_held_tables_are_keyed_by_port_caps_too(drawn, data):
    """Equal weights under two drawn port-cap functions: each call gets
    the tables of its own caps."""
    program, _ = drawn
    groups = sorted(group.name for group in program.groups)
    caps = st.fixed_dictionaries({name: st.integers(1, 3) for name in groups})
    cap_fns = [data.draw(caps).__getitem__ for _ in range(2)]
    for nest in program.nests:
        graph = BodyFlowGraph(nest)
        for budget in range(graph.macp, graph.sequential_length + 1):
            for cap_fn in cap_fns:
                fast = balance(graph, budget, cap_fn=cap_fn)
                slow = reference.balance(graph, budget, cap_fn=cap_fn)
                assert list(fast.assignment.items()) == list(slow.assignment.items())
                expected = reference.schedule_cost(slow, cap_fn=cap_fn)
                assert fast.balanced_cost.hex() == expected.hex()


@st.composite
def drawn_weights(draw, values):
    """A drawn program and a weight table over its groups' name pairs."""
    program, offchip = draw(drawn_programs())
    groups = sorted(group.name for group in program.groups)
    table = {
        (a, b): draw(st.sampled_from(values))
        for k, a in enumerate(groups)
        for b in groups[k:]
    }
    return program, offchip, table


def _assert_handed_cost_matches(program, offchip, table):
    """Every budget of every body: the reference schedule, and the handed
    cost equals ``BodySchedule.cost`` and the reference cost bit for bit."""
    _, cap_fn = _cost_fns(program, offchip)

    def weight_fn(group_a, group_b):
        return table[(group_a, group_b)]

    for nest in program.nests:
        graph = BodyFlowGraph(nest)
        for budget in range(graph.macp, graph.sequential_length + 1):
            fast = balance(graph, budget, weight_fn, cap_fn)
            slow = reference.balance(graph, budget, weight_fn, cap_fn)
            where = f"{graph.nest_name} at {budget}"
            assert list(fast.assignment.items()) == list(slow.assignment.items()), where
            handed = fast.balanced_cost.hex()
            assert handed == fast.cost(weight_fn, cap_fn).hex(), where
            assert handed == reference.schedule_cost(slow, weight_fn, cap_fn).hex()


@given(drawn_weights((0, 1, 2, 3, 7)))
@settings(deadline=None, max_examples=25, derandomize=True)
def test_handed_cost_is_bodyschedule_cost_with_int_weights(drawn):
    """A weight function that returns ints: the tables' cost terms are
    the reference's float-times-int products, summed by the same
    ``sum()``."""
    _assert_handed_cost_matches(*drawn)


@given(drawn_weights((-3.0, -0.5, 0.0, 1.0, 2.5)))
@settings(deadline=None, max_examples=40, derandomize=True)
def test_negative_weights_switch_the_zero_cost_stop_off(drawn):
    """With a negative term a placement can cost less than 0.0, so the
    local search must price past a zero-cost cycle, as the reference
    does."""
    _assert_handed_cost_matches(*drawn)


#: Exclusive-class tags: flat, nested three deep, and untagged.
COFIRE_TAGS = ("", "D", "D:0", "D:0:1", "D:1", "D:1:0", "H", "H:0", "V", "D0")


@given(st.lists(st.sampled_from(COFIRE_TAGS), max_size=10))
@settings(deadline=None, max_examples=300, derandomize=True)
def test_max_cofire_closed_form_matches_branch_and_bound(tags):
    """The largest prefix chain is the largest co-firing set.

    Drawn lists hold duplicates, nested and sibling tags; ``D0`` shares
    a string prefix with ``D`` but is not a ``:``-prefix of it.
    """
    assert max_cofire(tags) == reference.max_cofire(tags), tags


def _assert_cost_matches(schedules, weight_fn, cap_fn):
    """cost() and the conflict graph's edges against the per-pair copy."""
    for schedule in schedules:
        where = f"{schedule.nest_name} at {schedule.budget}"
        assert schedule.cost(weight_fn, cap_fn) == reference.schedule_cost(
            schedule, weight_fn, cap_fn
        ), where
    assert list(ConflictGraph.from_schedules(schedules).edges.items()) == list(
        reference.conflict_edges(schedules).items()
    )


def _assert_balance_matches(graph, budgets, weight_fn, cap_fn):
    for budget in budgets:
        fast = balance(graph, budget, weight_fn, cap_fn)
        slow = reference.balance(graph, budget, weight_fn, cap_fn)
        where = f"{graph.nest_name} at {budget}"
        assert list(fast.assignment.items()) == list(slow.assignment.items()), where
        assert fast.cost(weight_fn, cap_fn) == reference.schedule_cost(
            slow, weight_fn, cap_fn
        ), where
        _assert_cost_matches([fast], weight_fn, cap_fn)


def _assert_same_distribution(fast, slow):
    assert list(fast.budgets.items()) == list(slow.budgets.items())
    for name, schedule in fast.schedules.items():
        assert list(schedule.assignment.items()) == list(
            slow.schedules[name].assignment.items()
        ), name
    assert list(fast.conflict_graph.edges.items()) == list(
        slow.conflict_graph.edges.items()
    )
    assert fast.conflict_graph.slots == slow.conflict_graph.slots


def _assert_distribution_matches(program, cycle_budget, weight_fn, cap_fn):
    try:
        slow = reference.distribute(program, cycle_budget, weight_fn, cap_fn)
    except InfeasibleBudget:
        with pytest.raises(InfeasibleBudget):
            distribute(program, cycle_budget, weight_fn, cap_fn)
        return None
    fast = distribute(program, cycle_budget, weight_fn, cap_fn)
    _assert_same_distribution(fast, slow)
    _assert_cost_matches(list(fast.schedules.values()), weight_fn, cap_fn)
    return fast.conflict_graph


@given(drawn_programs())
@settings(deadline=None, max_examples=30, derandomize=True)
def test_balance_matches_reference_on_drawn_bodies(drawn):
    program, offchip = drawn
    weight_fn, cap_fn = _cost_fns(program, offchip)
    for nest in program.nests:
        graph = BodyFlowGraph(nest)
        if graph.macp > 0:
            with pytest.raises(InfeasibleBudget):
                balance(graph, graph.macp - 1, weight_fn, cap_fn)
        _assert_balance_matches(
            graph,
            range(graph.macp, graph.sequential_length + 1),
            weight_fn,
            cap_fn,
        )


@given(drawn_programs())
@settings(deadline=None, max_examples=20, derandomize=True)
def test_distribute_and_ports_match_reference_on_drawn_programs(drawn):
    program, offchip = drawn
    weight_fn, cap_fn = _cost_fns(program, offchip)
    graphs = [BodyFlowGraph(nest) for nest in program.nests]
    lowest = sum(graph.macp * graph.iterations for graph in graphs)
    highest = sum(graph.sequential_length * graph.iterations for graph in graphs)
    groups = sorted(group.name for group in program.groups)
    for cycle_budget in (
        lowest - 1,
        lowest,
        lowest + (highest - lowest) * 0.3,
        lowest + (highest - lowest) * 0.7,
        highest,
    ):
        conflicts = _assert_distribution_matches(
            program, cycle_budget, weight_fn, cap_fn
        )
        if conflicts is None:
            continue
        for size in range(1, len(groups) + 1):
            for subset in combinations(groups, size):
                assert conflicts.ports_for(subset) == reference.ports_for(
                    conflicts, subset
                ), subset


@st.composite
def drawn_sequences(draw):
    """Programs sharing nest objects, each with an off-chip set and a budget.

    Every program takes its nests from one drawn pool, each as the
    pool's own object, as an equal copy made by a pickle round trip (as
    a pool worker receives it) or not at all.  The sequence uses at
    least two off-chip sets; a budget of ``None`` is one cycle below the
    program's dependence-limited minimum.
    """
    pool, _ = draw(drawn_programs())
    copies = pickle.loads(pickle.dumps(pool.nests))
    groups = sorted(group.name for group in pool.groups)
    sets = st.frozensets(st.sampled_from(groups))
    offchip_sets = draw(st.lists(sets, min_size=2, max_size=3, unique=True))
    picks = st.lists(st.integers(0, len(offchip_sets) - 1), min_size=2, max_size=6)
    picks = draw(picks.filter(lambda drawn: len(set(drawn)) >= 2))
    kinds = st.sampled_from(("own", "copy", None))
    size = len(pool.nests)
    sequence = []
    for index, pick in enumerate(picks):
        choices = draw(st.lists(kinds, min_size=size, max_size=size).filter(any))
        nests = tuple(
            nest if choice == "own" else copy
            for nest, copy, choice in zip(pool.nests, copies, choices)
            if choice is not None
        )
        program = dataclasses.replace(pool, name=f"p{index}", nests=nests)
        fraction = draw(st.sampled_from((None, 0.0, 0.3, 0.7, 1.0)))
        sequence.append((program, offchip_sets[pick], fraction))
    return sequence


def _cycle_budget(program, fraction):
    graphs = [BodyFlowGraph(nest) for nest in program.nests]
    lowest = sum(graph.macp * graph.iterations for graph in graphs)
    if fraction is None:
        return lowest - 1
    highest = sum(graph.sequential_length * graph.iterations for graph in graphs)
    return lowest + (highest - lowest) * fraction


def _run_pmm(program, cycle_budget, offchip, **kwargs):
    """run_pmm's report as a dict, or the type and text of its error."""
    try:
        result = run_pmm(
            program, cycle_budget, 1e-3, library=_placed_library(offchip), **kwargs
        )
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)
    return result.report.to_dict()


@given(drawn_sequences())
@settings(deadline=None, max_examples=25, derandomize=True)
def test_shared_tables_match_private_tables_and_reference(sequence):
    """One table per off-chip set across a sequence changes no outcome.

    The sequence runs once through shared tables, as one oracle dispatch
    does, and once call by call with private tables; both must equal the
    reference distributor.  The shared table's held costs are the
    reference's, bit for bit.
    """
    tables = {}
    run_tables = DispatchTables()
    for program, offchip, fraction in sequence:
        cycle_budget = _cycle_budget(program, fraction)
        weight_fn, cap_fn = _cost_fns(program, offchip)
        table = tables.setdefault(offchip, BodyTable())
        try:
            slow = reference.distribute(program, cycle_budget, weight_fn, cap_fn)
        except InfeasibleBudget:
            with pytest.raises(InfeasibleBudget):
                distribute(program, cycle_budget, weight_fn, cap_fn, table=table)
            with pytest.raises(InfeasibleBudget):
                distribute(program, cycle_budget, weight_fn, cap_fn)
        else:
            shared = distribute(program, cycle_budget, weight_fn, cap_fn, table=table)
            alone = distribute(program, cycle_budget, weight_fn, cap_fn)
            _assert_same_distribution(shared, slow)
            _assert_same_distribution(alone, slow)
            for nest in program.nests:
                name = nest.name
                schedule = shared.schedules[name]
                held, cost = table.body(nest).balanced[schedule.budget]
                assert held is schedule
                slow_cost = reference.schedule_cost(
                    slow.schedules[name], weight_fn, cap_fn
                )
                assert cost == slow_cost, name
        shared_report = _run_pmm(program, cycle_budget, offchip, tables=run_tables)
        assert shared_report == _run_pmm(program, cycle_budget, offchip)


def test_table_keys_nests_by_identity():
    """Two equal nests built separately get separate table entries.

    Their flow graphs' successor sets may iterate in different orders,
    and the port-cap repair follows that order.
    """

    def build():
        builder = ProgramBuilder("twins")
        builder.array("g0", (64,), 8)
        nest = builder.nest("body", ("i",), (10,))
        first = nest.read("g0", label="a")
        nest.read("g0", label="b", after=[first])
        return builder.build().nest("body")

    nest, twin = build(), build()
    assert nest == twin and nest is not twin
    table = BodyTable()
    body = table.body(nest)
    assert table.body(nest) is body
    assert table.body(twin) is not body
    assert table.body(twin).graph is not body.graph
    assert table.body(twin).nest is twin


@pytest.mark.parametrize("app", ["cavity", "wavelet", "motion"])
def test_balance_matches_reference_on_app_bodies(app):
    """Every nest of every default-space program, at every budget."""
    space = get_app(app).space()
    library = default_library()
    for variant in space.variant_names:
        program = space.program(variant)
        weight_fn = make_weight_fn(program, library)
        cap_fn = make_cap_fn(program, library)
        for nest in program.nests:
            graph = BodyFlowGraph(nest)
            _assert_balance_matches(
                graph,
                range(graph.macp, graph.sequential_length + 1),
                weight_fn,
                cap_fn,
            )


def test_balance_matches_reference_on_btpc_largest_body(study):
    """btpc's 146-occurrence body at its two tightest budgets."""
    program = study.space.program("ridge compacted")
    graph = BodyFlowGraph(program.nest("encode_up"))
    assert len(graph.occurrences) == 146
    _assert_balance_matches(
        graph,
        (graph.macp, graph.macp + 1),
        make_weight_fn(program, study.library),
        make_cap_fn(program, study.library),
    )


def test_chain_rollback_matches_reference():
    """Every chain re-placement from every legal state of a small body.

    The pipelined-walk dependences of a flow graph always leave a chain
    room to re-place, so no drawn body reaches the infeasible rollback;
    one edge the flow graph never makes (the chain's last step feeds
    ``s``) does, and the rollback must restore the residents in the
    reference's order.
    """
    builder = ProgramBuilder("chains")
    for name in ("g0", "g1"):
        builder.array(name, (64,), 8)
    nest = builder.nest("body", ("i",), (10,))
    nest.read("g0", label="a", mult=2)
    nest.read("g1", label="s")
    nest.read("g0", label="x")
    nest.read("g0", label="y", cls="H")
    graph = BodyFlowGraph(builder.build().nest("body"))
    graph.preds["s"] = frozenset({"a#1"})
    graph.succs["a#1"] = frozenset({"s"})
    weight_fn, cap_fn = _cost_fns(builder.build(), {"g1"})
    labels = [occ.label for occ in graph.occurrences]
    rolled_back = 0
    for budget in (3, 4):
        kernel = _Kernel(graph, budget, weight_fn, cap_fn)
        for start in product(range(1, budget + 1), repeat=len(labels)):
            edges = enumerate(kernel.preds)
            if any(start[p] >= start[i] for i, preds in edges for p in preds):
                continue
            for chain in kernel.chains:
                cycles = list(start)
                by_cycle = kernel.residents(cycles)
                kept = kernel.replace_chain(chain, cycles, by_cycle)
                assignment = dict(zip(labels, start))
                slow_by_cycle = {}
                for occ in graph.occurrences:
                    slow_by_cycle.setdefault(assignment[occ.label], []).append(occ)
                slow_kept = reference._replace_chain(
                    graph,
                    budget,
                    [labels[i] for i in chain],
                    assignment,
                    slow_by_cycle,
                    weight_fn,
                    cap_fn,
                )
                assert kept == slow_kept
                assert dict(zip(labels, cycles)) == assignment
                assert {
                    cycle: [labels[i] for i in members]
                    for cycle, members in enumerate(by_cycle)
                    if members
                } == {
                    cycle: [occ.label for occ in members]
                    for cycle, members in slow_by_cycle.items()
                    if members
                }
                rolled_back += not kept
    assert rolled_back
