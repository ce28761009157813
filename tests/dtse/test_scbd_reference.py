"""The SCBD fast path returns exactly what the reference scheduler returns.

``scbd_reference`` keeps the label-keyed balancer, the eager budget
distributor and the per-slot port-demand query that the indexed kernel,
the lazy candidates and the pruned query replaced.  Equal means equal:
the same assignment in the same key order (the conflict graph sums its
floats in it), bit-equal costs and edge weights, the same body budgets,
slots and port counts, because tie-breaking decides the golden files.
"""

from itertools import combinations, product
from types import SimpleNamespace

import pytest
import scbd_reference as reference
from hypothesis import given, settings, strategies as st

from repro.apps.registry import get_app
from repro.dtse.pipeline import make_cap_fn, make_weight_fn
from repro.dtse.scbd import BodyFlowGraph, InfeasibleBudget, balance, distribute
from repro.dtse.scbd.balancing import _Kernel
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


def _cost_fns(program, offchip):
    """Weight and cap functions as the oracle builds them."""
    library = SimpleNamespace(is_offchip=lambda group: group.name in offchip)
    return make_weight_fn(program, library), make_cap_fn(program, library)


def _assert_balance_matches(graph, budgets, weight_fn, cap_fn):
    for budget in budgets:
        fast = balance(graph, budget, weight_fn, cap_fn)
        slow = reference.balance(graph, budget, weight_fn, cap_fn)
        where = f"{graph.nest_name} at {budget}"
        assert list(fast.assignment.items()) == list(slow.assignment.items()), where
        assert fast.cost(weight_fn, cap_fn) == reference.schedule_cost(
            slow, weight_fn, cap_fn
        ), where


def _assert_distribution_matches(program, cycle_budget, weight_fn, cap_fn):
    try:
        slow = reference.distribute(program, cycle_budget, weight_fn, cap_fn)
    except InfeasibleBudget:
        with pytest.raises(InfeasibleBudget):
            distribute(program, cycle_budget, weight_fn, cap_fn)
        return None
    fast = distribute(program, cycle_budget, weight_fn, cap_fn)
    assert list(fast.budgets.items()) == list(slow.budgets.items())
    for name, schedule in fast.schedules.items():
        assert list(schedule.assignment.items()) == list(
            slow.schedules[name].assignment.items()
        ), name
    assert list(fast.conflict_graph.edges.items()) == list(
        slow.conflict_graph.edges.items()
    )
    assert fast.conflict_graph.slots == slow.conflict_graph.slots
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
