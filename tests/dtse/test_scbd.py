"""SCBD: flow graphs, balancing, conflict graphs, budget distribution."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

import repro.dtse.allocation.assign as assign
import repro.dtse.pipeline as pipeline
import repro.dtse.scbd.balancing as balancing
import repro.dtse.scbd.distribution as distribution
from repro.api import Explorer
from repro.dtse import analyze_macp, body_critical_path
from repro.dtse.scbd import (
    BodyFlowGraph,
    ConflictGraph,
    InfeasibleBudget,
    balance,
    distribute,
)
from repro.dtse.scbd.conflict import max_cofire
from repro.explore.engine import _pool_chunks
from repro.ir import ProgramBuilder


def _chain_program(chain_length=4, trips=100):
    builder = ProgramBuilder("chain")
    for index in range(chain_length):
        builder.array(f"g{index}", (64,), 8)
    nest = builder.nest("body", ("i",), (trips,))
    previous = None
    for index in range(chain_length):
        label = nest.read(f"g{index}", after=[previous] if previous else [])
        previous = label
    return builder.build()


def test_flowgraph_macp_matches_site_analysis(btpc_program):
    for nest in btpc_program.nests:
        assert BodyFlowGraph(nest).macp == body_critical_path(nest)


def test_multiplicity_expansion_chains():
    builder = ProgramBuilder("walk")
    builder.array("t", (64,), 8)
    nest = builder.nest("body", ("i",), (10,))
    nest.read("t", mult=3.5, label="walk")
    graph = BodyFlowGraph(builder.build().nest("body"))
    assert graph.sequential_length == 4  # ceil(3.5) chained occurrences
    assert graph.macp == 4
    total = sum(occ.expected for occ in graph.occurrences)
    assert total == pytest.approx(3.5)


def test_foreground_accesses_cost_no_cycles():
    builder = ProgramBuilder("fg")
    builder.array("mem", (64,), 8)
    builder.array("regs", (12,), 8)
    nest = builder.nest("body", ("i",), (10,))
    a = nest.read("mem", label="a")
    b = nest.read("regs", label="b", foreground=True, after=[a])
    nest.write("mem", label="c", after=[b])
    program = builder.build()
    graph = BodyFlowGraph(program.nest("body"))
    assert graph.sequential_length == 2  # the register read vanished
    # ... but the dependence a -> c survived through the bridge.
    assert graph.macp == 2
    schedule = balance(graph, 2)
    assert schedule.assignment["a"] < schedule.assignment["c"]


def test_balance_respects_budget_and_dependences():
    program = _chain_program(5)
    graph = BodyFlowGraph(program.nest("body"))
    with pytest.raises(InfeasibleBudget):
        balance(graph, 4)
    schedule = balance(graph, 5)
    schedule.verify()
    assert schedule.cost() == 0.0  # a pure chain needs no parallelism


@given(st.integers(0, 10_000))
@settings(deadline=None, max_examples=25)
def test_balance_random_dags_are_legal(seed):
    """Random DAG bodies always get legal schedules at any budget >= MACP."""
    import random

    rng = random.Random(seed)
    builder = ProgramBuilder("rand")
    groups = [f"g{k}" for k in range(4)]
    for name in groups:
        builder.array(name, (64,), 8)
    nest = builder.nest("body", ("i",), (50,))
    labels = []
    for index in range(rng.randint(2, 10)):
        deps = [lbl for lbl in labels if rng.random() < 0.3]
        labels.append(
            nest.read(rng.choice(groups), label=f"a{index}", after=deps,
                      prob=rng.choice([0.25, 0.5, 1.0]))
        )
    program = builder.build()
    graph = BodyFlowGraph(program.nest("body"))
    for budget in (graph.macp, graph.macp + 2, graph.sequential_length):
        schedule = balance(graph, budget)
        schedule.verify()


def test_balance_cost_nonincreasing_with_budget():
    builder = ProgramBuilder("wide")
    for k in range(6):
        builder.array(f"g{k}", (64,), 8)
    nest = builder.nest("body", ("i",), (100,))
    for k in range(6):
        nest.read(f"g{k}")
    graph = BodyFlowGraph(builder.build().nest("body"))
    costs = [balance(graph, budget).cost() for budget in (1, 2, 3, 6)]
    assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))
    assert costs[-1] == 0.0


def test_max_cofire_respects_exclusivity():
    assert max_cofire(["H", "V", "D"]) == 1
    assert max_cofire(["", "", "H"]) == 3
    assert max_cofire(["D", "D:0"]) == 2
    assert max_cofire(["D:0", "D:1", "D:2"]) == 1
    assert max_cofire([]) == 0


def test_conflict_graph_from_schedule():
    builder = ProgramBuilder("pair")
    builder.array("a", (64,), 8)
    builder.array("b", (64,), 8)
    nest = builder.nest("body", ("i",), (100,))
    nest.read("a")
    nest.read("b")
    graph = BodyFlowGraph(builder.build().nest("body"))
    schedule = balance(graph, 1)  # forced into one cycle
    conflicts = ConflictGraph.from_schedules([schedule])
    assert conflicts.are_conflicting("a", "b")
    assert conflicts.weight("a", "b") == pytest.approx(100)
    assert conflicts.ports_for(("a", "b")) == 2
    assert conflicts.clique_lower_bound() >= 2


def test_distribute_accounts_cycles():
    program = _chain_program(4, trips=100)
    result = distribute(program, 1000)
    assert result.cycles_used <= 1000
    assert result.cycles_used >= 400  # at least MACP * trips
    assert result.spare_cycles == 1000 - result.cycles_used
    assert "body" in result.describe()


def test_distribute_raises_below_macp():
    program = _chain_program(4, trips=100)
    with pytest.raises(InfeasibleBudget):
        distribute(program, 399)


def _count_balance(monkeypatch):
    """Record every balance call as (nest object, off-chip set, budget).

    Returns the balance calls and the oracle's distribute calls, as
    (program, off-chip set).
    """
    calls = []
    current = []
    balance_fn = distribution.balance
    distribute_fn = pipeline.distribute

    def counted_balance(graph, budget, *args):
        program, offchip = current[-1]
        calls.append((program.nest(graph.nest_name), offchip, budget))
        return balance_fn(graph, budget, *args)

    def counted_distribute(program, cycle_budget, weight_fn, cap_fn, **kwargs):
        # The oracle's cap function gives exactly its off-chip groups
        # the DRAM bank count.
        offchip = frozenset(
            group.name
            for group in program.groups
            if cap_fn(group.name) == pipeline.MAX_OFFCHIP_BANKS
        )
        current.append((program, offchip))
        return distribute_fn(program, cycle_budget, weight_fn, cap_fn, **kwargs)

    monkeypatch.setattr(distribution, "balance", counted_balance)
    monkeypatch.setattr(pipeline, "distribute", counted_distribute)
    return calls, current


def _count_allocation(monkeypatch):
    """Count allocator evaluators built, bins evaluated and local searches."""
    counts = {"evaluators": 0, "bins": 0, "searches": 0}

    class CountedEvaluator(assign._Evaluator):
        def __init__(self, *args):
            counts["evaluators"] += 1
            super().__init__(*args)

        def _evaluate(self, groups, offchip):
            counts["bins"] += 1
            return super()._evaluate(groups, offchip)

    local_search = assign._local_search

    def counted_local_search(*args):
        counts["searches"] += 1
        return local_search(*args)

    monkeypatch.setattr(assign, "_Evaluator", CountedEvaluator)
    monkeypatch.setattr(assign, "_local_search", counted_local_search)
    return counts


@pytest.mark.parametrize(
    "app, balanced", [("cavity", 74), ("wavelet", 60), ("motion", 6)]
)
def test_batch_balances_each_body_budget_once(app, balanced, monkeypatch):
    """The points of one cold batch share their balanced bodies.

    Counted on a cold default sweep as one evaluate_many call: no (nest
    object, off-chip set, body budget) is balanced twice (each
    distribute call alone made 444 calls for cavity, 304 for wavelet
    and 36 for motion).  Nothing carries over to the next batch: a
    second explorer over the same space, nest objects included, makes
    as many calls again.
    """
    calls, _ = _count_balance(monkeypatch)
    space = Explorer.for_app(app).space
    for _ in range(2):
        explorer = Explorer(space, on_error="skip")
        explorer.evaluate_many(space.points())
        keys = {(id(nest), offchip, budget) for nest, offchip, budget in calls}
        assert len(keys) == len(calls)
        assert len(calls) == balanced
        calls.clear()


@pytest.mark.parametrize(
    "app, inputs, balanced, bins, searches",
    [("cavity", 10, 74, 64, 24), ("wavelet", 8, 60, 24, 0), ("motion", 4, 6, 38, 30)],
)
def test_batch_distributes_and_allocates_each_input_once(
    app, inputs, balanced, bins, searches, monkeypatch
):
    """Points that differ only in n_onchip share SCBD and allocation.

    A cold default sweep as one evaluate_many call runs the oracle for
    all 20/16/12 points (cavity/wavelet/motion), and each run used to
    distribute, build an evaluator and search on its own.  Now the
    batch distributes once and builds one evaluator per SCBD input, and
    runs each (count, order) search once per evaluator (the parent
    evaluated 112/48/86 bins in 24/0/48 searches).  The tables belong
    to one batch: a second evaluate_many on the same explorer, its
    cache cleared, does every piece of work again.
    """
    calls, distributed = _count_balance(monkeypatch)
    work = _count_allocation(monkeypatch)
    space = Explorer.for_app(app).space
    explorer = Explorer(space, on_error="skip")

    def counts():
        return (
            len(distributed),
            work["evaluators"],
            len(calls),
            work["bins"],
            work["searches"],
        )

    explorer.evaluate_many(space.points())
    assert counts() == (inputs, inputs, balanced, bins, searches)
    explorer.cache.clear()
    explorer.evaluate_many(space.points())
    assert counts() == (2 * inputs, 2 * inputs, 2 * balanced, 2 * bins, 2 * searches)


def test_btpc_decision_round_counts(study, monkeypatch):
    """The four btpc decision rows, each a cold point of its own explorer.

    130 balance calls, one distribution each, and kernel tables built
    once per (flow graph, weight and cap values): 36 builds, not one per
    balance call.
    """
    calls, distributed = _count_balance(monkeypatch)
    builds = []

    class CountedTables(balancing._Tables):
        def __init__(self, graph, names, weights, caps):
            # The graph is held, so no later graph reuses its id.
            builds.append((graph, weights, caps))
            super().__init__(graph, names, weights, caps)

    monkeypatch.setattr(balancing, "_Tables", CountedTables)
    for step in study.greedy_steps():
        point = next(p for p in step.points if p.display_label == step.select)
        Explorer(study.space).evaluate(point)
    assert len(calls) == 130
    assert len(distributed) == 4
    keys = {(id(graph), weights, caps) for graph, weights, caps in builds}
    assert len(keys) == len(builds) == 36


@pytest.mark.parametrize(
    "app, workers, expected",
    [
        ("cavity", 2, 5),
        ("cavity", 4, 5),
        ("wavelet", 2, 4),
        ("wavelet", 4, 4),
        ("motion", 2, 2),
        ("motion", 4, 4),
    ],
)
def test_pool_chunks_keep_programs_together(app, workers, expected):
    """One task per program object, split past ceil(n / workers) points.

    Each default space lists its points variant by variant; the same
    requests interleaved variant by variant, as a strategy's neighbour
    round mixes them, cut into the same chunks of the same requests.
    """
    space = Explorer.for_app(app).space
    explorer = Explorer(space)
    requests = [explorer.request_for(point) for point in space.points()]
    chunks = _pool_chunks(requests, workers)
    assert len(chunks) == expected
    assert [index for chunk in chunks for index in chunk] == list(range(len(requests)))
    limit = math.ceil(len(requests) / workers)
    sizes = {}
    for chunk in chunks:
        assert 0 < len(chunk) <= limit
        programs = {id(requests[index].program) for index in chunk}
        assert len(programs) == 1
        sizes.setdefault(programs.pop(), []).append(len(chunk))
    assert len(sizes) == len(space.variant_names)
    for pieces in sizes.values():
        assert max(pieces) - min(pieces) <= 1

    by_program = {}
    for request in requests:
        by_program.setdefault(id(request.program), []).append(request)
    interleaved = [
        request
        for row in itertools.zip_longest(*by_program.values())
        for request in row
        if request is not None
    ]
    mixed = _pool_chunks(interleaved, workers)
    assert [[id(interleaved[i]) for i in chunk] for chunk in mixed] == [
        [id(requests[i]) for i in chunk] for chunk in chunks
    ]


def _reports(records):
    return [record.report.to_dict() for record in records if record.report is not None]


@pytest.mark.parametrize("app", ["cavity", "wavelet", "motion"])
def test_pooled_batch_matches_serial(app, monkeypatch):
    """Pool chunks balance with tables of their own; reports do not move.

    Also for the points interleaved variant by variant, which the pool
    regroups by program and must put back into point order.
    """
    monkeypatch.setattr(Explorer, "MIN_PARALLEL_BATCH", 2)
    space = Explorer.for_app(app).space
    by_variant = {}
    for point in space.points():
        by_variant.setdefault(point.variant, []).append(point)
    interleaved = [
        point
        for row in itertools.zip_longest(*by_variant.values())
        for point in row
        if point is not None
    ]
    for points in (space.points(), interleaved):
        serial = Explorer(space, on_error="skip").evaluate_many(points)
        with Explorer(space, workers=2, on_error="skip") as explorer:
            pooled = explorer.evaluate_many(points)
            assert explorer._pool is not None
        assert [record.error for record in pooled] == [
            record.error for record in serial
        ]
        assert _reports(pooled) == _reports(serial)


def test_macp_report_feasibility(btpc_program, constraints):
    report = analyze_macp(btpc_program, constraints.cycle_budget)
    assert report.feasible
    assert 0.5 < report.total_macp / constraints.cycle_budget < 1.0
    assert report.sequential_cycles > report.total_macp
    assert "encode_l0" in report.describe()
