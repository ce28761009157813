"""SCBD: flow graphs, balancing, conflict graphs, budget distribution."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.dtse.pipeline as pipeline
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


@pytest.mark.parametrize(
    "app, balanced", [("cavity", 444), ("wavelet", 304), ("motion", 36)]
)
def test_distribute_balances_each_body_budget_once(app, balanced, monkeypatch):
    """A body's candidate holds until its budget moves.

    Counted on a cold default sweep: within one distribute call no
    (nest, body budget) pair is balanced twice (re-balancing every body
    in every round made 920 calls for cavity and 804 for wavelet).
    """
    per_call = []
    balance_fn = distribution.balance
    distribute_fn = pipeline.distribute

    def counted_balance(graph, budget, *args):
        per_call[-1].append((graph.nest_name, budget))
        return balance_fn(graph, budget, *args)

    def counted_distribute(*args, **kwargs):
        per_call.append([])
        return distribute_fn(*args, **kwargs)

    monkeypatch.setattr(distribution, "balance", counted_balance)
    monkeypatch.setattr(pipeline, "distribute", counted_distribute)
    explorer = Explorer.for_app(app, on_error="skip")
    explorer.evaluate_many(explorer.space.points())
    assert per_call
    for pairs in per_call:
        assert len(set(pairs)) == len(pairs)
    assert sum(len(pairs) for pairs in per_call) == balanced


def test_macp_report_feasibility(btpc_program, constraints):
    report = analyze_macp(btpc_program, constraints.cycle_budget)
    assert report.feasible
    assert 0.5 < report.total_macp / constraints.cycle_budget < 1.0
    assert report.sequential_cycles > report.total_macp
    assert "encode_l0" in report.describe()
