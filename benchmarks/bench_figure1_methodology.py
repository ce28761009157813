"""Figure 1 — the stepwise refinement methodology.

Regenerates the methodology tree as the exploration engine actually
walked it: every step with its evaluated alternatives, cost feedback and
evaluation times.  The benchmarked kernel is one full feedback
evaluation (the inner loop of the whole methodology), driven through the
``repro.api`` request path the engine itself uses.
"""

from repro.api import PmmRequest


def test_figure1_tree(study, benchmark):
    result = study.explore()
    tree = study.figure1()

    request = PmmRequest(
        program=study.hierarchy_program,
        cycle_budget=study.constraints.cycle_budget,
        frame_time_s=study.constraints.frame_time_s,
        library=study.library,
        label="feedback",
    )
    benchmark.pedantic(request.run, rounds=1, iterations=1)

    print()
    print(tree)

    for step in (
        "Basic group structuring",
        "Memory hierarchy",
        "Cycle budget",
        "Memory allocation",
    ):
        assert step in tree
        assert step in result.decisions
    assert tree.count("=>") == 4  # one decision per step
    assert len(result.records) >= 17  # 3 + 4 + 5 + 5 alternatives
