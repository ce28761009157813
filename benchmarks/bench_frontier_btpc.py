"""LinearFrontier on the paper's demonstrator: the search contract on btpc.

A cold ``LinearFrontier`` at 20% of the oracle calls of a cold
exhaustive sweep must still recover at least 95% of that sweep's Pareto
front.  The space is btpc's registered space with extra budget
fractions and on-chip counts, so a 20% budget is a real constraint.  The
two sweeps take minutes of btpc oracle time, so this contract runs
nightly; cavity's and wavelet's are tier-1
(``tests/explore/test_frontier.py``).  The benchmarked kernel is the
frontier search.
"""

import math

from repro.api import (
    DesignSpace,
    ExhaustiveSweep,
    Explorer,
    LinearFrontier,
    SearchBudget,
    front_coverage,
    pareto_front,
)

BUDGET_FRACTIONS = (1.0, 0.9, 0.82, 0.7, 0.6, 0.5)
ONCHIP_COUNTS = (None, 4, 14)


def test_frontier_covers_the_btpc_front_at_a_fifth_of_the_calls(benchmark):
    space = DesignSpace.for_app("btpc")
    space.budget_fractions = BUDGET_FRACTIONS
    space.onchip_counts = ONCHIP_COUNTS
    with Explorer(space, on_error="skip") as explorer:
        full = explorer.run(ExhaustiveSweep())
    budget = SearchBudget(max_oracle_calls=max(1, math.floor(0.20 * full.oracle_calls)))

    def search():
        with Explorer(space, on_error="skip") as explorer:
            return explorer.explore(LinearFrontier(), budget=budget)

    frontier = benchmark.pedantic(search, rounds=1, iterations=1)
    coverage = front_coverage(
        pareto_front([r.report for r in full.records]),
        [r.report for r in frontier.records],
    )

    print()
    print(
        f"btpc: frontier {frontier.oracle_calls} vs exhaustive "
        f"{full.oracle_calls} oracle calls, coverage {coverage:.3f}"
    )
    assert coverage >= 0.95, f"btpc frontier coverage {coverage:.3f}"
    assert frontier.oracle_calls <= 0.20 * full.oracle_calls
