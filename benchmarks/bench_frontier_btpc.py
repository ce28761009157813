"""LinearFrontier on the paper's demonstrator: the search contract on btpc.

A cold ``LinearFrontier`` at 20% of the oracle calls of a cold
exhaustive sweep must still recover at least 95% of that sweep's Pareto
front.  The space is btpc's registered space with extra budget
fractions and on-chip counts, so a 20% budget is a real constraint.  The
contract runs in CI's per-PR ``benchmark-smoke`` job (41 s on a 2-core
VM); cavity's and wavelet's are tier-1
(``tests/explore/test_frontier.py``).  The benchmarked kernel is the
frontier search.

The trade-off that keeps two frontier strategies is pinned here too:
unbudgeted, ``ParetoRefine`` recovers the whole exhaustive front, which
``LinearFrontier`` does not.  It replays the exhaustive sweep's cached
points, so it costs no oracle time.
"""

import math

from repro.api import (
    DesignSpace,
    ExhaustiveSweep,
    Explorer,
    LinearFrontier,
    ParetoRefine,
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
        refined = explorer.run(ParetoRefine())
    full_front = pareto_front([r.report for r in full.records])
    refined_coverage = front_coverage(full_front, [r.report for r in refined.records])
    assert refined_coverage == 1.0, f"btpc ParetoRefine coverage {refined_coverage}"
    budget = SearchBudget(max_oracle_calls=max(1, math.floor(0.20 * full.oracle_calls)))

    def search():
        with Explorer(space, on_error="skip") as explorer:
            return explorer.run(LinearFrontier(), budget=budget)

    frontier = benchmark.pedantic(search, rounds=1, iterations=1)
    coverage = front_coverage(full_front, [r.report for r in frontier.records])

    print()
    print(
        f"btpc: frontier {frontier.oracle_calls} vs exhaustive "
        f"{full.oracle_calls} oracle calls, coverage {coverage:.3f}"
    )
    assert coverage >= 0.95, f"btpc frontier coverage {coverage:.3f}"
    assert frontier.oracle_calls <= 0.20 * full.oracle_calls
