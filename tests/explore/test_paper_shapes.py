"""The paper's headline shapes, checked end to end (Tables 1-4).

These are the acceptance tests of the reproduction: absolute numbers are
ours, the *orderings and trends* are the paper's (see EXPERIMENTS.md for
the paper-vs-measured record).
"""

import re

import pytest


@pytest.fixture(scope="module")
def tables(study):
    return {
        "t1": study.table1(),
        "t2": study.table2(),
        "t3": study.table3(),
        "t4": study.table4(),
    }


# ----------------------------------------------------------------------
# Table 1: basic group structuring
# ----------------------------------------------------------------------
def test_t1_merging_wins_offchip(tables):
    none, compacted, merged = tables["t1"]
    assert merged.offchip_power_mw < none.offchip_power_mw


def test_t1_compaction_effect_is_small(tables):
    none, compacted, merged = tables["t1"]
    relative = abs(compacted.total_power_mw - none.total_power_mw)
    assert relative / none.total_power_mw < 0.10


def test_t1_merging_is_the_best_choice(tables):
    none, compacted, merged = tables["t1"]
    assert merged.total_power_mw <= none.total_power_mw
    assert merged.total_power_mw <= compacted.total_power_mw


# ----------------------------------------------------------------------
# Table 2: memory hierarchy
# ----------------------------------------------------------------------
def test_t2_no_hierarchy_has_highest_offchip_power(tables):
    none, layer1, layer0, both = tables["t2"]
    assert none.offchip_power_mw >= layer1.offchip_power_mw
    assert none.offchip_power_mw >= layer0.offchip_power_mw
    assert none.offchip_power_mw >= both.offchip_power_mw


def test_t2_layer1_trades_onchip_for_offchip(tables):
    none, layer1, layer0, both = tables["t2"]
    assert layer1.onchip_area_mm2 > none.onchip_area_mm2
    assert layer1.onchip_power_mw > none.onchip_power_mw
    assert layer1.offchip_power_mw < none.offchip_power_mw


def test_t2_layer0_is_cheap_onchip(tables):
    none, layer1, layer0, both = tables["t2"]
    # The 12-register window costs almost nothing on-chip...
    assert layer0.onchip_area_mm2 < none.onchip_area_mm2 * 1.15
    # ... and both hierarchy-bearing options beat no-hierarchy in total.
    assert layer0.total_power_mw < none.total_power_mw
    assert both.total_power_mw < none.total_power_mw


def test_t2_layer0_minimizes_area_among_hierarchies(tables):
    none, layer1, layer0, both = tables["t2"]
    assert layer0.onchip_area_mm2 < layer1.onchip_area_mm2
    assert layer0.onchip_area_mm2 < both.onchip_area_mm2


def test_t2_second_layer_adds_area_over_layer0(tables):
    none, layer1, layer0, both = tables["t2"]
    assert both.onchip_area_mm2 > layer0.onchip_area_mm2


# ----------------------------------------------------------------------
# Table 3: storage cycle budget
# ----------------------------------------------------------------------
def test_t3_spareable_cycles_exceed_ten_percent(tables, study):
    full = study.constraints.cycle_budget
    extras = [extra for extra, _ in tables["t3"]]
    assert max(extras) / full > 0.10
    assert extras == sorted(extras)  # tightening monotonically frees cycles


def test_t3_costs_stay_bounded_while_sparing(tables):
    rows = [report for _, report in tables["t3"]]
    baseline = rows[0].total_power_mw
    for report in rows:
        assert report.total_power_mw < baseline * 1.35


def test_t3_budget_quantization(tables, study):
    """Budgets move in jumps set by loop-body trip counts (paper §4.5)."""
    full = study.constraints.cycle_budget
    extras = [extra for extra, _ in tables["t3"]]
    jumps = {round(b - a) for a, b in zip(extras, extras[1:]) if b > a}
    trip_counts = {262144, 524288, 786432, 1048576, 262080}
    for jump in jumps:
        assert any(jump % trips < trips * 0.35 or jump % trips > trips * 0.65
                   for trips in trip_counts)


# ----------------------------------------------------------------------
# Table 4: memory allocation
# ----------------------------------------------------------------------
def test_t4_power_decreases_with_memory_count(tables):
    rows = tables["t4"]
    powers = [report.onchip_power_mw for _, report in rows]
    assert all(a >= b - 1e-6 for a, b in zip(powers, powers[1:]))
    assert powers[-1] < powers[0]


def test_t4_area_is_u_shaped(tables):
    rows = tables["t4"]
    areas = [report.onchip_area_mm2 for _, report in rows]
    lowest = areas.index(min(areas))
    assert 0 < lowest < len(areas) - 1  # dips in the middle, rises again


def test_t4_offchip_power_is_flat(tables):
    rows = tables["t4"]
    offchip = [report.offchip_power_mw for _, report in rows]
    assert max(offchip) - min(offchip) < 1e-6


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def test_figure1_tree_shows_all_steps(study, tables):
    tree = study.figure1()
    for step in ("Basic group structuring", "Memory hierarchy",
                 "Cycle budget", "Memory allocation"):
        assert step in tree
    assert tree.count("=>") == 4  # one decision per step


def test_figure1_renders_one_walk_after_a_strategy_run(study, tables):
    # The tables already walked every step, so this full walk runs no
    # oracle call; the tree must still show each alternative once.
    study.explorer.run(study.strategy())
    tree = study.figure1()
    counts = re.findall(r"\((\d+) alternatives evaluated\)", tree)
    assert counts == ["3", "4", "5", "5"]
    assert tree.count("=>") == 4


def test_figure2_shows_transforms(study):
    text = study.figure2()
    assert "compaction" in text and "merging" in text
    assert "pyrridge" in text and "10 bit" in text


def test_figure3_shows_layers(study):
    text = study.figure3()
    assert "12" in text  # the register window size
    assert "yhier" in text and "ylocal" in text
