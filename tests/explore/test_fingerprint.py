"""Fingerprints: what the address covers, byte-compatibility, memoization.

A fingerprint covers exactly the request fields the oracle reads, so a
field the oracle does not read must not split one evaluation into two
addresses.  The explorer's batched ``fingerprint_points`` (invariant
program/library fragments + per-point knob digest) must produce
fingerprints byte-identical to the monolithic ``fingerprint_request``
reference, so an entry stored through one path is found through the
other.
"""

import dataclasses

import pytest

from repro.api import (
    DesignSpace,
    Explorer,
    PmmRequest,
    fingerprint_request,
    list_apps,
)
from repro.explore import fingerprint as fingerprint_module
from repro.explore.fingerprint import cached_canonical_json, canonical_json
from repro.memlib.library import MemoryLibrary, default_library


# ----------------------------------------------------------------------
# Coverage: the address holds what the oracle reads
# ----------------------------------------------------------------------
def test_fingerprint_covers_exactly_the_oracle_inputs():
    """Every field but the cosmetic ``label`` moves the address.

    A new ``PmmRequest`` field must be added here on purpose: with a
    different value below if the oracle reads it, or not at all.
    """
    fields = [field.name for field in dataclasses.fields(PmmRequest)]
    assert fields == [
        "program",
        "cycle_budget",
        "frame_time_s",
        "library",
        "n_onchip",
        "area_weight",
        "label",
    ]
    base = PmmRequest(
        program=_tiny_program(),
        cycle_budget=1_000.0,
        frame_time_s=1e-3,
        library=default_library(),
        n_onchip=None,
        area_weight=0.5,
        label="base",
    )
    different = {
        "program": _tiny_program(words=128),
        "cycle_budget": 2_000.0,
        "frame_time_s": 2e-3,
        "library": MemoryLibrary(offchip_word_threshold=32),
        "n_onchip": 1,
        "area_weight": 0.25,
    }
    assert sorted(different) == sorted(set(fields) - {"label"})
    reference = fingerprint_request(base)
    for name, value in different.items():
        changed = dataclasses.replace(base, **{name: value})
        assert fingerprint_request(changed) != reference, name
    assert fingerprint_request(base.relabeled("renamed")) == reference


# ----------------------------------------------------------------------
# Compatibility: incremental == monolithic, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("app", sorted(list_apps()))
def test_incremental_fingerprints_match_reference_for_app(app):
    """Every point of every registered app's default space agrees."""
    explorer = Explorer.for_app(app)
    points = explorer.space.points()
    assert points
    assert explorer.fingerprint_points(points) == [
        fingerprint_request(explorer.request_for(point)) for point in points
    ]


def test_fingerprint_from_parts_matches_reference_on_edge_knobs():
    """Float formatting and null knobs splice exactly as json.dumps does."""
    space = DesignSpace("edge", cycle_budget=12_345.678, frame_time_s=1e-3)
    space.add_variant("v", build=_tiny_program)
    explorer = Explorer(space, area_weight=0.125)
    points = [space.point("v", n_onchip=n_onchip) for n_onchip in (None, 0, 3)]
    assert explorer.fingerprint_points(points) == [
        fingerprint_request(explorer.request_for(point)) for point in points
    ]


def _tiny_program(words=64):
    from repro.api import ProgramBuilder

    builder = ProgramBuilder("tiny")
    builder.array("a", shape=(words,), bitwidth=8)
    nest = builder.nest("loop", iterators=("i",), trips=(words,))
    nest.read("a", index=("i",))
    return builder.build()


# ----------------------------------------------------------------------
# Memoization: the invariant fragment is computed once per sweep
# ----------------------------------------------------------------------
def test_sweep_canonicalizes_each_variant_once(monkeypatch):
    calls = []
    real = fingerprint_module.canonical_json

    def counting(value):
        calls.append(type(value).__name__)
        return real(value)

    # Intercept below the fragment memo: every *actual*
    # canonicalization is counted, memo hits are not.
    monkeypatch.setattr(fingerprint_module, "canonical_json", counting)
    space = DesignSpace(
        "memo",
        cycle_budget=50_000,
        frame_time_s=1e-3,
        budget_fractions=(1.0, 0.9),
        onchip_counts=(None, 2),
    )
    space.add_variant("v", build=_tiny_program)
    explorer = Explorer(space)
    points = space.points()
    assert len(points) == 4
    explorer.fingerprint_points(points)
    explorer.fingerprint_points(points)  # second sweep: fully memoized
    # One canonicalization per variant plus one per library — never per
    # point, never per sweep.
    expected = len(space.variants) + len(space.libraries)
    assert len(calls) == expected


def test_fresh_spaces_share_registry_program_fragments(monkeypatch):
    """Registry-built spaces share program objects, so a fresh explorer
    over the same app re-fingerprints without recanonicalizing any
    program — the process-wide fragment memo serves them."""
    warm = Explorer.for_app("motion")
    warm.fingerprint_points(warm.space.points())

    calls = []
    real = fingerprint_module.canonical_json

    def counting(value):
        calls.append(type(value).__name__)
        return real(value)

    monkeypatch.setattr(fingerprint_module, "canonical_json", counting)
    fresh = Explorer.for_app("motion")
    points = fresh.space.points()
    reference = [fingerprint_request(fresh.request_for(point)) for point in points]
    calls.clear()  # the reference path canonicalizes per request
    assert fresh.fingerprint_points(points) == reference
    assert calls.count("Program") == 0


def test_add_library_invalidates_memoized_fragment():
    space = DesignSpace("inv", cycle_budget=10_000, frame_time_s=1e-3)
    space.add_variant("v", build=_tiny_program)
    first = space.fingerprint_library_json("default")
    library = default_library()
    library.offchip_word_threshold = 1024  # a genuinely different library
    space.add_library("default", library)
    second = space.fingerprint_library_json("default")
    assert first != second
    assert second == canonical_json(library)


def test_direct_library_mutation_invalidates_memoized_fragment():
    """The memo revalidates by identity: even a raw dict write on the
    public ``libraries`` field can never serve a stale fragment."""
    space = DesignSpace("inv2", cycle_budget=10_000, frame_time_s=1e-3)
    space.add_variant("v", build=_tiny_program)
    explorer = Explorer(space)
    point = space.point("v")
    (before,) = explorer.fingerprint_points([point])
    library = default_library()
    library.offchip_word_threshold = 1024
    space.libraries["default"] = library  # direct mutation, not add_library
    (after,) = explorer.fingerprint_points([point])
    assert before != after
    assert after == fingerprint_request(explorer.request_for(point))


def test_shared_fragment_memo_stays_bounded():
    """Callers feeding a fresh object per call must not grow the
    process-wide fragment memo without limit."""
    from repro.explore.fingerprint import _FRAGMENTS, FRAGMENT_MEMO_ENTRIES

    keep = []
    for index in range(FRAGMENT_MEMO_ENTRIES * 3):
        value = {"step": index}
        keep.append(value)  # keep ids unique while the loop runs
        cached_canonical_json(value)
    assert len(_FRAGMENTS) == FRAGMENT_MEMO_ENTRIES
    # A live entry is reused, not recomputed into a new slot.
    hot = keep[-1]
    assert cached_canonical_json(hot) == canonical_json(hot)
    assert len(_FRAGMENTS) == FRAGMENT_MEMO_ENTRIES
    # An equal-but-distinct object misses the identity check and
    # recomputes to the same fragment.
    clone = dict(hot)
    assert cached_canonical_json(clone) == cached_canonical_json(hot)
