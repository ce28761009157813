"""Memory technology models: monotonicity and selection properties."""

import pytest
from hypothesis import given, strategies as st

from repro.memlib import (
    EDO_DRAM_PARTS,
    MemoryKind,
    MemoryLibrary,
    OffChipLibrary,
    OnChipGenerator,
    RegisterFileTechnology,
    default_library,
)
from repro.ir import BasicGroup

WORDS = st.integers(8, 262144)
WIDTH = st.integers(1, 64)


@given(WORDS, WIDTH)
def test_onchip_area_monotone_in_ports(words, width):
    generator = OnChipGenerator()
    single = generator.generate(words, width, 1)
    double = generator.generate(words, width, 2)
    assert double.area_mm2 > single.area_mm2
    assert double.read_energy_nj > single.read_energy_nj


@given(st.integers(8, 131072), WIDTH)
def test_onchip_energy_sublinear_in_words(words, width):
    """Doubling words must less-than-double the energy (paper §4.6)."""
    generator = OnChipGenerator()
    small = generator.generate(words, width, 1)
    large = generator.generate(words * 2, width, 1)
    assert small.read_energy_nj < large.read_energy_nj
    assert large.read_energy_nj < 2 * small.read_energy_nj


@given(WORDS, st.integers(1, 32))
def test_onchip_area_monotone_in_width(words, width):
    generator = OnChipGenerator()
    narrow = generator.generate(words, width, 1)
    wide = generator.generate(words, width * 2, 1)
    assert wide.area_mm2 > narrow.area_mm2


def test_onchip_rejects_oversize():
    generator = OnChipGenerator()
    with pytest.raises(ValueError):
        generator.generate(10_000_000, 8, 1)
    assert not generator.supports(10_000_000, 8)


def test_module_power_accounting():
    module = OnChipGenerator().generate(512, 16, 1)
    idle = module.total_power_mw(0, 0)
    busy = module.total_power_mw(1e6, 1e6)
    assert idle == pytest.approx(module.static_mw)
    assert busy > idle
    with pytest.raises(ValueError):
        module.dynamic_power_mw(-1, 0)


def test_register_file_model():
    module = RegisterFileTechnology().module(12, 8)
    assert module.kind is MemoryKind.ONCHIP
    assert module.area_mm2 < 2.0  # a handful of flip-flops, not a macro
    assert module.ports == 2


def test_offchip_selects_width_compatible_part():
    library = OffChipLibrary()
    parts = library.candidates(10)
    assert parts
    assert all(part.width >= 10 for part in parts)
    assert parts == tuple(part for part in EDO_DRAM_PARTS if part in parts)
    widest = max(part.width for part in EDO_DRAM_PARTS)
    assert library.candidates(widest + 1) == ()


def test_library_split_policy():
    library = default_library()
    big = BasicGroup("big", 1 << 20, 8)
    small = BasicGroup("small", 512, 20)
    onchip, offchip = library.split([big, small])
    assert [g.name for g in offchip] == ["big"]
    assert [g.name for g in onchip] == ["small"]


def test_library_threshold_is_configurable():
    library = MemoryLibrary(offchip_word_threshold=256)
    group = BasicGroup("g", 512, 8)
    assert library.is_offchip(group)
