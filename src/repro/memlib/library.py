"""The combined memory library used by the exploration tools.

The library bundles the on-chip module generator and the off-chip part
table, plus the placement policy: basic groups larger than a threshold
cannot be generated on-chip and go to off-chip DRAM (in the BTPC
demonstrator the three 1 M-word arrays are off-chip, everything else is
a candidate for on-chip SRAM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..ir.arrays import BasicGroup
from .offchip import OffChipLibrary
from .onchip import OnChipGenerator, OnChipTechnology, RegisterFileTechnology
from .module import MemoryModule


@dataclass
class MemoryLibrary:
    """On-chip generator + off-chip parts + placement policy."""

    onchip: OnChipGenerator = field(default_factory=OnChipGenerator)
    offchip: OffChipLibrary = field(default_factory=OffChipLibrary)
    registers: RegisterFileTechnology = field(
        default_factory=RegisterFileTechnology
    )
    #: Basic groups with more words than this are placed off-chip.
    offchip_word_threshold: int = 65536

    def is_offchip(self, group: BasicGroup) -> bool:
        """Placement policy for one basic group."""
        if group.words > self.offchip_word_threshold:
            return True
        return not self.onchip.supports(group.words, group.bitwidth)

    def split(self, groups: Sequence[BasicGroup]):
        """Partition groups into (on-chip list, off-chip list)."""
        onchip = [group for group in groups if not self.is_offchip(group)]
        offchip = [group for group in groups if self.is_offchip(group)]
        return onchip, offchip

    def generate_onchip(self, words: int, width: int, ports: int = 1) -> MemoryModule:
        return self.onchip.generate(words, width, ports)


def default_library() -> MemoryLibrary:
    """The library configuration used for all paper experiments."""
    return MemoryLibrary(
        onchip=OnChipGenerator(OnChipTechnology()),
        offchip=OffChipLibrary(),
        offchip_word_threshold=65536,
    )
