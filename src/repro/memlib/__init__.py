"""Memory technology library: on-chip SRAM generator and off-chip DRAM.

Public names::

    MemoryModule, MemoryKind             -- module descriptors
    OnChipGenerator, OnChipTechnology    -- parametric SRAM generator
    OffChipLibrary                       -- the EDO DRAM parts on offer
    DramPart, EDO_DRAM_PARTS             -- the datasheet table
    MemoryLibrary, default_library       -- combined library + policy
"""

from .library import MemoryLibrary, default_library
from .module import MemoryKind, MemoryModule
from .offchip import OffChipLibrary
from .onchip import OnChipGenerator, OnChipTechnology, RegisterFileTechnology
from .tables import EDO_DRAM_PARTS, DramPart

__all__ = [
    "EDO_DRAM_PARTS",
    "DramPart",
    "MemoryKind",
    "MemoryLibrary",
    "MemoryModule",
    "OffChipLibrary",
    "OnChipGenerator",
    "OnChipTechnology",
    "RegisterFileTechnology",
    "default_library",
]
