"""The off-chip EDO DRAM part table the allocator chooses from.

The paper's off-chip cost model prices a basic group on one of these
parts with its datasheet standby and active power, derated by the
group's effective access rate.  The allocator does the pricing
(``_Evaluator._evaluate_offchip`` in
:mod:`repro.dtse.allocation.assign`): it banks deep groups over 1-4
parts and applies page-mode factors to each nest's occupancy.  This
module only holds the parts and answers which of them are wide enough.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .tables import EDO_DRAM_PARTS, DramPart


class OffChipLibrary:
    """The DRAM parts off-chip basic groups can be placed on."""

    def __init__(self, parts: Sequence[DramPart] = EDO_DRAM_PARTS) -> None:
        if not parts:
            raise ValueError("off-chip library needs at least one part")
        self.parts = tuple(parts)

    def candidates(self, width: int) -> Tuple[DramPart, ...]:
        """Parts wide enough for ``width``, in table order."""
        return tuple(part for part in self.parts if part.width >= width)
