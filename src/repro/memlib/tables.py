"""Reconstructed EDO DRAM part table.

The paper entered power estimates from the (then web-published) Siemens
EDO DRAM datasheets into a table.  The original part list is not in the
paper, so we reconstruct a plausible mid-90s Siemens EDO series: 4 Mbit
to 64 Mbit parts in x8 and x16 organizations, 5 V, page-mode cycle around
25-40 ns.  Active power derives from the datasheet IDD at full page-mode
rate; standby power from the CMOS standby current.

The absolute values only anchor the scale; the relative behaviour
(wider parts draw more per access, power scales with access duty cycle,
every extra bank adds one part's standby power) is what the
experiments rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class DramPart:
    """One row of the EDO DRAM datasheet table."""

    part_number: str
    words: int
    width: int
    #: Page-mode cycle time [ns]; bounds the access rate of one part.
    cycle_ns: float
    #: Power at 100 % page-mode utilisation [mW] (IDD1 * 5 V).
    active_mw: float
    #: CMOS standby power [mW].
    standby_mw: float

    @property
    def bits(self) -> int:
        return self.words * self.width

    @property
    def max_access_rate_hz(self) -> float:
        return 1e9 / self.cycle_ns


#: The reconstructed Siemens EDO series (HYB 51xx style numbering).
EDO_DRAM_PARTS: Tuple[DramPart, ...] = (
    DramPart("HYB511000-60", words=1 << 20, width=1, cycle_ns=35.0,
             active_mw=190.0, standby_mw=2.5),
    DramPart("HYB514100-60", words=1 << 18, width=4, cycle_ns=35.0,
             active_mw=240.0, standby_mw=3.0),
    DramPart("HYB514400-60", words=1 << 20, width=4, cycle_ns=35.0,
             active_mw=290.0, standby_mw=4.0),
    DramPart("HYB518800-60", words=1 << 19, width=8, cycle_ns=35.0,
             active_mw=330.0, standby_mw=4.5),
    DramPart("HYB5118800-60", words=1 << 20, width=8, cycle_ns=35.0,
             active_mw=360.0, standby_mw=5.0),
    DramPart("HYB5128800-60", words=1 << 21, width=8, cycle_ns=35.0,
             active_mw=420.0, standby_mw=6.5),
    DramPart("HYB5148800-60", words=1 << 22, width=8, cycle_ns=35.0,
             active_mw=480.0, standby_mw=8.0),
    DramPart("HYB5116160-60", words=1 << 19, width=16, cycle_ns=35.0,
             active_mw=450.0, standby_mw=6.0),
    DramPart("HYB5126160-60", words=1 << 20, width=16, cycle_ns=35.0,
             active_mw=500.0, standby_mw=7.0),
    DramPart("HYB5146160-60", words=1 << 21, width=16, cycle_ns=35.0,
             active_mw=560.0, standby_mw=9.0),
)
