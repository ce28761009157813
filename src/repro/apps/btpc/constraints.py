"""BTPC design constraints (paper §3).

The design goal: encode images up to 1024x1024 pixels at 1 Mpixel/s.
The timing constraint translates into the *storage cycle budget* — the
total number of cycles available for memory accesses per frame — once a
system clock is chosen.  With the paper's numbers (1 M pixels, 20 MHz
clock, 1 s per frame) the budget is about 20 million cycles.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BtpcConstraints:
    """Throughput constraints and derived cycle budget."""

    image_size: int = 1024
    pixel_rate_hz: float = 1e6
    clock_hz: float = 20e6

    @property
    def pixels(self) -> int:
        return self.image_size * self.image_size

    @property
    def frame_time_s(self) -> float:
        """Time available to process one frame."""
        return self.pixels / self.pixel_rate_hz

    @property
    def cycle_budget(self) -> int:
        """Storage cycle budget: total memory-access cycles per frame.

        Assumes full system pipelining between memory architecture and
        datapath (paper §4.5); the designer may deliberately hand part of
        this budget back to the datapath.
        """
        return int(self.frame_time_s * self.clock_hz)

    def access_rate_hz(self, accesses: float) -> float:
        """Average access rate for a per-frame access count."""
        return accesses / self.frame_time_s
