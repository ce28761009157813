"""How fast the host runs Python, measured from inside a process.

On a shared VM each virtual CPU switches, independently and every few
seconds, between a fast and a slow speed (about 1.5x apart), so a raw
timing mostly says which speed a run happened to get.  ``HostClock``
samples the speed all through a process's own work, so timings can be
reported at a reference speed; ``host_probe_ms`` is the coarse,
printed diagnostic.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time
from typing import Any, List, Tuple


def _loop(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


def host_probe_ms() -> float:
    """A fixed pure-Python loop: how fast this host runs Python right now.

    The median of five timings of the loop.  A diagnostic only, printed
    as ``host.probe_ms``.
    """
    timings = []
    for _ in range(5):
        start = time.monotonic()
        _loop(200_000)
        timings.append((time.monotonic() - start) * 1000.0)
    return statistics.median(timings)


class HostClock:
    """Host speed, sampled all through the process's own work.

    A ``SIGPROF`` timer interrupts this process every ``TICK_S`` of its
    CPU time and times a short fixed loop; the loop time says how fast
    the CPU the process is on runs right now.  A timing is then reported
    at a reference speed (the loop in ``REFERENCE_LOOP_MS``): its
    duration, minus the ticks' own time, times the mean of the ticks'
    reference-to-measured speed ratios, each raised to ``ELASTICITY``.
    A change to the program moves the reported timings exactly as much
    as the raw ones; a change of host speed does not move them.
    """

    TICK_S = 0.02
    LOOP = 5_000
    REFERENCE_LOOP_MS = 0.4
    SPEED_PAD_S = 0.25
    #: The program's large interpreter code loses more to a slow spell
    #: than the small loop does: on runs of every workload, a time
    #: scaled by the plain ratio still kept about a third of the
    #: spell's effect, and the ratio to this power least.
    ELASTICITY = 1.25

    def __init__(self) -> None:
        #: Monotonic end time and loop milliseconds of every tick.
        self.stamps: List[float] = []
        self.loops: List[float] = []

    def _tick(self, signum: int, frame: Any) -> None:
        start = time.monotonic()
        _loop(self.LOOP)
        end = time.monotonic()
        self.stamps.append(end)
        self.loops.append((end - start) * 1000.0)

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.TICK_S, self.TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """(raw seconds, reference seconds) of the interval [start, end].

        Raw seconds exclude the ticks' own time.  The speed is that of
        the ticks within ``SPEED_PAD_S`` of the interval: the host's
        speed changes on a scale of seconds, and a short interval (a
        12-ms request) holds too few ticks for a steady mean.
        """
        stamps, loops = self.stamps, self.loops
        if not loops:
            self._tick(0, None)
        inside = loops[bisect.bisect_left(stamps, start) : bisect.bisect_right(stamps, end)]
        raw = max(0.0, end - start - sum(inside) / 1000.0)
        lo = bisect.bisect_left(stamps, start - self.SPEED_PAD_S)
        hi = bisect.bisect_right(stamps, end + self.SPEED_PAD_S)
        near = loops[lo:hi] or [loops[min(lo, len(loops) - 1)]]
        factor = statistics.fmean((self.REFERENCE_LOOP_MS / ms) ** self.ELASTICITY for ms in near)
        return raw, raw * factor

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stamps": self.stamps, "loops": self.loops}, handle)

    @classmethod
    def read(cls, path: str) -> "HostClock":
        """A stopped clock holding the ticks :meth:`write` saved."""
        clock = cls()
        with open(path, encoding="utf-8") as handle:
            saved = json.load(handle)
        clock.stamps, clock.loops = saved["stamps"], saved["loops"]
        return clock

