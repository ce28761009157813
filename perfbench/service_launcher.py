"""Start the sweep service with the benchmark's host clock installed.

    python perfbench/service_launcher.py TICK_FILE SPAN_FILE|- [service arguments...]

Starts a :class:`hostclock.HostClock` and, unless SPAN_FILE is ``-``,
wraps the program's public functions (``tracing.py``); then runs
``repro.service``'s own ``main`` with the remaining arguments, exactly
as ``python -m repro.service`` would.  The clock's ticks (and the
spans) are written once the service has drained.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import tracing  # noqa: E402 - after the bytecode switch
from hostclock import HostClock  # noqa: E402


def main() -> int:
    tick_file, span_file, service_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    clock = HostClock()
    clock.start()
    tracer = None
    if span_file != "-":
        tracer = tracing.Tracer()
        tracer.install(tracing.targets())
    from repro.service.__main__ import main as service_main

    try:
        return service_main(service_args)
    finally:
        clock.stop()
        clock.write(tick_file)
        if tracer is not None:
            tracer.write(span_file)


if __name__ == "__main__":
    sys.exit(main())
