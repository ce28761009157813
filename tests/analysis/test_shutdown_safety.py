"""Interpreter-shutdown safety for the RA006-audited finalizer paths.

A module-scope ``Explorer`` (live pool) collected at interpreter exit
must not print tracebacks, hang, or change the exit code — module
globals may already be ``None`` by the time ``__del__`` runs.  A
module-scope ``RemoteCache`` that met an outage must exit just as
cleanly.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _run(script: str, timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


def test_module_scope_explorer_exits_clean():
    proc = _run(
        """
        from repro.api import Explorer
        from repro.apps import get_app

        explorer = Explorer(get_app("btpc").space(), workers=2)
        explorer._ensure_pool()  # a live worker pool at interpreter exit
        print("ready")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ready"
    assert proc.stderr == ""


def test_module_scope_remote_cache_exits_clean():
    proc = _run(
        """
        from repro.explore.cache import RemoteCache

        # Port 1: nothing listens; the store fails its round trip, is
        # dropped, and leaves the client in its retry cooldown.
        cache = RemoteCache("127.0.0.1", 1)
        cache.put("k", {"v": 1})
        print("ready")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ready"
    assert proc.stderr == ""


def test_explorer_del_tolerates_torn_down_pool():
    class _BrokenPool:
        def shutdown(self, wait=False):
            raise RuntimeError("globals are gone")

    from repro.api import Explorer

    explorer = Explorer.__new__(Explorer)
    explorer.__dict__["_pool"] = _BrokenPool()
    explorer.__del__()  # must swallow: finalizers cannot raise usefully
    assert explorer.__dict__["_pool"] is None


def test_discard_pool_counts_shutdown_failures():
    # Regression for the RA006 fix: a pool whose shutdown itself raises
    # is counted, not silently swallowed.
    class _BrokenPool:
        def shutdown(self, wait=False):
            raise OSError("already dead")

    from repro.api import DesignSpace, Explorer

    space = DesignSpace("shutdown", cycle_budget=1_000, frame_time_s=1e-3)
    explorer = Explorer(space, workers=2)
    assert explorer._pool_discard_failures == 0
    explorer._discard_pool(_BrokenPool())
    assert explorer._pool_discard_failures == 1
    explorer.close()
