"""``python -m repro.service`` end to end: boot, serve, SIGTERM drain.

This is the test CI's ``service`` job runs: a real subprocess server on
an ephemeral port, a plain and a budgeted strategy sweep, and a
clean-drain assertion on the exit status.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

from repro.service import ServiceClient

SRC = Path(__file__).resolve().parents[2] / "src"


def test_cli_serves_and_drains_on_sigterm():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "--port",
            "0",
            "--batch-size",
            "8",
            "--preload",
            "cavity",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"serving on http://([\d.]+):(\d+)", banner)
        assert match, f"no serving banner in {banner!r}"
        host, port = match.group(1), int(match.group(2))

        with ServiceClient(host, port) as client:
            health = client.health()
            assert health["status"] == "ok"
            assert client.apps()["cavity"]["loaded"] is True  # preloaded
            events = list(
                client.sweep("cavity", variants=["baseline"], onchip_counts=[None])
            )
            assert [e["type"] for e in events] == [
                "start",
                "record",
                "record",
                "end",
            ]
            events = list(
                client.sweep(
                    "cavity", strategy="frontier", budget={"max_oracle_calls": 4}
                )
            )
            assert events[-1]["type"] == "end"
            assert events[-1]["summary"]["stopped"] == "budget_exhausted"
            assert events[-1]["summary"]["oracle_calls"] <= 4

        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)

    assert proc.returncode == 0, output
    assert "draining in-flight sweeps" in output
    assert "drained cleanly" in output
