"""``python -m repro.cacheserver`` end to end: boot, serve, SIGTERM drain.

This is the test CI's ``cacheserver`` job runs: a real subprocess
server on an ephemeral port, a client warm/read cycle, and a
clean-drain assertion on the exit status.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

from repro.explore import DiskCache, RemoteCache

SRC = Path(__file__).resolve().parents[2] / "src"


def test_cli_serves_and_drains_on_sigterm(tmp_path):
    corpus = tmp_path / "corpus"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cacheserver",
            "--port",
            "0",
            "--cache",
            str(corpus),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"serving on ([\d.]+):(\d+)", banner)
        assert match, f"no serving banner in {banner!r}"
        host, port = match.group(1), int(match.group(2))

        with RemoteCache(host, port) as client:
            client.put("smoke", {"v": 1})
            assert client.get("smoke") == {"v": 1}
            assert len(client) == 1
            stats = client.server_stats()
            assert stats["backend"] == "DiskCache"

        proc.send_signal(signal.SIGTERM)
        output, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate(timeout=10)

    assert proc.returncode == 0, output
    assert "stop requested, draining" in output
    assert "drained cleanly" in output
    # The corpus the CLI served is an ordinary DiskCache directory.
    assert DiskCache(corpus).get("smoke") == {"v": 1}
