"""The daemon harness the smoke scripts share.

Each smoke script starts a real ``wmxml serve`` subprocess on an
ephemeral port, reads the port back from its startup banner, drives it
over loopback HTTP, then SIGTERMs it and asserts it exits 0.  Importing
this module also puts the checkout's ``src/`` on ``sys.path``, so a
script imports it before ``repro``::

    from smoke_daemon import read_bound_port, start_daemon, stop_daemon
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
from typing import Optional, Sequence

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)


def cli_env(extra_env: Optional[dict] = None) -> dict:
    """This process's environment with the checkout's ``src/`` first on
    ``PYTHONPATH``, for ``python -m repro.cli`` subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra_env or {})
    return env


def start_daemon(serve_args: Sequence[str],
                 extra_env: Optional[dict] = None) -> subprocess.Popen:
    """``wmxml serve <serve_args> --port 0`` with its stdout piped."""
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", *serve_args,
         "--port", "0"],
        env=cli_env(extra_env), cwd=REPO, stdout=subprocess.PIPE,
        text=True)


def read_bound_port(daemon: subprocess.Popen) -> int:
    """Parse the ephemeral port from the daemon's startup banner.

    ``--port 0`` lets the daemon pick the port itself — no
    probe-then-rebind race with other processes on a busy CI host.
    The remaining output keeps draining on a thread (echoed through)
    so the pipe can never fill and block the daemon.
    """
    for line in daemon.stdout:
        print(line, end="")
        match = re.search(r"listening on http://[^:]+:(\d+)", line)
        if match:
            threading.Thread(
                target=lambda: [print(rest, end="")
                                for rest in daemon.stdout],
                daemon=True).start()
            return int(match.group(1))
    raise AssertionError(
        f"daemon exited (code {daemon.wait()}) before printing its port")


def stop_daemon(daemon: subprocess.Popen) -> int:
    """SIGTERM the daemon and return its exit code (-9 if it had to be
    killed: a wedged daemon must not outlive the script)."""
    daemon.send_signal(signal.SIGTERM)
    try:
        return daemon.wait(timeout=15)
    except subprocess.TimeoutExpired:
        daemon.kill()
        daemon.wait()
        return -9
