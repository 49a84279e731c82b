"""Start, probe and stop a real ``wmxml serve`` subprocess."""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Optional

from wmbench.proc import cpu_seconds, peak_rss_mb

BANNER = re.compile(r"listening on http://[^:]+:(\d+)")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Daemon:
    """One daemon: ``wmxml serve`` itself, or the traced bootstrap.

    ``spans_path`` selects the bootstrap, which installs the span
    wrappers before calling the same ``serve`` entry point and writes
    its spans there on shutdown.
    """

    def __init__(self, root: str, serve_args: list[str],
                 spans_path: Optional[str] = None) -> None:
        paths = [os.path.join(root, "src")]
        if spans_path is None:
            command = ["-m", "repro.cli", "serve"]
        else:
            paths.append(os.path.join(root, "perfbench"))
            command = ["-m", "wmbench.serve_traced", spans_path, "serve"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(paths)
        self.process = subprocess.Popen(
            [sys.executable, "-u", *command, *serve_args, "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True)
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._await_port()

    def _read(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(0.0, remaining))
            except queue.Empty:
                line = None
            if line is None:
                self.kill()
                raise RuntimeError("wmxml serve did not come up")
            match = BANNER.search(line)
            if match:
                return int(match.group(1))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.process.pid)

    def stop(self) -> None:
        """SIGTERM and wait; a daemon that will not exit is an error."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("wmxml serve ignored SIGTERM")
        finally:
            self._reader.join(timeout=5)
            self.process.stdout.close()
        if code != 0:
            raise RuntimeError(f"wmxml serve exited with {code}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
