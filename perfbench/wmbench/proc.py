"""What ``/proc`` says about the program's processes: CPU and memory.

CPU time is read per process, so time the hypervisor steals from the
host's virtual CPUs does not count: on a host whose steal swings from a
third to two thirds of the time, CPU seconds per document repeat within
a few per cent where wall-clock rates do not.
"""

from __future__ import annotations

import glob
import os

TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, all its threads."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICKS_PER_S


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def children(pid: int) -> list[int]:
    """Live child processes of ``pid`` (a pool's workers, say)."""
    found = []
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(path, encoding="utf-8") as handle:
            found.extend(int(item) for item in handle.read().split())
    return sorted(set(found))
