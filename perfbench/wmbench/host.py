"""Host fingerprint: which machine a result was measured on.

Host names collide between machines (several hosts call themselves
``vm``), so a result is stamped with what actually sets the speed: the
CPU model, the usable core count, the Python version, and the time of
a short fixed calibration loop.  :func:`comparable` refuses to compare
results whose fingerprints differ.
"""

from __future__ import annotations

import os
import platform
import time

#: Calibration times of comparable hosts differ by at most this share of
#: the faster one.  Wide, because on a shared virtual machine the same
#: loop swings between about 20 and 37 ms within minutes; the check is
#: there to catch a different class of machine, not a busy one.
CALIBRATION_TOLERANCE = 1.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def calibration_ms(rounds: int = 9) -> float:
    """Fastest time of a fixed pure-Python loop (dict, str and int work,
    like the watermarking kernels); the fastest round is the one least
    disturbed by other load on the host."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        table = {}
        for index in range(60_000):
            key = f"k{index % 997}"
            table[key] = table.get(key, 0) + index * 7 % 13
        times.append((time.perf_counter() - start) * 1000.0)
    return min(times)


def fingerprint() -> dict:
    return {"cpu": cpu_model(), "nproc": usable_cores(),
            "python": platform.python_version(),
            "calibration_ms": round(calibration_ms(), 3)}


def comparable(first: dict, second: dict) -> tuple[bool, str]:
    """Whether results stamped with these fingerprints may be compared."""
    for field in ("cpu", "nproc", "python"):
        if first.get(field) != second.get(field):
            return False, (f"{field} differs: {first.get(field)!r} vs "
                           f"{second.get(field)!r}")
    a, b = first.get("calibration_ms"), second.get("calibration_ms")
    if not a or not b:
        return False, "a fingerprint lacks its calibration time"
    if abs(a - b) / min(a, b) > CALIBRATION_TOLERANCE:
        return False, (f"calibration differs: {a} ms vs {b} ms "
                       f"(more than {CALIBRATION_TOLERANCE:.0%})")
    return True, "same host class"
