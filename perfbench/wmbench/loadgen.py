"""Open- and closed-loop HTTP load from one process.

The open loop sends each request at a time fixed in advance by a seeded
Poisson schedule, whatever the daemon is doing; latency is timed from
that *due* time, so a stall also charges the wait it imposes on the
requests queued behind it.  The closed loop has each caller send its
next request only when the previous one has been answered.  Both keep
at most one connection open per worker thread.
"""

from __future__ import annotations

import http.client
import itertools
import random
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

#: Backlog sampling step for the growth check, in seconds.
BACKLOG_STEP_S = 0.05


@dataclass
class Request:
    """One HTTP request and the check its answer must pass.

    ``check(body)`` gets the raw body of a 200 answer and returns
    an error message when the answer is wrong (a failed correctness
    gate), or None.
    """

    kind: str
    method: str
    path: str
    body: bytes = b""
    headers: dict = field(default_factory=dict)
    check: Optional[Callable[[bytes], Optional[str]]] = None


@dataclass
class Outcome:
    kind: str
    rid: str
    due: float
    sent: float
    done: float
    status: int
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.error is None

    @property
    def latency_ms(self) -> float:
        """From when the request was due to when its answer arrived."""
        return (self.done - self.due) * 1000.0

    @property
    def lag_ms(self) -> float:
        """How late the generator sent it, against its schedule."""
        return (self.sent - self.due) * 1000.0


def poisson_schedule(rate: float, duration: float,
                     rng: random.Random) -> list[float]:
    """Arrival offsets (s) of a Poisson process of ``rate`` per second."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    offsets = []
    now = rng.expovariate(rate)
    while now < duration:
        offsets.append(now)
        now += rng.expovariate(rate)
    return offsets


def exchange(port: int, request: Request, rid: str,
             due: float) -> Outcome:
    """Send one request on a connection of its own and time it.

    One connection per request is how the client SDK's urllib transport
    talks to the daemon.  (A keep-alive connection would instead meet a
    ~40 ms delayed-ACK stall per request: the daemon writes a response's
    headers and body in two sends.)
    """
    sent = time.perf_counter()
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    headers = {"Content-Type": "application/json", "X-Request-Id": rid,
               **request.headers}
    try:
        connection.request(request.method, request.path,
                           body=request.body or None, headers=headers)
        response = connection.getresponse()
        status, data = response.status, response.read()
    except (OSError, http.client.HTTPException) as error:
        return Outcome(request.kind, rid, due, sent, time.perf_counter(),
                       0, f"transport: {error}")
    finally:
        connection.close()
    done = time.perf_counter()
    error = None
    if status == 200 and request.check is not None:
        error = request.check(data)
    elif status != 200:
        error = f"HTTP {status}: {data[:200]!r}"
    return Outcome(request.kind, rid, due, sent, done, status, error)


def open_loop(port: int, offsets: Sequence[float],
              requests: Sequence[Request], workers: int,
              prefix: str = "o") -> list[Outcome]:
    """Send ``requests[i]`` at ``offsets[i]`` seconds from now.

    ``workers`` threads share the schedule; a request whose due time
    passes while every worker is busy goes out late, and its lateness
    shows as lag and as latency.
    """
    if len(offsets) != len(requests):
        raise ValueError("one offset per request")
    start = time.perf_counter() + 0.05
    order = itertools.count()
    outcomes: list[Optional[Outcome]] = [None] * len(requests)

    def worker() -> None:
        while True:
            index = next(order)
            if index >= len(requests):
                return
            due = start + offsets[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcomes[index] = exchange(port, requests[index],
                                       f"{prefix}{index}", due)

    _run_threads(worker, workers)
    return [outcome for outcome in outcomes if outcome is not None]


def closed_loop(port: int, callers: Sequence[Callable[[int], Request]],
                duration: float, prefix: str = "c") -> list[Outcome]:
    """Each caller sends ``make(n)`` for n = 0, 1, ... back to back
    until ``duration`` seconds have passed."""
    start = time.perf_counter()
    end = start + duration
    results: list[list[Outcome]] = [[] for _ in callers]

    def caller(slot: int) -> None:
        make = callers[slot]
        for count in itertools.count():
            now = time.perf_counter()
            if now >= end:
                return
            results[slot].append(exchange(
                port, make(count), f"{prefix}{slot}.{count}", now))

    threads = [threading.Thread(target=caller, args=(slot,))
               for slot in range(len(callers))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for chunk in results for outcome in chunk]


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def backlog_series(outcomes: Sequence[Outcome],
                   step: float = BACKLOG_STEP_S) -> list[int]:
    """Requests due but not yet answered, sampled every ``step`` s over
    the span of the schedule."""
    if not outcomes:
        return []
    first = min(outcome.due for outcome in outcomes)
    last = max(outcome.due for outcome in outcomes)
    series = []
    now = first
    while now <= last:
        series.append(sum(1 for outcome in outcomes
                          if outcome.due <= now < outcome.done))
        now += step
    return series


def backlog_grows(series: Sequence[int], workers: int) -> bool:
    """True when the median of the last third of a backlog ``series``
    is far above the first third's: the offered rate exceeds what the
    daemon sustains, so the run's latencies describe a queue that never
    drains and the run is invalid.  Medians, so that stalls that do
    drain (a long trace, say) do not count as growth."""
    if len(series) < 3:
        return False
    third = len(series) // 3
    early = statistics.median(series[:third])
    late = statistics.median(series[-third:])
    return late > 2.0 * early + workers
