"""Host-speed probe: report times at a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by 10-30% within
seconds, in CPU time as much as in wall time.  A fixed pure-Python loop
slows down with the program, so the ratio of the two stays steady: on a
five-minute series of 0.1 s oracle calls, each timed next to the loop, the
quartile spread of 10-second medians was 60% for raw seconds and 2.3% for
seconds scaled by the loop.

`SpeedProbe` runs the loop from a timer signal every INTERVAL_S while an
operation runs, on the operation's own thread, and subtracts the probe's
own time from the operation's.  Each stretch between two probes is scaled
by the median loop time of the probes around it, so drift inside a long
operation is tracked too.  The result is seconds at the speed at which
the loop takes REFERENCE_S_PER_ITERATION per iteration.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# The loop's median time per iteration on the reference host
# (2-vCPU Intel Xeon VM, Python 3.11.7).
REFERENCE_S_PER_ITERATION = 1.6e-6
PROBE_ITERATIONS = 1500
INTERVAL_S = 0.05
NEIGHBOURS = 2  # probes on each side that set a stretch's local speed


def probe_loop(iterations: int) -> float:
    """Seconds per iteration of a fixed mix of tuple, dict, generator and Fraction work."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(iterations):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + 1
        if all(x <= y for x, y in zip(key, (3, 5, 7))):
            acc += Fraction(i % 5 + 1, 3).numerator
    return (time.perf_counter() - start) / iterations


def reference_factor() -> float:
    """Reference speed over current speed, from a few loop runs back to back."""
    per_iteration = statistics.median(probe_loop(10000) for _ in range(5))
    return REFERENCE_S_PER_ITERATION / per_iteration


class SpeedProbe:
    """Times code blocks in seconds at the reference speed.

    Use as a context manager around a series of `measure` calls; the timer
    runs only inside it.
    """

    def __init__(self):
        self._probes = []  # (start, end, seconds per iteration)
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        per_iteration = probe_loop(PROBE_ITERATIONS)
        self._probes.append((start, time.perf_counter(), per_iteration))

    def __enter__(self):
        self._probes = []
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn):
        """Call fn(); return (its result, seconds, seconds at the reference speed)."""
        first = len(self._probes)
        self._on_timer(None, None)  # a speed sample right at the start
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        self._on_timer(None, None)  # and one right after the end
        probes = sorted(self._probes[first:])  # a nested timer call appends out of order
        speeds = [p[2] for p in probes]
        raw = scaled = 0.0
        cursor = start
        for i, (p_start, p_end, _) in enumerate(probes[1:], start=1):
            stretch = min(p_start, end) - cursor
            if stretch > 0:
                local = statistics.median(speeds[max(0, i - NEIGHBOURS):i + NEIGHBOURS])
                raw += stretch
                scaled += stretch * REFERENCE_S_PER_ITERATION / local
            cursor = max(cursor, p_end)
        return result, raw, scaled
