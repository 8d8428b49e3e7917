"""A fixed piece of pure-Python work that gauges the host's current speed.

On a shared host the same code runs up to 1.8 times faster or slower from
one second to the next, and the slow and fast spells last long enough
that no amount of work in one run averages them out.  The kernel here is
timed in line with the work, in the same thread, and ``run.py`` scales
the work's rate by ``measure() / REFERENCE_S``, so the reported figures
read as if taken at the reference speed while a change in qcover still
moves them in full.  The kernel is the benchmark's own code (exact
``Fraction`` elimination and integer arithmetic, the kind of work qcover's
hot paths do), so no change to qcover changes it.  A kernel timed from
another thread or on the other CPU did not follow the work's speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# the kernel's median time on the reference host: 2 vCPU Intel Xeon VM at
# 2.0 GHz, Python 3.11.7
REFERENCE_S = 0.004

_MATRIX = [[(3 * i + 5 * j + i * j) % 7 - 3 for j in range(9)] for i in range(9)]


def _kernel() -> int:
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    acc = 0
    for i in range(20_000):
        acc = (acc * 31 + i) % 1_000_003
    return rank + acc


def measure(repeats: int = 3) -> float:
    """Median time of the kernel over ``repeats`` runs, cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Probe:
    """Times the kernel every ``interval`` seconds from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so the samples
    follow the speed of the work around them, also inside one long
    request.  ``samples`` holds (start, end, kernel seconds); the time
    between start and end is not the work's.
    """

    def __init__(self, interval: float = 0.2) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel_s = measure(1)
        self.samples.append((start, time.perf_counter(), kernel_s))

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
