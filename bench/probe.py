"""Machine-speed probe for the workload process.

Shared virtual machines, such as the 2-vCPU Xeon VM the baseline was measured
on, share physical cores with other tenants, and the speed of the same
single-threaded Python code drifts by 20-40% over minutes there (no steal
time is visible to the guest).  To tell program speed from
machine speed, a fixed pure-Python reference computation is timed on a
SIGALRM every PERIOD_S while the workload runs, in the same thread, so each
sample sees the machine exactly as the operations do.

A time t measured while reference chunks take c seconds on average is
reported as t * NOMINAL_CHUNK_S / c: the time it would take on a machine
where one chunk takes exactly NOMINAL_CHUNK_S.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction
from typing import List

PERIOD_S = 0.05
NOMINAL_CHUNK_S = 0.001


def reference_chunk() -> None:
    """Fixed work with the workloads' mix: Fraction arithmetic and
    comparisons, small tuples, a dict and a sort."""
    acc = Fraction(0)
    seen = {}
    for i in range(1, 100):
        f = Fraction(i % 13 + 1, i % 7 + 2)
        acc += f
        key = (f.numerator, f.denominator, i % 50)
        seen[key] = seen.get(key, 0) + 1
        if f < acc:
            acc -= Fraction(1, 3)
    sorted(seen.items())


def timed_chunk() -> float:
    start = time.perf_counter()
    reference_chunk()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples reference-chunk times while active (a context manager).

    `busy` is the total time spent in samples, so callers can take the
    probe's own time out of the intervals they measure.
    """

    def __init__(self):
        self.samples: List[float] = []
        self.busy = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        took = timed_chunk()
        self.samples.append(took)
        self.busy += took

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Factor that takes times measured since the last call to the
        nominal machine speed; three explicit samples guarantee a value."""
        samples = self.samples + [timed_chunk() for _ in range(3)]
        self.samples = []
        return NOMINAL_CHUNK_S / statistics.fmean(samples)


def setup_scale() -> float:
    """Scale factor from 40 chunks run back to back (about 40 ms), for a
    time measured just before."""
    return NOMINAL_CHUNK_S / statistics.fmean(timed_chunk() for _ in range(40))
