"""Host-speed gauge: a fixed kernel timed on an interval timer while jobs run.

On a shared host the speed of this process changes by tens of percent, both
from one second to the next and over minutes, and CPU time changes with wall
time.  Timing more work in a run does not average that out, so every job
time is also expressed at a reference host speed:

    scaled = (wall - gauge time inside the job) * REF_KERNEL_S / kernel_s

where kernel_s is the mean time of the kernel in the samples taken during
the job (for a job shorter than the period: the nearest sample on each
side).  The speed changes within a second, so samples from outside the job
track it worse: on a 1.8 s job repeated for 40 s on a shared 2-CPU VM the
spread (interquartile range over median) was 0.176 unscaled, 0.021 scaled by in-job samples and
0.048 with samples from 0.5 s around the job.

The kernel is the benchmark's own code (a GF(2) elimination on int bit rows
and a GF(3) integer product, the two kinds of arithmetic syzex does), so no
change to syzex can move it.  It creates no container objects, so it never
triggers or pays for a garbage collection of the job's heap.  At one sample
per PERIOD_S it takes about 2 % of the run; that time is subtracted from the
job it interrupted.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time
from array import array

PERIOD_S = 0.02
# Kernel time on an idle host (2.1 GHz x86-64, Python 3.11); only fixes the
# scale of the reported numbers, which then read as seconds at that speed.
REF_KERNEL_S = 0.0004

_rng = random.Random(20240505)
_BITS = 48
_ROWS = [_rng.getrandbits(_BITS) for _ in range(40)]
_A = [_rng.randrange(3) for _ in range(144)]
_B = [_rng.randrange(3) for _ in range(144)]


def kernel(rows: list) -> int:
    """Fixed work; `rows` is scratch space of len(_ROWS), so no list is created."""
    rows[:] = _ROWS
    n = len(rows)
    rank = 0
    for col in range(_BITS):
        bit = 1 << col
        for piv in range(rank, n):
            if rows[piv] & bit:
                break
        else:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for j in range(n):
            if j != rank and rows[j] & bit:
                rows[j] ^= p
        rank += 1
    acc = 0
    for i in range(0, 144, 12):
        for j in range(12):
            s = 0
            for k in range(12):
                s += _A[i + k] * _B[12 * k + j]
            acc += s % 3
    return rank + acc


class Gauge:
    def __init__(self):
        self.at = array("d")  # sample start times
        self.kernel_s = array("d")
        self.spent = 0.0  # total time inside the handler
        self._rows = [0] * len(_ROWS)

    def _sample(self, signum, frame):
        t = time.perf_counter()
        kernel(self._rows)
        dt = time.perf_counter() - t
        self.at.append(t)
        self.kernel_s.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_KERNEL_S / mean kernel time during [start, end]."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        if hi <= lo:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        if hi <= lo:
            raise RuntimeError("no gauge samples; was the gauge started?")
        return REF_KERNEL_S / statistics.fmean(self.kernel_s[lo:hi])


def probe(repeats: int = 5) -> float:
    """Median kernel time now, for work that cannot carry the timer (subprocesses)."""
    rows = [0] * len(_ROWS)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        kernel(rows)
        times.append(time.perf_counter() - t)
    return statistics.median(times)
