"""The machine's speed, sampled throughout each timed phase.

On a small shared host the same Python code runs up to twice as fast in
one minute as in the next (other tenants, frequency changes), in spells
of a few seconds to a minute.  Raw seconds taken an hour apart then
differ by more than any useful regression bound, whatever the program
does.  So every time the benchmark reports is in *reference seconds*:
the measured seconds times NOMINAL_CHUNK_S / r, where r is the time of a
fixed reference chunk measured during the same stretch of time.  A
reference second is a second on a machine that runs the chunk in
NOMINAL_CHUNK_S.

The chunk is the mix hallalg spends its time on -- dict and tuple churn
(engines, tables), Fraction arithmetic (exact scalars) and small matrix
products mod p (field arithmetic) -- and calls no hallalg code, so no
change to hallalg moves it.  Over five-second windows a cold
submodule-table loop and a cold Kronecker class list each followed the
time of the dict and Fraction parts with a log-log slope of 0.8-1.1
(correlation 0.94-0.97), while their raw times moved by a factor of 2.
Over 31 repeats of the cold nilpotent Jordan class list (q=2, n=4) and
of the cold Kronecker list for (2,3), scaling by the three parts (each
timed separately) cut the spread (IQR / median) from 0.15 to 0.02 and
from 0.19 to 0.05.

Probe samples the chunk from a SIGALRM handler every PERIOD_S of wall
time while a phase runs; the handler's own time is subtracted from every
item timed under it.  Use one Probe per process, from the main thread,
with no other threads running.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

# A chunk time between the fast and slow spells of the machine the
# README's figures come from (2-vCPU x86-64 VM, Python 3.11), where the
# chunk takes 0.5-1.1 ms; it only sets the scale.
NOMINAL_CHUNK_S = 0.0007
PERIOD_S = 0.03
WINDOW_S = 0.5     # an item is scaled by the samples within this of it
LEAST_SAMPLES = 8  # widen the window until it holds this many


_MATRIX = tuple(tuple((i * j + 1) % 5 for j in range(4)) for i in range(4))


def chunk():
    """Seconds taken by one fixed piece of pure-Python reference work."""
    start = time.perf_counter()
    counts = {}
    for i in range(1500):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    acc = Fraction(0)
    third = Fraction(1, 3)
    for i in range(1, 25):
        acc += Fraction(i, i + 1) * third
    a = _MATRIX
    for _ in range(12):
        a = tuple(tuple(sum(a[i][k] * _MATRIX[k][j] for k in range(4)) % 5 for j in range(4))
                  for i in range(4))
    return time.perf_counter() - start


def speed_now(samples=40):
    """NOMINAL_CHUNK_S / r, with r the mean of a run of chunks timed now."""
    return NOMINAL_CHUNK_S / statistics.fmean(chunk() for _ in range(samples))


class Item:
    """One timed piece of work: wall interval and seconds of its own work."""

    __slots__ = ("start", "end", "raw_s")

    def __init__(self, start, end, raw_s):
        self.start, self.end, self.raw_s = start, end, raw_s


class Probe:
    """Samples the reference chunk every PERIOD_S while started.

    An inactive probe (used in traced runs, where cProfile already
    distorts every time) takes no samples and scales by 1.
    """

    def __init__(self, active=True):
        self.active = active
        self.at = array("d")       # sample midpoints, perf_counter seconds
        self.factor = array("d")   # NOMINAL_CHUNK_S / chunk time
        self.spent = 0.0           # seconds spent inside the handler
        self._previous = None
        self._prefix = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        seconds = chunk()
        self.at.append(start + seconds / 2)
        self.factor.append(NOMINAL_CHUNK_S / seconds)
        self.spent += time.perf_counter() - start

    def start(self):
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def timed(self, fn, *args):
        """(fn(*args), Item): the handler's time is taken out of raw_s."""
        spent, start = self.spent, time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        return result, Item(start, end, end - start - (self.spent - spent))

    def scale(self, item):
        """item.raw_s in reference seconds: times the mean speed factor of
        the samples within WINDOW_S of the item (more, if too few)."""
        if not self.active:
            return item.raw_s
        if not self.factor:
            raise RuntimeError("the speed probe took no samples")
        if self._prefix is None or len(self._prefix) != len(self.factor) + 1:
            self._prefix = array("d", [0.0])
            for f in self.factor:
                self._prefix.append(self._prefix[-1] + f)
        pad = WINDOW_S
        while True:
            lo = bisect_left(self.at, item.start - pad)
            hi = bisect_right(self.at, item.end + pad)
            if hi - lo >= min(LEAST_SAMPLES, len(self.at)):
                break
            pad *= 2
        return item.raw_s * (self._prefix[hi] - self._prefix[lo]) / (hi - lo)
