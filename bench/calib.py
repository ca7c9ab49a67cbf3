"""A speedometer for the benchmark's host: a fixed task timed while the program runs.

The benchmark's host gives it a share of cores that slow down by up to 2x in
spells lasting from a fraction of a second to minutes, so raw wall times of
the same code move by more than any useful bound from one run to the next.
The Speedometer times a tiny fixed pure-Python task from a SIGALRM handler
every PERIOD_S seconds, in the program's own thread, so the samples come
from the same CPU at the same moments as the program's work. The worker
subtracts the handler's time from every timed interval and scales each
pass by REF_S over the median sample taken during it: times read as times
on a host where the task takes REF_S.

The task uses no library, so a change to the program cannot change it, and
this module imports nothing heavy: the worker starts the speedometer before
it imports the program, so that set-up is sampled too.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
# Median time of one _task() on the 2-vCPU Xeon (family 6, model 143) the
# benchmark was tuned on, in a quiet spell. It only sets the scale of the
# reported times.
REF_S = 130e-6


def _task():
    total, table = 0, {}
    for i in range(1200):
        total += i * i % 7
        table[i & 63] = total
    return total


class Speedometer:
    """Samples _task() every PERIOD_S seconds of wall time while started."""

    def __init__(self):
        self.samples = []  # seconds per _task()
        self.spent = 0.0  # seconds spent in the handler, to subtract from timings

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _task()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_since(self, index, fallback):
        """Median sample from `index` on, or `fallback` if there is none."""
        recent = self.samples[index:]
        return statistics.median(recent) if recent else fallback
