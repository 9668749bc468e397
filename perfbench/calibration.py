"""Machine-speed calibration for the gated times.

A shared 2-core x86 virtual machine can change speed by a factor of 1.7
within minutes: one pass of 60 node-capped solves took 7.0 s and 11.6 s
in back-to-back repeats, with CPU time equal to wall time.  A fixed
pure-Python yardstick timed between ops slows down with them; the ratio
of pass time to yardstick time stayed within 3% over those repeats.
The gated times of work done in the benchmark process, and its set-up
time, are therefore reported at the reference speed, the speed at which
one yardstick pass takes ``NOMINAL_S``.  The yardstick lives in the
benchmark, so a change to the library cannot move it.
"""
from __future__ import annotations

import math
import random
import statistics
import time

NOMINAL_S = 0.004
BUDGET = 0.05  # yardstick time as a share of the time it calibrates
BEFORE = 8  # earlier samples that join an interval's own in its median


class Calibration:
    """Scales measured intervals by yardstick samples taken just before and
    just after each one, which follows speed changes within a run."""

    def __init__(self):
        rng = random.Random(0)
        n = 60
        self._succ = [[j for j in range(i + 1, n) if rng.random() < 0.2] for i in range(n)]
        self._weight = [rng.randint(1, 9) for _ in range(n)]
        self.samples = []
        self._owed = 0.0
        self._sample(BEFORE)

    def _once(self):
        """Longest paths and dict updates over a seeded DAG, 40 times."""
        succ, weight = self._succ, self._weight
        t0 = time.perf_counter()
        for _ in range(40):
            dist = [0] * len(succ)
            seen = {}
            for i, out in enumerate(succ):
                for j in out:
                    cand = dist[i] + weight[i]
                    if cand > dist[j]:
                        dist[j] = cand
                    seen[i, j] = cand
        return time.perf_counter() - t0

    def _sample(self, count):
        self.samples += [self._once() for _ in range(count)]

    def scale(self, seconds):
        """``seconds`` just measured, at the reference speed.

        Samples the yardstick for about ``BUDGET`` of the interval, carrying
        fractions over to later intervals so that short ops share samples,
        and takes the median of these and the ``BEFORE`` samples before them.
        """
        self._owed += BUDGET * seconds / NOMINAL_S
        count = math.floor(self._owed)
        self._owed -= count
        self._sample(count)
        local = statistics.median(self.samples[-(count + BEFORE):])
        return seconds * NOMINAL_S / local

    def factor(self):
        """The run's median speed relative to the reference speed."""
        return NOMINAL_S / statistics.median(self.samples)

