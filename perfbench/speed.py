"""The machine's speed, sampled while the benchmark runs.

The host this benchmark runs on is shared: how fast one core executes
the same Python code drifts by up to 2x over minutes, with the other
tenants' load.  Raw wall seconds then measure the neighbours as much as
geosym.  To take that drift out, ``Sampler`` times a fixed calibration
kernel (pure Python, ``Fraction`` arithmetic and dict updates, the kind
of work geosym does) every ``INTERVAL_S`` seconds while the measured
work runs, from a ``SIGALRM`` handler in the measured thread itself,
and keeps the samples' seconds apart from the work's.  The speed can
switch between a fast and a slow state several times a second, so the
samples are short and frequent, and their mean weighs the states by
the time spent in each.

``Sampler.scaled`` converts the work's wall seconds, measured at the
sampled speed, into seconds at the reference speed, at which one kernel
call takes ``REFERENCE_S``.  A change to geosym leaves the kernel's time
alone and so moves the scaled seconds in proportion to its own work.
``work_clock`` is ``perf_counter`` without the handler's seconds, so
that spans traced meanwhile do not count the samples.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter
from typing import List

# Seconds one kernel call takes on the reference machine (2 vCPU x86_64,
# Python 3.11); scaled seconds are seconds at that speed.
REFERENCE_S = 0.004
INTERVAL_S = 0.1

_sampling_s = 0.0  # seconds spent in all samplers' handlers so far


def work_clock() -> float:
    return perf_counter() - _sampling_s


def kernel() -> int:
    """A fixed amount of geosym-like work: rational arithmetic on
    medium-sized integers and dict updates keyed by tuples."""
    table = {}
    acc = Fraction(0)
    for i in range(1, 400):
        q = Fraction(i * 7919 + 13, i % 97 + 3)
        acc = acc * Fraction(3, 7) + q * q
        table[(i % 31, i % 7)] = acc.numerator % 1000003
        if i % 16 == 0:
            acc = Fraction(acc.denominator % 101 + 1, acc.numerator % 103 + 1)
    return len(table)


class Sampler:
    """Times the kernel every ``INTERVAL_S`` seconds while active.

    Use as a context manager around the measured work.  ``wall_s`` is
    the work's wall time without the handler's, and ``samples`` the
    kernel calls' seconds."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.overhead_s = 0.0
        self.wall_s = 0.0

    def _tick(self, signum, frame) -> None:
        global _sampling_s
        t0 = perf_counter()
        kernel()
        seconds = perf_counter() - t0
        self.samples.append(seconds)
        self.overhead_s += seconds
        _sampling_s += seconds

    def scaled(self) -> float:
        """``wall_s`` as seconds at the reference speed."""
        return self.wall_s * REFERENCE_S / statistics.mean(self.samples)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = end - self._start - self.overhead_s
        # Work shorter than one interval still gets a sample.
        self._tick(None, None)
