"""Machine-speed calibration for the end-to-end timings.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give one Python process drifts by 20-50% over tens of
seconds to minutes.  The drift is not time spent descheduled: process
CPU time grows with it.  Runs of the same calls therefore spread by
0.2-0.3 (interquartile range over median) in raw seconds.

A run times a short fixed kernel (about 20 ms) every ``EVERY_S``
seconds while its CLI calls run, and reports each call's time, less the
kernel's, scaled by ``REFERENCE_S / mean(kernel times)``: the time the
call would take on a machine on which the kernel takes ``REFERENCE_S``.
A timer, not the gaps between calls, decides when, so a 20 s call is
sampled while it runs and not only after it.  The kernel times are
those taken during the call or within ``WINDOW_S`` of it, as the speed
changes within seconds; a short call with fewer than two of them takes
the whole run's.  The mean, not the median: the speed often switches
between two levels about 1.5x apart, and the median of the samples
jumps between them where a call averages over both.  On lp-corpus, six
40 s runs spread by 0.03 (throughput) and 0.05 (p90 latency) scaled
this way, against 0.05 and 0.10 with one scale for the whole run.

The kernel does not touch epicut, so a change to the package moves
only the calls' side of that ratio.  It mixes the work the package
does per ellipsoid cut (a rank-one shape update, a Cholesky
factorisation and a probe of a few constraints), at lifted dimensions 9
and 49.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import List

import numpy as np

EVERY_S = 0.25
WINDOW_S = 0.5
ROUNDS = 180
# About the kernel's time on a quiet 2-CPU x86-64 container (Python
# 3.11, numpy 2.4 with OpenBLAS pinned to one thread).  Only a scale:
# it sets the machine the normalized figures speak for.
REFERENCE_S = 0.02


def _ellipsoid_steps(cuts: np.ndarray, probes: np.ndarray, steps: int) -> float:
    """Central cuts through the rows of ``cuts`` in turn, starting from
    the unit ball and again every 2d steps, refactoring the shape and
    probing ``probes`` after each: the shape of one ellipsoid iteration."""
    d = cuts.shape[1]
    acc = 0.0
    for i in range(steps):
        if i % (2 * d) == 0:
            shape, center = np.eye(d), np.zeros(d)
        a = cuts[i % len(cuts)]
        pa = shape @ a
        root = math.sqrt(float(a @ pa))
        center = center - pa / (root * (d + 1))
        shape = (d * d / (d * d - 1.0)) * (shape - (2.0 / (d + 1)) * np.outer(pa, pa) / root**2)
        shape = (shape + shape.T) / 2.0
        acc += float(np.min(np.diagonal(np.linalg.cholesky(shape))))
        acc += float(np.max(probes @ center))
    return acc


def kernel(rounds: int = ROUNDS) -> float:
    """Fixed, deterministic work; returns a checksum.  Each round is one
    step at lifted dimension 9 and one at 49, as in lp-corpus or
    planted-minima and in m-ladder."""
    rng = np.random.default_rng(0)
    small = (rng.standard_normal((16, 9)), rng.standard_normal((8, 9)))
    large = (rng.standard_normal((64, 49)), rng.standard_normal((48, 49)))
    return _ellipsoid_steps(*small, rounds) + _ellipsoid_steps(*large, rounds)


class Calibrator:
    """Kernel times sampled on an interval timer while the calls run.

    Inside ``with calibrator:`` a SIGALRM every ``EVERY_S`` seconds runs
    the kernel from the signal handler, between two bytecodes of
    whatever the process is doing, in the middle of a long call too.
    A caller subtracts ``kernel_s_between`` from any interval it times.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.times: List[float] = []
        self._busy = False
        self._previous = None

    def sample(self, _signum=None, _frame=None) -> None:
        """One kernel run, timed; also the signal handler."""
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            kernel()
            took = time.perf_counter() - started
            self.starts.append(started)
            self.times.append(took)
        finally:
            self._busy = False

    def __enter__(self) -> "Calibrator":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        self.sample()
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s_between(self, start: float, end: float) -> float:
        """Kernel time of the runs that started inside [start, end)."""
        return sum(took for at, took in zip(self.starts, self.times) if start <= at < end)

    def scale_for(self, start: float, end: float) -> float:
        """Factor from one call's measured seconds to reference-machine
        seconds, from the kernel runs near [start, end)."""
        near = [took for at, took in zip(self.starts, self.times)
                if start - WINDOW_S <= at < end + WINDOW_S]
        return REFERENCE_S / statistics.fmean(near) if len(near) >= 2 else self.scale

    @property
    def mean_s(self) -> float:
        return statistics.fmean(self.times)

    @property
    def scale(self) -> float:
        """The same factor from every kernel run of the run."""
        return REFERENCE_S / self.mean_s
