"""Host-speed gauge: op times in reference seconds.

On a shared virtual machine the speed of one CPU was seen to change by up
to ~2x, both within fractions of a second and for minutes at a time, with
no steal time reported, so CPU time moves with wall time.  A raw timing of
the same op list then spreads by tens of percent from run to run, whatever
the run length.

The run is pinned to one CPU.  A gauge, a fixed piece of work of the
library's own kind that heisenmag itself does not run (so no change to it
can speed the gauge up), is timed on that CPU once before and once after
every op and, through a ``SIGALRM`` interval timer, every ``EVERY_S``
during the op.  The op's time, less the time spent in those in-op
samples, is scaled by ``R / g``: ``g`` is the mean of all these gauge
times, ``R`` the gauge's time on an unloaded CPU.  A reference second is a
second on a CPU that runs the gauge in ``R``.  In-op samples matter for
long ops (``verify`` runs criteria of 1-9 s), whose CPU changes speed many
times while they run; a short op is mostly judged by its neighbours.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time
from contextlib import contextmanager

import mpmath
import numpy as np
from scipy.integrate import quad

EVERY_S = 0.025  # in-op gauge period


def _integrand(s):
    c = np.cos(s)
    return float(c * c * s + 0.5 * math.sin(s))


def _quad_work():
    quad(_integrand, 0.0, 30.0, epsabs=1e-12, epsrel=1e-12, limit=200)


def _mpmath_work():
    with mpmath.workdps(30):
        x = mpmath.mpf(1) / 3
        acc = mpmath.mpf(0)
        for k in range(20):
            acc += mpmath.exp(x * k / 20) * x


# kind -> (its parts, R: its time in the fast state of a 2-vCPU cloud VM)
KINDS = {
    "quad": ((_quad_work,), 180e-6),
    "quad+mpmath": ((_quad_work, _mpmath_work), 450e-6),
}


def pin_to_one_cpu() -> int:
    """Pin this process (and any child it starts) to its last usable CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Interval:
    """Gauge samples of one timed interval, and when the in-op ones ran."""

    def __init__(self, before: float):
        self.samples = [before]
        self.pauses = []  # (start, duration) of in-op samples

    def paused(self, t0: float, t1: float) -> float:
        """Time in-op samples took between perf_counter readings t0 and t1."""
        return math.fsum(d for start, d in self.pauses if t0 <= start < t1)


class Gauge:
    def __init__(self, kind: str = "quad"):
        self.kind = kind
        self.parts, self.reference_s = KINDS[kind]
        self.readings = []
        self._current = None
        self._last = self._once()

    def _once(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        current, self._current = self._current, None  # no nested ticks
        if current is None:
            return
        t0 = time.perf_counter()
        current.samples.append(self._once())
        current.pauses.append((t0, time.perf_counter() - t0))
        self._current = current

    def refresh(self) -> None:
        """Re-read before a run of back-to-back ops, after other work."""
        self._last = self._once()

    @contextmanager
    def interval(self, sample_inside: bool = True):
        """Collects the gauge samples of the interval run in the block.

        With ``sample_inside`` the gauge also runs every ``EVERY_S`` in this
        process while the block runs; turn it off while the block waits for a
        child process on the same CPU.
        """
        self._current = Interval(self._last)
        previous = None
        if sample_inside:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self._current
        finally:
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
            self._current = None

    def scale(self, interval: Interval, seconds: float) -> float:
        """Reference seconds of ``seconds`` measured within ``interval``.

        ``seconds`` must already exclude the in-op samples
        (``interval.paused``).
        """
        self._last = self._once()
        g = statistics.fmean(interval.samples + [self._last])
        self.readings.append(g)
        return seconds * self.reference_s / g
