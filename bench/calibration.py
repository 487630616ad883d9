"""Fixed reference loops that measure how fast the machine runs code now.

On a shared machine the speed available to one process changes by up to
about 1.8x, in stretches from a second to minutes, which moves every time
a run takes.  The benchmark runs two reference loops before and after
every timed unit of work, and during it every ``INTERVAL_S`` from a timer
signal, and reports times in reference seconds: the unit's wall time
(less the time the loops took inside it) over the slowdown the loops saw
while it ran.

The loops do not touch simpson3.  One is plain Python integer and
fraction arithmetic, like the exact kernel, the optimizer's driver and
the CLI.  The other is numpy array arithmetic on one thread (a matrix
product, comparisons, a sort), like the batch float classifier and the
Monte Carlo estimators.  The two slow down by different amounts in the
same stretch, so each kind of work is scaled by the loop that matches it,
or by a geometric mix of both (``numpy_share``).
"""

from __future__ import annotations

import functools
import signal
import time
from dataclasses import dataclass
from fractions import Fraction

# The loops' fastest times on an unloaded 2-vCPU x86-64 virtual machine
# with Python 3.11 and single-threaded OpenBLAS, so that a reference
# second is close to a second there.
PYTHON_S = 0.0024
NUMPY_S = 0.0034
INTERVAL_S = 0.1


@functools.cache
def _arrays():
    # numpy is imported here, not at the top, so that a set-up probe can run
    # the Python loop before it imports simpson3 (and numpy with it).
    import numpy as np

    rng = np.random.default_rng(20180912)
    return np, rng.exponential(size=(8192, 8)), rng.standard_normal((24, 8)), 1 << np.arange(24, dtype=np.int64)


def python_loop() -> float:
    """Wall time of one run of the Python loop."""
    start = time.perf_counter()
    x = Fraction(1)
    for i in range(1, 300):
        x = x * Fraction(i + 3, i + 1) + Fraction(1, i)
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


def numpy_loop() -> float:
    """Wall time of one run of the numpy loop."""
    np, rows, forms, pow2 = _arrays()
    start = time.perf_counter()
    h = np.log(rows)
    values = h @ forms.T
    scale = np.maximum(1.0, np.abs(h).max(axis=1))
    near = (np.abs(values) < 1e-9 * scale[:, None]).any(axis=1)
    codes = (values > 0).astype(np.int64) @ pow2
    np.unique(codes[~near], return_inverse=True)
    return time.perf_counter() - start


def sample() -> tuple[float, float]:
    """One run of each loop: (Python s, numpy s)."""
    return python_loop(), numpy_loop()


def slowdown(python_s: float, numpy_s: float, numpy_share: float) -> float:
    """How many times slower than nominal the loops ran, mixed by ``numpy_share``."""
    return (python_s / PYTHON_S) ** (1.0 - numpy_share) * (numpy_s / NUMPY_S) ** numpy_share


@dataclass(frozen=True)
class Timing:
    """One timed unit: wall seconds without the loops run inside it, and every loop sample."""

    wall_s: float
    samples: tuple[tuple[float, float], ...]

    def reference_s(self, numpy_share: float) -> float:
        """The wall time in reference seconds.

        A stretch of ``dt`` seconds at slowdown ``s`` does ``dt / s``
        reference seconds of work; the samples are spread evenly in time.
        """
        inverse = [1.0 / slowdown(p, n, numpy_share) for p, n in self.samples]
        return self.wall_s * sum(inverse) / len(inverse)


class Sampler:
    """Times units of work with the reference loops before, during and after each.

    Use as a context manager: it installs a SIGALRM handler, which runs
    only while a unit is timed, and puts the old one back on exit.  With
    ``during=False`` no timer runs and only the samples between units count.
    """

    def __init__(self, during: bool = True) -> None:
        self.during = during
        self._samples: list[tuple[float, float]] = []
        self._paused = 0.0

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(sample())
        self._paused += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm) if self.during else None
        self._last = sample()
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)

    def time(self, unit):
        """Run ``unit()``; return its output and its ``Timing``."""
        self._samples = [self._last]
        self._paused = 0.0
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            out = unit()
        finally:
            if self.during:
                signal.setitimer(signal.ITIMER_REAL, 0)
        wall_s = time.perf_counter() - start - self._paused
        self._last = sample()
        return out, Timing(wall_s, (*self._samples, self._last))
