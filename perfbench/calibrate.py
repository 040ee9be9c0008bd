"""Host-speed calibration for a shared, drifting host.

On the 2-core host this benchmark was built on, the same work ran up to
1.5x slower for minutes at a time. Across ten runs, the spread of every
raw time was 0.21-0.30 of its median. A fixed kernel, timed between the
benchmark's operations, slows down in step with the host. Every reported
time is therefore divided by ``factor``, the run's mean kernel time over
``REFERENCE_S``; such a time reads as milliseconds on a host where the
kernel takes ``REFERENCE_S``. With this kernel, the ten-run spreads of
the mean op times fell to 0.02-0.04.

The kernel mixes interpreted Python with one HiGHS solve through scipy,
as the program does, and runs with trace and profile hooks cleared. It
shares nothing with entflow, so a change to the program does not change
the kernel's time. One exception remains: a busy thread that the program
leaves running would slow both, which ``env.peak_threads`` shows.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
from scipy.optimize import linprog

REFERENCE_S = 0.008  # kernel seconds on the reference host


class HostClock:
    """Kernel timings of one run and the speed factor they give."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.uniform(0.0, 1.0, (30, 60))
        self._b = rng.uniform(1.0, 2.0, 30)
        self._c = -rng.uniform(0.0, 1.0, 60)
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time inside sample(), to leave out of throughput

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        table: dict[int, tuple[int, float]] = {}
        for i in range(8000):
            table[i % 101] = (i, acc)
            acc += (i * 0.5) ** 0.5
        linprog(self._c, A_ub=self._a, b_ub=self._b, method="highs")
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Time the kernel once; returns the wall seconds the call took."""
        t0 = time.perf_counter()
        hooks = sys.gettrace(), sys.getprofile()
        sys.settrace(None)
        sys.setprofile(None)
        try:
            self.samples.append(self._kernel())
        finally:
            sys.settrace(hooks[0])
            sys.setprofile(hooks[1])
        spent = time.perf_counter() - t0
        self.spent_s += spent
        return spent

    @property
    def factor(self) -> float:
        """Mean kernel time over the reference; above 1 on a slower host."""
        return statistics.mean(self.samples) / REFERENCE_S
