"""Host speed reference, used to rescale the benchmark's times.

On a shared host the speed of the same code drifts by a quarter or more,
within seconds and over minutes, with the load of other tenants.  A fixed
kernel is therefore timed all through a run: scipy's own ``splu`` and one
solve of a complex-shifted 5-point Laplacian of order 3600, the operation
that dominates the sparse workloads.  It calls no h2mor code, so a change to
h2mor cannot move it.

A time measured over a stretch of the run (one pass, one set-up repetition)
is reported times ``NOMINAL_S / median``, where ``median`` is that of the
kernel samples taken in the same stretch: seconds on a host on which the
kernel takes ``NOMINAL_S``.  The raw times and every sample are kept in the
result file.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

#: About the kernel's median on the 2-vCPU Intel Xeon host where the
#: benchmark's bounds were set (12-20 ms there).
NOMINAL_S = 0.015
GRID = 60
SHIFT = 3.0 + 4.0j


class Reference:
    def __init__(self):
        one = np.ones(GRID)
        lap = sps.diags([one[1:], -2.0 * one, one[1:]], [-1, 0, 1])
        eye = sps.identity(GRID)
        A = sps.kron(lap, eye) + sps.kron(eye, lap)
        self._matrix = (A - SHIFT * sps.identity(GRID * GRID)).tocsc()
        self._rhs = np.ones(GRID * GRID)
        self.samples = []

    def sample(self, reps=1):
        for _ in range(reps):
            t0 = perf_counter()
            splu(self._matrix).solve(self._rhs)
            self.samples.append(perf_counter() - t0)

    def scale(self, lo, hi=None):
        """Factor for times measured while ``samples[lo:hi]`` were taken."""
        return NOMINAL_S / statistics.median(self.samples[lo:hi])
