"""Frozen reference kernels that measure how fast the host is running.

The host this benchmark was built on changes speed by 30-60% over minutes
(the same pass took 2.2 s in one run and 3.4 s in another), which swamps the
differences a change to conecert makes.  Each run therefore times one of
these kernels between jobs and scales its pass times by ``NOMINAL / kernel
time``: the reported seconds are what the pass would take with the host at
the speed it had when ``NOMINAL`` was measured.  The raw times are logged too.

Each workload uses the kernel closest to its hot layer: interpreted object
arithmetic for branch and bound and per-call overhead, a dense matvec for the
Picard solve, a dense LU for the Newton solve.  Do not edit the kernels or
``NOMINAL`` in a change that is measured with them: both sides of a
comparison must use the same yardstick.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# median seconds of one kernel call on the baseline host (2-vCPU Intel Xeon,
# scipy-openblas 0.3.31, one BLAS thread), measured over 200 calls
NOMINAL = {"python": 0.0147, "matvec": 0.0098, "lu": 0.0076}


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __add__(self, other):
        return _Pair(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other):
        c = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return _Pair(min(c), max(c))


class Yardstick:
    """One reference kernel and its arrays, built once per run."""

    def __init__(self, kind: str):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.kernel = {"python": self._python, "matvec": self._matvec,
                       "lu": self._lu}[kind]
        if kind == "matvec":
            self.matrix = rng.random((1025, 1025))
            self.vector = rng.random(1025)
        if kind == "lu":
            self.system = rng.random((700, 700)) + 700.0 * np.eye(700)
            self.rhs = rng.random(700)

    def _python(self):
        step = _Pair(0.5, 1.5)
        acc = _Pair(0.0, 0.0)
        for i in range(8000):
            acc = acc + step * _Pair(i * 1e-6, i * 2e-6)
        return acc

    def _matvec(self):
        for _ in range(30):
            self.matrix @ self.vector

    def _lu(self):
        np.linalg.solve(self.system, self.rhs)

    def time(self) -> float:
        start = perf_counter()
        self.kernel()
        return perf_counter() - start

    def slowdown(self, times: list[float]) -> float:
        """How much slower than nominal the host ran, from kernel times."""
        return sum(times) / (len(times) * NOMINAL[self.kind])
