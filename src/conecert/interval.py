"""Outward-rounded interval arithmetic.

Every operation returns an interval that contains the exact real-arithmetic
image of its operands (containment).  Outward rounding is achieved by
stepping each computed endpoint to the next representable float after the
operation: one step for the IEEE-correctly-rounded ops (+, -, *, /), two
steps for libm transcendentals whose rounding is only guaranteed to ~1 ulp.
Directed-rounding mode switching is deliberately avoided (platform-fragile).

Point intervals (lo == hi) are permitted; splitting a point interval signals
no-split by returning None instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_INF = math.inf


def _down(x: float) -> float:
    return math.nextafter(x, -_INF)


def _up(x: float) -> float:
    return math.nextafter(x, _INF)


def _down2(x: float) -> float:
    return _down(_down(x))


def _up2(x: float) -> float:
    return _up(_up(x))


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi] with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = float(self.lo)
        hi = float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval endpoint is NaN")
        if lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        return min(max(m, self.lo), self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    # ------------------------------------------------------------------
    # arithmetic (outward rounded)

    @staticmethod
    def _lift(other) -> "Interval":
        if isinstance(other, Interval):
            return other
        return Interval.point(float(other))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __add__(self, other) -> "Interval":
        o = Interval._lift(other)
        return Interval(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        o = Interval._lift(other)
        return Interval(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other) -> "Interval":
        return Interval._lift(other) - self

    def __mul__(self, other) -> "Interval":
        o = Interval._lift(other)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = Interval._lift(other)
        if o.lo <= 0.0 <= o.hi:
            raise DomainError(f"division by interval containing zero: {o}")
        p = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return Interval(_down(min(p)), _up(max(p)))

    def __rtruediv__(self, other) -> "Interval":
        return Interval._lift(other) / self

    # ------------------------------------------------------------------
    # elementary functions

    def exp(self) -> "Interval":
        lo = max(0.0, _down2(math.exp(self.lo)))
        hi = math.exp(self.hi)
        if not math.isfinite(hi):
            raise DomainError(f"exp overflow on {self}")
        return Interval(lo, _up2(hi))

    def log(self) -> "Interval":
        if self.lo <= 0.0:
            raise DomainError(f"log of interval touching nonpositive reals: {self}")
        return Interval(_down2(math.log(self.lo)), _up2(math.log(self.hi)))

    def _trig_range(self, fn, extremum_offset: float) -> "Interval":
        # Both cos (offset 0) and sin (offset pi/2) peak at n*pi + offset with
        # value (-1)^n.  Extremum locations are tested with slop proportional
        # to |m| so the float-pi drift at large arguments cannot hide one.
        lo, hi = self.lo, self.hi
        if hi - lo >= 2.0 * math.pi:
            return Interval(-1.0, 1.0)
        out_lo = _down2(min(fn(lo), fn(hi)))
        out_hi = _up2(max(fn(lo), fn(hi)))
        n_min = math.floor((lo - extremum_offset) / math.pi) - 1
        n_max = math.ceil((hi - extremum_offset) / math.pi) + 1
        for n in range(n_min, n_max + 1):
            m = n * math.pi + extremum_offset
            tol = 4e-16 * abs(m) + 1e-300
            if lo - tol <= m <= hi + tol:
                if n % 2 == 0:
                    out_hi = 1.0
                else:
                    out_lo = -1.0
        return Interval(max(out_lo, -1.0), min(out_hi, 1.0))

    def cos(self) -> "Interval":
        return self._trig_range(math.cos, 0.0)

    def sin(self) -> "Interval":
        return self._trig_range(math.sin, math.pi / 2.0)

    def abs(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def min_with(self, other) -> "Interval":
        o = Interval._lift(other)
        return Interval(min(self.lo, o.lo), min(self.hi, o.hi))

    def max_with(self, other) -> "Interval":
        o = Interval._lift(other)
        return Interval(max(self.lo, o.lo), max(self.hi, o.hi))

    def pow_nat(self, n: int) -> "Interval":
        """self**n for a natural-number exponent n >= 0."""
        if n != int(n) or n < 0:
            raise DomainError(f"pow_nat requires a natural exponent, got {n!r}")
        n = int(n)
        if n == 0:
            return Interval(1.0, 1.0)
        if n == 1:
            return self
        try:
            a = math.pow(self.lo, n)
            b = math.pow(self.hi, n)
        except OverflowError:
            raise DomainError(f"pow overflow on {self}^{n}") from None
        if n % 2 == 1 or self.lo >= 0.0:
            return Interval(_down2(a), _up2(b))
        if self.hi <= 0.0:
            return Interval(_down2(b), _up2(a))
        return Interval(0.0, _up2(max(a, b)))

    # ------------------------------------------------------------------
    # splitting

    def split(self) -> tuple["Interval", "Interval"] | None:
        """Halve at the midpoint; None signals a degenerate (point) interval."""
        m = self.mid
        if m <= self.lo or m >= self.hi:
            return None
        return Interval(self.lo, m), Interval(m, self.hi)


PI = Interval(_down(math.pi), _up(math.pi))
E = Interval(_down(math.e), _up(math.e))
