"""Outward-rounded interval arithmetic.

Every operation returns an interval that contains the exact real-arithmetic
image of its operands (containment).  Outward rounding is achieved by
stepping each computed endpoint to the next representable float after the
operation: one step for the IEEE-correctly-rounded ops (+, -, *, /), two
steps for libm transcendentals whose rounding is only guaranteed to ~1 ulp.
Directed-rounding mode switching is deliberately avoided (platform-fragile).

Each rounding rule is a kernel on endpoint pairs: a function of `(lo, hi)`
float tuples that returns one.  The kernels are the one interval arithmetic:
`expr`'s compiled programs and `hypotheses`' mean-value form call them with
no object per intermediate.  A kernel raises DomainError when its result
leaves the domain (a divisor containing 0, an overflowing exp, a trig
argument with no finite value, or a NaN endpoint of +, -, * or / where
overflowed endpoints meet, as in inf - inf or 0 * inf).

`Interval` is the checked box type callers hold (box sides, parameter
ranges, returned enclosures), with no arithmetic: its constructor raises
ValueError for a NaN or reversed pair; a point (lo == hi) is allowed.
`CertVerdict` is the answer of a check over such boxes or parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import inf, isfinite, nextafter

from .errors import DomainError

_NINF = -inf
_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2.0

Pair = tuple[float, float]


def _down2(x: float) -> float:
    return nextafter(nextafter(x, _NINF), _NINF)


def _up2(x: float) -> float:
    return nextafter(nextafter(x, inf), inf)


def _fmt(lo: float, hi: float) -> str:
    return f"[{lo!r}, {hi!r}]"


def _nan(x: Pair, y: Pair) -> DomainError:
    # outward rounding keeps lo <= hi unless an endpoint is NaN
    return DomainError(f"NaN endpoint from {_fmt(*x)} and {_fmt(*y)}")


# ---------------------------------------------------------------------------
# kernels on endpoint pairs


def neg(x: Pair) -> Pair:
    lo, hi = x
    return -hi, -lo


def add(x: Pair, y: Pair) -> Pair:
    lo = nextafter(x[0] + y[0], _NINF)
    hi = nextafter(x[1] + y[1], inf)
    if not lo <= hi:
        raise _nan(x, y)
    return lo, hi


def sub(x: Pair, y: Pair) -> Pair:
    lo = nextafter(x[0] - y[1], _NINF)
    hi = nextafter(x[1] - y[0], inf)
    if not lo <= hi:
        raise _nan(x, y)
    return lo, hi


def _mul4(x: Pair, y: Pair) -> Pair:
    # the four-product rule
    a, b = x
    c, d = y
    p = (a * c, a * d, b * c, b * d)
    lo = nextafter(min(p), _NINF)
    hi = nextafter(max(p), inf)
    if not lo <= hi:
        raise _nan(x, y)
    return lo, hi


def mul(x: Pair, y: Pair) -> Pair:
    """[a, b] * [c, d] by Moore's nine sign cases.  In eight of them the
    signs name the two products that are the extremes; only when both
    factors straddle 0 are all four computed.  Rounding to nearest is
    monotone, so the extremes of the rounded products are the rounded
    extremes, and nextafter steps -0.0 and 0.0 to the same float: the
    result has the bits of the four-product rule.  A chosen product that
    is infinite or NaN (an overflow, or 0 * inf) falls back to that rule,
    which keeps the bits and the DomainError of those cases."""
    a, b = x
    c, d = y
    if a >= 0.0:
        if c >= 0.0:
            lo, hi = a * c, b * d
        elif d <= 0.0:
            lo, hi = b * c, a * d
        else:
            lo, hi = b * c, b * d
    elif b <= 0.0:
        if c >= 0.0:
            lo, hi = a * d, b * c
        elif d <= 0.0:
            lo, hi = b * d, a * c
        else:
            lo, hi = a * d, a * c
    elif c >= 0.0:
        lo, hi = a * d, b * d
    elif d <= 0.0:
        lo, hi = b * c, a * c
    else:
        lo, hi = min(a * d, b * c), max(a * c, b * d)
    if _NINF < lo < inf and _NINF < hi < inf:
        return nextafter(lo, _NINF), nextafter(hi, inf)
    return _mul4(x, y)


def div(x: Pair, y: Pair) -> Pair:
    a, b = x
    c, d = y
    if c <= 0.0 <= d:
        raise DomainError(f"division by interval containing zero: {_fmt(c, d)}")
    p = (a / c, a / d, b / c, b / d)
    lo = nextafter(min(p), _NINF)
    hi = nextafter(max(p), inf)
    if not lo <= hi:
        raise _nan(x, y)
    return lo, hi


def exp(x: Pair) -> Pair:
    lo, hi = x
    try:
        e_lo = math.exp(lo)
        e_hi = math.exp(hi)
    except OverflowError:
        e_hi = inf
    if not isfinite(e_hi):
        raise DomainError(f"exp overflow on {_fmt(lo, hi)}")
    return max(0.0, _down2(e_lo)), _up2(e_hi)


def log(x: Pair) -> Pair:
    lo, hi = x
    if lo <= 0.0:
        raise DomainError(f"log of interval touching nonpositive reals: {_fmt(lo, hi)}")
    return _down2(math.log(lo)), _up2(math.log(hi))


def _trig_range(name: str, fn, extremum_offset: float, x: Pair) -> Pair:
    # Both cos (offset 0) and sin (offset pi/2) peak at n*pi + offset with
    # value (-1)^n.  Extremum locations are tested with slop proportional
    # to |m| so the float-pi drift at large arguments cannot hide one.
    lo, hi = x
    if hi - lo >= _TWO_PI:
        return -1.0, 1.0
    if not (isfinite(lo) and isfinite(hi)):
        raise DomainError(f"{name} of a non-finite argument {_fmt(lo, hi)}")
    f_lo, f_hi = fn(lo), fn(hi)
    out_lo = _down2(min(f_lo, f_hi))
    out_hi = _up2(max(f_lo, f_hi))
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
    return max(out_lo, -1.0), min(out_hi, 1.0)


def cos(x: Pair) -> Pair:
    return _trig_range("cos", math.cos, 0.0, x)


def sin(x: Pair) -> Pair:
    return _trig_range("sin", math.sin, _HALF_PI, x)


def absolute(x: Pair) -> Pair:
    lo, hi = x
    if lo >= 0.0:
        return x
    if hi <= 0.0:
        return -hi, -lo
    return 0.0, max(-lo, hi)


def minimum(x: Pair, y: Pair) -> Pair:
    return min(x[0], y[0]), min(x[1], y[1])


def maximum(x: Pair, y: Pair) -> Pair:
    return max(x[0], y[0]), max(x[1], y[1])


def pow_nat(x: Pair, n: int) -> Pair:
    """x**n for a natural-number exponent n >= 0."""
    if n == 0:
        return 1.0, 1.0
    if n == 1:
        return x
    lo, hi = x
    try:
        a = math.pow(lo, n)
        b = math.pow(hi, n)
    except OverflowError:
        raise DomainError(f"pow overflow on {_fmt(lo, hi)}^{n}") from None
    if n % 2 == 1 or lo >= 0.0:
        return _down2(a), _up2(b)
    if hi <= 0.0:
        return _down2(b), _up2(a)
    return 0.0, _up2(max(a, b))


# The ramps are monotone (phi and psi nondecreasing, capphi nonincreasing)
# and exact in floats, so each image is the float ramp of the two endpoints,
# clipped to [0, 1] as numpy's minimum(maximum(v, 0), 1) clips.

def phi(x: Pair) -> Pair:
    lo, hi = x
    return min(max(0.0, 2.0 * lo - 1.0), 1.0), min(max(0.0, 2.0 * hi - 1.0), 1.0)


def psi(x: Pair) -> Pair:
    lo, hi = x
    return min(max(0.0, lo), 1.0), min(max(0.0, hi), 1.0)


def capphi(x: Pair) -> Pair:
    lo, hi = x
    return min(max(0.0, 2.0 - 2.0 * hi), 1.0), min(max(0.0, 2.0 - 2.0 * lo), 1.0)


def midpoint(lo: float, hi: float) -> float:
    """The split point of [lo, hi]: its midpoint, kept inside when the sum
    overflows or rounds out."""
    m = 0.5 * (lo + hi)
    if not isfinite(m):
        m = 0.5 * lo + 0.5 * hi
    return min(max(m, lo), hi)


# ---------------------------------------------------------------------------
# the checked box type


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
        if not lo <= hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __repr__(self) -> str:
        return _fmt(self.lo, self.hi)


@dataclass(frozen=True)
class CertVerdict:
    """The tri-state answer to one inequality over an `Interval` box (from
    branch and bound) or at scalar parameters (from `rcd`)."""

    status: str  # "Pass" | "Fail" | "Unknown"
    witness: tuple[float, float, float] | None  # (x1, x2, value) for Fail
    boxes_explored: int = 0
    max_depth_reached: bool = False
    note: str = ""


PI = Interval(nextafter(math.pi, _NINF), nextafter(math.pi, inf))
E = Interval(nextafter(math.e, _NINF), nextafter(math.e, inf))
