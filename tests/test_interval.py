import math

import numpy as np
import pytest

from conecert.errors import DomainError
from conecert.interval import (Interval, absolute, add, cos, div, exp, log,
                               maximum, midpoint, minimum, mul, pow_nat, sin,
                               sub)

ULP = 4e-16  # relative slack for a couple of outward-rounding steps


def assert_tight(iv, lo, hi):
    """The pair iv contains [lo, hi] and its ends are within a few ulps of it."""
    slack_lo = ULP * max(1.0, abs(lo))
    slack_hi = ULP * max(1.0, abs(hi))
    assert iv[0] <= lo and iv[1] >= hi
    assert iv[0] >= lo - slack_lo
    assert iv[1] <= hi + slack_hi


def test_mul_positive():
    assert_tight(mul((1.0, 2.0), (3.0, 4.0)), 3.0, 8.0)


def test_add_identity():
    assert_tight(add((0.0, 0.0), (5.0, 5.0)), 5.0, 5.0)


def test_div_forced_endpoints():
    # -k/(1+z) for k=8, z in [0,1]
    assert_tight(div((-8.0, -8.0), (1.0, 2.0)), -8.0, -4.0)


def test_div_by_zero_interval():
    with pytest.raises(DomainError):
        div((1.0, 2.0), (-1.0, 1.0))
    with pytest.raises(DomainError):
        div((1.0, 2.0), (0.0, 2.0))


def test_exp_at_zero():
    assert_tight(exp((0.0, 0.0)), 1.0, 1.0)


def test_exp_monotone():
    assert_tight(exp((-8.0, -4.0)), math.exp(-8), math.exp(-4))


def test_cos_full_monotone_piece():
    assert cos((0.0, math.pi)) == (-1.0, 1.0)


def test_cos_no_extremum_inside():
    assert_tight(cos((0.5, 1.0)), math.cos(1.0), math.cos(0.5))


def test_cos_wide_interval():
    assert cos((0.0, 50.0)) == (-1.0, 1.0)


def test_sin_quarter():
    iv = sin((0.0, math.pi / 2))
    assert_tight(iv, 0.0, 1.0)
    assert iv[1] == 1.0


def test_pow_nat_even_straddling():
    iv = pow_nat((-2.0, 3.0), 2)
    assert iv[0] == 0.0
    assert_tight(iv, 0.0, 9.0)


def test_pow_nat_zero_exponent():
    assert pow_nat((-5.0, 5.0), 0) == (1.0, 1.0)


def test_pow_nat_overflow_is_domain_error():
    with pytest.raises(DomainError):
        pow_nat((0.0, 5.0), 1000)
    with pytest.raises(DomainError):
        pow_nat((-5.0, 0.0), 1001)


def test_log_domain():
    with pytest.raises(DomainError):
        log((0.0, 1.0))
    assert_tight(log((1.0, math.e)), 0.0, 1.0)


def test_split_examples():
    # branch and bound splits [lo, hi] at midpoint(lo, hi) only when it lies
    # strictly inside, so a point interval is never split
    assert midpoint(0.0, 4.0) == 2.0
    assert midpoint(0.0, 1.0) == 0.5
    assert midpoint(1.0, 1.0) == 1.0
    # lo + hi overflows, yet the split point stays inside
    big = 1.7e308
    assert 1e308 < midpoint(1e308, big) < big
    assert midpoint(-big, big) == 0.0


def test_split_children_cover_parent():
    # the halves [lo, m] and [m, hi] are valid intervals and cover the
    # parent, also where lo and hi are adjacent floats
    rng = np.random.default_rng(11)
    for _ in range(1000):
        lo = rng.uniform(-3, 3)
        for hi in (lo + rng.uniform(0, 2), math.nextafter(lo, math.inf)):
            m = midpoint(lo, hi)
            left, right = Interval(lo, m), Interval(m, hi)
            assert left.lo == lo and left.hi == right.lo and right.hi == hi


def test_invalid_interval():
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1)


def test_min_max_with():
    assert minimum((0.0, 3.0), (1.0, 2.0)) == (0.0, 2.0)
    assert maximum((0.0, 3.0), (1.0, 2.0)) == (1.0, 3.0)


def test_abs():
    assert absolute((-3.0, 2.0)) == (0.0, 3.0)
    assert absolute((1.0, 2.0)) == (1.0, 2.0)
    assert absolute((-2.0, -1.0)) == (1.0, 2.0)


# ---------------------------------------------------------------------------
# containment under random sampling

def _const(x):
    return x, x


def _compose_a(x, y):
    return (x + y) * x - y / (y * y + 3.0)


def _compose_a_iv(a, b):
    return sub(mul(add(a, b), a), div(b, add(pow_nat(b, 2), _const(3.0))))


def _compose_b(x, y):
    return math.exp(math.cos(x) * y / 8.0) + abs(x - y)


def _compose_b_iv(a, b):
    return add(exp(div(mul(cos(a), b), _const(8.0))), absolute(sub(a, b)))


def _compose_c(x, y):
    return min(x * x, 2.0 + y) - max(math.sin(y), x / 7.0) * 0.5


def _compose_c_iv(a, b):
    return sub(minimum(pow_nat(a, 2), add(_const(2.0), b)),
               mul(maximum(sin(b), div(a, _const(7.0))), _const(0.5)))


def _contains(iv, x):
    return iv[0] <= x <= iv[1]


def test_containment_random_sampling():
    rng = np.random.default_rng(20240817)
    pairs = ((_compose_a, _compose_a_iv), (_compose_b, _compose_b_iv),
             (_compose_c, _compose_c_iv))
    for _ in range(10_000):
        lo1, lo2 = rng.uniform(-4, 4, 2)
        a = (lo1, lo1 + rng.uniform(0, 3))
        b = (lo2, lo2 + rng.uniform(0, 3))
        x = rng.uniform(*a)
        y = rng.uniform(*b)
        for point_fn, iv_fn in pairs:
            enclosure = iv_fn(a, b)
            assert _contains(enclosure, point_fn(x, y)), \
                (point_fn.__name__, a, b, x, y)


def test_split_children_contain_true_range():
    # the union of the children's enclosures must still contain the parent's
    # true range: sample points in each half and check membership
    rng = np.random.default_rng(7)
    for _ in range(200):
        lo = rng.uniform(-3, 3)
        hi = lo + rng.uniform(1e-6, 2)
        m = midpoint(lo, hi)
        assert lo < m < hi
        for half in ((lo, m), (m, hi)):
            enc = _compose_a_iv(half, half)
            for _ in range(20):
                x = rng.uniform(*half)
                y = rng.uniform(*half)
                assert _contains(enc, _compose_a(x, y))
