import math

import numpy as np
import pytest

from conecert.errors import DomainError
from conecert.interval import Interval

ULP = 4e-16  # relative slack for a couple of outward-rounding steps


def assert_tight(iv, lo, hi):
    """iv contains [lo, hi] and its endpoints are within a few ulps of it."""
    slack_lo = ULP * max(1.0, abs(lo))
    slack_hi = ULP * max(1.0, abs(hi))
    assert iv.lo <= lo and iv.hi >= hi
    assert iv.lo >= lo - slack_lo
    assert iv.hi <= hi + slack_hi


def test_mul_positive():
    assert_tight(Interval(1, 2) * Interval(3, 4), 3.0, 8.0)


def test_add_identity():
    assert_tight(Interval(0, 0) + Interval(5, 5), 5.0, 5.0)


def test_div_forced_endpoints():
    # -k/(1+z) for k=8, z in [0,1]
    assert_tight(Interval(-8, -8) / Interval(1, 2), -8.0, -4.0)


def test_div_by_zero_interval():
    with pytest.raises(DomainError):
        Interval(1, 2) / Interval(-1, 1)
    with pytest.raises(DomainError):
        Interval(1, 2) / Interval(0, 2)


def test_exp_at_zero():
    assert_tight(Interval(0, 0).exp(), 1.0, 1.0)


def test_exp_monotone():
    assert_tight(Interval(-8, -4).exp(), math.exp(-8), math.exp(-4))


def test_cos_full_monotone_piece():
    assert Interval(0, math.pi).cos() == Interval(-1.0, 1.0)


def test_cos_no_extremum_inside():
    iv = Interval(0.5, 1.0).cos()
    assert_tight(iv, math.cos(1.0), math.cos(0.5))


def test_cos_wide_interval():
    assert Interval(0, 50).cos() == Interval(-1.0, 1.0)


def test_sin_quarter():
    iv = Interval(0, math.pi / 2).sin()
    assert_tight(iv, 0.0, 1.0)
    assert iv.hi == 1.0


def test_pow_nat_even_straddling():
    iv = Interval(-2, 3).pow_nat(2)
    assert iv.lo == 0.0
    assert_tight(iv, 0.0, 9.0)


def test_pow_nat_zero_exponent():
    assert Interval(-5, 5).pow_nat(0) == Interval(1.0, 1.0)


def test_pow_nat_rejects_fractional():
    with pytest.raises(DomainError):
        Interval(1, 2).pow_nat(0.5)


def test_pow_nat_overflow_is_domain_error():
    with pytest.raises(DomainError):
        Interval(0, 5).pow_nat(1000)
    with pytest.raises(DomainError):
        Interval(-5, 0).pow_nat(1001)


def test_log_domain():
    with pytest.raises(DomainError):
        Interval(0, 1).log()
    assert_tight(Interval(1, math.e).log(), 0.0, 1.0)


def test_split_examples():
    assert Interval(0, 4).split() == (Interval(0, 2), Interval(2, 4))
    assert Interval(0, 1).split() == (Interval(0, 0.5), Interval(0.5, 1))
    assert Interval(1, 1).split() is None


def test_split_children_cover_parent():
    parent = Interval(-1.3, 2.7)
    left, right = parent.split()
    assert left.lo == parent.lo and right.hi == parent.hi
    assert left.hi == right.lo
    assert left.hull(right) == parent


def test_invalid_interval():
    with pytest.raises(ValueError):
        Interval(2, 1)
    with pytest.raises(ValueError):
        Interval(float("nan"), 1)


def test_min_max_with():
    assert Interval(0, 3).min_with(Interval(1, 2)) == Interval(0, 2)
    assert Interval(0, 3).max_with(Interval(1, 2)) == Interval(1, 3)


def test_abs():
    assert Interval(-3, 2).abs() == Interval(0, 3)
    assert Interval(1, 2).abs() == Interval(1, 2)
    assert Interval(-2, -1).abs() == Interval(1, 2)


# ---------------------------------------------------------------------------
# containment under random sampling

def _compose_a(x, y):
    return (x + y) * x - y / (y * y + 3.0)


def _compose_a_iv(a, b):
    return (a + b) * a - b / (b.pow_nat(2) + 3.0)


def _compose_b(x, y):
    return math.exp(math.cos(x) * y / 8.0) + abs(x - y)


def _compose_b_iv(a, b):
    return (a.cos() * b / 8.0).exp() + (a - b).abs()


def _compose_c(x, y):
    return min(x * x, 2.0 + y) - max(math.sin(y), x / 7.0) * 0.5


def _compose_c_iv(a, b):
    return a.pow_nat(2).min_with(2.0 + b) - b.sin().max_with(a / 7.0) * 0.5


def test_containment_random_sampling():
    rng = np.random.default_rng(20240817)
    pairs = ((_compose_a, _compose_a_iv), (_compose_b, _compose_b_iv),
             (_compose_c, _compose_c_iv))
    for _ in range(10_000):
        lo1, lo2 = rng.uniform(-4, 4, 2)
        a = Interval(lo1, lo1 + rng.uniform(0, 3))
        b = Interval(lo2, lo2 + rng.uniform(0, 3))
        x = rng.uniform(a.lo, a.hi)
        y = rng.uniform(b.lo, b.hi)
        for point_fn, iv_fn in pairs:
            enclosure = iv_fn(a, b)
            assert enclosure.contains(point_fn(x, y)), (point_fn.__name__, a, b, x, y)


def test_split_children_contain_true_range():
    # the union of the children's enclosures must still contain the parent's
    # true range: sample points in each half and check membership
    rng = np.random.default_rng(7)
    for _ in range(200):
        lo = rng.uniform(-3, 3)
        parent = Interval(lo, lo + rng.uniform(1e-6, 2))
        halves = parent.split()
        assert halves is not None
        for half in halves:
            enc = _compose_a_iv(half, half)
            for _ in range(20):
                x = rng.uniform(half.lo, half.hi)
                y = rng.uniform(half.lo, half.hi)
                assert enc.contains(_compose_a(x, y))
