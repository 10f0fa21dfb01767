import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conecert import rcd
from conecert.errors import ConfigError, DomainError
from conecert.rcd import (RcdParams, build_params, check_5_11, check_all,
                          check_m_range, check_5_16, diffusion_thresholds,
                          h_root_bracket, m_ranges, s_pair, scaled_ratios)

# admissible m-ranges for (k1, k2, r1, r2) = (8, 10, 8, 10), frozen from a
# 50-digit evaluation of the closed forms
M1_RANGE = (0.59558950428992514, 19.440481390139069)
M2_RANGE = (0.26544659775275617, 2.0130636966755096)

# right-hand sides of the diffusion inequality for the closing example
# (m1=3, m2=1), frozen the same way; beta-independent
RHS_1 = 0.26544659775275617
RHS_2 = 0.19852983476330838

CLOSING = RcdParams(beta1=1.0, beta2=1.0, k1=8.0, k2=10.0,
                    r1=8.0, r2=10.0, m1=3.0, m2=1.0)


def g(k, z):
    """g_k(z), the shape of each RCD nonlinearity in its own coordinate."""
    return np.exp(-k / (1.0 + z)) / z


def test_g_relative_maximum_at_st():
    _, st = s_pair(8.0)
    assert g(8.0, st) > g(8.0, st + 0.01)
    assert g(8.0, st) > g(8.0, st - 0.01)


def test_g_stationary_by_finite_differences():
    h = 1e-6
    for k in (6.0, 8.0, 11.0):
        for z in s_pair(k):
            derivative = (g(k, z + h) - g(k, z - h)) / (2 * h)
            scale = abs(g(k, z))
            assert abs(derivative) <= 50 * h * scale / h**0  # O(h^2) -> tiny
            assert abs(derivative) <= 1e-8


def test_s_pair_examples():
    assert s_pair(4.0) == (1.0, 1.0)
    s8, st8 = s_pair(8.0)
    assert s8 == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
    assert st8 == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), abs=1e-12)
    s10, st10 = s_pair(10.0)
    assert s10 == pytest.approx(4.0 - math.sqrt(15.0), abs=1e-12)
    assert st10 == pytest.approx(4.0 + math.sqrt(15.0), abs=1e-12)
    with pytest.raises(DomainError):
        s_pair(3.9)


@pytest.mark.parametrize("k", [4.0, 4.5, 8.0, 10.0, 50.0, 300.0, 700.0, 1e5])
def test_s_pair_matches_50_digits(k):
    # s = 1/s_tilde loses nothing to cancellation: the difference
    # (k - 2 - sqrt(k(k - 4)))/2 is off by 1.1e-15 relative at k = 8 and by
    # 8.9e-12 at k = 700
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    disc = mp.sqrt(mp.mpf(k) * (k - 4))
    for got, want in zip(s_pair(k), ((k - 2 - disc) / 2, (k - 2 + disc) / 2)):
        assert abs(got - want) <= 4e-16 * want, (k, got)


def test_root_identities():
    for k in np.linspace(4.01, 50.0, 47):
        s, st = s_pair(float(k))
        assert s <= st
        assert s * st == pytest.approx(1.0, abs=1e-10)
        assert s + st == pytest.approx(k - 2.0, abs=1e-10)


def test_monotonicity_profile_nonincreasing_small_k():
    grid = np.arange(1, 101) * 0.1
    for k in (3.0, 4.0):
        assert np.all(np.diff(g(k, grid)) <= 0.0)


def test_monotonicity_profile_brackets_stationary_points():
    grid = np.arange(1, 201) * 0.05
    for k in (8.0, 11.0):
        signs = np.sign(np.diff(g(k, grid)))
        flips = [i for i in range(len(signs) - 1)
                 if signs[i] != 0 and signs[i + 1] != 0
                 and signs[i] != signs[i + 1]]
        assert len(flips) == 2
        s, st = s_pair(k)
        for flip, root in zip(flips, (s, st)):
            shared_node = grid[flip + 1]
            assert abs(shared_node - root) <= 0.05 + 1e-12


def test_check_5_11_pass_8_10():
    verdict = check_5_11(8.0, 10.0)
    assert verdict.status == "Pass"
    # cross-check the printed sides by direct evaluation
    s8, st8 = s_pair(8.0)
    assert math.exp(-math.sqrt(32.0)) < (s8 / st8) * 0.9


def test_check_5_11_fail_near_4():
    verdict = check_5_11(4.1, 4.1)
    assert verdict.status == "Fail"
    assert verdict.witness is not None
    lhs, rhs, gap = verdict.witness
    assert lhs > rhs


def test_check_5_11_domain():
    with pytest.raises(DomainError):
        check_5_11(4.0, 10.0)
    with pytest.raises(DomainError):
        check_5_11(10.0, 3.0)


def test_m_ranges_frozen_values():
    r1, r2 = m_ranges(8.0, 10.0, 8.0, 10.0)
    assert r1.lo == pytest.approx(M1_RANGE[0], abs=1e-12)
    assert r1.hi == pytest.approx(M1_RANGE[1], abs=1e-12)
    assert r2.lo == pytest.approx(M2_RANGE[0], abs=1e-12)
    assert r2.hi == pytest.approx(M2_RANGE[1], abs=1e-12)
    assert r1.lo < 3.0 < r1.hi
    assert r2.lo < 1.0 < r2.hi


def test_m_ranges_empty_when_gate_fails():
    # at k just above 4 the gate inequality fails, so ranges collapse
    assert m_ranges(4.1, 4.1, 4.1, 4.1) == (None, None)


def test_m_ranges_monotone_in_r():
    # both bounds of the m1 range decrease as r1 grows (the lower like
    # 1/(r1-1), the upper like 1/r1), so the log-width only ever widens
    lo_prev, hi_prev = None, None
    for r1 in (8.0, 10.0, 20.0, 100.0):
        rng, _ = m_ranges(8.0, 10.0, r1, 10.0)
        if lo_prev is not None:
            assert rng.lo <= lo_prev + 1e-15
            assert rng.hi <= hi_prev + 1e-15
            assert math.log(rng.hi / rng.lo) >= math.log(hi_prev / lo_prev) - 1e-12
        lo_prev, hi_prev = rng.lo, rng.hi


def test_m_ranges_nonempty_iff_modified_gate():
    # nonempty m1-range <=> exp(-sqrt(k2(k2-4))) < s(k2)/st(k2) * (r1-1)/r1
    rng = np.random.default_rng(5)
    for _ in range(200):
        k1 = float(rng.uniform(4.05, 12.0))
        k2 = float(rng.uniform(4.05, 12.0))
        r1 = float(k1 + rng.uniform(0, 5.0))
        r2 = float(k2 + rng.uniform(0, 5.0))
        range1, range2 = m_ranges(k1, k2, r1, r2)
        s2, st2 = s_pair(k2)
        gate1 = math.exp(-math.sqrt(k2 * (k2 - 4.0))) < (s2 / st2) * (r1 - 1.0) / r1
        s1, st1 = s_pair(k1)
        gate2 = math.exp(-math.sqrt(k1 * (k1 - 4.0))) < (s1 / st1) * (r2 - 1.0) / r2
        assert (range1 is not None) == gate1
        assert (range2 is not None) == gate2


def test_m_ranges_swap_components():
    # the m2 range is the m1 range of the system with the components swapped
    rng = np.random.default_rng(11)
    for _ in range(200):
        k1 = float(rng.uniform(4.05, 12.0))
        k2 = float(rng.uniform(4.05, 12.0))
        r1 = float(k1 + rng.uniform(0, 5.0))
        r2 = float(k2 + rng.uniform(0, 5.0))
        assert m_ranges(k1, k2, r1, r2)[1] == m_ranges(k2, k1, r2, r1)[0]


def test_m_ranges_domain():
    with pytest.raises(DomainError):
        m_ranges(8.0, 10.0, 7.0, 10.0)  # r1 < k1


def test_build_params_closing_example():
    derived = build_params(CLOSING)
    st8 = 3.0 + 2.0 * math.sqrt(2.0)
    st10 = 4.0 + math.sqrt(15.0)
    assert derived.q1 == pytest.approx(10.0 * st10 * math.e, rel=1e-14)
    assert derived.q2 == pytest.approx(8.0 * st8 * math.e, rel=1e-14)
    assert derived.p1 == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert derived.p2 == pytest.approx(3.0 * math.exp(-1.0), rel=1e-14)
    assert derived.s1 * derived.st1 == pytest.approx(1.0, abs=1e-10)


def test_build_params_m_out_of_range():
    params = RcdParams(beta1=1.0, beta2=1.0, k1=8.0, k2=10.0,
                       r1=8.0, r2=10.0, m1=0.1, m2=1.0)
    with pytest.raises(ConfigError) as err:
        build_params(params)
    assert "m1" in str(err.value) and "lower" in str(err.value)


def test_check_m_range_verdicts():
    rng = m_ranges(8.0, 10.0, 8.0, 10.0)[0]
    assert check_m_range("m1", 3.0, rng).status == "Pass"
    empty = check_m_range("m1", 3.0, None)
    assert empty.status == "Fail" and "empty" in empty.note
    for m, bound, end in ((rng.lo, "lower", rng.lo), (0.1, "lower", rng.lo),
                          (rng.hi, "upper", rng.hi), (50.0, "upper", rng.hi)):
        v = check_m_range("m1", m, rng)
        assert v.status == "Fail" and bound in v.note
        assert v.witness == (m, end, 0.0)


def test_check_all_runs_every_check_in_report_order():
    verdicts, ranges, derived = check_all(CLOSING)
    assert [cid for cid, _ in verdicts] == [
        "ineq_5_11", "m1_in_range", "m2_in_range", "ratio_f1_small",
        "ratio_f1_big", "ratio_f2_small", "ratio_f2_big", "ineq_5_16"]
    assert all(v.status == "Pass" for _, v in verdicts)
    assert ranges == m_ranges(8.0, 10.0, 8.0, 10.0)
    assert derived == build_params(CLOSING)
    value = scaled_ratios(derived)["f1_small"]
    assert verdicts[3][1].note == f"f1_small = {value!r}"


def test_check_all_stops_after_m_range_fail():
    verdicts, ranges, derived = check_all(
        RcdParams(beta1=1.0, beta2=1.0, k1=8.0, k2=10.0,
                  r1=8.0, r2=10.0, m1=0.1, m2=1.0))
    assert [(cid, v.status) for cid, v in verdicts] == [
        ("ineq_5_11", "Pass"), ("m1_in_range", "Fail"), ("m2_in_range", "Pass")]
    assert ranges[0] is not None and derived is None


def test_scaled_ratios_straddle_one():
    derived = build_params(CLOSING)
    ratios = scaled_ratios(derived)
    assert ratios["f1_small"] < 1.0
    assert ratios["f1_big"] > 1.0
    assert ratios["f2_small"] < 1.0
    assert ratios["f2_big"] > 1.0


def test_check_5_16_closing_example_beta_one():
    derived = build_params(CLOSING)
    verdict = check_5_16(derived, 1.0, 1.0)
    assert verdict.status == "Pass"
    # lhs = 1 - e^{-1} ~ 0.632 clears both frozen thresholds
    assert 1.0 - math.exp(-1.0) > RHS_1
    assert 1.0 - math.exp(-1.0) > RHS_2


@st.composite
def _admissible(draw):
    """RcdParams with k1, k2 > 4, r_j >= k_j and each m strictly inside its
    nonempty admissible range."""
    k1, k2 = draw(st.floats(4.5, 30.0)), draw(st.floats(4.5, 30.0))
    r1 = k1 + draw(st.floats(0.0, 20.0))
    r2 = k2 + draw(st.floats(0.0, 20.0))
    range1, range2 = m_ranges(k1, k2, r1, r2)
    assume(range1 is not None and range2 is not None)
    m1, m2 = (rng.lo + draw(st.floats(0.01, 0.99)) * (rng.hi - rng.lo)
              for rng in (range1, range2))
    assume(range1.lo < m1 < range1.hi and range2.lo < m2 < range2.hi)
    return RcdParams(beta1=draw(st.floats(0.1, 10.0)),
                     beta2=draw(st.floats(0.1, 10.0)),
                     k1=k1, k2=k2, r1=r1, r2=r2, m1=m1, m2=m2)


@settings(max_examples=300, deadline=None)
@given(_admissible())
def test_check_5_16_rhs_agrees_with_direct_f_evaluation(p):
    # the closed forms of the scaled ratios and of the diffusion thresholds
    # are f_j itself at the theorem's corners, evaluated here directly
    d = build_params(p)

    def f1(x1, x2):
        return d.p1 * (d.q1 - x2) * math.exp(-p.k1 / (1.0 + x1))

    def f2(x1, x2):
        return d.p2 * (d.q2 - x1) * math.exp(-p.k2 / (1.0 + x2))

    c1 = d.st1 * math.exp(1.0 / p.beta1)
    c2 = d.st2 * math.exp(1.0 / p.beta2)
    direct = {"f1_small": f1(d.s1, 0.0) / d.s1, "f1_big": f1(d.st1, c2) / d.st1,
              "f2_small": f2(0.0, d.s2) / d.s2, "f2_big": f2(c1, d.st2) / d.st2}
    ratios = scaled_ratios(d)
    assert ratios.keys() == direct.keys()
    for name, value in direct.items():
        assert ratios[name] == pytest.approx(value, rel=1e-12), name
    rhs1, rhs2 = diffusion_thresholds(d)
    assert rhs1 == pytest.approx(d.st1 / f1(d.st1, c2), rel=1e-12)
    assert rhs2 == pytest.approx(d.st2 / f2(c1, d.st2), rel=1e-12)


def test_diffusion_thresholds_match_printed_constants():
    derived = build_params(CLOSING)
    rhs1, rhs2 = diffusion_thresholds(derived)
    printed1 = ((3.0 + 2.0 * math.sqrt(2.0)) / (9.0 * (4.0 + math.sqrt(15.0)))
                * math.exp(4.0 / (2.0 + math.sqrt(2.0))))
    printed2 = ((4.0 + math.sqrt(15.0)) / (21.0 * (3.0 + 2.0 * math.sqrt(2.0)))
                * math.exp(10.0 / (5.0 + math.sqrt(15.0))))
    assert rhs1 == pytest.approx(printed1, abs=1e-10)
    assert rhs2 == pytest.approx(printed2, abs=1e-10)
    assert rhs1 == pytest.approx(RHS_1, abs=1e-12)
    assert rhs2 == pytest.approx(RHS_2, abs=1e-12)


def test_check_5_16_beta_limits():
    derived = build_params(CLOSING)
    # rhs < 1 and beta - beta*e^{-1/beta} -> 1, so huge beta passes
    assert check_5_16(derived, 1e6, 1e6).status == "Pass"
    rhs1, rhs2 = diffusion_thresholds(derived)
    assert rhs1 < 1.0 and rhs2 < 1.0
    # tiny beta makes the left side collapse to ~beta
    failed = check_5_16(derived, 0.01, 0.01)
    assert failed.status == "Fail" and failed.note.startswith("first")
    lhs, rhs, gap = failed.witness
    assert lhs == 0.01 - 0.01 * math.exp(-100.0) and rhs == rhs1
    assert gap == lhs - rhs < 0.0


def test_h_root_bracket():
    lo, hi = h_root_bracket()
    assert hi - lo <= 1e-10
    assert 4.9 < lo and hi < 5.0


def test_h_sign_change_samples():
    # direct evaluations either side of the root
    def h(z):
        s, st = s_pair(z)
        return (s / st) * math.exp(math.sqrt(z * (z - 4.0))) - 4.0 / 3.0
    assert h(5.0) > 0.0
    assert h(4.9) < 0.0


def test_h_increases_across_the_bisection_bracket():
    # h_root_bracket bisects [4, 6] on the sign of h, which holds because h
    # is nondecreasing there and changes sign between the ends
    samples = [rcd._h(4.0 + 2.0 * i / 100.0) for i in range(101)]
    assert all(a <= b for a, b in zip(samples, samples[1:]))
    assert samples[0] <= 0.0 <= samples[-1]


def test_rcd_params_validation():
    with pytest.raises(DomainError):
        RcdParams(beta1=0.0, beta2=1.0, k1=8, k2=10, r1=8, r2=10, m1=3, m2=1)
    with pytest.raises(DomainError):
        RcdParams(beta1=1.0, beta2=1.0, k1=4.0, k2=10, r1=8, r2=10, m1=3, m2=1)
    with pytest.raises(DomainError):
        RcdParams(beta1=1.0, beta2=1.0, k1=8, k2=10, r1=7.0, r2=10, m1=3, m2=1)


def test_derived_overflow_names_the_parameters():
    # each parameter alone keeps the pipeline finite, but r1 = 1e300 with
    # exp(1/beta1) = exp(12.5) pushes q2 = r1*s_tilde(k1)*exp(1/beta1) past
    # the largest float; m1 and m2 sit inside their ranges, so it is reached
    range1, range2 = m_ranges(700.0, 10.0, 1e300, 10.0)
    p = RcdParams(0.08, 1.0, 700.0, 10.0, 1e300, 10.0,
                  0.5 * (range1.lo + range1.hi), 0.5 * (range2.lo + range2.hi))
    with pytest.raises(DomainError,
                       match=r"q2 = r1\*s_tilde\(k1\)\*exp\(1/beta1\) overflows"):
        check_all(p)
