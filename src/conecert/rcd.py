"""Parameter pipeline for the reaction-convection-diffusion system.

The nonlinearities under study are

    f1(x1, x2) = p1*(q1 - x2)*exp(-k1/(1 + x1)),
    f2(x1, x2) = p2*(q2 - x1)*exp(-k2/(1 + x2)),

whose per-coordinate shape is governed by  g_k(z) = exp(-k/(1+z))/z.  For
k > 4, g_k has a relative minimum at s(k) and maximum at s_tilde(k), the two
roots of z^2 - (k-2)z + 1:

    s(k)       = ((k-2) - sqrt(k*(k-4))) / 2
    s_tilde(k) = ((k-2) + sqrt(k*(k-4))) / 2

so s*s_tilde = 1 and s + s_tilde = k - 2.  The pipeline derives capacity and
reaction coefficients

    q1 = r2*s_tilde(k2)*exp(1/beta2),    p1 = m2*exp(-1/beta2),
    q2 = r1*s_tilde(k1)*exp(1/beta1),    p2 = m1*exp(-1/beta1),

with r1 >= k1, r2 >= k2 and (m1, m2) inside the admissible open ranges below,
then checks the diffusion inequality that the four-solution theorem needs.
`check_all` runs every scalar check once, in report order.

All arithmetic here is plain double precision with a 1e-12 guard band;
verdicts are tri-state (Pass / Fail / Unknown inside the band).  A
parameter that would overflow a float in the pipeline is a DomainError
that names it, raised by RcdParams or, for q1 and q2, by `build_params`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .hypotheses import CertVerdict
from .interval import Interval
from .kernels import rcd_lambda

GUARD = 1e-12


def _strict(lhs: float, rhs: float) -> str:
    """Tri-state verdict for the strict inequality lhs < rhs."""
    if rhs - lhs > GUARD:
        return "Pass"
    if lhs - rhs > GUARD:
        return "Fail"
    return "Unknown"


def _first_failure(checks) -> CertVerdict:
    """Combine (status, lhs, rhs, note) strict-inequality checks: Fail if
    any fails, with the first failing check's (lhs, rhs, lhs - rhs) witness
    and note, else Unknown if any is undecided, else Pass."""
    for status, lhs, rhs, note in checks:
        if status == "Fail":
            return CertVerdict("Fail", (lhs, rhs, lhs - rhs), note=note)
    if any(status == "Unknown" for status, *_ in checks):
        return CertVerdict("Unknown", None)
    return CertVerdict("Pass", None)


def _exp(x: float, what: str) -> float:
    """math.exp(x), whose overflow is a DomainError saying `what` overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        raise DomainError(f"{what} overflows") from None


def s_pair(k: float) -> tuple[float, float]:
    """The stationary points (s, s_tilde) of g_k; requires k >= 4."""
    if k < 4.0:
        raise DomainError(f"s_pair requires k >= 4, got k={k}")
    disc = math.sqrt(k * (k - 4.0))
    return ((k - 2.0 - disc) / 2.0, (k - 2.0 + disc) / 2.0)


def check_5_11(k1: float, k2: float) -> CertVerdict:
    """exp(-sqrt(k_j*(k_j-4))) < (s(k_j)/s_tilde(k_j)) * (k_i - 1)/k_i for both
    orderings of (j, i); the gate for nonempty admissible m-ranges."""
    if not (k1 > 4.0 and k2 > 4.0):
        raise DomainError(f"requires k1, k2 > 4, got k1={k1}, k2={k2}")
    s1, st1 = s_pair(k1)
    s2, st2 = s_pair(k2)
    lhs_a = math.exp(-math.sqrt(k1 * (k1 - 4.0)))
    rhs_a = (s1 / st1) * (k2 - 1.0) / k2
    lhs_b = math.exp(-math.sqrt(k2 * (k2 - 4.0)))
    rhs_b = (s2 / st2) * (k1 - 1.0) / k1
    return _first_failure([
        (_strict(lhs_a, rhs_a), lhs_a, rhs_a, "first inequality violated"),
        (_strict(lhs_b, rhs_b), lhs_b, rhs_b, "second inequality violated")])


def _m_bounds(k_own, k_other, r) -> tuple[float, float]:
    """Ends of the open m-range of the component with parameters
    (k_own, r); m1 takes (k1, k2, r1) and m2 takes (k2, k1, r2)."""
    s_o, st_o = s_pair(k_other)
    _, st = s_pair(k_own)
    lo = st_o / ((r - 1.0) * st) * math.exp(k_other / (1.0 + st_o))
    hi = s_o / (r * st) * math.exp(k_other / (1.0 + s_o))
    return lo, hi


def m_ranges(k1: float, k2: float, r1: float, r2: float
             ) -> tuple[Interval | None, Interval | None]:
    """Open admissible ranges for (m1, m2); None signals an empty range
    (lower >= upper), which happens exactly when the range's gate inequality
    fails."""
    if not (k1 > 4.0 and k2 > 4.0):
        raise DomainError(f"requires k1, k2 > 4, got k1={k1}, k2={k2}")
    if r1 < k1 or r2 < k2:
        raise DomainError(
            f"requires r1 >= k1 and r2 >= k2, got r1={r1}, k1={k1}, "
            f"r2={r2}, k2={k2}")
    lo1, hi1 = _m_bounds(k1, k2, r1)
    lo2, hi2 = _m_bounds(k2, k1, r2)
    return (Interval(lo1, hi1) if lo1 < hi1 else None,
            Interval(lo2, hi2) if lo2 < hi2 else None)


def check_m_range(name: str, m: float, rng: Interval | None) -> CertVerdict:
    """m must lie strictly inside its admissible open range `rng` (None when
    the range is empty); a Fail witness is (m, violated endpoint, 0)."""
    if rng is None:
        return CertVerdict("Fail", None,
                           note=f"admissible range for {name} is empty")
    if rng.lo < m < rng.hi:
        return CertVerdict("Pass", None)
    bound, end = ("lower", rng.lo) if m <= rng.lo else ("upper", rng.hi)
    return CertVerdict("Fail", (m, end, 0.0),
                       note=f"{name}={m} violates the {bound} bound of "
                            f"({rng.lo}, {rng.hi})")


@dataclass(frozen=True)
class RcdParams:
    beta1: float
    beta2: float
    k1: float
    k2: float
    r1: float
    r2: float
    m1: float
    m2: float

    def __post_init__(self):
        if not (self.beta1 > 0.0 and self.beta2 > 0.0):
            raise DomainError("beta1 and beta2 must be positive")
        if not (self.k1 > 4.0 and self.k2 > 4.0):
            raise DomainError(
                f"k1 and k2 must exceed 4, got k1={self.k1}, k2={self.k2}")
        if self.r1 < self.k1 or self.r2 < self.k2:
            raise DomainError("need r1 >= k1 and r2 >= k2")
        if not (self.m1 > 0.0 and self.m2 > 0.0):
            raise DomainError("m1 and m2 must be positive")
        # the factors exp(1/beta) of (p, q) and exp(k/(1 + s(k))) of the
        # m-range ends must be finite; so must k*(k - 4), or s(k) is not
        for name, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            _exp(1.0 / beta, f"{name}={beta} is too small: exp(1/{name})")
        for name, k in (("k1", self.k1), ("k2", self.k2)):
            if not math.isfinite(k * (k - 4.0)):
                raise DomainError(
                    f"{name}={k} is too large: {name}*({name} - 4) overflows")
            _exp(k / (1.0 + s_pair(k)[0]),
                 f"{name}={k} is too large: exp({name}/(1 + s({name})))")


@dataclass(frozen=True)
class DerivedParams:
    p1: float
    p2: float
    q1: float
    q2: float
    s1: float
    st1: float
    s2: float
    st2: float
    m1_range: Interval
    m2_range: Interval
    source: RcdParams


def scaled_ratios(d: DerivedParams) -> dict[str, float]:
    """The four ratios f_j(corner)/threshold re-verified after construction:
    the first and third must be < 1, the second and fourth > 1.  The
    exp(1/beta) factors of p_j and q_j cancel at the corners, leaving m2
    (for f1) or m1 (for f2) over an end of its admissible range."""
    m1, m2 = d.source.m1, d.source.m2
    return {
        "f1_small": m2 / d.m2_range.hi,
        "f1_big": m2 / d.m2_range.lo,
        "f2_small": m1 / d.m1_range.hi,
        "f2_big": m1 / d.m1_range.lo,
    }


def ratio_checks(d: DerivedParams) -> list[tuple[str, CertVerdict]]:
    """("ratio_<name>", verdict) for the four scaled ratios; the *_small
    ones must sit strictly below 1 and the *_big ones strictly above.  The
    note carries the ratio's value."""
    out = []
    for name, value in scaled_ratios(d).items():
        status = (_strict(value, 1.0) if name.endswith("_small")
                  else _strict(1.0, value))
        out.append((f"ratio_{name}",
                    CertVerdict(status, None, note=f"{name} = {value!r}")))
    return out


def build_params(p: RcdParams) -> DerivedParams:
    """Derive (p_j, q_j) from the admissible (m1, m2).

    Raises ConfigError when an m lies outside its range.  The scaled-ratio
    inequalities are not checked here: `ratio_checks` decides them."""
    range1, range2 = m_ranges(p.k1, p.k2, p.r1, p.r2)
    for name, m, rng in (("m1", p.m1, range1), ("m2", p.m2, range2)):
        verdict = check_m_range(name, m, rng)
        if verdict.status != "Pass":
            raise ConfigError(verdict.note)
    s1, st1 = s_pair(p.k1)
    s2, st2 = s_pair(p.k2)
    q1 = p.r2 * st2 * math.exp(1.0 / p.beta2)
    q2 = p.r1 * st1 * math.exp(1.0 / p.beta1)
    for name, q, j in (("q1", q1, 2), ("q2", q2, 1)):
        if not math.isfinite(q):
            raise DomainError(
                f"{name} = r{j}*s_tilde(k{j})*exp(1/beta{j}) overflows")
    return DerivedParams(
        p1=p.m2 * math.exp(-1.0 / p.beta2),
        p2=p.m1 * math.exp(-1.0 / p.beta1),
        q1=q1, q2=q2,
        s1=s1, st1=st1, s2=s2, st2=st2,
        m1_range=range1, m2_range=range2, source=p)


def check_5_16(d: DerivedParams, beta1: float, beta2: float) -> CertVerdict:
    """lambda(beta_j) = beta_j*(1 - exp(-1/beta_j)) (kernels.rcd_lambda)
    must exceed s_tilde(k_j) / f_j(evaluated at the theorem's corner); Pass
    needs both.

    The right-hand sides are beta-independent (the exp(1/beta) factors of
    p_j and q_j cancel at the corner), so they are taken from the closed
    form and the given betas enter the left side only."""
    lhs1, lhs2 = rcd_lambda(beta1), rcd_lambda(beta2)
    rhs1, rhs2 = diffusion_thresholds(d)
    return _first_failure([
        (_strict(rhs1, lhs1), lhs1, rhs1,
         "first component diffusion inequality violated"),
        (_strict(rhs2, lhs2), lhs2, rhs2,
         "second component diffusion inequality violated")])


def check_all(p: RcdParams) -> tuple[list[tuple[str, CertVerdict]],
                                     tuple[Interval | None, Interval | None],
                                     DerivedParams | None]:
    """Every scalar check of the pipeline, once each, in report order.

    Returns the (condition_id, verdict) pairs, the (m1, m2) ranges and the
    derived parameters.  `ineq_5_11`, `m1_in_range` and `m2_in_range` always
    run; the four `ratio_*` checks and `ineq_5_16` need both m's in range,
    and without them the derived parameters are None."""
    verdicts = [("ineq_5_11", check_5_11(p.k1, p.k2))]
    ranges = m_ranges(p.k1, p.k2, p.r1, p.r2)
    for name, m, rng in zip(("m1", "m2"), (p.m1, p.m2), ranges):
        verdicts.append((f"{name}_in_range", check_m_range(name, m, rng)))
    if any(v.status != "Pass" for _, v in verdicts[1:]):
        return verdicts, ranges, None
    derived = build_params(p)
    verdicts += ratio_checks(derived)
    verdicts.append(("ineq_5_16", check_5_16(derived, p.beta1, p.beta2)))
    return verdicts, ranges, derived


def diffusion_thresholds(d: DerivedParams) -> tuple[float, float]:
    """Right-hand sides of the diffusion inequality (beta-independent):
    st_j/f_j at the corner, the reciprocal of the f_j_big scaled ratio."""
    return d.m2_range.lo / d.source.m2, d.m1_range.lo / d.source.m1


def _h(z: float) -> float:
    s, st = s_pair(z)
    return (s / st) * math.exp(math.sqrt(z * (z - 4.0))) - 4.0 / 3.0


def h_root_bracket(tol: float = 1e-10) -> tuple[float, float]:
    """Bisection bracket of the zero of h(z) = (s/s_tilde)*exp(sqrt(z(z-4))) - 4/3
    on [4, 6]; h is increasing there (asserted by sampling first)."""
    samples = [_h(4.0 + 2.0 * i / 100.0) for i in range(101)]
    if any(b < a for a, b in zip(samples, samples[1:])):
        raise AssertionError("h is not nondecreasing on [4, 6]")
    lo, hi = 4.0, 6.0
    flo = _h(lo)
    if flo > 0.0 or _h(hi) < 0.0:
        raise AssertionError("h does not change sign on [4, 6]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi
