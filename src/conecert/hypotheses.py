"""Certify or refute the box inequalities behind the multiplicity theorems.

Each theorem's hypotheses expand into a handful of statements of the form

    f(x1, x2)  REL  bound   for all (x1, x2) in a closed box,

which are decided by first-order interval branch and bound:

* Pass  -- only via interval arithmetic: every leaf box satisfies the
  relation by its natural enclosure of f or by its mean-value enclosure
  f([m]) + grad f(X) . (X - m), and every box cut away was shown, by a
  sign-definite enclosure of a partial derivative, to hold the extremum
  the relation bounds on the face that was kept (Lebourg's mean-value
  theorem, with the Clarke generalized gradient at the kinks of the ramps,
  abs, min and max).  Strict relations need the enclosure endpoint
  strictly inside; exact equality is Unknown, never Pass.
* Fail  -- only via a concrete witness: a sampled point (a box midpoint, or
  a point of the oracle lattice where branch and bound ended Unknown) whose
  plain-float value violates the relation.
* Unknown -- the box budget ran out, or boxes at the depth cap (or point
  boxes) remain with neither outcome.

A box that no test decides is split on its widest axis.  Where a ramp
(phi, psi, capphi) of that bare variable has a breakpoint strictly inside
the axis, the split is at the breakpoint nearest the midpoint, else at the
midpoint: the maxima of the paper's nonlinearities sit on such kinks, and
once a box lies in one closed piece of the ramp its slope there is
definite, so monotonicity can cut the box to the face on the kink.  Both
halves of such a split then often collapse onto the same face; a face (or
point) whose whole subtree was certified is remembered and not decided
again, and `boxes_explored` counts decided boxes only.

A box whose enclosure leaves an operation's domain (a divisor enclosure
containing 0, say) is simply not certified and gets split; a gradient
enclosure that leaves it only skips the first-order tests on that box.
Only a failing point evaluation is reported as an error: a float operation
that overflows, divides by zero or is invalid at a box midpoint or at an
oracle lattice point (the first failing one in row-major order).

A plain-arithmetic grid oracle (dense lattice extrema) runs alongside as an
independent cross-check; it can never certify, only agree or disagree.
`check_theorem` evaluates one oracle lattice per condition and canonicalizes
each Fail witness to the lattice's first violating point in row-major order,
so reports are deterministic regardless of exploration order.
"""

from __future__ import annotations

import math
import operator
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .conespace import HYBRID_REGIONS, NINE_REGIONS, RegionLabel
from . import interval
from .errors import ConfigError, DomainError
from .expr import (EvalError, ExprAst, eval_point, eval_values, first_failure,
                   float_flags, float_program, gradient_program,
                   interval_program, ramp_breakpoints)
# only for benchmarks/spans.py, which patches it (AttributeError if absent)
from .expr import eval_interval  # noqa: F401
from .interval import Interval, midpoint
from .kernels import rcd_lambda

DEFAULT_BUDGET = 100_000
DEFAULT_DEPTH = 40
DEFAULT_ORACLE_N = 201

Relation = str  # "<" | "<=" | ">" | ">="


@dataclass(frozen=True)
class BoxIneq:
    """One inequality `expr REL bound` quantified over a closed box."""

    expr: ExprAst
    box: tuple[Interval, Interval]
    relation: Relation
    bound: float
    condition_id: str


@dataclass(frozen=True)
class CertVerdict:
    status: str  # "Pass" | "Fail" | "Unknown"
    witness: tuple[float, float, float] | None  # (x1, x2, value) for Fail
    boxes_explored: int = 0
    max_depth_reached: bool = False
    note: str = ""


# each relation's comparison `holds(value, bound)` and whether it bounds f
# from above: an enclosure (lo, hi) proves the relation when its end
# enc[upper] holds, and a point value violates it when the value does not
# hold (the float programs return finite values only)
_RELATIONS = {"<=": (operator.le, True), "<": (operator.lt, True),
              ">=": (operator.ge, False), ">": (operator.gt, False)}


def _extremal_end(d: tuple[float, float], lo: float, hi: float,
                  upper: bool) -> float | None:
    """The end of a non-degenerate [lo, hi] that holds f's sup (upper) or
    inf on every line along this axis, when f's partial derivative
    enclosure d over the box is sign-definite; None otherwise."""
    if lo == hi:
        return None
    if d[0] >= 0.0:
        return hi if upper else lo
    if d[1] <= 0.0:
        return lo if upper else hi
    return None


def _split_point(lo: float, hi: float, mid: float, breaks: tuple[float, ...]) -> float:
    """Where to split [lo, hi]: the ramp breakpoint strictly inside it that
    is nearest the midpoint (the lower one on a tie), else the midpoint."""
    inside = [b for b in breaks if lo < b < hi]
    return min(inside, key=lambda b: abs(b - mid)) if inside else mid


def _slope_term(d1: interval.Pair, d2: interval.Pair, x1: interval.Pair,
                x2: interval.Pair, m1: float, m2: float) -> interval.Pair:
    """d1*(X1 - m1) + d2*(X2 - m2), the mean-value form's slope term."""
    return interval.add(interval.mul(d1, interval.sub(x1, (m1, m1))),
                        interval.mul(d2, interval.sub(x2, (m2, m2))))


def _mean_value_reach(value: interval.Pair, slope: interval.Pair,
                      upper: bool) -> float:
    """A float that the mean-value form f([m]) + slope reaches at its
    bounding end, given the box's natural enclosure `value`: the form's hi
    is at least this for an upper bound (< and <=), its lo at most this
    for a lower one.  f([m]) holds f(m), which `value` holds too, so
    f([m])'s hi is at least value[0] and its lo at most value[1]; rounding
    to nearest is monotone and the form's add rounds outward, so its end
    lies past the float sum.  Where that sum violates the relation the form
    cannot certify, and the centre's value program need not run."""
    return value[0] + slope[1] if upper else value[1] + slope[0]


def certify_box(q: BoxIneq, budget: int = DEFAULT_BUDGET,
                max_depth: int = DEFAULT_DEPTH) -> CertVerdict:
    """Branch-and-bound verdict for one box inequality.

    Each box is decided in a fixed order: its natural enclosure, then its
    midpoint's float value, then first-order tests on its gradient
    enclosure, then a split.  A sign-definite partial derivative collapses
    its axis to the face that holds the extremum the relation bounds, and
    the face is pushed at the box's depth; otherwise the mean-value form
    f([m]) + d1*(X1 - m1) + d2*(X2 - m2) around the midpoint m may certify
    the box.  A box neither decides is split on the widest axis (x1 wins
    ties), at the breakpoint nearest the midpoint among those strictly
    inside the axis of the ramps applied to that bare variable (collected
    once from the expression), else at the midpoint; the lower half is
    explored first.  Exploration order is fixed, so the verdict is
    deterministic for a given budget/depth.  A Fail's witness is the
    midpoint of the first box found violating.  The condition's programs
    are compiled once, which raises EvalError before any box for an
    expression with no enclosure; the depth-first stack then holds each box
    as four float endpoints and its depth, and builds no Interval per box.
    One gradient-program run per box gives both its natural and its
    derivative enclosures; the value-only program runs for the mean-value
    centre, and where only a derivative enclosure leaves its domain.  The
    slope term is computed first, and the centre's run is skipped when the
    natural enclosure's near end plus that term already violates the
    relation (`_mean_value_reach`): the form cannot certify such a box,
    which then takes the path of a failed mean-value test, so the skip
    changes no verdict and no box count.  The midpoints' float program runs
    in one `float_flags()` scope per call.

    The 2-D boxes partition the root, so only a box with a degenerate side
    (a face or a point) can recur, when both halves of a split collapse onto
    it.  Each such box pushes a completion marker under its children, with
    the count of unresolved leaves so far; when the marker pops with that
    count unchanged, the box is proved and a later copy, at whatever depth,
    is skipped with no program run.  A depth-capped or unresolved subtree
    proves nothing.  The budget counts decided boxes only, and is checked
    only when a box is about to be decided, so markers and proved copies
    left on the stack never turn a Pass into a budget Unknown.
    """
    enclose = interval_program(q.expr)
    gradient = gradient_program(q.expr)
    point = float_program(q.expr)
    breaks1, breaks2 = ramp_breakpoints(q.expr)
    holds, upper = _RELATIONS[q.relation]
    bound = q.bound
    b1, b2 = q.box
    stack = [(b1.lo, b1.hi, b2.lo, b2.hi, 0)]
    proved = set()  # faces and points whose whole subtree was certified
    explored = 0
    depth_capped = False
    unresolved = 0  # leaves left with neither outcome
    # one float_flags() scope for every midpoint; the rest of the loop is
    # interval arithmetic on Python floats, which numpy's flags do not touch
    with float_flags():
        while stack:
            item = stack.pop()
            if len(item) == 2:
                # a face's completion marker: the face and everything pushed
                # above it are decided, and proved if no leaf among them was
                # left unresolved
                face, before = item
                if unresolved == before:
                    proved.add(face)
                continue
            lo1, hi1, lo2, hi2, dep = item
            if lo1 == hi1 or lo2 == hi2:
                face = (lo1, hi1, lo2, hi2)
                if face in proved:
                    continue
                # its completion marker, under anything this box pushes
                stack.append((face, unresolved))
            if explored >= budget:
                return CertVerdict("Unknown", None, explored, depth_capped,
                                   note="box budget exhausted")
            explored += 1
            x1 = (lo1, hi1)
            x2 = (lo2, hi2)
            try:
                value, d1, d2 = gradient(x1, x2)
            except EvalError:
                # a domain error (the program compiled): a derivative's only
                # skips the first-order tests, the value's leaves the box too
                # coarse
                value = d1 = None
                with suppress(EvalError):
                    value = enclose(x1, x2)
            if value is not None and holds(value[upper], bound):
                continue
            m1 = midpoint(lo1, hi1)
            m2 = midpoint(lo2, hi2)
            try:
                val = float(point(np.float64(m1), np.float64(m2)))
            except EvalError as err:
                raise EvalError(err.offset, f"{err.message} at the midpoint "
                                f"({m1!r}, {m2!r}) of sub-box "
                                f"{Interval(lo1, hi1)} x "
                                f"{Interval(lo2, hi2)}") from err
            if not holds(val, bound):
                return CertVerdict("Fail", (m1, m2, val), explored, depth_capped)
            if d1 is not None:
                end1 = _extremal_end(d1, lo1, hi1, upper)
                end2 = _extremal_end(d2, lo2, hi2, upper)
                if end1 is not None or end2 is not None:
                    if end1 is not None:
                        lo1 = hi1 = end1
                    if end2 is not None:
                        lo2 = hi2 = end2
                    stack.append((lo1, hi1, lo2, hi2, dep))
                    continue
                # the natural enclosure has failed, so the mean-value form
                # alone decides what their intersection would; the centre's
                # value program runs only where the form may certify
                with suppress(EvalError, DomainError):
                    slope = _slope_term(d1, d2, x1, x2, m1, m2)
                    if holds(_mean_value_reach(value, slope, upper), bound) \
                            and holds(interval.add(enclose((m1, m1), (m2, m2)),
                                                   slope)[upper], bound):
                        continue
            if dep >= max_depth:
                depth_capped = True
                unresolved += 1
                continue
            # split the widest axis, x1 on ties; fall back to the other axis
            # when the wider one is already degenerate
            split1 = lo1 < m1 < hi1
            split2 = lo2 < m2 < hi2
            if split1 and (hi1 - lo1 >= hi2 - lo2 or not split2):
                s = _split_point(lo1, hi1, m1, breaks1)
                stack.append((s, hi1, lo2, hi2, dep + 1))
                stack.append((lo1, s, lo2, hi2, dep + 1))
            elif split2:
                s = _split_point(lo2, hi2, m2, breaks2)
                stack.append((lo1, hi1, s, hi2, dep + 1))
                stack.append((lo1, hi1, lo2, s, dep + 1))
            else:
                # point box that neither certifies nor violates (rounding slack)
                unresolved += 1
    if unresolved:
        return CertVerdict("Unknown", None, explored, depth_capped,
                           note="uncertified leaves remain")
    return CertVerdict("Pass", None, explored, depth_capped)


@dataclass(frozen=True)
class OracleResult:
    sup: float
    inf: float
    argmax: tuple[float, float]
    argmin: tuple[float, float]
    n: int
    # (x1, x2, value) of the first violating lattice point, row-major with
    # x1 outer; None when every sample satisfies the relation
    first_violation: tuple[float, float, float] | None


def grid_oracle(q: BoxIneq, n: int = DEFAULT_ORACLE_N) -> OracleResult:
    """Plain-arithmetic extrema of expr over the n x n lattice (corners
    included), plus the lattice's first violation of the relation; an
    EvalError names the first failing point (row-major, x1 outer)."""
    if n < 2:
        raise ValueError(f"need n >= 2 samples per axis, got {n}")
    try:
        g1 = np.linspace(q.box[0].lo, q.box[0].hi, n)
        g2 = np.linspace(q.box[1].lo, q.box[1].hi, n)
        # a broadcast lattice: a subexpression in one variable costs n
        # points, not n^2, and each element sees the same operands as on a
        # full grid
        vals = eval_values(q.expr, g1[:, None], g2[None, :])
    except (MemoryError, ValueError) as err:
        # numpy refuses a count beyond its index range, or memory runs out
        raise ConfigError(f"oracle_n = {n:.6g} is too large: {err}") from err
    except EvalError as err:
        at, error = first_failure(q.expr, g1[:, None], g2[None, :], err)
        i, j = divmod(at, n)
        raise EvalError(error.offset, f"{error.message} at the lattice point "
                        f"({float(g1[i])!r}, {float(g2[j])!r})") from error

    def point(idx):
        i, j = np.unravel_index(idx, vals.shape)
        return float(g1[i]), float(g2[j]), float(vals[i, j])

    x1, x2, sup = point(int(np.argmax(vals)))
    y1, y2, inf = point(int(np.argmin(vals)))
    # (inf, sup) encloses the lattice's values, so some lattice point
    # violates the relation exactly when the end it bounds does
    holds, upper = _RELATIONS[q.relation]
    first = None
    if not holds((inf, sup)[upper], q.bound):
        first = point(int(np.argmax(~holds(vals, q.bound))))
    return OracleResult(sup=sup, inf=inf, argmax=(x1, x2), argmin=(y1, y2),
                        n=n, first_violation=first)


def oracle_agrees(q: BoxIneq, verdict: CertVerdict, oracle: OracleResult) -> bool | None:
    """Cross-check: Pass must see no violating sample, Fail at least one
    (and a witness that re-evaluates as a violation).  None for Unknown."""
    any_violation = oracle.first_violation is not None
    if verdict.status == "Pass":
        return not any_violation
    if verdict.status == "Fail":
        if verdict.witness is None:
            return False
        x1, x2, _ = verdict.witness
        holds, _ = _RELATIONS[q.relation]
        return any_violation and not holds(eval_point(q.expr, x1, x2), q.bound)
    return None


# ---------------------------------------------------------------------------
# theorem condition templates


@dataclass(frozen=True)
class Promised:
    solutions: int
    coexistence: int
    regions: tuple[RegionLabel, ...]


@dataclass(frozen=True)
class ConditionResult:
    cond: BoxIneq
    verdict: CertVerdict
    oracle: OracleResult
    agrees: bool | None  # oracle_agrees of the verdict and the oracle


@dataclass(frozen=True)
class HypothesisReport:
    theorem_id: str
    conditions: tuple[ConditionResult, ...]
    overall: str  # "AllPass" | "SomeFail" | "Inconclusive"
    promised: Promised | None


# each theorem's regions in the paper's numbering; thm53's are the four
# with no big tag
_PROMISED = {
    "thm51": Promised(3, 2, HYBRID_REGIONS),
    "thm52": Promised(9, 4, NINE_REGIONS),
    "thm53": Promised(4, 1, tuple(
        r for r in NINE_REGIONS if "B" not in (r.comp1, r.comp2))),
}
_PROMISED["thm53_remark52"] = _PROMISED["thm53"]

# the theorem each problem mode instantiates (thm53 with remark52 set checks
# the strict-positivity variant)
_THEOREMS = {"hybrid": "thm51", "nine": "thm52", "thm53": "thm53"}


def _theorem(problem) -> str:
    """Id of the theorem whose hypotheses the problem's mode asks for."""
    tid = _THEOREMS[problem.mode]
    return tid + "_remark52" if tid == "thm53" and problem.remark52 else tid


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _finite(value: float, what: str) -> float:
    _require(math.isfinite(value), f"{what} overflows to {value}")
    return value


def _bounded(conds: list[BoxIneq]) -> list[BoxIneq]:
    for q in conds:
        _finite(q.bound, f"{q.condition_id}: the bound")
    return conds


def expand_conditions(problem) -> list[BoxIneq]:
    """Instantiate the condition templates of the problem's theorem, boxes
    and bounds as printed; the theorem's ordering invariants are validated
    first (ConfigError names the violated inequality, or the ordering term
    or condition bound that overflows).  RegionSpec already holds
    0 < d < a < c, and ProblemSpec makes kernels and annulus consistent
    with the mode."""
    tid = _theorem(problem)
    region = problem.region
    f1, f2 = problem.f1, problem.f2
    d, a, c = region.d, region.a, region.c
    b = region.b_effective()
    iv = Interval

    if tid == "thm51":
        r, big_r = region.annulus
        _require(2.0 * a[0] < c[0], f"need 2a < c, got a={a[0]}, c={c[0]}")
        _require(b[0] <= c[0], f"need b <= c, got b={b[0]}, c={c[0]}")
        _require(2.0 * r < big_r, f"need 0 < 2r < R, got r={r}, R={big_r}")
        return _bounded([
            BoxIneq(f1, (iv(0, c[0]), iv(0, big_r)), "<=", 2.0 * c[0], "thm51.a"),
            BoxIneq(f1, (iv(0, d[0]), iv(0, big_r)), "<", 2.0 * d[0], "thm51.b"),
            BoxIneq(f1, (iv(a[0], b[0]), iv(0.5 * r, big_r)), ">", 4.0 * a[0],
                    "thm51.c"),
            BoxIneq(f2, (iv(0, c[0]), iv(0, r)), "<", 2.0 * r, "thm51.d"),
            BoxIneq(f2, (iv(0, c[0]), iv(0.5 * big_r, big_r)), ">",
                    8.0 * big_r / 3.0, "thm51.e"),
        ])

    if tid == "thm52":
        for j in range(2):
            _require(2.0 * a[j] <= c[j],
                     f"component {j + 1}: need 2a <= c, got a={a[j]}, c={c[j]}")
            _require(b[j] <= c[j],
                     f"component {j + 1}: need b <= c, got b={b[j]}, c={c[j]}")
        ambient = (iv(0, c[0]), iv(0, c[1]))
        return _bounded([
            BoxIneq(f1, ambient, "<=", 2.0 * c[0], "thm52.a1"),
            BoxIneq(f1, (iv(0, d[0]), iv(0, c[1])), "<", 2.0 * d[0], "thm52.b1"),
            BoxIneq(f1, (iv(a[0], b[0]), iv(0, c[1])), ">", 4.0 * a[0], "thm52.c1"),
            BoxIneq(f2, ambient, "<=", 2.0 * c[1], "thm52.a2"),
            BoxIneq(f2, (iv(0, c[0]), iv(0, d[1])), "<", 2.0 * d[1], "thm52.b2"),
            BoxIneq(f2, (iv(0, c[0]), iv(a[1], b[1])), ">", 4.0 * a[1], "thm52.c2"),
        ])

    # thm53 / thm53_remark52
    betas = (problem.kernel1.beta, problem.kernel2.beta)
    strict_positive = problem.remark52
    for j in range(2):
        try:
            growth = a[j] * math.exp(1.0 / betas[j])
        except OverflowError:
            growth = math.inf
        _finite(growth, f"component {j + 1}: a*exp(1/beta) with "
                        f"beta={betas[j]!r}")
        if strict_positive:
            _require(growth <= _finite(c[j] * (1.0 + 1e-12),
                                       f"component {j + 1}: c*(1 + 1e-12)"),
                     f"component {j + 1}: need a*exp(1/beta) <= c, got "
                     f"{growth} > {c[j]}")
        else:
            _require(growth < c[j],
                     f"component {j + 1}: need a*exp(1/beta) < c, got "
                     f"{growth} >= {c[j]}")
    ambient = (iv(0, c[0]), iv(0, c[1]))
    conds = []
    for j, (f, kernel_beta) in enumerate(((f1, betas[0]), (f2, betas[1])), start=1):
        growth_bound = a[j - 1] / rcd_lambda(kernel_beta)
        if strict_positive:
            conds.append(BoxIneq(f, ambient, ">", 0.0, f"thm53.a{j}"))
        else:
            conds.append(BoxIneq(f, ambient, ">=", 0.0, f"thm53.a{j}"))
        if j == 1:
            small = (iv(0, d[0]), iv(0, c[1]))
            big = (iv(a[0], c[0]), iv(0, c[1]))
        else:
            small = (iv(0, c[0]), iv(0, d[1]))
            big = (iv(0, c[0]), iv(a[1], c[1]))
        conds.append(BoxIneq(f, small, "<", d[j - 1], f"thm53.b{j}"))
        conds.append(BoxIneq(f, big, ">", growth_bound, f"thm53.c{j}"))
    return _bounded(conds)


def check_theorem(problem, budget: int = DEFAULT_BUDGET,
                  max_depth: int = DEFAULT_DEPTH,
                  oracle_n: int = DEFAULT_ORACLE_N) -> HypothesisReport:
    """Expand, certify and cross-check each condition, and assemble the
    report.  Each condition is certified first and then sampled on one
    oracle lattice, whose first violating point (if any) becomes a Fail's
    witness, and turns an Unknown into a Fail when its plain-float value
    re-evaluates as a violation.  Fail dominates Unknown dominates Pass; the
    promise is populated only on AllPass."""
    if oracle_n < 2:
        raise ConfigError(f"oracle_n must be at least 2, got {oracle_n}")
    tid = _theorem(problem)
    results = []
    for q in expand_conditions(problem):
        verdict = certify_box(q, budget, max_depth)
        oracle = grid_oracle(q, oracle_n)
        if verdict.status == "Fail" and oracle.first_violation is not None:
            verdict = replace(verdict, witness=oracle.first_violation)
        elif verdict.status == "Unknown" and oracle.first_violation is not None:
            fail = replace(verdict, status="Fail",
                           witness=oracle.first_violation,
                           note=f"oracle lattice witness; {verdict.note}")
            if oracle_agrees(q, fail, oracle):
                verdict = fail
        results.append(ConditionResult(q, verdict, oracle,
                                       oracle_agrees(q, verdict, oracle)))
    statuses = [r.verdict.status for r in results]
    if any(s == "Fail" for s in statuses):
        overall = "SomeFail"
    elif any(s == "Unknown" for s in statuses):
        overall = "Inconclusive"
    else:
        overall = "AllPass"
    promised = _PROMISED[tid] if overall == "AllPass" else None
    return HypothesisReport(tid, tuple(results), overall, promised)
