"""Certify or refute the box inequalities behind the multiplicity theorems.

Each theorem's hypotheses expand into a handful of statements of the form

    f(x1, x2)  REL  bound   for all (x1, x2) in a closed box,

which are decided by interval branch and bound:

* Pass  -- only via interval arithmetic: the enclosure of f over every leaf
  box satisfies the relation (strict relations need the enclosure endpoint
  strictly inside; exact equality is Unknown, never Pass).
* Fail  -- only via a concrete witness: a sampled point whose plain-float
  value violates the relation.
* Unknown -- the box/depth budget ran out with neither outcome.

A box whose enclosure leaves an operation's domain (a divisor enclosure
containing 0, say) is simply not certified and gets split; only a failing
point evaluation is reported as an error.

A plain-arithmetic grid oracle (dense lattice extrema) runs alongside as an
independent cross-check; it can never certify, only agree or disagree.
`check_theorem` evaluates one oracle lattice per condition and canonicalizes
each Fail witness to the lattice's first violating point in row-major order,
so reports are deterministic regardless of exploration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .conespace import RegionLabel
from .errors import ConfigError
from .expr import (EvalError, ExprAst, check_natural_exponents, eval_interval,
                   eval_point, eval_values)
from .interval import Interval

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


def _certified_fn(relation: Relation, bound: float):
    if relation == "<=":
        return lambda iv: iv.hi <= bound
    if relation == "<":
        return lambda iv: iv.hi < bound
    if relation == ">=":
        return lambda iv: iv.lo >= bound
    if relation == ">":
        return lambda iv: iv.lo > bound
    raise ValueError(f"unknown relation {relation!r}")


def _violates_fn(relation: Relation, bound: float):
    if relation == "<=":
        return lambda v: v > bound
    if relation == "<":
        return lambda v: v >= bound
    if relation == ">=":
        return lambda v: v < bound
    if relation == ">":
        return lambda v: v <= bound
    raise ValueError(f"unknown relation {relation!r}")


def certify_box(q: BoxIneq, budget: int = DEFAULT_BUDGET,
                max_depth: int = DEFAULT_DEPTH) -> CertVerdict:
    """Branch-and-bound verdict for one box inequality.

    Boxes are split on the widest axis (x1 wins ties); exploration order is
    fixed, so the verdict is deterministic for a given budget/depth.  A
    Fail's witness is the midpoint of the first sub-box found violating.
    An expression with no enclosure raises EvalError before any box.
    """
    check_natural_exponents(q.expr)
    certified = _certified_fn(q.relation, q.bound)
    violates = _violates_fn(q.relation, q.bound)
    stack = [(q.box[0], q.box[1], 0)]
    explored = 0
    depth_capped = False
    unresolved = False
    while stack:
        if explored >= budget:
            return CertVerdict("Unknown", None, explored, depth_capped,
                               note="box budget exhausted")
        b1, b2, dep = stack.pop()
        explored += 1
        try:
            enc = eval_interval(q.expr, b1, b2)
        except EvalError:
            # every `^` passed the check above, so this is a domain error of
            # the enclosure (a divisor enclosure that contains 0, say): the
            # box is only too coarse
            enc = None
        if enc is not None and certified(enc):
            continue
        try:
            val = eval_point(q.expr, b1.mid, b2.mid)
        except EvalError as err:
            raise EvalError(err.offset, f"{err.message} at the midpoint "
                            f"({b1.mid!r}, {b2.mid!r}) of sub-box {b1} x {b2}"
                            ) from err
        if violates(val):
            return CertVerdict("Fail", (b1.mid, b2.mid, val), explored,
                               depth_capped)
        if dep >= max_depth:
            depth_capped = True
            unresolved = True
            continue
        # split the widest axis, x1 on ties; fall back to the other axis
        # when the wider one is already degenerate
        axes = (0, 1) if b1.width >= b2.width else (1, 0)
        for axis in axes:
            halves = (b1 if axis == 0 else b2).split()
            if halves is None:
                continue
            if axis == 0:
                stack.append((halves[1], b2, dep + 1))
                stack.append((halves[0], b2, dep + 1))
            else:
                stack.append((b1, halves[1], dep + 1))
                stack.append((b1, halves[0], dep + 1))
            break
        else:
            # point box that neither certifies nor violates (rounding slack)
            unresolved = True
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
    included), plus the lattice's first violation of the relation."""
    if n < 2:
        raise ValueError(f"need n >= 2 samples per axis, got {n}")
    g1 = np.linspace(q.box[0].lo, q.box[0].hi, n)
    g2 = np.linspace(q.box[1].lo, q.box[1].hi, n)
    vals = eval_values(q.expr, *np.meshgrid(g1, g2, indexing="ij"))

    def point(idx):
        i, j = np.unravel_index(idx, vals.shape)
        return float(g1[i]), float(g2[j]), float(vals[i, j])

    x1, x2, sup = point(int(np.argmax(vals)))
    y1, y2, inf = point(int(np.argmin(vals)))
    mask = _violates_fn(q.relation, q.bound)(vals)
    first = point(int(np.argmax(mask))) if mask.any() else None
    return OracleResult(sup=sup, inf=inf, argmax=(x1, x2), argmin=(y1, y2),
                        n=n, first_violation=first)


def oracle_agrees(q: BoxIneq, verdict: CertVerdict, oracle: OracleResult) -> bool | None:
    """Cross-check: Pass must see no violating sample, Fail at least one
    (and a witness that re-evaluates as a violation).  None for Unknown."""
    violates = _violates_fn(q.relation, q.bound)
    any_violation = bool(violates(oracle.sup) or violates(oracle.inf))
    if verdict.status == "Pass":
        return not any_violation
    if verdict.status == "Fail":
        if verdict.witness is None:
            return False
        x1, x2, _ = verdict.witness
        return any_violation and bool(violates(eval_point(q.expr, x1, x2)))
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


_PROMISED = {
    "thm51": Promised(3, 2, (
        RegionLabel("B", "annulus"), RegionLabel("S", "annulus"),
        RegionLabel("M", "annulus"))),
    "thm52": Promised(9, 4, (
        RegionLabel("B", "B"), RegionLabel("B", "S"), RegionLabel("S", "B"),
        RegionLabel("S", "S"), RegionLabel("B", "M"), RegionLabel("M", "B"),
        RegionLabel("S", "M"), RegionLabel("M", "S"), RegionLabel("M", "M"))),
    "thm53": Promised(4, 1, (
        RegionLabel("S", "S"), RegionLabel("S", "M"),
        RegionLabel("M", "S"), RegionLabel("M", "M"))),
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


def expand_conditions(problem) -> list[BoxIneq]:
    """Instantiate the condition templates of the problem's theorem, boxes
    and bounds as printed; ordering invariants are validated first
    (ConfigError names the violated inequality).  Kernels and annulus are
    already consistent with the mode (ProblemSpec checks them)."""
    tid = _theorem(problem)
    region = problem.region
    f1, f2 = problem.f1, problem.f2
    d, a, c = region.d, region.a, region.c
    b = region.b_effective()
    iv = Interval

    if tid == "thm51":
        r, big_r = region.annulus
        _require(0.0 < d[0] < a[0], f"need 0 < d < a, got d={d[0]}, a={a[0]}")
        _require(2.0 * a[0] < c[0], f"need 2a < c, got a={a[0]}, c={c[0]}")
        _require(b[0] <= c[0], f"need b <= c, got b={b[0]}, c={c[0]}")
        _require(2.0 * r < big_r, f"need 0 < 2r < R, got r={r}, R={big_r}")
        return [
            BoxIneq(f1, (iv(0, c[0]), iv(0, big_r)), "<=", 2.0 * c[0], "thm51.a"),
            BoxIneq(f1, (iv(0, d[0]), iv(0, big_r)), "<", 2.0 * d[0], "thm51.b"),
            BoxIneq(f1, (iv(a[0], b[0]), iv(0.5 * r, big_r)), ">", 4.0 * a[0],
                    "thm51.c"),
            BoxIneq(f2, (iv(0, c[0]), iv(0, r)), "<", 2.0 * r, "thm51.d"),
            BoxIneq(f2, (iv(0, c[0]), iv(0.5 * big_r, big_r)), ">",
                    8.0 * big_r / 3.0, "thm51.e"),
        ]

    if tid == "thm52":
        for j in range(2):
            _require(0.0 < d[j] < a[j],
                     f"component {j + 1}: need 0 < d < a, got d={d[j]}, a={a[j]}")
            _require(2.0 * a[j] <= c[j],
                     f"component {j + 1}: need 2a <= c, got a={a[j]}, c={c[j]}")
            _require(b[j] <= c[j],
                     f"component {j + 1}: need b <= c, got b={b[j]}, c={c[j]}")
        ambient = (iv(0, c[0]), iv(0, c[1]))
        return [
            BoxIneq(f1, ambient, "<=", 2.0 * c[0], "thm52.a1"),
            BoxIneq(f1, (iv(0, d[0]), iv(0, c[1])), "<", 2.0 * d[0], "thm52.b1"),
            BoxIneq(f1, (iv(a[0], b[0]), iv(0, c[1])), ">", 4.0 * a[0], "thm52.c1"),
            BoxIneq(f2, ambient, "<=", 2.0 * c[1], "thm52.a2"),
            BoxIneq(f2, (iv(0, c[0]), iv(0, d[1])), "<", 2.0 * d[1], "thm52.b2"),
            BoxIneq(f2, (iv(0, c[0]), iv(a[1], b[1])), ">", 4.0 * a[1], "thm52.c2"),
        ]

    # thm53 / thm53_remark52
    betas = (problem.kernel1.beta, problem.kernel2.beta)
    strict_positive = problem.remark52
    for j in range(2):
        _require(0.0 < d[j] < a[j],
                 f"component {j + 1}: need 0 < d < a, got d={d[j]}, a={a[j]}")
        growth = a[j] * math.exp(1.0 / betas[j])
        if strict_positive:
            _require(growth <= c[j] * (1.0 + 1e-12),
                     f"component {j + 1}: need a*exp(1/beta) <= c, got "
                     f"{growth} > {c[j]}")
        else:
            _require(growth < c[j],
                     f"component {j + 1}: need a*exp(1/beta) < c, got "
                     f"{growth} >= {c[j]}")
    ambient = (iv(0, c[0]), iv(0, c[1]))
    conds = []
    for j, (f, kernel_beta) in enumerate(((f1, betas[0]), (f2, betas[1])), start=1):
        growth_bound = a[j - 1] / (kernel_beta * (1.0 - math.exp(-1.0 / kernel_beta)))
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
    return conds


def check_theorem(problem, budget: int = DEFAULT_BUDGET,
                  max_depth: int = DEFAULT_DEPTH,
                  oracle_n: int = DEFAULT_ORACLE_N) -> HypothesisReport:
    """Expand, certify and cross-check each condition, and assemble the
    report.  Each condition is certified first and then sampled on one
    oracle lattice, whose first violating point (if any) becomes a Fail's
    witness.  Fail dominates Unknown dominates Pass; the promise is
    populated only on AllPass."""
    if oracle_n < 2:
        raise ConfigError(f"oracle_n must be at least 2, got {oracle_n}")
    tid = _theorem(problem)
    results = []
    for q in expand_conditions(problem):
        verdict = certify_box(q, budget, max_depth)
        oracle = grid_oracle(q, oracle_n)
        if verdict.status == "Fail" and oracle.first_violation is not None:
            verdict = replace(verdict, witness=oracle.first_violation)
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
