"""Nystrom discretization of the Hammerstein system and multi-start solving.

The system's operator is discretized on the quadrature rule's own nodes:

    (T_j u)(t_i) = sum_m w_m * G_j(t_i, t_m) * f_j(u1(t_m), u2(t_m)),

and a fixed point of the discrete map is hunted per seed by damped Picard
iteration followed by Newton on F(u) = u - T(u).  The Jacobian uses forward
finite differences of the nonlinearities at the nodes (the piecewise ramps
are non-smooth at their breakpoints, so no AST differentiation); a singular
Jacobian falls back to another Picard round.

Seeds are constant-level profiles keyed to the region thresholds, so each of
the localization regions the theorems promise has a starter inside it.
Results are deduplicated by pairwise sup distance and classified; fixed
points outside the ambient box are reported as "outside-ambient" rather than
discarded.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .conespace import (GridFunction, RegionLabel, RegionSpec, classify,
                        nontrivial, sup_norm)
from .errors import ConfigError, OutsideAmbientError
from .expr import EvalError, ExprAst, eval_point, eval_values
from .kernels import (DirichletNeumann, KernelKind, QuadratureRule,
                      ReactionConvectionDiffusion, green_matrix, make_rule,
                      same_rule)

log = logging.getLogger(__name__)

MODES = ("nine", "hybrid", "thm53")

# iterates whose sup norm exceeds this multiple of the ambient bound are
# treated as spurious far-field points and dropped as non-converged
FAR_FIELD_FACTOR = 10.0

# forward-difference step of the Newton Jacobian
FD_STEP = 1e-7


@dataclass(frozen=True)
class ProblemSpec:
    """A system plus its localization data; `__post_init__` is the one
    place that states what each mode requires of kernels and region."""

    kernel1: KernelKind
    kernel2: KernelKind
    f1: ExprAst
    f2: ExprAst
    region: RegionSpec
    mode: str = "nine"
    remark52: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        kernel = ReactionConvectionDiffusion if self.mode == "thm53" \
            else DirichletNeumann
        if not (isinstance(self.kernel1, kernel)
                and isinstance(self.kernel2, kernel)):
            raise ConfigError(f"mode {self.mode!r} requires the "
                              f"{kernel.__name__} kernel for both components")
        if (self.mode == "hybrid") != (self.region.annulus is not None):
            raise ConfigError("an annulus (r, R) is required in hybrid mode "
                              "and allowed only there")


@dataclass
class SolverParams:
    grid_n: int = 129
    picard_steps: int = 200
    damping: float = 0.5
    newton_tol: float = 1e-8
    max_newton: int = 25
    dedupe: float | None = None  # default 1e-3 * ambient bound per component
    nontrivial_eps: float = 1e-6


@dataclass(frozen=True)
class Solution:
    u1: GridFunction
    u2: GridFunction
    residual: float
    region: RegionLabel | str  # "outside-ambient" when beyond every region
    nontrivial: tuple[bool, bool]
    iterations: int
    seed_id: str


class DiscreteOperator:
    """Kernel matrices (weights folded in) plus the two nonlinearities."""

    def __init__(self, problem: ProblemSpec, rule: QuadratureRule):
        self.problem = problem
        self.rule = rule
        t = rule.nodes
        w = rule.weights
        self.w1 = green_matrix(problem.kernel1, t, t) * w[None, :]
        self.w2 = green_matrix(problem.kernel2, t, t) * w[None, :]

    def _eval(self, f: ExprAst, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        try:
            return eval_values(f, v1, v2)
        except EvalError as err:
            # locate the offending grid node for the error message
            for idx in range(len(v1)):
                try:
                    eval_point(f, float(v1[idx]), float(v2[idx]))
                except EvalError:
                    raise EvalError(
                        err.offset,
                        f"{err.message} at grid node {idx}") from err
            raise

    def apply(self, v1: np.ndarray, v2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        f1 = self._eval(self.problem.f1, v1, v2)
        f2 = self._eval(self.problem.f2, v1, v2)
        return self.w1 @ f1, self.w2 @ f2

    def residual_values(self, v1, v2) -> float:
        t1, t2 = self.apply(v1, v2)
        return float(max(np.max(np.abs(v1 - t1)), np.max(np.abs(v2 - t2))))

    def jacobian(self, v1, v2) -> np.ndarray:
        """Jacobian of F(v) = v - T(v) via forward differences of f at the nodes."""
        h = FD_STEP
        f1 = self._eval(self.problem.f1, v1, v2)
        f2 = self._eval(self.problem.f2, v1, v2)
        d11 = (self._eval(self.problem.f1, v1 + h, v2) - f1) / h
        d12 = (self._eval(self.problem.f1, v1, v2 + h) - f1) / h
        d21 = (self._eval(self.problem.f2, v1 + h, v2) - f2) / h
        d22 = (self._eval(self.problem.f2, v1, v2 + h) - f2) / h
        n = len(v1)
        jac = np.eye(2 * n)
        jac[:n, :n] -= self.w1 * d11[None, :]
        jac[:n, n:] -= self.w1 * d12[None, :]
        jac[n:, :n] -= self.w2 * d21[None, :]
        jac[n:, n:] -= self.w2 * d22[None, :]
        return jac


def _require_shared_rule(u1: GridFunction, u2: GridFunction) -> QuadratureRule:
    if not same_rule(u1.rule, u2.rule):
        raise ValueError("grid functions must share one quadrature rule")
    return u1.rule


def apply_T(problem: ProblemSpec, u1: GridFunction, u2: GridFunction
            ) -> tuple[GridFunction, GridFunction]:
    """One application of the discretized operator pair."""
    rule = _require_shared_rule(u1, u2)
    op = DiscreteOperator(problem, rule)
    t1, t2 = op.apply(u1.values, u2.values)
    return GridFunction(rule, t1), GridFunction(rule, t2)


def residual(problem: ProblemSpec, u1: GridFunction, u2: GridFunction) -> float:
    """Sup norm of (u1 - T1 u, u2 - T2 u) over the nodes."""
    rule = _require_shared_rule(u1, u2)
    return DiscreteOperator(problem, rule).residual_values(u1.values, u2.values)


def _ambient_bounds(problem: ProblemSpec) -> tuple[float, float]:
    region = problem.region
    if region.annulus is not None:
        return region.c[0], region.annulus[1]
    return region.c


def _classify_or_outside(problem: ProblemSpec, u1: GridFunction,
                         u2: GridFunction) -> RegionLabel | str:
    try:
        return classify(u1, u2, problem.region)
    except OutsideAmbientError:
        return "outside-ambient"


def solve_from(problem: ProblemSpec, seed1: GridFunction, seed2: GridFunction,
               params: SolverParams | None = None, seed_id: str = "seed",
               op: DiscreteOperator | None = None) -> Solution | None:
    """Damped Picard then Newton from one seed pair; None if no fixed point
    with residual <= newton_tol is reached."""
    params = params or SolverParams()
    rule = _require_shared_rule(seed1, seed2)
    if op is None:
        op = DiscreteOperator(problem, rule)
    if float(np.min(seed1.values)) < 0.0 or float(np.min(seed2.values)) < 0.0:
        raise ValueError("seeds must be nonnegative")
    v1 = seed1.values.copy()
    v2 = seed2.values.copy()
    best = None  # (residual, v1, v2)
    iterations = 0
    lam = params.damping

    def remember(res, a, b):
        nonlocal best
        if best is None or res < best[0]:
            best = (res, a.copy(), b.copy())

    converged = False
    for _round in range(2):
        # Picard phase
        for _ in range(params.picard_steps):
            try:
                t1, t2 = op.apply(v1, v2)
            except EvalError:
                break
            if not (np.all(np.isfinite(t1)) and np.all(np.isfinite(t2))):
                break
            res = float(max(np.max(np.abs(v1 - t1)), np.max(np.abs(v2 - t2))))
            iterations += 1
            remember(res, v1, v2)
            if res <= params.newton_tol:
                converged = True
                break
            v1 = (1.0 - lam) * v1 + lam * t1
            v2 = (1.0 - lam) * v2 + lam * t2
        if converged:
            break
        # Newton phase from the best iterate seen so far
        if best is not None:
            v1, v2 = best[1].copy(), best[2].copy()
        n = len(v1)
        for _ in range(params.max_newton):
            try:
                t1, t2 = op.apply(v1, v2)
            except EvalError:
                break
            res = float(max(np.max(np.abs(v1 - t1)), np.max(np.abs(v2 - t2))))
            iterations += 1
            remember(res, v1, v2)
            if res <= params.newton_tol:
                converged = True
                break
            try:
                jac = op.jacobian(v1, v2)
                step = np.linalg.solve(jac, np.concatenate((v1 - t1, v2 - t2)))
            except EvalError:
                break
            except np.linalg.LinAlgError:
                log.info("seed %s: singular Jacobian (cond estimate %.3e), "
                         "falling back to Picard", seed_id,
                         float(np.linalg.cond(jac)))
                break
            if not np.all(np.isfinite(step)):
                break
            v1 = v1 - step[:n]
            v2 = v2 - step[n:]
        if converged:
            break
    if not converged:
        return None

    # nonnegativity check with round-off slack, then clamp the slack away
    if float(min(np.min(v1), np.min(v2))) < -1e-10:
        return None
    v1 = np.maximum(v1, 0.0)
    v2 = np.maximum(v2, 0.0)
    res = op.residual_values(v1, v2)
    if res > params.newton_tol:
        return None
    u1 = GridFunction(rule, v1)
    u2 = GridFunction(rule, v2)
    amb1, amb2 = _ambient_bounds(problem)
    if sup_norm(u1) > FAR_FIELD_FACTOR * amb1 or sup_norm(u2) > FAR_FIELD_FACTOR * amb2:
        return None
    return Solution(
        u1=u1, u2=u2, residual=res,
        region=_classify_or_outside(problem, u1, u2),
        nontrivial=(nontrivial(u1, params.nontrivial_eps),
                    nontrivial(u2, params.nontrivial_eps)),
        iterations=iterations, seed_id=seed_id)


def _seed_profile(kernel: KernelKind, t: np.ndarray) -> np.ndarray:
    # ramp respects u(0)=0 for the Dirichlet end and lies in the cone P;
    # the RCD problem has no zero boundary value, so a constant profile fits
    if isinstance(kernel, DirichletNeumann):
        return np.minimum(2.0 * t, 1.0)
    return np.ones_like(t)


def seed_levels(problem: ProblemSpec) -> tuple[dict[str, float], dict[str, float]]:
    """Per-component seed amplitudes keyed by region-threshold tags."""
    region = problem.region
    levels1 = {"S": region.d[0] / 2.0,
               "M": (region.d[0] + region.a[0]) / 2.0,
               "B": (region.a[0] + region.c[0]) / 2.0}
    if region.annulus is not None:
        r, big_r = region.annulus
        levels2 = {"LO": r + 0.25 * (big_r - r),
                   "MID": 0.5 * (r + big_r),
                   "HI": big_r - 0.25 * (big_r - r)}
    else:
        levels2 = {"S": region.d[1] / 2.0,
                   "M": (region.d[1] + region.a[1]) / 2.0,
                   "B": (region.a[1] + region.c[1]) / 2.0}
    return levels1, levels2


def multi_start(problem: ProblemSpec, params: SolverParams | None = None,
                seed_list: list[str] | None = None) -> list[Solution]:
    """Run every seed combination, deduplicate and classify the survivors.

    Dedupe drops a solution when every component is within delta of an
    already-kept one (delta = 1e-3 * ambient bound per component unless
    overridden); processing order is sorted by seed_id so the output is
    deterministic."""
    params = params or SolverParams()
    if params.grid_n < 3:
        raise ConfigError(f"grid_n must be at least 3, got {params.grid_n}")
    if 0.5 in problem.region.window and (params.grid_n - 1) % 2 != 0:
        raise ConfigError(
            f"grid_n must be odd so t=1/2 is a node, got {params.grid_n}")
    rule = make_rule(params.grid_n)
    op = DiscreteOperator(problem, rule)
    t = rule.nodes
    prof1 = _seed_profile(problem.kernel1, t)
    prof2 = _seed_profile(problem.kernel2, t)
    levels1, levels2 = seed_levels(problem)
    seed_ids = [f"{tag1}-{tag2}" for tag1, tag2
                in itertools.product(levels1, levels2)]
    if seed_list is not None:
        unknown = sorted(set(seed_list) - set(seed_ids))
        if unknown:
            raise ConfigError(f"unknown seed ids: {', '.join(unknown)}")
        seed_ids = [s for s in seed_ids if s in set(seed_list)]
    found: list[Solution] = []
    for seed_id in sorted(seed_ids):
        tag1, tag2 = seed_id.split("-")
        seed1 = GridFunction(rule, levels1[tag1] * prof1)
        seed2 = GridFunction(rule, levels2[tag2] * prof2)
        sol = solve_from(problem, seed1, seed2, params, seed_id=seed_id, op=op)
        if sol is not None:
            found.append(sol)
    amb1, amb2 = _ambient_bounds(problem)
    delta1 = params.dedupe if params.dedupe is not None else 1e-3 * amb1
    delta2 = params.dedupe if params.dedupe is not None else 1e-3 * amb2
    kept: list[Solution] = []
    for sol in found:
        duplicate = False
        for other in kept:
            dist1 = float(np.max(np.abs(sol.u1.values - other.u1.values)))
            dist2 = float(np.max(np.abs(sol.u2.values - other.u2.values)))
            if dist1 <= delta1 and dist2 <= delta2:
                duplicate = True
                break
        if not duplicate:
            kept.append(sol)
    return kept
