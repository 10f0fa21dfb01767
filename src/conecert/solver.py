"""Nystrom discretization of the Hammerstein system and multi-start solving.

The system's operator is discretized on the quadrature rule's own nodes:

    (T_j u)(t_i) = sum_m w_m * G_j(t_i, t_m) * f_j(u1(t_m), u2(t_m)),

and a fixed point of the discrete map is hunted per seed by damped Picard
iteration followed by Newton on F(u) = u - T(u).  The nonlinearities'
derivatives are forward finite differences at the nodes (the piecewise ramps
are non-smooth at their breakpoints, so no AST differentiation).  Both
kernels are semiseparable, so no n x n matrix is ever formed.  The operator
is applied from the kernels' generators (kernels.generators) with two prefix
sums over the stacked (2, n) state, in O(n).  The Green matrices have
tridiagonal inverses (kernels.inverse_tridiagonal), so the Newton system,
multiplied through by the inverse kernel matrix, is 2x2-block tridiagonal and
one block sweep solves it in O(n) per step; a zero or non-finite block pivot
ends the seed.

Seeds are constant-level profiles keyed to the region thresholds, so each of
the localization regions the theorems promise has a starter inside it.
Results are deduplicated by pairwise sup distance and classified; fixed
points outside the ambient box are reported as "outside-ambient" rather than
discarded.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .conespace import (GridFunction, RegionLabel, RegionSpec, classify,
                        nontrivial, sup_norm)
from .errors import ConfigError, OutsideAmbientError
from .expr import EvalError, ExprAst, eval_point, eval_values
from .kernels import (DirichletNeumann, KernelKind, QuadratureRule,
                      ReactionConvectionDiffusion, generator_blocks,
                      generators, inverse_tridiagonal, make_rule, same_rule)
# only for benchmarks/spans.py, which patches it (AttributeError if absent)
from .kernels import green_matrix  # noqa: F401

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
        if self.remark52 and self.mode != "thm53":
            raise ConfigError("remark52 is allowed only in thm53 mode")


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
    """Semiseparable kernel generators (weights folded in), stacked (2, n)
    over the two components, plus the two nonlinearities."""

    def __init__(self, problem: ProblemSpec, rule: QuadratureRule):
        self.problem = problem
        self.rule = rule
        t = rule.nodes
        w = rule.weights
        k1, k2 = problem.kernel1, problem.kernel2
        # one block partition that keeps both components' generators finite
        starts = np.flatnonzero(generator_blocks(k1, t)
                                | generator_blocks(k2, t))
        a, b, c, d, link = (np.array(pair) for pair in zip(
            generators(k1, t, starts), generators(k2, t, starts)))
        self.gen = (a, b * w, c, d * w)
        # (start, stop, link to the previous block), last block first
        stops = np.append(starts[1:], rule.n)
        links = [None, *link.T]
        self.blocks = list(zip(starts.tolist(), stops.tolist(), links))[::-1]
        # (G_j W)^{-1} for the Newton step, on the nodes from `first` on;
        # ProblemSpec gives both components one kernel kind, so both
        # inverses start at the same node
        self.inv1 = _weighted_inverse(problem.kernel1, rule)
        self.inv2 = _weighted_inverse(problem.kernel2, rule)
        self.first = rule.n - len(self.inv1[1])

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

    def nonlinearity(self, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        """(f1, f2) at the nodes of v, as one (2, n) array."""
        return np.array((self._eval(self.problem.f1, v1, v2),
                         self._eval(self.problem.f2, v1, v2)))

    def apply(self, v1: np.ndarray, v2: np.ndarray,
              f: np.ndarray | None = None) -> np.ndarray:
        """(T1 v, T2 v) as one (2, n) array; f is `nonlinearity(v1, v2)`,
        evaluated here unless the caller already has it.

        (T_j v)_i = a_i sum_{m <= i} b_m f_m + c_i sum_{m > i} d_m f_m: a
        forward prefix sum, and a backward one per generator block whose
        total is carried into the previous block through its link."""
        if f is None:
            f = self.nonlinearity(v1, v2)
        a, b, c, d = self.gen
        out = a * np.add.accumulate(b * f, axis=1)
        df = d * f
        carry = None  # the sum of df past the block, in the block's terms
        for start, stop, link in self.blocks:
            # tail[:, j] = sum of df over m in [stop - 1 - j, stop)
            tail = np.add.accumulate(df[:, start:stop][:, ::-1], axis=1)
            out[:, start:stop - 1] += c[:, start:stop - 1] * tail[:, -2::-1]
            if carry is not None:
                out[:, start:stop] += c[:, start:stop] * carry[:, None]
                tail[:, -1] += carry
            if link is not None:
                carry = link * tail[:, -1]
        return out

    def residual_values(self, v: np.ndarray) -> float:
        """Sup norm of v - T(v) for the stacked (2, n) state v."""
        return float(np.max(np.abs(v - self.apply(v[0], v[1]))))

    def jacobian(self, v1, v2, f: np.ndarray) -> tuple[np.ndarray, ...]:
        """Nodal derivatives (d11, d12, d21, d22) of (f1, f2) at v, where
        dij = df_i/dx_j, by forward differences from the base values
        f = `nonlinearity(v1, v2)`."""
        h = FD_STEP
        f1, f2 = f
        return ((self._eval(self.problem.f1, v1 + h, v2) - f1) / h,
                (self._eval(self.problem.f1, v1, v2 + h) - f1) / h,
                (self._eval(self.problem.f2, v1 + h, v2) - f2) / h,
                (self._eval(self.problem.f2, v1, v2 + h) - f2) / h)

    def newton_step(self, v: np.ndarray, r: np.ndarray,
                    f: np.ndarray) -> np.ndarray:
        """Solve J delta = r for the Jacobian J = I - K Df of F(v) = v - T(v),
        with v, r, delta and f = `nonlinearity(v[0], v[1])` stacked (2, n).

        K = diag(K1, K2) with K_j = G_j W, and Df is the 2x2 block of nodal
        derivative diagonals.  Multiplying by K^{-1} gives the equivalent
        (K^{-1} - Df) delta = K^{-1} r: a 2x2-block tridiagonal system with
        diagonal off-diagonal blocks, solved in O(n).  For min(t,s) the row
        and column at t = 0 are those of I, so delta there is r.  Raises
        SingularPivot for a zero or non-finite block pivot."""
        first = self.first
        derivs = [d[first:] for d in self.jacobian(v[0], v[1], f)]
        delta = r.copy()
        delta[:, first:] = _block_thomas(
            self.inv1, self.inv2, derivs,
            _tridiagonal_matvec(self.inv1, r[0, first:]),
            _tridiagonal_matvec(self.inv2, r[1, first:]), first)
        return delta


class SingularPivot(ArithmeticError):
    """A zero or non-finite 2x2 pivot in the block-tridiagonal Newton solve."""

    def __init__(self, node: int):
        super().__init__(f"singular 2x2 pivot at grid node {node}")
        self.node = node


def _weighted_inverse(kernel: KernelKind, rule: QuadratureRule
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) of (G W)^{-1} = W^{-1} G^{-1}: row k of G^{-1}
    divided by the weight of node k."""
    lower, diag, upper = inverse_tridiagonal(kernel, rule.nodes)
    w = rule.weights[rule.n - len(diag):]
    return lower / w[1:], diag / w, upper / w[:-1]


def _tridiagonal_matvec(tri, x: np.ndarray) -> np.ndarray:
    lower, diag, upper = tri
    y = diag * x
    y[1:] += lower * x[:-1]
    y[:-1] += upper * x[1:]
    return y


def _block_thomas(tri1, tri2, derivs, y1, y2, first: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Block forward elimination and back substitution for the system whose
    row k couples x[k-1], x[k] and x[k+1] (pairs over the two components)
    through diag(lower_k), diag(tri_kk) - Df_k and diag(upper_k).

    Plain floats: each step works on one 2x2 block, where numpy's per-call
    cost would dominate.  `first` offsets the node index in SingularPivot."""
    (lo1, di1, up1), (lo2, di2, up2) = tri1, tri2
    d11, d12, d21, d22 = derivs
    rows = zip(np.append(0.0, lo1).tolist(), np.append(0.0, lo2).tolist(),
               (di1 - d11).tolist(), (-d12).tolist(), (-d21).tolist(),
               (di2 - d22).tolist(), np.append(up1, 0.0).tolist(),
               np.append(up2, 0.0).tolist(), y1.tolist(), y2.tolist())
    # after eliminating x[k-1], row k reads P x[k] + diag(u) x[k+1] = z;
    # keep C = P^{-1} diag(u) and g = P^{-1} z for the back substitution
    sweep = []
    c11 = c12 = c21 = c22 = g1 = g2 = 0.0
    for k, (l1, l2, p11, p12, p21, p22, u1, u2, z1, z2) in enumerate(rows):
        p11 -= l1 * c11
        p12 -= l1 * c12
        p21 -= l2 * c21
        p22 -= l2 * c22
        z1 -= l1 * g1
        z2 -= l2 * g2
        det = p11 * p22 - p12 * p21
        if not 0.0 < abs(det) < math.inf:
            raise SingularPivot(first + k)
        u1 /= det
        u2 /= det
        c11, c12, c21, c22 = p22 * u1, -p12 * u2, -p21 * u1, p11 * u2
        g1 = (p22 * z1 - p12 * z2) / det
        g2 = (p11 * z2 - p21 * z1) / det
        sweep.append((c11, c12, c21, c22, g1, g2))
    x1 = []
    x2 = []
    a1 = a2 = 0.0
    for c11, c12, c21, c22, g1, g2 in reversed(sweep):
        a1, a2 = g1 - c11 * a1 - c12 * a2, g2 - c21 * a1 - c22 * a2
        x1.append(a1)
        x2.append(a2)
    return np.array(x1[::-1]), np.array(x2[::-1])


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
    return DiscreteOperator(problem, rule).residual_values(
        np.array((u1.values, u2.values)))


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
    """At most `picard_steps` damped Picard steps from one seed pair, then
    at most `max_newton` Newton steps from the Picard iterate of least
    residual, reusing its f and T(v); None if no fixed point with residual
    <= newton_tol is reached.  Each iterate is evaluated once."""
    params = params or SolverParams()
    rule = _require_shared_rule(seed1, seed2)
    if op is None:
        op = DiscreteOperator(problem, rule)
    # the iterate is held stacked, so each step's residual, finiteness test
    # and damping is one numpy call for both components
    v = np.array((seed1.values, seed2.values))
    if float(np.min(v)) < 0.0:
        raise ValueError("seeds must be nonnegative")
    iterations = 0

    def evaluate(v):
        """(residual, f, T(v)), or None if f raises or T(v) is not finite."""
        nonlocal iterations
        try:
            f = op.nonlinearity(v[0], v[1])
        except EvalError:
            return None
        tv = op.apply(v[0], v[1], f)
        if not np.all(np.isfinite(tv)):
            return None
        iterations += 1
        return float(np.max(np.abs(v - tv))), f, tv

    best = None  # (residual, v, f, T(v)) of the least-residual Picard iterate
    lam = params.damping
    # the seed is evaluated even with no Picard steps: Newton starts there
    for _ in range(max(params.picard_steps, 1)):
        state = evaluate(v)
        if state is None:
            break
        res, f, tv = state
        if best is None or res < best[0]:
            best = (res, v, f, tv)
        if res <= params.newton_tol:
            break
        v = (1.0 - lam) * v + lam * tv
    if best is None:
        return None
    res, v, f, tv = best
    for _ in range(params.max_newton):
        if res <= params.newton_tol:
            break
        try:
            step = op.newton_step(v, v - tv, f)
        except EvalError:
            return None
        except SingularPivot as err:
            log.info("seed %s: singular Jacobian at node %d",
                     seed_id, err.node)
            return None
        if not np.all(np.isfinite(step)):
            return None
        v = v - step
        state = evaluate(v)
        if state is None:
            return None
        res, f, tv = state
    if res > params.newton_tol:
        return None

    # nonnegativity check with round-off slack, then clamp the slack away
    if float(np.min(v)) < -1e-10:
        return None
    v = np.maximum(v, 0.0)
    res = op.residual_values(v)
    if res > params.newton_tol:
        return None
    u1 = GridFunction(rule, v[0])
    u2 = GridFunction(rule, v[1])
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
    amb1, amb2 = _ambient_bounds(problem)
    delta1 = params.dedupe if params.dedupe is not None else 1e-3 * amb1
    delta2 = params.dedupe if params.dedupe is not None else 1e-3 * amb2
    kept: list[Solution] = []
    for seed_id in sorted(seed_ids):
        tag1, tag2 = seed_id.split("-")
        seed1 = GridFunction(rule, levels1[tag1] * prof1)
        seed2 = GridFunction(rule, levels2[tag2] * prof2)
        sol = solve_from(problem, seed1, seed2, params, seed_id=seed_id, op=op)
        if sol is not None and not any(
                np.max(np.abs(sol.u1.values - other.u1.values)) <= delta1
                and np.max(np.abs(sol.u2.values - other.u2.values)) <= delta2
                for other in kept):
            kept.append(sol)
    return kept
