"""Nystrom discretization of the Hammerstein system and multi-start solving.

The system's operator is discretized on the quadrature rule's own nodes:

    (T_j u)(t_i) = sum_m w_m * G_j(t_i, t_m) * f_j(u1(t_m), u2(t_m)),

and a fixed point of the discrete map is hunted per seed by damped Picard
iteration followed by Newton on F(u) = u - T(u).  An EvalError of f (a
float operation that overflows, divides by zero or is invalid) names the
first failing grid node and ends only the seed whose state made it.  The
nonlinearities' derivatives are forward finite differences at the nodes
(the piecewise ramps are non-smooth at their breakpoints, so no AST
differentiation).  Both
kernels are semiseparable, so no n x n matrix is ever formed.  The operator
is applied from the kernels' generators (kernels.generators) with two prefix
sums along the node axis, in O(n).  The Green matrices have tridiagonal
inverses (kernels.inverse_tridiagonal), so the Newton system, multiplied
through by the inverse kernel matrix, is 2x2-block tridiagonal; block cyclic
reduction solves it in log2 n numpy passes, and a zero or non-finite block
pivot ends the seed.

Seeds are constant-level profiles keyed to the region thresholds, so each of
the localization regions the theorems promise has a starter inside it.
multi_start advances all its seeds in lockstep on one stacked (S, 2, n)
state: the operator, its Jacobian and the Newton step take any leading batch
axis, each Picard or Newton step is one batched call, and a seed drops out
of the batch when its own rules end it, so every seed reaches the iterate
and the verdict it would reach alone.  Results are deduplicated by pairwise
sup distance, relative to the kept solution's sup norm, and classified;
fixed points outside the ambient box are reported as "outside-ambient"
rather than discarded.

SolverParams holds what a config's `solver` block sets; the rest are
module constants.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .conespace import (GridFunction, RegionLabel, RegionSpec, classify,
                        nontrivial, sup_norm)
from .errors import ConfigError, OutsideAmbientError
from .expr import EvalError, ExprAst, eval_values, first_failure
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

MAX_NEWTON = 25  # Newton steps per seed after its Picard phase
DEDUPE_TOL = 1e-6  # dedupe distance / max(1, sup norm of the kept solution)
NONTRIVIAL_EPS = 1e-6  # a component of sup norm at most this is trivial


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
            at, error = first_failure(f, v1, v2, err)
        raise EvalError(error.offset, f"{error.message} at grid node "
                                      f"{at % np.shape(v1)[-1]}") from error

    def nonlinearity(self, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        """(f1, f2) at the nodes of v, stacked as one (..., 2, n) array."""
        return np.stack((self._eval(self.problem.f1, v1, v2),
                         self._eval(self.problem.f2, v1, v2)), axis=-2)

    def apply(self, v1: np.ndarray, v2: np.ndarray,
              f: np.ndarray | None = None) -> np.ndarray:
        """(T1 v, T2 v) as one (..., 2, n) array, for states v1, v2 of shape
        (..., n); f is `nonlinearity(v1, v2)`, evaluated here unless the
        caller already has it.

        (T_j v)_i = a_i sum_{m <= i} b_m f_m + c_i sum_{m > i} d_m f_m: a
        forward prefix sum, and a backward one per generator block whose
        total is carried into the previous block through its link."""
        if f is None:
            f = self.nonlinearity(v1, v2)
        a, b, c, d = self.gen
        out = a * np.add.accumulate(b * f, axis=-1)
        df = d * f
        carry = None  # the sum of df past the block, in the block's terms
        for start, stop, link in self.blocks:
            # tail[..., j] = sum of df over m in [stop - 1 - j, stop)
            tail = np.add.accumulate(df[..., start:stop][..., ::-1], axis=-1)
            out[..., start:stop - 1] += c[:, start:stop - 1] * tail[..., -2::-1]
            if carry is not None:
                out[..., start:stop] += c[:, start:stop] * carry[..., None]
                tail[..., -1] += carry
            if link is not None:
                carry = link * tail[..., -1]
        return out

    def residual_values(self, v: np.ndarray) -> np.ndarray:
        """Sup norm of v - T(v) for each stacked (..., 2, n) state v."""
        return np.max(np.abs(v - self.apply(v[..., 0, :], v[..., 1, :])),
                      axis=(-2, -1))

    def jacobian(self, v1, v2, f: np.ndarray) -> tuple[np.ndarray, ...]:
        """Nodal derivatives (d11, d12, d21, d22) of (f1, f2) at v, where
        dij = df_i/dx_j, by forward differences from the base values
        f = `nonlinearity(v1, v2)`."""
        h = FD_STEP
        f1, f2 = f[..., 0, :], f[..., 1, :]
        return ((self._eval(self.problem.f1, v1 + h, v2) - f1) / h,
                (self._eval(self.problem.f1, v1, v2 + h) - f1) / h,
                (self._eval(self.problem.f2, v1 + h, v2) - f2) / h,
                (self._eval(self.problem.f2, v1, v2 + h) - f2) / h)

    def newton_step(self, v: np.ndarray, r: np.ndarray,
                    f: np.ndarray) -> np.ndarray:
        """Solve J delta = r for the Jacobian J = I - K Df of F(v) = v - T(v),
        with v, r, delta and f = `nonlinearity(v[..., 0, :], v[..., 1, :])`
        stacked (..., 2, n); each leading index is its own system.

        K = diag(K1, K2) with K_j = G_j W, and Df is the 2x2 block of nodal
        derivative diagonals.  Multiplying by K^{-1} gives the equivalent
        (K^{-1} - Df) delta = K^{-1} r: a 2x2-block tridiagonal system with
        diagonal off-diagonal blocks, solved in O(n) by block cyclic
        reduction.  For min(t,s) the row and column at t = 0 are those of I,
        so delta there is r.  Raises SingularPivot for a zero or non-finite
        block pivot."""
        first = self.first
        d11, d12, d21, d22 = (
            d[..., first:] for d in self.jacobian(v[..., 0, :], v[..., 1, :], f))
        (lo1, di1, up1), (lo2, di2, up2) = self.inv1, self.inv2
        # row k as the augmented block [L_k | D_k | U_k | y_k]
        rows = np.zeros((2, 7, *r.shape[:-2], len(di1)))
        rows[0, 0, ..., 1:] = lo1
        rows[1, 1, ..., 1:] = lo2
        rows[0, 2] = di1 - d11
        rows[0, 3] = -d12
        rows[1, 2] = -d21
        rows[1, 3] = di2 - d22
        rows[0, 4, ..., :-1] = up1
        rows[1, 5, ..., :-1] = up2
        rows[0, 6] = _tridiagonal_matvec(self.inv1, r[..., 0, first:])
        rows[1, 6] = _tridiagonal_matvec(self.inv2, r[..., 1, first:])
        delta = r.copy()
        delta[..., first:] = np.moveaxis(_block_cyclic_reduction(rows, first),
                                         0, -2)
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
    y[..., 1:] += lower * x[..., :-1]
    y[..., :-1] += upper * x[..., 1:]
    return y


def _add_block_product(out: np.ndarray, m: np.ndarray, x: np.ndarray):
    """out += m x node by node, for 2x2 blocks m (2, 2, ..., k) and 2-row
    blocks x (2, c, ..., k)."""
    out += m[:, 0, None] * x[0]
    out += m[:, 1, None] * x[1]


def _block_cyclic_reduction(rows: np.ndarray, first: int) -> np.ndarray:
    """Solve the 2x2-block tridiagonal system whose row k is the augmented
    block rows[:, :, ..., k] = [L_k | D_k | U_k | y_k] (columns 0-1, 2-3, 4-5
    and 6): L_k x[k-1] + D_k x[k] + U_k x[k+1] = y_k, with L_0 = 0 and
    U_{m-1} = 0.  Leading axes after the first two are independent systems.
    Returns x as (2, ..., m).

    Each level solves the even local rows for their unknowns, x[k] =
    D_k^{-1} (y_k - L_k x[k-1] - U_k x[k+1]), and substitutes them into the
    odd rows, which form the next level's system in the same layout (Heller
    1976): log2 m levels of numpy passes, then back substitution level by
    level.  Raises SingularPivot at the first zero or non-finite pivot
    determinant in elimination order: level by level, then by node, and
    over a batch the first over all systems.  `first` offsets the node index
    it reports."""
    levels = []  # per level: -D^{-1} [L | U | y] of the even rows
    nodes = np.arange(rows.shape[-1])
    while rows.shape[-1]:
        even, odd = rows[..., 0::2], rows[..., 1::2]
        p = even[:, 2:4]
        det = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
        if not (np.isfinite(det).all() and det.all()):
            bad = ~np.isfinite(det) | (det == 0.0)
            at = np.argmax(bad.reshape(-1, bad.shape[-1]).any(axis=0))
            raise SingularPivot(first + int(nodes[0::2][at]))
        # -D^{-1} = [[-p11, p01], [p10, -p00]] / det, applied to [L | U | y]
        rest = even[:, [0, 1, 4, 5, 6]]
        norm = p[0, ::-1, None] * rest[1]
        norm -= p[1, ::-1, None] * rest[0]
        del rest
        norm[1] *= -1.0
        norm /= det
        levels.append(norm)
        # odd row j absorbs even row j through L_j, which adds L_j times its
        # [L | U | y] to the new [L | D | y], and even row j + 1 through U_j,
        # which adds U_j times it to the new [D | U | y]; with an even row
        # count the last odd row has no even row after it, and its U_j is 0
        rows = np.zeros_like(odd)
        rows[:, 2:4] = odd[:, 2:4]
        rows[:, 6] = odd[:, 6]
        lower, upper = odd[:, 0:2], odd[:, 4:6, ..., :norm.shape[-1] - 1]
        before, after = norm[..., :odd.shape[-1]], norm[..., 1:]
        _add_block_product(rows[:, 0:4], lower, before[:, 0:4])
        _add_block_product(rows[:, 6:], lower, before[:, 4:])
        _add_block_product(rows[:, 2:6, ..., :after.shape[-1]], upper,
                           after[:, 0:4])
        _add_block_product(rows[:, 6:, ..., :after.shape[-1]], upper,
                           after[:, 4:])
        nodes = nodes[1::2]
    x = np.zeros((2, *rows.shape[2:]))
    for norm in reversed(levels):
        # x[k-1] and x[k+1] of each even row k, zero past either end
        k = norm.shape[-1]
        pad = np.zeros((2, *x.shape[1:-1], 1))
        around = np.concatenate((pad, x, pad), axis=-1)
        before, after = around[..., :k], around[..., 1:k + 1]
        x_even = (norm[:, 0] * before[0] + norm[:, 1] * before[1]
                  + norm[:, 2] * after[0] + norm[:, 3] * after[1] - norm[:, 4])
        full = np.empty((2, *x.shape[1:-1], k + x.shape[-1]))
        full[..., 0::2] = x_even
        full[..., 1::2] = x
        x = full
    return x


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
    return float(DiscreteOperator(problem, rule).residual_values(
        np.array((u1.values, u2.values))))


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
    at most MAX_NEWTON Newton steps from the Picard iterate of least
    residual, reusing its f and T(v); None if no fixed point with residual
    <= newton_tol is reached.  Each iterate is evaluated once.  This is
    multi_start's engine run on one seed."""
    params = params or SolverParams()
    rule = _require_shared_rule(seed1, seed2)
    if op is None:
        op = DiscreteOperator(problem, rule)
    v = np.array((seed1.values, seed2.values))
    if float(np.min(v)) < 0.0:
        raise ValueError("seeds must be nonnegative")
    return _solve_lanes(problem, op, v[None], [seed_id], params)[0]


def _keep(mask: np.ndarray, *arrays):
    """Each array's lanes where mask holds (the arrays themselves if all do)."""
    if mask.all():
        return arrays
    return tuple(x[mask] for x in arrays)


@np.errstate(all="ignore")
def _solve_lanes(problem: ProblemSpec, op: DiscreteOperator, seeds: np.ndarray,
                 seed_ids: list[str], params: SolverParams
                 ) -> list[Solution | None]:
    """solve_from's rules for every lane of the stacked (S, 2, n) seed
    states at once: entry s is lane s's Solution or None.

    Each step is one batched call over the lanes still running, held in the
    lane index array `lane`, and a lane leaves it when its own rules end it.
    Every operation is elementwise across lanes, so a lane's iterates do not
    depend on the lanes beside it.  A diverging lane is ended by the
    finiteness tests, so numpy warns of nothing here."""
    tol, lam = params.newton_tol, params.damping
    iterations = np.zeros(len(seeds), dtype=int)

    def lanewise(fn, lane, v, *args):
        """fn(v, *args) over the lanes, with NaN in place of the result of
        a lane where it raises EvalError or SingularPivot.  A batch that
        raises is run again one lane at a time to find those lanes; only
        this error path pays for that."""
        try:
            return fn(v, *args)
        except (EvalError, SingularPivot) as err:
            batch_error = err
        out = np.full_like(v, np.nan)
        for i, s in enumerate(lane.tolist()):
            try:
                if len(lane) == 1:
                    raise batch_error  # a lone lane's error is the batch's
                out[i] = fn(v[i:i + 1], *(x[i:i + 1] for x in args))[0]
            except SingularPivot as err:
                log.info("seed %s: singular Jacobian at node %d",
                         seed_ids[s], err.node)
            except EvalError:
                pass
        return out

    def nonlinearity(v):
        return op.nonlinearity(v[:, 0], v[:, 1])

    def evaluate(lane, v):
        """The lanes whose f evaluates and whose T(v) is finite, each counted
        as one iteration, with their v, residual, f and T(v)."""
        f = lanewise(nonlinearity, lane, v)
        tv = op.apply(v[:, 0], v[:, 1], f)
        lane, v, f, tv = _keep(np.isfinite(tv).all(axis=(1, 2)), lane, v, f, tv)
        iterations[lane] += 1
        return lane, v, np.max(np.abs(v - tv), axis=(1, 2)), f, tv

    # Picard; the seed is evaluated even with no Picard steps: Newton
    # starts there.  best_* hold each lane's least-residual iterate.
    lane, v = np.arange(len(seeds)), seeds
    has_best = np.zeros(len(seeds), dtype=bool)
    best_res = np.zeros(len(seeds))
    best_v, best_f, best_tv = (np.empty_like(seeds) for _ in range(3))
    for _ in range(max(params.picard_steps, 1)):
        if not lane.size:
            break
        lane, v, res, f, tv = evaluate(lane, v)
        better = ~has_best[lane] | (res < best_res[lane])
        at = lane[better]
        has_best[at] = True
        best_res[at], best_v[at] = res[better], v[better]
        best_f[at], best_tv[at] = f[better], tv[better]
        lane, v, tv = _keep(~(res <= tol), lane, v, tv)
        v = (1.0 - lam) * v + lam * tv

    # Newton from the best Picard iterate, keeping the state of each lane
    # that reaches the tolerance
    lane = np.flatnonzero(has_best)
    res, v, f, tv = best_res[lane], best_v[lane], best_f[lane], best_tv[lane]
    converged = np.zeros(len(seeds), dtype=bool)
    final = np.empty_like(seeds)
    for newton in range(MAX_NEWTON + 1):
        at = res <= tol
        converged[lane[at]] = True
        final[lane[at]] = v[at]
        lane, v, f, tv = _keep(~at, lane, v, f, tv)
        if not lane.size or newton == MAX_NEWTON:
            break
        step = lanewise(op.newton_step, lane, v, v - tv, f)
        lane, v, step = _keep(np.isfinite(step).all(axis=(1, 2)), lane, v, step)
        if not lane.size:
            break
        lane, v, res, f, tv = evaluate(lane, v - step)

    solutions: list[Solution | None] = [None] * len(seeds)
    lane = np.flatnonzero(converged)
    v = final[lane]
    # nonnegativity check with round-off slack, then clamp the slack away
    lane, v = _keep(~(v.min(axis=(1, 2)) < -1e-10), lane, v)
    if not lane.size:
        return solutions
    v = np.maximum(v, 0.0)
    res = op.residual_values(v)
    amb1, amb2 = _ambient_bounds(problem)
    for s, (v1, v2), r in zip(lane.tolist(), v, res.tolist()):
        if r > tol:
            continue
        u1 = GridFunction(op.rule, v1)
        u2 = GridFunction(op.rule, v2)
        if sup_norm(u1) > FAR_FIELD_FACTOR * amb1 \
                or sup_norm(u2) > FAR_FIELD_FACTOR * amb2:
            continue
        solutions[s] = Solution(
            u1=u1, u2=u2, residual=r,
            region=_classify_or_outside(problem, u1, u2),
            nontrivial=(nontrivial(u1, NONTRIVIAL_EPS),
                        nontrivial(u2, NONTRIVIAL_EPS)),
            iterations=int(iterations[s]), seed_id=seed_ids[s])
    return solutions


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

    Dedupe drops a solution within sup distance DEDUPE_TOL * max(1, |w|)
    of an already-kept one w, over both components: a fixed point's own
    scale, not the region's, so a loose ambient bound merges nothing.
    Processing order is sorted by seed_id so the output is deterministic."""
    params = params or SolverParams()
    if params.grid_n < 3:
        raise ConfigError(f"grid_n must be at least 3, got {params.grid_n}")
    if 0.5 in problem.region.window and (params.grid_n - 1) % 2 != 0:
        raise ConfigError(
            f"grid_n must be odd so t=1/2 is a node, got {params.grid_n}")
    try:
        rule = make_rule(params.grid_n)
    except (MemoryError, ValueError) as err:
        # numpy refuses a count beyond its index range, or memory runs out
        raise ConfigError(
            f"grid_n = {params.grid_n:.6g} is too large: {err}") from err
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
    seed_ids = sorted(seed_ids)
    seeds = np.array([(levels1[tag1] * prof1, levels2[tag2] * prof2)
                      for tag1, tag2 in (s.split("-") for s in seed_ids)])
    kept: list[Solution] = []
    for sol in _solve_lanes(problem, op, seeds.reshape(-1, 2, rule.n),
                            seed_ids, params):
        if sol is not None and not any(
                max(np.max(np.abs(sol.u1.values - other.u1.values)),
                    np.max(np.abs(sol.u2.values - other.u2.values)))
                <= DEDUPE_TOL * max(1.0, sup_norm(other.u1), sup_norm(other.u2))
                for other in kept):
            kept.append(sol)
    return kept
