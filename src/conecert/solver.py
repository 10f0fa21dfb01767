"""Nystrom discretization of the Hammerstein system and multi-start solving.

The system's operator is discretized on the quadrature rule's own nodes:

    (T_j u)(t_i) = sum_m w_m * G_j(t_i, t_m) * f_j(u1(t_m), u2(t_m)),

and a fixed point of the discrete map is hunted per seed by Newton on
F(u) = u - T(u), from the seed itself by default (Newton first) or after
picard_steps - 1 damped Picard steps, globalized by a backtracking line
search on the sup-norm residual (Armijo; Dennis & Schnabel 1983, section
6.3): a step that finds no residual decrease ends the seed, so a diverging
seed stops at its first failed search.  An
EvalError of f (a float operation that overflows, divides by zero or is
invalid) ends only the seed whose state made it; at a trial step of the
line search it rejects that trial.  Only `apply` names the failing grid node.
f1 and f2 are compiled once per operator, into float programs for their
values and dual programs (expr.dual_program) for their exact partial
derivatives at the nodes, which take the right-hand slope at a kink of a
ramp, abs, min or max.  Each batched evaluation runs the programs in one
scope of the float table's flags (expr.float_flags), so a value or a
derivative that overflows raises EvalError.  That scope covers the program
runs only: the lanes' own arithmetic (a trial step, the Newton step's
march) overflows to inf without raising, and the finiteness tests end the
seed.  Both kernels are semiseparable, so no n x n matrix is ever formed.
The operator is applied from the kernels' generators (kernels.generators)
with two prefix sums along the node axis, in O(n).  The Newton step solves
the linearized system in its integral form, delta = r + K Df delta, by one
backward march of the same generators' partial sums (Keller 1968), two
shears a node, closed by one 2x2 solve per seed and run as a two-level
scan over chunks of about sqrt(n / 3) nodes, in O(n).  It reads node 0 off
the closed march, so at min(t,s)'s Dirichlet end the step is the residual
itself, bit for bit, and a state's u(0) = 0 stays 0.  It multiplies nothing
through by an inverse kernel matrix, so Df keeps its weight at every RCD
beta; where f decreases steeply, the chunks are shot one by one (Conte
1966), so only one chunk's growth costs precision.  A singular or
non-finite system gives a non-finite step, which ends the seed.

Seeds are constant-level profiles keyed to the region thresholds, so each of
the localization regions the theorems promise has a starter inside it.
multi_start advances all its seeds in lockstep on one stacked (S, 2, n)
state: the operator, its Jacobian and the Newton step take any leading batch
axis, each Picard step, Newton step and line-search trial is one batched
call, and a seed drops out of the batch when its own rules end it, so every
seed reaches the iterate and the verdict it would reach alone.  Results are
deduplicated by pairwise sup distance, relative to the kept solution's sup
norm, and classified; fixed points outside the ambient box are reported as
"outside-ambient" rather than discarded, and a fixed point with a node
below 0, outside the cone, is dropped with a log line.

SolverParams holds what a config's `solver` block sets; the rest are
module constants.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

# MODES and ProblemSpec live in conespace; imported from here as well
from .conespace import (MODES, GridFunction, ProblemSpec,  # noqa: F401
                        RegionLabel, classify, window_node)
from .errors import ConfigError, EvalError
from .expr import (dual_program, eval_values, first_failure, float_flags,
                   float_program)
from .kernels import (DirichletNeumann, KernelKind, QuadratureRule,
                      generator_blocks, generators, make_rule, same_rule)
# only for benchmarks/spans.py, which patches it (AttributeError if absent)
from .kernels import green_matrix  # noqa: F401

log = logging.getLogger(__name__)

# iterates whose sup norm exceeds this multiple of the ambient bound are
# treated as spurious far-field points and dropped as non-converged
FAR_FIELD_FACTOR = 10.0

MAX_NEWTON = 25  # Newton steps per seed after its Picard phase
# a Newton step v - t*delta is tried at t = 1, 1/2, ..., 2^-MAX_HALVINGS and
# taken at the first t whose residual is below (1 - ARMIJO * t) * res(v)
MAX_HALVINGS = 6
ARMIJO = 1e-4
MARCH_GROWTH = 32.0  # basis growth that makes newton_step shoot per chunk
DEDUPE_TOL = 1e-6  # dedupe distance / max(1, sup norm of the kept solution)
NONTRIVIAL_EPS = 1e-6  # a component of sup norm at most this is trivial


@dataclass
class SolverParams:
    grid_n: int = 129
    picard_steps: int = 1
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
    over the two components, plus the two nonlinearities' float and dual
    programs, compiled once."""

    def __init__(self, problem: ProblemSpec, rule: QuadratureRule):
        self.problem = problem
        self.rule = rule
        t = rule.nodes
        w = rule.weights
        k1, k2 = problem.kernel1, problem.kernel2
        # one block partition that keeps both components' generators finite
        starts = np.flatnonzero(generator_blocks(k1, t)
                                | generator_blocks(k2, t))
        b, c, d, link = (np.array(pair) for pair in zip(
            generators(k1, t, starts), generators(k2, t, starts)))
        self.gen = (b * w, c, d * w)
        # (start, stop, link to the previous block), last block first
        stops = np.append(starts[1:], rule.n)
        links = [None, *link.T]
        self.blocks = list(zip(starts.tolist(), stops.tolist(), links))[::-1]
        # newton_step's march, step-major over chunks of `width` nodes: d,
        # the shear c_{k-1} link_k - c_k of Z by T (c_{-1} = 0), and the
        # link at each node (a block's link at its start, 1 elsewhere)
        self.width = math.isqrt(rule.n // 3) + 1
        at = np.ones((2, rule.n))
        at[:, starts[1:]] = link
        shear = -c
        shear[:, 1:] += c[:, :-1] * at[:, 1:]
        self.march = (_by_step(self.gen[2], self.width),
                      _by_step(shear, self.width),
                      _by_step(at, self.width, fill=1.0))
        self.programs = (float_program(problem.f1), float_program(problem.f2))
        self.duals = (dual_program(problem.f1), dual_program(problem.f2))

    def _locate(self, v1: np.ndarray, v2: np.ndarray):
        """Raise the EvalError of the first of f1, f2 that fails at v, with
        its first failing grid node named; the error path alone runs this,
        one expression at a time."""
        for f in (self.problem.f1, self.problem.f2):
            try:
                eval_values(f, v1, v2)
            except EvalError as err:
                at, error = first_failure(f, v1, v2, err)
                raise EvalError(error.offset, f"{error.message} at grid node "
                                f"{at % np.shape(v1)[-1]}") from error

    def nonlinearity(self, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
        """(f1, f2) at the nodes of v, written into one (..., 2, n) array by
        both programs in one `float_flags()` scope; the one place that runs
        f's float programs (`jacobian` runs its dual programs).  An
        EvalError names no grid node: `apply` names it when it evaluates f
        itself, and the solver's lanes discard it."""
        v1 = np.asarray(v1, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        shape = np.broadcast(v1, v2).shape
        out = np.empty((*shape[:-1], 2, shape[-1]))
        program1, program2 = self.programs
        with float_flags():
            out[..., 0, :] = program1(v1, v2)
            out[..., 1, :] = program2(v1, v2)
        return out

    def apply(self, v1: np.ndarray, v2: np.ndarray,
              f: np.ndarray | None = None) -> np.ndarray:
        """(T1 v, T2 v) as one (..., 2, n) array, for states v1, v2 of shape
        (..., n); f is `nonlinearity(v1, v2)`, evaluated here unless the
        caller already has it, and an EvalError of that evaluation names its
        first failing grid node.

        (T_j v)_i = sum_{m <= i} b_m f_m + c_i sum_{m > i} d_m f_m: a
        forward prefix sum, and a backward one per generator block whose
        total is carried into the previous block through its link."""
        if f is None:
            try:
                f = self.nonlinearity(v1, v2)
            except EvalError:
                self._locate(v1, v2)
                raise
        b, c, d = self.gen
        out = np.add.accumulate(b * f, axis=-1)
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

    def jacobian(self, v1, v2) -> np.ndarray:
        """Nodal derivatives (d11, d12, d21, d22) of (f1, f2) at v, where
        dij = df_i/dx_j, as the rows of one (4, ...) array, each of v's
        shape: the derivatives of both dual programs (expr.dual_program),
        run in one `float_flags()` scope, with each builtin's right-hand
        slope at its kinks.  A derivative that overflows raises EvalError,
        which names no grid node: the one caller, newton_step in the
        solver's lanes, discards it."""
        v1 = np.asarray(v1, dtype=float)
        v2 = np.asarray(v2, dtype=float)
        out = np.empty((4, *np.broadcast(v1, v2).shape))
        dual1, dual2 = self.duals
        with float_flags():
            _, out[0], out[1] = dual1(v1, v2)
            _, out[2], out[3] = dual2(v1, v2)
        return out

    @np.errstate(all="ignore")
    def newton_step(self, v: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Solve J delta = r for the Jacobian J = I - K Df of F(v) = v - T(v),
        with v, r and delta stacked (..., 2, n); each leading index is its
        own system.

        K = diag(K1, K2) with K_j = G_j W, and Df is the 2x2 block of nodal
        derivative diagonals.  In the integral form delta = r + K g, with
        g = Df delta, `apply`'s generators give delta_i = r_i + Z_i, where
        Z_i = P_i + c_i T_i, P_i sums b_m g_m over m <= i and T_i sums
        d_m g_m over m > i.  Since b = c d, one backward march (Keller 1968)
        runs y = (Z, T) from (Pi, 0) at the last node by two shears a node:
        T += d_k g_k with g_k = Df_k (r_k + Z), then Z += (c_{k-1} link_k -
        c_k) T with c_{-1} = 0, and at a block start T is multiplied by the
        block's link, as in `apply`.  Z_{-1} = 0 fixes the unknown total
        Pi, one 2x2 solve per system, and node 0 is read off the closed
        state as delta_0 = r_0 + c_0 T_{-1}: r_0 itself where c_0 = 0, at
        min(t,s)'s Dirichlet end, so a step keeps u(0) = 0 exactly.

        Each node's map of y is affine, so the march runs as a two-level
        scan.  All chunks of `width` nodes march at once, each composing its
        4x5 affine map of y and recording delta at its nodes as affine in y
        at its last node; then a run over the chunks carries y, affine in
        Pi, to the closing solve, and gives each chunk's y and so delta.
        A system whose Pi columns grow past MARCH_GROWTH takes that run
        again as multiple shooting.  A singular or non-finite system gives a
        non-finite step, never an error or a warning."""
        n = r.shape[-1]
        r = r.reshape(-1, 2, n)
        lanes = len(r)
        # step k of chunk j is node j * width + k (_by_step); past n, d,
        # shear and rhs are 0 and link is 1, so each step is the identity
        width = self.width
        d, shear, link = self.march
        derivatives = np.asarray(self.jacobian(v[..., 0, :], v[..., 1, :])
                                 ).reshape(2, 2, lanes, n)
        # e[k, row, col]: the change of T[row] per unit of delta[col]
        e = d[:, :, None, None] * _by_step(derivatives, width)
        rhs = _by_step(r.transpose(1, 0, 2), width)
        shear = shear[:, :, None, None]
        link = link[:, :, None, None]
        linked = (link != 1.0).reshape(width, -1).any(axis=1)

        chunks = rhs.shape[-1]
        # each chunk's map of y from its last node to before its first, and
        # delta at each of its nodes, affine in y at its last node: columns
        # (Z_1, Z_2, T_1, T_2, 1)
        maps = np.zeros((4, 5, lanes, chunks))
        for i in range(4):
            maps[i, i] = 1.0
        deltas = np.empty((width, 2, 5, lanes, chunks))
        for k in range(width - 1, -1, -1):
            delta = deltas[k]
            delta[...] = maps[0:2]
            delta[:, 4] += rhs[k]
            maps[2:4] += e[k, :, 0, None] * delta[0]
            maps[2:4] += e[k, :, 1, None] * delta[1]
            maps[0:2] += shear[k] * maps[2:4]
            if linked[k]:
                maps[2:4] *= link[k]
        # y before chunk j's first node, and a constant 1, is ys[j] @ (x, 1)
        # for the 5 x 3 basis ys[j]: ys[chunks] holds (Pi, 0, 1) at the last
        # node with x = Pi, and ys[j] = square[j] @ ys[j + 1] with the same x
        square = np.zeros((chunks, lanes, 5, 5))
        square[..., :4, :] = maps.transpose(3, 2, 0, 1)
        square[..., 4, 4] = 1.0
        ys = np.zeros((chunks + 1, lanes, 5, 3))
        ys[-1, :, 0, 0] = ys[-1, :, 1, 1] = ys[-1, :, 4, 2] = 1.0
        for j in range(chunks - 1, -1, -1):
            np.matmul(square[j], ys[j + 1], out=ys[j])
        # The Pi columns start orthonormal.  Where the system's modes grow
        # them by g, the constant column grows with them and the two cancel
        # in delta, losing a factor g of precision (single shooting).  So a
        # lane whose Pi columns grew past MARCH_GROWTH, or overflowed, runs
        # over the chunks again with its basis renewed after each one (Conte
        # 1966): ys[j] R_j = square[j] @ ys[j + 1], with the Pi columns made
        # orthonormal and the constant column orthogonal to them.
        growth = np.abs(ys[..., :4, :2]).max(axis=(0, 2, 3))
        grown = np.flatnonzero(~(growth <= MARCH_GROWTH))
        factors = []
        if len(grown):
            steps, bases = square[:, grown], ys[:, grown]
            for j in range(chunks - 1, -1, -1):
                y = np.matmul(steps[j], bases[j + 1], out=bases[j])
                q, r = np.linalg.qr(y[..., :2])
                s = np.matmul(q.transpose(0, 2, 1), y[..., 2:])
                y[..., :2] = q
                y[..., 2:] -= q @ s
                factors.append((r, s[..., 0]))
            ys[:, grown] = bases
        # Z_{-1} = A x + q = 0, by Cramer's rule
        (a11, a12, q1), (a21, a22, q2) = ys[0, :, 0].T, ys[0, :, 1].T
        det = a11 * a22 - a12 * a21
        xs = np.empty((chunks + 1, lanes, 2))
        xs[:, :, 0] = (a12 * q2 - a22 * q1) / det
        xs[:, :, 1] = (a21 * q1 - a11 * q2) / det
        # x_j = R_j x_{j+1} + s_j, x_{j+1} in the basis past the renewal
        x = xs[0, grown]
        for j, (r, s) in enumerate(reversed(factors)):
            x = x - s
            x[:, 1] /= r[:, 1, 1]
            x[:, 0] = (x[:, 0] - r[:, 0, 1] * x[:, 1]) / r[:, 0, 0]
            xs[j + 1, grown] = x
        # y at the closed state and at each chunk's last node, then delta at
        # the nodes, node 0 from the closed state's T
        y = ys[:, :, :4, 0] * xs[:, :, 0, None]
        y += ys[:, :, :4, 1] * xs[:, :, 1, None]
        y += ys[:, :, :4, 2]
        y = y.transpose(2, 1, 0)
        delta = deltas[:, :, 4]
        for i in range(4):
            delta += deltas[:, :, i] * y[i, :, 1:]
        delta[0, :, :, 0] = rhs[0, :, :, 0] + self.gen[1][:, :1] * y[2:4, :, 0]
        delta = delta.transpose(2, 1, 3, 0).reshape(lanes, 2, -1)[..., :n]
        return delta.reshape(v.shape)


def _by_step(x: np.ndarray, width: int, fill: float = 0.0) -> np.ndarray:
    """x (..., n) step-major as (width, ..., chunks), chunks = ceil(n /
    width): entry [k, ..., j] is node j * width + k, and `fill` past n."""
    n = x.shape[-1]
    chunks = -(-n // width)
    padded = np.full((*x.shape[:-1], chunks * width), fill)
    padded[..., :n] = x
    return np.moveaxis(padded.reshape(*x.shape[:-1], chunks, width),
                       -1, 0).copy()


def _require_shared_rule(u1: GridFunction, u2: GridFunction) -> QuadratureRule:
    if not same_rule(u1.rule, u2.rule):
        raise ValueError("grid functions must share one quadrature rule")
    return u1.rule


def residual(problem: ProblemSpec, u1: GridFunction, u2: GridFunction) -> float:
    """Sup norm of (u1 - T1 u, u2 - T2 u) over the nodes."""
    rule = _require_shared_rule(u1, u2)
    return float(DiscreteOperator(problem, rule).residual_values(
        np.array((u1.values, u2.values))))


def _windows(problem: ProblemSpec) -> tuple[float, float]:
    return problem.kernel1.window, problem.kernel2.window


def _operator(problem: ProblemSpec, rule: QuadratureRule) -> DiscreteOperator:
    """The operator on rule, once both kernels' cone windows start at a node
    of it (a ConfigError names the grid otherwise)."""
    for window in _windows(problem):
        window_node(rule, window)
    return DiscreteOperator(problem, rule)


def solve_from(problem: ProblemSpec, seed1: GridFunction, seed2: GridFunction,
               params: SolverParams | None = None,
               seed_id: str = "seed") -> Solution | None:
    """Newton from one seed pair: the seed, then at most `picard_steps` - 1
    damped Picard steps (none by default), each evaluated; then at most
    MAX_NEWTON Newton steps from the last evaluated iterate, reusing its
    T(v).  Each Newton step v - t*delta takes the first t = 1, 1/2, ...,
    2^-MAX_HALVINGS whose residual is below (1 - ARMIJO*t) times the current
    one, and the seed ends when none is, as it does at a Picard iterate
    whose residual is non-finite (f fails to evaluate, or v or T(v) is
    non-finite).  None if no fixed point with residual <= newton_tol is
    reached, or if the one reached has a node below 0.  Each iterate and
    each trial step is evaluated once.  This is multi_start's engine run on
    one seed."""
    params = params or SolverParams()
    op = _operator(problem, _require_shared_rule(seed1, seed2))
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
    depend on the lanes beside it.  A diverging lane is ended by the line
    search or the finiteness tests, and numpy warns of nothing here."""
    tol, lam = params.newton_tol, params.damping
    iterations = np.zeros(len(seeds), dtype=int)

    def lanewise(fn, lane, v, *args):
        """fn(v, *args) over the lanes, with NaN in place of the result of
        a lane where it raises EvalError.  A batch that raises is run again
        one lane at a time to find those lanes; only this error path pays
        for that."""
        # no caught error outlives its handler: one kept in a local would
        # close the cycle error -> traceback -> this frame, which pins the
        # whole solve stack until the cyclic collector runs
        try:
            return fn(v, *args)
        except EvalError:
            pass
        out = np.full_like(v, np.nan)
        for i in range(len(lane)):
            try:
                out[i] = fn(v[i:i + 1], *(x[i:i + 1] for x in args))[0]
            except EvalError:
                pass
        return out

    def nonlinearity(v):
        return op.nonlinearity(v[:, 0], v[:, 1])

    def evaluate(lane, v):
        """Each lane's residual and T(v), each lane counted as one
        iteration, and whether the residual is finite: it is not where f
        fails to evaluate (a NaN f), where T(v) is non-finite, or where v
        itself overflowed in a damped or trial step."""
        iterations[lane] += 1
        tv = op.apply(v[:, 0], v[:, 1], lanewise(nonlinearity, lane, v))
        res = np.max(np.abs(v - tv), axis=(1, 2))
        return np.isfinite(res), res, tv

    def line_search(lane, res, v, step):
        """The lanes with a trial v - t*step, t = 1, 1/2, ...,
        2^-MAX_HALVINGS, whose residual is below (1 - ARMIJO*t) * res, each
        with its first such trial and that trial's residual and T(v).
        The lanes still pending at a t are evaluated in one batch; a trial
        whose residual is non-finite is rejected."""
        found = np.zeros(len(lane), dtype=bool)
        new_res = np.empty_like(res)
        new_v, new_tv = np.empty_like(v), np.empty_like(v)
        pending = np.arange(len(lane))
        for halving in range(MAX_HALVINGS + 1):
            if not pending.size:
                break
            t = 0.5 ** halving
            trial = v[pending] - t * step[pending]
            ok, trial_res, tv = evaluate(lane[pending], trial)
            ok &= trial_res < (1.0 - ARMIJO * t) * res[pending]
            at = pending[ok]
            found[at] = True
            new_res[at], new_v[at] = trial_res[ok], trial[ok]
            new_tv[at] = tv[ok]
            pending = pending[~ok]
        return _keep(found, lane, new_res, new_v, new_tv)

    # each settled lane's state and residual, NaN for a lane that never
    # settles (a settled v is finite, since its residual is)
    final = np.full_like(seeds, np.nan)
    final_res = np.full(len(seeds), np.nan)

    def settle(lane, res, v, tv):
        """Record in `final` each lane at newton_tol; the rest run on."""
        at = res <= tol
        final[lane[at]] = v[at]
        final_res[lane[at]] = res[at]
        return _keep(~at, lane, res, v, tv)

    # Picard: the seed, then damped steps.  A lane whose residual is
    # non-finite ends there; the rest take their last evaluated iterate,
    # with its T(v), into Newton.
    lane, v = np.arange(len(seeds)), seeds
    for k in range(max(params.picard_steps, 1)):
        if not lane.size:
            break
        if k:
            v = (1.0 - lam) * v + lam * tv
        ok, res, tv = evaluate(lane, v)
        lane, res, v, tv = settle(*_keep(ok, lane, res, v, tv))

    # Newton, each step cut back by the line search
    for _ in range(MAX_NEWTON):
        if not lane.size:
            break
        step = lanewise(op.newton_step, lane, v, v - tv)
        finite = np.isfinite(step).all(axis=(1, 2))
        for s in lane[~finite].tolist():
            log.info("seed %s: Newton step not finite", seed_ids[s])
        lane, res, v, step = _keep(finite, lane, res, v, step)
        lane, res, v, tv = settle(*line_search(lane, res, v, step))

    solutions: list[Solution | None] = [None] * len(seeds)
    lane = np.flatnonzero(~np.isnan(final_res))
    # a fixed point with a node below 0 lies outside the cone
    negative = final[lane].min(axis=(1, 2)) < 0.0
    for s in lane[negative].tolist():
        log.info("seed %s: final state negative", seed_ids[s])
    lane = lane[~negative]
    v = final[lane]
    far = [FAR_FIELD_FACTOR * hi for _, hi in problem.region.sup_bounds()]
    for s, (v1, v2), r, sups in zip(lane.tolist(), v, final_res[lane].tolist(),
                                    v.max(axis=2).tolist()):
        if sups[0] > far[0] or sups[1] > far[1]:
            continue
        u1 = GridFunction(op.rule, v1)
        u2 = GridFunction(op.rule, v2)
        solutions[s] = Solution(
            u1=u1, u2=u2, residual=r,
            region=classify(u1, u2, problem.region, _windows(problem)),
            nontrivial=(sups[0] > NONTRIVIAL_EPS, sups[1] > NONTRIVIAL_EPS),
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
    try:
        rule = make_rule(params.grid_n)
    except (MemoryError, ValueError) as err:
        # numpy refuses a count beyond its index range, or memory runs out
        raise ConfigError(
            f"grid_n = {params.grid_n:.6g} is too large: {err}") from err
    op = _operator(problem, rule)
    t = rule.nodes
    prof1 = _seed_profile(problem.kernel1, t)
    prof2 = _seed_profile(problem.kernel2, t)
    levels1, levels2 = seed_levels(problem)
    seed_ids = [f"{tag1}-{tag2}" for tag1, tag2
                in itertools.product(levels1, levels2)]
    if seed_list is not None:
        unknown = sorted(set(seed_list) - set(seed_ids))
        if unknown:
            raise ConfigError(
                f"unknown seed ids: {', '.join(map(repr, unknown))}")
        seed_ids = [s for s in seed_ids if s in set(seed_list)]
    seed_ids = sorted(seed_ids)
    seeds = np.array([(levels1[tag1] * prof1, levels2[tag2] * prof2)
                      for tag1, tag2 in (s.split("-") for s in seed_ids)])
    found = [sol for sol in _solve_lanes(problem, op,
                                         seeds.reshape(-1, 2, rule.n),
                                         seed_ids, params)
             if sol is not None]
    if not found:
        return []
    states = np.array([(sol.u1.values, sol.u2.values) for sol in found])
    radius = DEDUPE_TOL * np.maximum(1.0, np.max(np.abs(states), axis=(1, 2)))
    kept: list[int] = []
    for i, state in enumerate(states):
        if not (np.max(np.abs(states[kept] - state), axis=(1, 2))
                <= radius[kept]).any():
            kept.append(i)
    return [found[i] for i in kept]
