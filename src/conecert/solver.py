"""Nystrom discretization of the Hammerstein system and multi-start solving.

The system's operator is discretized on the quadrature rule's own nodes:

    (T_j u)(t_i) = sum_m w_m * G_j(t_i, t_m) * f_j(u1(t_m), u2(t_m)),

and a fixed point of the discrete map is hunted per seed by damped Picard
iteration, then by Newton on F(u) = u - T(u) from the last Picard iterate,
globalized by a backtracking line search on the sup-norm residual (Armijo;
Dennis & Schnabel 1983, section 6.3): a step that finds no residual decrease
ends the seed, so a diverging seed stops at its first failed search.  An
EvalError of f (a float operation that overflows, divides by zero or is
invalid) ends only the seed whose state made it; at a trial step of the
line search it rejects that trial.  Only `apply` names the failing grid node.
f1 and f2 are compiled once per operator, and each batched evaluation runs
their programs in one scope of the float table's flags (expr.float_flags).
That scope covers the program runs only: the lanes' own arithmetic (a
forward difference, a trial step) overflows to inf without raising, and the
finiteness tests end the seed.
The nonlinearities' derivatives are forward finite differences at the nodes
(the piecewise ramps are non-smooth at their breakpoints, so no AST
differentiation).  Both
kernels are semiseparable, so no n x n matrix is ever formed.  The operator
is applied from the kernels' generators (kernels.generators) with two prefix
sums along the node axis, in O(n).  The Green matrices have tridiagonal
inverses (kernels.inverse_tridiagonal), so the Newton system, multiplied
through by the inverse kernel matrix, is 2x2-block tridiagonal, and its
off-diagonal blocks are diagonal and the same for every seed.  Block cyclic
reduction solves it in about log2 n numpy passes: the first level works on
those shared diagonals, later levels on compact block rows, and the last at
most 8 rows are solved densely, by LU with partial pivoting.  A zero or
non-finite block pivot, or a singular or non-finite base, ends the seed.

Seeds are constant-level profiles keyed to the region thresholds, so each of
the localization regions the theorems promise has a starter inside it.
multi_start advances all its seeds in lockstep on one stacked (S, 2, n)
state: the operator, its Jacobian and the Newton step take any leading batch
axis, each Picard step, Newton step and line-search trial is one batched
call, and a seed drops out of the batch when its own rules end it, so every
seed reaches the iterate and the verdict it would reach alone.  Results are
deduplicated by pairwise sup distance, relative to the kept solution's sup
norm, and classified; fixed points outside the ambient box are reported as
"outside-ambient" rather than discarded.

SolverParams holds what a config's `solver` block sets; the rest are
module constants.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from .conespace import (GridFunction, RegionLabel, RegionSpec, classify,
                        window_node)
from .errors import ConfigError
from .expr import (EvalError, ExprAst, eval_values, first_failure,
                   float_flags, float_program)
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
# a Newton step v - t*delta is tried at t = 1, 1/2, ..., 2^-MAX_HALVINGS and
# taken at the first t whose residual is below (1 - ARMIJO * t) * res(v)
MAX_HALVINGS = 6
ARMIJO = 1e-4
# the Newton step's block cyclic reduction solves its last at most this many
# block rows as one dense system
BASE_ROWS = 8
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
    over the two components, plus the two nonlinearities' float programs,
    compiled once."""

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
        # (G_j W)^{-1} for the Newton step, on the m nodes from `first` on,
        # as stacked (2, m) lower, diagonal and upper coefficients with
        # lower[:, 0] and upper[:, -1] zero; ProblemSpec gives both
        # components one kernel kind, so both inverses start at one node.
        # A huge RCD beta overflows them to inf, silently: the pivots are
        # then non-finite, which ends every Newton step
        with np.errstate(all="ignore"):
            self.inverse = _weighted_inverse((k1, k2), rule)
            self.couplings = _level_zero(*self.inverse[::2])
        self.first = rule.n - self.inverse[1].shape[-1]
        self.programs = (float_program(problem.f1), float_program(problem.f2))

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
        f's programs.  An EvalError names no grid node: `apply` names it
        when it evaluates f itself, and the solver's lanes discard it."""
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

    def jacobian(self, v1, v2, f: np.ndarray) -> tuple[np.ndarray, ...]:
        """Nodal derivatives (d11, d12, d21, d22) of (f1, f2) at v, where
        dij = df_i/dx_j, by forward differences from the base values
        f = `nonlinearity(v1, v2)`, and the columns j = 1, 2 from
        `nonlinearity` at v + h e_j.  A difference that overflows follows
        the caller's flags (the solver's lanes make it inf, and the Newton
        step ends that seed).  An EvalError names no grid node: the one
        caller, newton_step in the solver's lanes, discards it."""
        h = FD_STEP
        up1 = self.nonlinearity(v1 + h, v2) - f
        up2 = self.nonlinearity(v1, v2 + h) - f
        return (up1[..., 0, :] / h, up2[..., 0, :] / h,
                up1[..., 1, :] / h, up2[..., 1, :] / h)

    def newton_step(self, v: np.ndarray, r: np.ndarray,
                    f: np.ndarray) -> np.ndarray:
        """Solve J delta = r for the Jacobian J = I - K Df of F(v) = v - T(v),
        with v, r, delta and f = `nonlinearity(v[..., 0, :], v[..., 1, :])`
        stacked (..., 2, n); each leading index is its own system.

        K = diag(K1, K2) with K_j = G_j W, and Df is the 2x2 block of nodal
        derivative diagonals.  Multiplying by K^{-1} gives the equivalent
        (K^{-1} - Df) delta = K^{-1} r: a 2x2-block tridiagonal system whose
        off-diagonal blocks are diagonal and the same for every system,
        solved in O(n) by block cyclic reduction (_block_cyclic_reduction).
        For min(t,s) the row and column at t = 0 are those of I, so delta
        there is r.  The solve runs in one errstate scope that warns of
        nothing, and raises SingularPivot for a zero or non-finite block
        pivot, or for a singular or non-finite base system (the last at
        most BASE_ROWS rows, which are solved with partial pivoting)."""
        first, n = self.first, r.shape[-1]
        lower, diag, upper = self.inverse
        delta = r.copy().reshape(-1, 2, n)
        x = delta[..., first:].transpose(1, 0, 2)  # (2, S, m), holds r
        with np.errstate(all="ignore"):
            y = diag[:, None] * x  # K^{-1} r, both components at once
            y[..., 1:] += lower[:, None, 1:] * x[..., :-1]
            y[..., :-1] += upper[:, None, :-1] * x[..., 1:]
            # the pivot blocks are passed unnamed: with no reference left
            # here, the reduction frees them after its first level
            _block_cyclic_reduction(self.couplings, self._pivots(v, f), y, x,
                                    first)
        return delta.reshape(r.shape)

    def _pivots(self, v: np.ndarray, f: np.ndarray) -> np.ndarray:
        """The diagonal blocks K^{-1} - Df of newton_step's system as
        (2, 2, S, m), for states v (..., 2, n) flattened to S lanes."""
        first, n = self.first, v.shape[-1]
        d = np.empty((2, 2, v[..., 0, 0].size, n - first))
        derivatives = self.jacobian(v[..., 0, :], v[..., 1, :], f)
        for block, dij in zip(d.reshape(4, *d.shape[2:]), derivatives):
            np.negative(dij.reshape(-1, n)[:, first:], out=block)
        d[0, 0] += self.inverse[1][0]
        d[1, 1] += self.inverse[1][1]
        return d


class SingularPivot(ArithmeticError):
    """A zero or non-finite 2x2 pivot in the block-tridiagonal Newton solve,
    or a singular or non-finite system at its base."""

    def __init__(self, node: int):
        super().__init__(f"singular 2x2 pivot at grid node {node}")
        self.node = node


def _weighted_inverse(kernels: tuple[KernelKind, KernelKind],
                      rule: QuadratureRule
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) of (G_j W)^{-1} = W^{-1} G_j^{-1}, each stacked
    (2, m) over the two kernels: row k of G_j^{-1} divided by the weight of
    node k.  lower[:, k] multiplies node k - 1 and upper[:, k] node k + 1,
    so lower[:, 0] and upper[:, -1] are zero."""
    rows = []
    for kernel in kernels:
        lower, diag, upper = inverse_tridiagonal(kernel, rule.nodes)
        w = rule.weights[rule.n - len(diag):]
        rows.append((np.append(0.0, lower / w[1:]), diag / w,
                     np.append(upper / w[:-1], 0.0)))
    return tuple(np.array(c) for c in zip(*rows))


def _level_zero(lower: np.ndarray, upper: np.ndarray) -> tuple:
    """Block cyclic reduction's first-level coefficients for the off-diagonal
    blocks L_k = diag(lower[:, k]) and U_k = diag(upper[:, k]), which are
    the same for every system: lower and upper (2, m), then four lane-free
    (2, 2, 1, k) products over the odd rows o.

    Row o's reduced blocks are -L_o D_{o-1}^{-1} L_{o-1} (its new L),
    -L_o D_{o-1}^{-1} U_{o-1} and -U_o D_{o+1}^{-1} L_{o+1} (added to its D)
    and -U_o D_{o+1}^{-1} U_{o+1} (its new U).  With diagonal L and U, entry
    [a, b] of each is (D^{-1})[a, b] times -c_o[a] c_e[b], the product held
    here.  The last two exist for the (m - 1) // 2 odd rows that have a row
    after them."""
    m = lower.shape[-1]
    lo, uo = lower[:, 1::2], upper[:, 1:m - 1:2]
    pairs = ((lo, lower[:, 0:m - 1:2]), (lo, upper[:, 0:m - 1:2]),
             (uo, lower[:, 2::2]), (uo, upper[:, 2::2]))
    return (lower, upper,
            *(-(a[:, None] * b[None])[:, :, None] for a, b in pairs))


def _block_product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m x node by node, for 2x2 blocks m (2, 2, S, k) and 2-row blocks x
    (2, c, S, k)."""
    out = m[:, 0, None] * x[0]
    out += m[:, 1, None] * x[1]
    return out


def _block_cyclic_reduction(couplings: tuple, d: np.ndarray, y: np.ndarray,
                            x: np.ndarray, first: int):
    """Solve L_k x[k-1] + D_k x[k] + U_k x[k+1] = y_k, k < m, into x, for
    S independent systems at once: pivot blocks d (2, 2, S, m), right-hand
    sides y (2, S, m), overwritten, and x (2, S, m), which may be a strided
    view.  L_k = diag(lower[:, k]) and U_k = diag(upper[:, k]) are the same
    for every system; `couplings` is `_level_zero(lower, upper)`.

    Each level solves the even local rows for their unknowns, x[k] =
    D_k^{-1} (y_k - L_k x[k-1] - U_k x[k+1]), and substitutes them into the
    odd rows, which form the next level's system (Heller 1976).  The first
    level works on the diagonal L and U: its reduced blocks are D^{-1} of
    the even rows times lane-free products.  Later levels hold each row as
    D (2, 2, S, k) and [L | U | y] (2, 5, S, k), and update the odd rows by
    the two block products L_o (-D^{-1} [L | U | y]) of the row before and
    U_o (-D^{-1} [L | U | y]) of the row after.  Once at most BASE_ROWS rows
    remain, they are solved as one dense 2k x 2k system per lane by LU with
    partial pivoting, and back substitution writes each level's even rows
    into x in place.

    Raises SingularPivot at the first zero or non-finite pivot determinant
    in elimination order: level by level, then by node, and over a batch
    the first over all systems; then, if the base system has a non-finite
    entry or is singular, at the base's first node.  `first` offsets the
    node index it reports."""
    lower, upper, *products = couplings
    if y.shape[-1] <= BASE_ROWS:
        _solve_base(d, _diagonal_blocks(lower), _diagonal_blocks(upper), y,
                    x, first)
        return
    # level 0: (-D^{-1} L)[a, b] = -(D^{-1})[a, b] lower[b], so the odd rows'
    # reduced blocks are D^{-1} of an even row scaled by a product
    ll, lu, ul, uu = products
    ko, ka = ll.shape[-1], ul.shape[-1]
    inverse, det = _inverse(d[..., 0::2])
    levels = [(det, inverse)]  # per level: its pivot determinants and solve
    before, after = inverse[..., :ko], inverse[..., 1:]
    g = inverse[:, 0] * y[0, :, 0::2]  # D^{-1} y of the even rows
    g += inverse[:, 1] * y[1, :, 0::2]
    odd = lu * before
    odd += d[..., 1::2]
    odd[..., :ka] += ul * after
    d = odd
    rest = np.empty((2, 5, y.shape[1], ko))
    np.multiply(ll, before, out=rest[:, 0:2])
    np.multiply(uu, after, out=rest[:, 2:4, ..., :ka])
    rest[:, 2:4, ..., ka:] = 0.0
    np.multiply(lower[:, None, 1::2], g[..., :ko], out=rest[:, 4])
    np.subtract(y[..., 1::2], rest[:, 4], out=rest[:, 4])
    rest[:, 4, ..., :ka] -= upper[:, None, 1::2][..., :ka] * g[..., 1:]
    while d.shape[-1] > BASE_ROWS:
        even = d[..., 0::2]
        det = even[0, 0] * even[1, 1] - even[0, 1] * even[1, 0]
        # -D^{-1} = [[-D11, D01], [D10, -D00]] / det, applied to [L | U | y]
        norm = even[0, ::-1, None] * rest[1, ..., 0::2]
        norm -= even[1, ::-1, None] * rest[0, ..., 0::2]
        norm[1] *= -1.0
        norm *= 1.0 / det
        levels.append((det, norm))
        # odd row j absorbs even row j through L_j and even row j + 1
        # through U_j: L_j N_j gives [new L | D | y] terms and U_j N_{j+1}
        # [D | new U | y] terms; with an even row count the last odd row
        # has no even row after it, and its U_j is 0
        odd = rest[..., 1::2]
        ko, ka = odd.shape[-1], norm.shape[-1] - 1
        low = _block_product(odd[:, 0:2], norm[..., :ko])
        up = _block_product(odd[:, 2:4, ..., :ka], norm[..., 1:])
        d = d[..., 1::2] + low[:, 2:4]
        d[..., :ka] += up[:, 0:2]
        low[:, 2:4, ..., :ka] = up[:, 2:4]
        low[:, 2:4, ..., ka:] = 0.0
        low[:, 4] += odd[:, 4]
        low[:, 4, ..., :ka] += up[:, 4]
        rest = low
    for level, (det, _) in enumerate(levels):
        if not (np.isfinite(det).all() and det.all()):
            bad = ~np.isfinite(det) | (det == 0.0)
            at = int(np.argmax(bad.any(axis=0)))
            raise SingularPivot(first + 2 ** level - 1 + 2 ** (level + 1) * at)
    # level l's rows sit at x[..., s - 1::s], s = 2^l
    s = 2 ** len(levels)
    _solve_base(d, rest[:, 0:2], rest[:, 2:4], rest[:, 4], x[..., s - 1::s],
                first + s - 1)
    for level in range(len(levels) - 1, 0, -1):
        s = 2 ** level
        norm = levels[level][1]
        even, odd = x[..., s - 1::2 * s], x[..., 2 * s - 1::2 * s]
        ke, ko = even.shape[-1], odd.shape[-1]
        np.negative(norm[:, 4], out=even)
        even[..., 1:] += (norm[:, 0, ..., 1:] * odd[0, ..., :ke - 1]
                          + norm[:, 1, ..., 1:] * odd[1, ..., :ke - 1])
        even[..., :ko] += (norm[:, 2, ..., :ko] * odd[0]
                           + norm[:, 3, ..., :ko] * odd[1])
    # level 0: x_e = D^{-1} (y_e - L_e x[k-1] - U_e x[k+1])
    inverse = levels[0][1]
    even, odd = x[..., 0::2], x[..., 1::2]
    ke, ko = even.shape[-1], odd.shape[-1]
    t = y[..., 0::2]
    t[..., 1:] -= lower[:, None, 2::2] * odd[..., :ke - 1]
    t[..., :ko] -= upper[:, None, 0::2][..., :ko] * odd
    np.multiply(inverse[:, 0], t[0], out=even)
    even += inverse[:, 1] * t[1]


def _inverse(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The inverses (2, 2, S, k) of 2x2 blocks p and their determinants."""
    det = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
    inverse = p[::-1, ::-1].swapaxes(0, 1) * (1.0 / det)
    inverse[0, 1] *= -1.0
    inverse[1, 0] *= -1.0
    return inverse, det


def _diagonal_blocks(c: np.ndarray) -> np.ndarray:
    """diag(c[:, k]) as 2x2 blocks (2, 2, 1, k) for coefficients c (2, k)."""
    blocks = np.zeros((2, 2, 1, c.shape[-1]))
    blocks[0, 0, 0], blocks[1, 1, 0] = c
    return blocks


def _solve_base(d: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                y: np.ndarray, x: np.ndarray, node: int):
    """Solve the k block rows D, L, U (2, 2, S or 1, k), y (2, S, k) as one
    dense 2k x 2k system per lane by LU with partial pivoting, into x;
    raise SingularPivot at `node`, the first row's, if an entry is
    non-finite or a system is singular."""
    lanes, k = y.shape[1:]
    i = np.arange(k)
    a = np.zeros((lanes, k, 2, k, 2))
    # a[s, j, :, j', :] is the block of row j at column j'
    a[:, i, :, i] = d.transpose(3, 2, 0, 1)
    a[:, i[1:], :, i[:-1]] = lower[..., 1:].transpose(3, 2, 0, 1)
    a[:, i[:-1], :, i[1:]] = upper[..., :-1].transpose(3, 2, 0, 1)
    if not np.isfinite(a).all():
        raise SingularPivot(node)
    b = y.transpose(1, 2, 0).reshape(lanes, 2 * k, 1)
    try:
        solved = np.linalg.solve(a.reshape(lanes, 2 * k, 2 * k), b)
    except np.linalg.LinAlgError:
        raise SingularPivot(node) from None
    x[...] = solved.reshape(lanes, k, 2).transpose(2, 0, 1)


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
    """Picard from one seed pair: the seed, then at most `picard_steps` - 1
    damped steps, each evaluated; then at most MAX_NEWTON Newton steps from
    the last evaluated iterate, reusing its f and T(v).  Each Newton step
    v - t*delta takes the first t = 1, 1/2, ..., 2^-MAX_HALVINGS whose
    residual is below (1 - ARMIJO*t) times the current one, and the seed
    ends when none is, as it does at a Picard iterate whose residual is
    non-finite (f fails to evaluate, or v or T(v) is non-finite).  None if
    no fixed point with residual <= newton_tol is reached.  Each iterate
    and each trial step is evaluated once.  This is multi_start's engine
    run on one seed."""
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
        a lane where it raises EvalError or SingularPivot.  A batch that
        raises is run again one lane at a time to find those lanes; only
        this error path pays for that."""
        # no caught error outlives its handler: one kept in a local would
        # close the cycle error -> traceback -> this frame, which pins the
        # whole solve stack until the cyclic collector runs
        try:
            return fn(v, *args)
        except (EvalError, SingularPivot):
            pass
        out = np.full_like(v, np.nan)
        for i, s in enumerate(lane.tolist()):
            try:
                out[i] = fn(v[i:i + 1], *(x[i:i + 1] for x in args))[0]
            except EvalError:
                pass
            except SingularPivot as err:
                log.info("seed %s: singular Jacobian at node %d",
                         seed_ids[s], err.node)
        return out

    def nonlinearity(v):
        return op.nonlinearity(v[:, 0], v[:, 1])

    def evaluate(lane, v):
        """Each lane's residual, f and T(v), each lane counted as one
        iteration, and whether the residual is finite: it is not where f
        fails to evaluate (a NaN f), where T(v) is non-finite, or where v
        itself overflowed in a damped or trial step."""
        iterations[lane] += 1
        f = lanewise(nonlinearity, lane, v)
        tv = op.apply(v[:, 0], v[:, 1], f)
        res = np.max(np.abs(v - tv), axis=(1, 2))
        return np.isfinite(res), res, f, tv

    def line_search(lane, res, v, step):
        """The lanes with a trial v - t*step, t = 1, 1/2, ...,
        2^-MAX_HALVINGS, whose residual is below (1 - ARMIJO*t) * res, each
        with its first such trial and that trial's residual, f and T(v).
        The lanes still pending at a t are evaluated in one batch; a trial
        whose residual is non-finite is rejected."""
        found = np.zeros(len(lane), dtype=bool)
        new_res = np.empty_like(res)
        new_v, new_f, new_tv = (np.empty_like(v) for _ in range(3))
        pending = np.arange(len(lane))
        for halving in range(MAX_HALVINGS + 1):
            if not pending.size:
                break
            t = 0.5 ** halving
            trial = v[pending] - t * step[pending]
            ok, trial_res, f, tv = evaluate(lane[pending], trial)
            ok &= trial_res < (1.0 - ARMIJO * t) * res[pending]
            at = pending[ok]
            found[at] = True
            new_res[at], new_v[at] = trial_res[ok], trial[ok]
            new_f[at], new_tv[at] = f[ok], tv[ok]
            pending = pending[~ok]
        return _keep(found, lane, new_res, new_v, new_f, new_tv)

    # each settled lane's state, NaN for a lane that never settles (a
    # settled v is finite, since its residual is)
    final = np.full_like(seeds, np.nan)

    def settle(lane, res, v, f, tv):
        """Record in `final` each lane at newton_tol; the rest run on."""
        at = res <= tol
        final[lane[at]] = v[at]
        return _keep(~at, lane, res, v, f, tv)

    # Picard: the seed, then damped steps.  A lane whose residual is
    # non-finite ends there; the rest take their last evaluated iterate,
    # with its f and T(v), into Newton.
    lane, v = np.arange(len(seeds)), seeds
    for k in range(max(params.picard_steps, 1)):
        if not lane.size:
            break
        if k:
            v = (1.0 - lam) * v + lam * tv
        ok, res, f, tv = evaluate(lane, v)
        lane, res, v, f, tv = settle(*_keep(ok, lane, res, v, f, tv))

    # Newton, each step cut back by the line search
    for _ in range(MAX_NEWTON):
        if not lane.size:
            break
        step = lanewise(op.newton_step, lane, v, v - tv, f)
        lane, res, v, step = _keep(np.isfinite(step).all(axis=(1, 2)),
                                   lane, res, v, step)
        lane, res, v, f, tv = settle(*line_search(lane, res, v, step))

    solutions: list[Solution | None] = [None] * len(seeds)
    lane = np.flatnonzero(~np.isnan(final[:, 0, 0]))
    v = final[lane]
    # nonnegativity check with round-off slack, then clamp the slack away
    lane, v = _keep(~(v.min(axis=(1, 2)) < -1e-10), lane, v)
    if not lane.size:
        return solutions
    v = np.maximum(v, 0.0)
    res = op.residual_values(v)
    far = [FAR_FIELD_FACTOR * hi for _, hi in problem.region.sup_bounds()]
    for s, (v1, v2), r, sups in zip(lane.tolist(), v, res.tolist(),
                                    v.max(axis=2).tolist()):
        if r > tol or sups[0] > far[0] or sups[1] > far[1]:
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
