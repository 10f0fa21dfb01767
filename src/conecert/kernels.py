"""Green's functions for the two boundary-value problems and quadrature rules.

Two kernels on [0,1]^2:

* DirichletNeumann: G(t,s) = min(t,s), the kernel of -u'' = f with
  u(0) = u'(1) = 0.
* ReactionConvectionDiffusion(beta): G(t,s) = exp((t-s)/beta) for t <= s and
  1 for s <= t, the kernel of beta*u'' - u' = -f with beta*u'(0) - u(0) = 0,
  u'(1) = 0.

Both are nondecreasing in t for fixed s, which is what pushes operator
images into the cone used downstream.  Both are semiseparable: below and on
the diagonal G(t_i, t_m) is b_m, a function of the column alone, and above
it a product c_i d_m (generators).
The solver applies the operator through these generators with two prefix
sums in O(n), and its Newton step uses the closed-form tridiagonal inverse of
the Green matrix (inverse_tridiagonal) that the same structure gives.
green_matrix builds the dense matrix G(t_i, s_m), which no solve forms; it
is the only evaluation of G itself, and the tests check the generators and
the tridiagonal inverse against it.

Quadrature is the composite trapezoid rule on a uniform grid (make_rule).
Operator evaluation happens at grid t-values only, so the min(t,s) kink
always sits on a node and trapezoid keeps O(h^2); Simpson would gain no
order, since the kink lies inside a Simpson panel at every odd node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class DirichletNeumann:
    """min(t,s) kernel."""


@dataclass(frozen=True)
class ReactionConvectionDiffusion:
    """exp((t-s)/beta) above the diagonal, 1 below; beta > 0."""

    beta: float

    def __post_init__(self):
        if not (self.beta > 0.0):
            raise DomainError(f"beta must be positive, got {self.beta}")


KernelKind = DirichletNeumann | ReactionConvectionDiffusion


def green_matrix(kernel: KernelKind, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Matrix G[i, m] = G(t[i], s[m]) for t and s in [0, 1]."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0) or np.any(s < 0.0) or np.any(s > 1.0):
        raise DomainError("grid values outside [0, 1]")
    if isinstance(kernel, DirichletNeumann):
        return np.minimum.outer(t, s)
    diff = t[:, None] - s[None, :]
    # np.where evaluates both branches; the clamp keeps exp finite on the
    # masked-out one for small beta
    return np.where(diff <= 0.0, np.exp(np.minimum(diff, 0.0) / kernel.beta),
                    1.0)


# exponents of RCD generators stay within +-EXP_SPAN, far inside the double
# range (exp overflows above about 709 and underflows below about -745)
EXP_SPAN = 500.0


def _check_nodes(t: np.ndarray):
    if t.ndim != 1 or len(t) < 2 or t[0] < 0.0 or t[-1] > 1.0 \
            or np.any(np.diff(t) <= 0.0):
        raise DomainError("nodes must be strictly increasing in [0, 1]")


def generator_blocks(kernel: KernelKind, nodes: np.ndarray) -> np.ndarray:
    """Boolean mask of the nodes that start a block over which generators()
    stays finite; the first node always does.

    min(t,s) needs one block.  RCD's upper generators are exp(+-t/beta), so
    the nodes are cut where x = t/beta passes a multiple of EXP_SPAN; every
    beta >= 1/EXP_SPAN gives one block."""
    t = np.asarray(nodes, dtype=float)
    _check_nodes(t)
    if isinstance(kernel, DirichletNeumann):
        return np.arange(len(t)) == 0
    ids = np.maximum(np.ceil(t / kernel.beta / EXP_SPAN) - 1.0, 0.0)
    return np.diff(ids, prepend=-1.0) != 0.0


def generators(kernel: KernelKind, nodes: np.ndarray, starts: np.ndarray
               ) -> tuple[np.ndarray, ...]:
    """Semiseparable generators (b, c, d, link) of G on the nodes t.

    G(t_i, t_m) = b_m for m <= i.  For m > i, G(t_i, t_m) = c_i d_m when
    both nodes lie in one block of `starts` (sorted start indices, the first
    0), and c_i link_k ... link_{l-1} d_m when t_i lies in block k and t_m in
    block l > k.  Any `starts` that includes every block start of
    generator_blocks(kernel, nodes) keeps every factor finite.

    * min(t,s): b = t, c = t, d = 1, link = 1.
    * RCD: b = 1; with x = t/beta and r the x of each block's first node,
      c = exp(x - r), d = exp(r - x) and link_k = exp(r_k - r_{k+1}).
    """
    t = np.asarray(nodes, dtype=float)
    _check_nodes(t)
    starts = np.asarray(starts, dtype=int)
    one = np.ones_like(t)
    if isinstance(kernel, DirichletNeumann):
        return t, t, one, np.ones(len(starts) - 1)
    x = t / kernel.beta
    r = x[starts]
    ref = np.repeat(r, np.diff(starts, append=len(t)))
    return one, np.exp(x - ref), np.exp(ref - x), np.exp(r[:-1] - r[1:])


def inverse_tridiagonal(kernel: KernelKind, nodes: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lower, diag, upper) of the inverse of green_matrix(kernel, t, t).

    Both kernels are semiseparable, so the inverse is tridiagonal and follows
    in closed form from the node gaps d_k = t[k+1] - t[k], which need not be
    uniform: row k of G^{-1} x is a_k (x_k - x_{k-1}) - b_k (x_{k+1} - x_k),
    with x_{-1} = 0 and b = 0 in the last row.

    * min(t,s): G has a zero row and column at t = 0, so the inverse is the
      one of the block on the nodes t > 0 (length n - 1 when t[0] = 0).
      There a_k = 1/d_{k-1} and b_k = 1/d_k, the first node's left gap being
      its distance to 0.
    * RCD: with c_k = exp(-d_k/beta) and q_k = 1 - c_k, a_k = 1/q_{k-1} and
      b_k = c_k/q_k, where a_0 = 1.
    """
    t = np.asarray(nodes, dtype=float)
    _check_nodes(t)
    if isinstance(kernel, DirichletNeumann):
        a = 1.0 / np.diff(t[t > 0.0], prepend=0.0)
        b = a[1:]
    else:
        x = np.diff(t) / kernel.beta
        q = -np.expm1(-x)
        b = np.exp(-x) / q
        a = np.concatenate(([1.0], 1.0 / q))
    return -a[1:], a + np.append(b, 0.0), -b


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Increasing nodes on [0,1], ends included, with weights summing to 1."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] != 0.0 or nodes[-1] != 1.0:
            raise ValueError("nodes must include 0 and 1")
        if abs(float(weights.sum()) - 1.0) > 1e-14:
            raise ValueError("weights must sum to 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return len(self.nodes)


def same_rule(a: QuadratureRule, b: QuadratureRule) -> bool:
    return a is b or (np.array_equal(a.nodes, b.nodes)
                      and np.array_equal(a.weights, b.weights))


def make_rule(n: int) -> QuadratureRule:
    """Composite trapezoid rule on n >= 3 uniform nodes."""
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got {n}")
    h = 1.0 / (n - 1)
    weights = np.full(n, h)
    weights[0] = weights[-1] = h / 2.0
    return QuadratureRule(np.linspace(0.0, 1.0, n), weights)
