"""Green's functions for the two boundary-value problems and quadrature rules.

Two kernels on [0,1]^2:

* DirichletNeumann: G(t,s) = min(t,s), the kernel of -u'' = f with
  u(0) = u'(1) = 0.
* ReactionConvectionDiffusion(beta): G(t,s) = exp((t-s)/beta) for t <= s and
  1 for s <= t, the kernel of beta*u'' - u' = -f with beta*u'(0) - u(0) = 0,
  u'(1) = 0.

Both are nondecreasing in t for fixed s, which is what pushes operator
images into the cone used downstream.  Both are semiseparable, so their
Green matrices on a node set have tridiagonal inverses in closed form
(inverse_tridiagonal), which the solver's Newton step uses.

Quadrature is composite trapezoid or Simpson on a uniform grid.  Operator
evaluation happens at grid t-values only, so the min(t,s) kink always sits
on a node and trapezoid keeps O(h^2).
"""

from __future__ import annotations

import math
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


def _check_unit(name: str, x: float):
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"{name}={x} outside [0, 1]")


def green(kernel: KernelKind, t: float, s: float) -> float:
    """Kernel value G(t, s) for t, s in [0, 1]."""
    _check_unit("t", t)
    _check_unit("s", s)
    if isinstance(kernel, DirichletNeumann):
        return min(t, s)
    if t <= s:
        return math.exp((t - s) / kernel.beta)
    return 1.0


def green_matrix(kernel: KernelKind, t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Matrix G[i, m] = G(t[i], s[m]); vectorised version of green()."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0) or np.any(s < 0.0) or np.any(s > 1.0):
        raise DomainError("grid values outside [0, 1]")
    if isinstance(kernel, DirichletNeumann):
        return np.minimum.outer(t, s)
    diff = t[:, None] - s[None, :]
    return np.where(diff <= 0.0, np.exp(diff / kernel.beta), 1.0)


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
    if t.ndim != 1 or len(t) < 2 or t[0] < 0.0 or t[-1] > 1.0 \
            or np.any(np.diff(t) <= 0.0):
        raise DomainError("nodes must be strictly increasing in [0, 1]")
    if isinstance(kernel, DirichletNeumann):
        a = 1.0 / np.diff(t[t > 0.0], prepend=0.0)
        b = a[1:]
    else:
        x = np.diff(t) / kernel.beta
        q = -np.expm1(-x)
        b = np.exp(-x) / q
        a = np.concatenate(([1.0], 1.0 / q))
    return -a[1:], a + np.append(b, 0.0), -b


def kernel_row_integral(kernel: KernelKind, t: float) -> float:
    """Closed-form integral of G(t, s) over s in [0, 1]."""
    _check_unit("t", t)
    if isinstance(kernel, DirichletNeumann):
        return t - 0.5 * t * t
    b = kernel.beta
    return t + b * (1.0 - math.exp((t - 1.0) / b))


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Uniform nodes on [0,1] with composite quadrature weights."""

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


def make_rule(n: int, scheme: str = "trapezoid") -> QuadratureRule:
    """Composite rule on n uniform nodes; Simpson requires odd n >= 3."""
    if n < 3:
        raise ValueError(f"need at least 3 nodes, got {n}")
    h = 1.0 / (n - 1)
    nodes = np.linspace(0.0, 1.0, n)
    if scheme == "trapezoid":
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
    elif scheme == "simpson":
        if n % 2 == 0:
            raise ValueError(f"simpson requires an odd node count, got {n}")
        weights = np.full(n, 2.0 * h / 3.0)
        weights[1::2] = 4.0 * h / 3.0
        weights[0] = weights[-1] = h / 3.0
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return QuadratureRule(nodes, weights)
