"""Grid functions, cone functionals and localization-region classification.

A candidate solution is carried as its values on a quadrature rule's nodes.
The two functionals of interest are the sup norm and the windowed minimum
min_{t >= t0} u(t).  The window start t0 belongs to the kernel (its
`window`): 1/2 for the DirichletNeumann kernel, whose cone P requires the
minimum over [1/2, 1] to dominate half the sup norm, and 0 for RCD.

Per-component region tags:

    S  sup_norm < d          (small)
    B  min_window > a        (big)
    M  otherwise             (middle; ties at the thresholds land here)

Without an annulus the tag pair indexes the nine disjoint localization
regions; with one (hybrid mode) component 2 is only constrained to the
annulus r <= ||u2|| <= R and the component-1 tag indexes three regions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OutsideAmbientError
from .kernels import QuadratureRule


@dataclass(frozen=True, eq=False)
class GridFunction:
    rule: QuadratureRule
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.rule.nodes.shape:
            raise ValueError("values length must match the rule's node count")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def sup_norm(u: GridFunction) -> float:
    return float(np.max(np.abs(u.values)))


def min_window(u: GridFunction, t0: float) -> float:
    """Minimum of the node values over nodes >= t0; t0 must be a grid node."""
    idx = np.flatnonzero(np.abs(u.rule.nodes - t0) <= 1e-12)
    if len(idx) == 0:
        raise ValueError(f"t0={t0} is not a grid node")
    return float(np.min(u.values[idx[0]:]))


def nontrivial(u: GridFunction, eps: float) -> bool:
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    return sup_norm(u) > eps


@dataclass(frozen=True)
class RegionSpec:
    """Per-component thresholds d_j < a_j < c_j, optional b_j (default 2*a_j)
    and optional annulus (r, R) for hybrid mode.  The min-window start is
    not region data: each kernel has its own (classify's `windows`)."""

    d: tuple[float, float]
    a: tuple[float, float]
    c: tuple[float, float]
    b: tuple[float, float] | None = None
    annulus: tuple[float, float] | None = None

    def __post_init__(self):
        for j in range(2):
            if not (0.0 < self.d[j] < self.a[j] < self.c[j]):
                raise ConfigError(
                    f"component {j + 1}: need 0 < d < a < c, got "
                    f"d={self.d[j]}, a={self.a[j]}, c={self.c[j]}")
        if self.b is not None:
            for j in range(2):
                if not (self.a[j] < self.b[j]):
                    raise ConfigError(
                        f"component {j + 1}: need a < b, got "
                        f"a={self.a[j]}, b={self.b[j]}")
        if self.annulus is not None:
            r, big_r = self.annulus
            if not (0.0 < r < big_r):
                raise ConfigError(f"need 0 < r < R, got r={r}, R={big_r}")

    def b_effective(self) -> tuple[float, float]:
        if self.b is not None:
            return self.b
        return (2.0 * self.a[0], 2.0 * self.a[1])


@dataclass(frozen=True)
class RegionLabel:
    comp1: str  # "S" | "M" | "B"
    comp2: str  # "S" | "M" | "B" | "annulus"

    def __str__(self) -> str:
        c2 = "ann" if self.comp2 == "annulus" else self.comp2
        return f"{self.comp1}-{c2}"


# the localization regions in the paper's numbering, region k at position
# k - 1: the nine tag pairs, and the three hybrid regions of component 1's
# tag with component 2 on the annulus
NINE_REGIONS = tuple(RegionLabel(*tags) for tags in
                     ("BB", "BS", "SB", "SS", "BM", "MB", "SM", "MS", "MM"))
HYBRID_REGIONS = tuple(RegionLabel(tag, "annulus") for tag in "BSM")


def region_index(label: RegionLabel) -> int:
    """Index of the localization region a label pair falls in (1-based);
    an annulus label indexes the three hybrid regions."""
    regions = HYBRID_REGIONS if label.comp2 == "annulus" else NINE_REGIONS
    return regions.index(label) + 1


def _component_tag(u: GridFunction, d: float, a: float, window: float) -> str:
    if sup_norm(u) < d:
        return "S"
    if min_window(u, window) > a:
        return "B"
    return "M"


def classify(u1: GridFunction, u2: GridFunction, spec: RegionSpec,
             windows: tuple[float, float]) -> RegionLabel:
    """Per-component region tags, component j's windowed minimum starting
    at windows[j] (its kernel's `window`); component 2 lives on the annulus
    exactly when the spec has one.  Raises OutsideAmbientError when the pair
    violates the ambient precondition (sup <= c_j, or the annulus)."""
    s1 = sup_norm(u1)
    if s1 > spec.c[0]:
        raise OutsideAmbientError(f"sup_norm(u1)={s1} exceeds c1={spec.c[0]}")
    s2 = sup_norm(u2)
    if spec.annulus is not None:
        r, big_r = spec.annulus
        if not (r <= s2 <= big_r):
            raise OutsideAmbientError(
                f"sup_norm(u2)={s2} outside the annulus [{r}, {big_r}]")
    elif s2 > spec.c[1]:
        raise OutsideAmbientError(f"sup_norm(u2)={s2} exceeds c2={spec.c[1]}")
    tag1 = _component_tag(u1, spec.d[0], spec.a[0], windows[0])
    if spec.annulus is not None:
        return RegionLabel(tag1, "annulus")
    return RegionLabel(tag1, _component_tag(u2, spec.d[1], spec.a[1],
                                            windows[1]))
