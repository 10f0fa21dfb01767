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
A pair whose sup norms leave the ambient set (RegionSpec.sup_bounds) is
labelled "outside-ambient".

`ProblemSpec` joins a system's kernels and nonlinearities to its region
data under one of `MODES`; `verify` and `solve` both take one, so it lives
here rather than with either engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .kernels import (DirichletNeumann, KernelKind, QuadratureRule,
                      ReactionConvectionDiffusion)
from .syntax import ExprAst

MODES = ("nine", "hybrid", "thm53")


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


def window_node(rule: QuadratureRule, t0: float) -> int:
    """Index of the node equal to the window start t0; a ConfigError names
    the grid when t0 is no node of it."""
    idx = np.flatnonzero(rule.nodes == t0)
    if len(idx) == 0:
        raise ConfigError(f"grid_n = {rule.n} has no node at t = {t0}, where "
                          f"a cone window starts")
    return int(idx[0])


def min_window(u: GridFunction, t0: float) -> float:
    """Minimum of the node values over nodes >= t0; t0 must be a grid node."""
    return float(np.min(u.values[window_node(u.rule, t0):]))


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

    def sup_bounds(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """Each component's sup-norm range in the ambient set: [0, c_j], or
        the annulus [r, R] for component 2 when there is one."""
        return (0.0, self.c[0]), self.annulus or (0.0, self.c[1])


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
             windows: tuple[float, float]) -> RegionLabel | str:
    """Per-component region tags, component j's windowed minimum starting
    at windows[j] (its kernel's `window`); component 2 lives on the annulus
    exactly when the spec has one.  "outside-ambient" when a sup norm
    leaves its range in spec.sup_bounds()."""
    for u, (lo, hi) in zip((u1, u2), spec.sup_bounds()):
        if not (lo <= sup_norm(u) <= hi):
            return "outside-ambient"
    tag1 = _component_tag(u1, spec.d[0], spec.a[0], windows[0])
    if spec.annulus is not None:
        return RegionLabel(tag1, "annulus")
    return RegionLabel(tag1, _component_tag(u2, spec.d[1], spec.a[1],
                                            windows[1]))
