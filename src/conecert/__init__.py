"""conecert: certified hypothesis checking and multi-start solving for
two-component Hammerstein systems with multiple positive solutions.

The package root exports what README's library examples import; every
other name is imported from its own module.  The modules, from the bottom:
`errors`, `interval` (outward-rounded pairs, `Interval`, `CertVerdict`),
`kernels`, `syntax` (expression trees and their parser), `conespace` (grid
functions, regions and `ProblemSpec`), `expr` (compiling and evaluating the
trees), then the engines `hypotheses` (verify), `solver` (solve) and `rcd`,
and `cli` on top.

The root loads lazily (PEP 562): `import conecert` imports no submodule,
and each exported name imports its module on first access, so a command
loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the module that defines it
_EXPORTS = {
    "BoxIneq": "hypotheses",
    "DirichletNeumann": "kernels",
    "Interval": "interval",
    "ProblemSpec": "conespace",
    "RegionSpec": "conespace",
    "certify_box": "hypotheses",
    "check_theorem": "hypotheses",
    "eval_interval": "expr",
    "grid_oracle": "hypotheses",
    "parse_expr": "syntax",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
