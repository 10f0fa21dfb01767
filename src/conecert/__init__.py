"""conecert: certified hypothesis checking and multi-start solving for
two-component Hammerstein systems with multiple positive solutions.

The package root exports what README's library examples import; every
other name is imported from its own module (conecert.solver, conecert.rcd,
...)."""

from .conespace import RegionSpec
from .expr import eval_interval, parse_expr
from .hypotheses import BoxIneq, certify_box, check_theorem, grid_oracle
from .interval import Interval
from .kernels import DirichletNeumann
from .solver import ProblemSpec

__version__ = "0.1.0"
