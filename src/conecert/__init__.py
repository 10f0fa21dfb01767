"""conecert: certified hypothesis checking and multi-start solving for
two-component Hammerstein systems with multiple positive solutions."""

from .conespace import (GridFunction, RegionLabel, RegionSpec, classify,
                        in_cone_p, min_window, nontrivial, region_index,
                        sup_norm)
from .errors import ConfigError, DomainError, OutsideAmbientError
from .expr import (EvalError, ExprAst, ParseError, eval_interval, eval_point,
                   eval_values, parse_expr, unparse)
from .hypotheses import (BoxIneq, CertVerdict, HypothesisReport, certify_box,
                         check_theorem, expand_conditions, grid_oracle,
                         oracle_agrees)
from .interval import Interval
from .kernels import (DirichletNeumann, KernelKind, QuadratureRule,
                      ReactionConvectionDiffusion, green, green_matrix,
                      inverse_tridiagonal, kernel_row_integral, make_rule)
from .rcd import (DerivedParams, RcdParams, build_params, check_5_11,
                  check_5_16, check_all, g_eval, h_root, h_root_bracket,
                  m_ranges, monotonicity_profile, s_pair)
from .solver import (ProblemSpec, Solution, SolverParams, apply_T,
                     multi_start, residual, solve_from)

__version__ = "0.1.0"
