"""Nonlinearity expressions f(x1, x2): compilation and evaluation.

`syntax` parses expression text into a tree (its names stay importable
from here); this module compiles and evaluates the trees.  phi, psi and
capphi are the saturating piecewise-linear ramps with breakpoints at 1/2
and 1; negative arguments are clamped to 0 (operators only ever feed
nonnegative functions, but quadrature round-off may produce -eps).

Evaluation compiles each tree once into nested closures, one per node, over
one of three arithmetic tables: np.float64 scalars and arrays (pointwise,
and vectorised for the solver and the grid oracle); dual triples of them,
a value and its two partial derivatives at each point (for the solver's
Newton step); or gradient triples of outward-rounded endpoint pairs (with
the kernels of `interval`: a rigorous range enclosure and both partial
derivative enclosures, for first-order branch and bound; run with exactly
zero derivative seeds, the range enclosure alone).  Each table supplies
every operation: constant lifting, the named constants, the operators and
the builtins.  The float table is `operator` and numpy ufuncs run with
numpy's overflow, divide and invalid flags raising FloatingPointError
(underflow is silent), so from finite operands it makes a finite value or
raises; a literal that overflows to inf is a ParseError.  The dual table
computes its values with the float table's ops and its derivatives with
numpy ufuncs, under the same flags.  Those flags have one definition,
`float_flags`: the public wrappers `eval_point` and `eval_values` enter it
per call, while the solver and branch and bound enter it once per batch
and run the compiled `float_program` or `dual_program` directly.  The
gradient table raises DomainError.  The closure of the node whose
operation raised turns either into an EvalError at its source offset.
Compiled programs are cached by node identity, not by equality (equal trees
may carry different offsets), so the hundreds of evaluations of one
expression in a solve or a branch and bound compile it once.  `eval_values`
also hands the float program an arena: one block per call, with a slot for
each value in both variables that is live at once, which the nodes in both
variables write into with their ufuncs' `out=` (`_compile` numbers the
slots), so a lattice allocates no temporary per node.

The ramps are monotone (phi and psi nondecreasing, capphi nonincreasing) and
exact in float arithmetic (2z - 1 and 2 - 2z by Sterbenz's lemma on
[1/2, 1]), so the interval image of a ramp is the float ramp applied to the
two endpoints.  In the gradient table a ramp whose argument enclosure lies
in one closed piece, ends on a breakpoint included, takes that piece's
slope: s on [lo, hi], 0 on (-inf, lo] and on [hi, inf).  Only an enclosure
that strictly straddles a breakpoint takes the hull of both slopes.  The
piece's slope is sound: on such a box f equals the smooth expression
with the ramp replaced by its affine piece, so the mean-value theorem holds
with that piece's slope.  `ramp_breakpoints` lists the breakpoints of the
ramps applied to a bare variable, where branch and bound splits a box so
that each half lies in one piece of them.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass

import numpy as np

from . import interval as iv
from .errors import DomainError, EvalError, ParseError  # noqa: F401
from .interval import E, PI, Interval
# the parser's names, importable from here as well
from .syntax import (BUILTIN_ARITY, NAMED_CONSTS, BinOp, Call,  # noqa: F401
                     Const, ExprAst, NamedConst, Neg, Var, parse_expr)


# ---------------------------------------------------------------------------
# evaluation: one compiler over three arithmetic tables

# a ramp clips its argument first, so none overflows it; 2z - 1 and 2 - 2z
# are exact on [1/2, 1], so the bits are those of clipping them to [0, 1].
# Each `_into` form runs the same ufuncs in the same order, into `out`.
# A scalar (a midpoint's) is clipped by comparisons, with numpy's result
# bits: a tie gives the bound (so -0.0 against 0.0 gives 0.0), and NaN
# passes through, as np.maximum and np.minimum give them.

def _clip(v, lo: float, hi: float, out=None):
    if type(v) is np.float64 and out is None:
        if v <= lo:
            return np.float64(lo)
        return np.float64(hi) if v >= hi else v
    return np.minimum(np.maximum(v, lo, out=out), hi, out=out)


def _phi(z):
    return 2.0 * _clip(z, 0.5, 1.0) - 1.0


def _psi(z):
    return _clip(z, 0.0, 1.0)


def _capphi(z):
    return 2.0 - 2.0 * _clip(z, 0.5, 1.0)


def _phi_into(z, out):
    np.multiply(2.0, _clip(z, 0.5, 1.0, out), out=out)
    return np.subtract(out, 1.0, out=out)


def _psi_into(z, out):
    return _clip(z, 0.0, 1.0, out)


def _capphi_into(z, out):
    np.multiply(2.0, _clip(z, 0.5, 1.0, out), out=out)
    return np.subtract(2.0, out, out=out)


@dataclass(frozen=True)
class _Table:
    const: object              # float -> value
    named: dict                # "pi" | "e" -> value
    ops: dict                  # operator, "neg" or builtin name -> function
    natural_exponent: bool     # ^ takes a constant natural exponent only
    into: dict | None = None   # the ops with an `out=` argument, by name


_FLOATS = _Table(
    const=np.float64,
    named={"pi": np.float64(math.pi), "e": np.float64(math.e)},
    ops={"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv, "^": np.power, "neg": operator.neg, "exp": np.exp,
         "cos": np.cos, "sin": np.sin, "ln": np.log, "abs": np.abs, "phi": _phi,
         "psi": _psi, "capphi": _capphi, "min": np.minimum, "max": np.maximum},
    natural_exponent=False,
    into={"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide,
          "^": np.power, "neg": np.negative, "exp": np.exp, "cos": np.cos,
          "sin": np.sin, "ln": np.log, "abs": np.abs, "phi": _phi_into,
          "psi": _psi_into, "capphi": _capphi_into,
          "min": np.minimum, "max": np.maximum})

# The gradient table: each value is (v, d1, d2), three endpoint pairs that
# enclose f and its partial derivatives in x1 and x2 over the box, built
# from the pair kernels by the sum, product, quotient and chain rules.  A
# ramp whose argument enclosure lies in one closed piece takes that piece's
# slope; at a kink strictly inside the enclosure a builtin takes the hull of
# its one-sided slopes (its Clarke generalized gradient), so by Lebourg's
# mean-value theorem a sign-definite d_k proves f monotone in x_k on the
# closed box.  An exactly zero derivative (of a constant, of a term in one
# variable only, or of every term under zero seeds) stays exactly zero: 0 +
# d and 0 * d are exact, and rounding them outward would hide the zero that
# makes f constant in x_k.  A product with exactly 1 (the derivative of a
# bare variable) is exact too, so a ramp of x_k keeps a sign-definite slope
# such as [0, 2] instead of [-5e-324, 2.0000000000000004].

_ZERO = (0.0, 0.0)
_ONE = (1.0, 1.0)


def _dadd(a, b):
    if a == _ZERO:
        return b
    return a if b == _ZERO else iv.add(a, b)


def _dsub(a, b):
    if b == _ZERO:
        return a
    return iv.neg(b) if a == _ZERO else iv.sub(a, b)


def _dmul(s, d):
    # the factor s is a value enclosure, finite at every point of the box
    if d == _ZERO or s == _ZERO:
        return _ZERO
    if d == _ONE:
        return s
    return d if s == _ONE else iv.mul(s, d)


def _chain(value, slope, x):
    """(value, s * d1, s * d2) for a unary function of x, where s is the
    slope enclosure `slope(u)` over x's value u.  Where both derivatives are
    exactly zero, as in every run of `interval_program`, slope is not run."""
    if x[1] == _ZERO and x[2] == _ZERO:
        return value, _ZERO, _ZERO
    s = slope(x[0])
    return value, _dmul(s, x[1]), _dmul(s, x[2])


def _g_add(x, y):
    return iv.add(x[0], y[0]), _dadd(x[1], y[1]), _dadd(x[2], y[2])


def _g_sub(x, y):
    return iv.sub(x[0], y[0]), _dsub(x[1], y[1]), _dsub(x[2], y[2])


def _g_neg(x):
    return iv.neg(x[0]), iv.neg(x[1]), iv.neg(x[2])


def _g_mul(x, y):
    u, v = x[0], y[0]
    return (iv.mul(u, v), _dadd(_dmul(v, x[1]), _dmul(u, y[1])),
            _dadd(_dmul(v, x[2]), _dmul(u, y[2])))


def _g_div(x, y):
    # (u/v)' = (u' - (u/v) v') / v; the value kernel rejects 0 in v first
    v = y[0]
    q = iv.div(x[0], v)
    d1 = _dsub(x[1], _dmul(q, y[1]))
    d2 = _dsub(x[2], _dmul(q, y[2]))
    return (q, _ZERO if d1 == _ZERO else iv.div(d1, v),
            _ZERO if d2 == _ZERO else iv.div(d2, v))


def _g_pow(x, n: int):
    if n == 0:
        return _ONE, _ZERO, _ZERO
    if n == 1:
        return x
    def slope(u):
        return iv.mul((float(n), float(n)), iv.pow_nat(u, n - 1))
    return _chain(iv.pow_nat(x[0], n), slope, x)


def _g_exp(x):
    e = iv.exp(x[0])
    return _chain(e, lambda _: e, x)


def _g_log(x):
    # the value rejects u touching 0 before the slope divides by it
    return _chain(iv.log(x[0]), lambda u: iv.div(_ONE, u), x)


def _g_cos(x):
    return _chain(iv.cos(x[0]), lambda u: iv.neg(iv.sin(u)), x)


def _g_sin(x):
    return _chain(iv.sin(x[0]), iv.cos, x)


def _kink_slope(u, lo: float, hi: float, s: float):
    """Slope enclosure over u of a continuous function that is constant on
    (-inf, lo] and on [hi, inf) and affine with slope s on [lo, hi]."""
    # An enclosure inside one closed piece takes that piece's slope, even
    # where an end touches a breakpoint: over such a box the ramp equals
    # that affine (or constant) piece of u, so f is the smooth expression
    # with the ramp replaced by it, and the mean-value theorem holds with
    # its slope.  Only an enclosure that strictly straddles a breakpoint
    # needs the hull of both slopes.
    if u[1] <= lo or u[0] >= hi:
        return _ZERO
    if lo <= u[0] and u[1] <= hi:
        return s, s
    return min(0.0, s), max(0.0, s)


# each ramp's breakpoints and its slope between them (0 outside)
_RAMPS = {"phi": (0.5, 1.0, 2.0), "psi": (0.0, 1.0, 1.0), "capphi": (0.5, 1.0, -2.0)}


def _g_ramp(name: str):
    fn = getattr(iv, name)
    lo, hi, s = _RAMPS[name]

    def run(x):
        return _chain(fn(x[0]), lambda u: _kink_slope(u, lo, hi, s), x)
    return run


def _abs_slope(u):
    if u[0] > 0.0:
        return _ONE
    return (-1.0, -1.0) if u[1] < 0.0 else (-1.0, 1.0)


def _g_abs(x):
    return _chain(iv.absolute(x[0]), _abs_slope, x)


def _hull(a, b):
    return min(a[0], b[0]), max(a[1], b[1])


def _g_minmax(value, lower: bool):
    # the operand that is strictly below (lower) or above the other over the
    # whole box is the result; where the ranges overlap, either may be
    def run(x, y):
        out = value(x[0], y[0])
        if x[0][1] < y[0][0]:
            return (out, *(x if lower else y)[1:])
        if y[0][1] < x[0][0]:
            return (out, *(y if lower else x)[1:])
        return out, _hull(x[1], y[1]), _hull(x[2], y[2])
    return run


_GRADIENTS = _Table(
    const=lambda v: ((v, v), _ZERO, _ZERO),
    named={"pi": ((PI.lo, PI.hi), _ZERO, _ZERO), "e": ((E.lo, E.hi), _ZERO, _ZERO)},
    ops={"+": _g_add, "-": _g_sub, "*": _g_mul, "/": _g_div, "^": _g_pow,
         "neg": _g_neg, "exp": _g_exp, "cos": _g_cos, "sin": _g_sin, "ln": _g_log,
         "abs": _g_abs, "phi": _g_ramp("phi"), "psi": _g_ramp("psi"),
         "capphi": _g_ramp("capphi"),
         "min": _g_minmax(iv.minimum, True), "max": _g_minmax(iv.maximum, False)},
    natural_exponent=True)

# The dual table: each value is (v, d1, d2), f and its partial derivatives in
# x1 and x2 at a point (forward-mode differentiation of the program; Griewank
# & Walther 2008), over np.float64 scalars and arrays.  v comes from the
# float table's own op, so it has `float_program`'s bits, and the derivative
# rules are the gradient table's on points.  At a kink each builtin takes its
# right-hand slope: a ramp on a breakpoint the slope of the piece to its
# right, abs at 0 the slope 1, and min and max at a tie the min and the max
# of the operands' derivatives.  A derivative that is exactly 0.0 (of a
# constant or of a term in the other variable) or 1.0 (of a bare variable)
# stays a Python float, so it costs no array operation; every other
# derivative runs through numpy ufuncs, which raise under `float_flags`.

_VALUE = _FLOATS.ops


def _zero(d) -> bool:
    return type(d) is float and d == 0.0


def _plus(a, b):
    if _zero(a):
        return b
    return a if _zero(b) else np.add(a, b)


def _minus(a, b):
    if _zero(b):
        return a
    return np.negative(b) if _zero(a) else np.subtract(a, b)


def _times(s, d):
    # the factor s is a value or a slope, never a Python float
    if _zero(d):
        return 0.0
    return s if type(d) is float else np.multiply(s, d)


def _dual_chain(name: str, slope):
    """The dual rule of the float table's unary op `name`, whose derivative
    at u is slope(u, value).  Where both derivatives of u are exactly zero,
    slope is not run."""
    fn = _VALUE[name]

    def run(x):
        u = x[0]
        value = fn(u)
        if _zero(x[1]) and _zero(x[2]):
            return value, 0.0, 0.0
        s = slope(u, value)
        return value, _times(s, x[1]), _times(s, x[2])
    return run


def _dual_ramp(name: str):
    # the slope of the piece to the right of u: s on [lo, hi), 0 elsewhere
    lo, hi, s = _RAMPS[name]
    return _dual_chain(name,
                       lambda u, _: np.where((u >= lo) & (u < hi), s, 0.0))


def _dual_add(x, y):
    return _VALUE["+"](x[0], y[0]), _plus(x[1], y[1]), _plus(x[2], y[2])


def _dual_sub(x, y):
    return _VALUE["-"](x[0], y[0]), _minus(x[1], y[1]), _minus(x[2], y[2])


def _dual_neg(x):
    return _VALUE["neg"](x[0]), _minus(0.0, x[1]), _minus(0.0, x[2])


def _dual_mul(x, y):
    u, w = x[0], y[0]
    return (_VALUE["*"](u, w), _plus(_times(w, x[1]), _times(u, y[1])),
            _plus(_times(w, x[2]), _times(u, y[2])))


def _dual_div(x, y):
    # (u/w)' = (u' - (u/w) w') / w, as in the gradient table
    w = y[0]
    q = _VALUE["/"](x[0], w)
    d1 = _minus(x[1], _times(q, y[1]))
    d2 = _minus(x[2], _times(q, y[2]))
    return (q, 0.0 if _zero(d1) else np.divide(d1, w),
            0.0 if _zero(d2) else np.divide(d2, w))


def _dual_pow(x, y):
    # (u^w)' = w u^(w-1) u' + u^w ln(u) w', each term only where its u' or
    # w' is not exactly zero; with a constant exponent 0, u^0 is constant
    u, w = x[0], y[0]
    value = _VALUE["^"](u, w)
    constant_exponent = _zero(y[1]) and _zero(y[2])
    d1 = d2 = 0.0
    if constant_exponent and w == 0.0:
        return value, d1, d2
    if not (_zero(x[1]) and _zero(x[2])):
        s = w * np.power(u, w - 1.0)
        d1, d2 = _times(s, x[1]), _times(s, x[2])
    if not constant_exponent:
        t = np.multiply(value, np.log(u))
        d1, d2 = _plus(d1, _times(t, y[1])), _plus(d2, _times(t, y[2]))
    return value, d1, d2


def _dual_minmax(name: str, strictly):
    """The dual rule of min (strictly = np.less) or max (np.greater): the
    derivative of the operand that is strictly the result, and at a tie
    the min or the max of both operands' derivatives."""
    fn = _VALUE[name]

    def run(x, y):
        u, w = x[0], y[0]
        value = fn(u, w)
        first, tie = strictly(u, w), u == w
        tied = tie.any()
        out = [value]
        for a, b in ((x[1], y[1]), (x[2], y[2])):
            if _zero(a) and _zero(b):
                out.append(0.0)
                continue
            d = np.where(first, a, b)
            out.append(np.where(tie, fn(a, b), d) if tied else d)
        return tuple(out)
    return run


_DUALS = _Table(
    const=lambda v: (np.float64(v), 0.0, 0.0),
    named={name: (v, 0.0, 0.0) for name, v in _FLOATS.named.items()},
    ops={"+": _dual_add, "-": _dual_sub, "*": _dual_mul, "/": _dual_div,
         "^": _dual_pow, "neg": _dual_neg,
         "exp": _dual_chain("exp", lambda _, value: value),
         "cos": _dual_chain("cos", lambda u, _: np.negative(np.sin(u))),
         "sin": _dual_chain("sin", lambda u, _: np.cos(u)),
         "ln": _dual_chain("ln", lambda u, _: np.divide(1.0, u)),
         "abs": _dual_chain("abs", lambda u, _: np.where(u >= 0.0, 1.0, -1.0)),
         "phi": _dual_ramp("phi"), "psi": _dual_ramp("psi"),
         "capphi": _dual_ramp("capphi"),
         "min": _dual_minmax("min", np.less),
         "max": _dual_minmax("max", np.greater)},
    natural_exponent=False)


def _natural_exponent(node: BinOp) -> int:
    e = node.right
    if not isinstance(e, Const) or e.value < 0 or not e.value.is_integer():
        raise EvalError(node.offset,
                        "interval mode requires a constant natural exponent")
    return int(e.value)


def _x1(x1, x2):
    return x1


def _x2(x1, x2):
    return x2


def _constant(value):
    return lambda x1, x2: value


def _failure(offset: int, err: Exception) -> EvalError:
    # numpy words a failure on scalars "... encountered in scalar multiply"
    # and on arrays "... encountered in multiply": one wording for both, so a
    # midpoint and a lattice point report the same failure the same way
    message = str(err).replace(" encountered in scalar ", " encountered in ")
    return EvalError(offset, message)


def _unary(fn, arg, offset: int, into=None, slot: int = 0):
    """The closure of a node with one operand, which runs fn on it.  Given
    `into`, fn's ufunc form with ``out=``, it is the closure of a float node
    in both variables: run with an arena as third argument, it writes its
    value into the arena's slot `slot` instead of a new array."""
    if into is None:
        def run(x1, x2):
            try:
                return fn(arg(x1, x2))
            except (DomainError, FloatingPointError) as err:
                raise _failure(offset, err) from err
        return run

    def run_in_slot(x1, x2, arena=None):
        try:
            if arena is None:
                return fn(arg(x1, x2))
            return into(arg(x1, x2, arena), out=arena[slot, ...])
        except (DomainError, FloatingPointError) as err:
            raise _failure(offset, err) from err
    return run_in_slot


def _drop_arena(program):
    return lambda x1, x2, arena: program(x1, x2)


def _binary(fn, left, right, offset: int, into=None, slot: int = 0,
            full=(True, True)):
    """The closure of a node with two operands, as `_unary`'s; `full` says
    which operands are in both variables and so take the arena too."""
    if into is None:
        def run(x1, x2):
            try:
                return fn(left(x1, x2), right(x1, x2))
            except (DomainError, FloatingPointError) as err:
                raise _failure(offset, err) from err
        return run

    left_in = left if full[0] else _drop_arena(left)
    right_in = right if full[1] else _drop_arena(right)

    def run_in_slot(x1, x2, arena=None):
        try:
            if arena is None:
                return fn(left(x1, x2), right(x1, x2))
            return into(left_in(x1, x2, arena), right_in(x1, x2, arena),
                        out=arena[slot, ...])
        except (DomainError, FloatingPointError) as err:
            raise _failure(offset, err) from err
    return run_in_slot


_BOTH = 3  # the variables a node uses, as bits: 1 for x1, 2 for x2


def _compile(node: ExprAst, table: _Table, slot: int = 0):
    """The program ``(x1, x2) -> value`` of node over one table: nested
    closures, one per node, each calling its table function on its
    children's values.  A DomainError or FloatingPointError of that function
    becomes an EvalError at the node's source offset.  Interval programs
    take a natural-number exponent only, so compiling one raises that
    EvalError for the first other `^`, before any evaluation.

    Returns (program, uses, slots).  uses has bit 1 set when node depends on
    x1 and bit 2 when on x2.  In the float table, a node in both variables
    has the full broadcast shape on every input, while on a lattice
    (n, 1) x (1, n) a node in one variable has n elements only; so each node
    in both variables is given a slot of an arena, `slot` for node itself.
    Operands run left to right, as without an arena, so the first failing
    operation is the same; one in both variables holds its slot while the
    next runs in the slot after it, and the node then overwrites its first
    such operand's slot: Sethi-Ullman numbering with the operands in source
    order.  slots is one past the highest slot the subtree writes, 0 if
    none, so the root's is the number of values in both variables that are
    ever live at once."""
    if isinstance(node, Var):
        return (_x1, 1, 0) if node.name == "x1" else (_x2, 2, 0)
    if isinstance(node, Const):
        return _constant(table.const(node.value)), 0, 0
    if isinstance(node, NamedConst):
        return _constant(table.named[node.name]), 0, 0
    if isinstance(node, Neg):
        name, operands = "neg", (node.operand,)
    elif isinstance(node, Call):
        name, operands = node.fn, node.args
    else:
        name, operands = node.op, (node.left, node.right)
    args, full, uses, slots = [], [], 0, 0
    for i, operand in enumerate(operands):
        if i == 1 and name == "^" and table.natural_exponent:
            program, used, top = _constant(_natural_exponent(node)), 0, 0
        else:
            program, used, top = _compile(operand, table, slot + sum(full))
        args.append(program)
        full.append(used == _BOTH)
        uses |= used
        slots = max(slots, top)
    into = None
    if table.into is not None and uses == _BOTH:
        into = table.into[name]
        slots = max(slots, slot + 1)
    if len(args) == 1:
        return _unary(table.ops[name], *args, node.offset, into, slot), uses, slots
    return (_binary(table.ops[name], *args, node.offset, into, slot, full),
            uses, slots)


# compiled programs by (id(node), id(table)); each entry holds a weak
# reference to its node, whose death removes the entry before the id can be
# reused.  Equal trees are not interchangeable: offsets are not compared.
_PROGRAMS: dict = {}


def _program(e: ExprAst, table: _Table):
    """e's program over table and its arena's slot count, compiled once."""
    key = (id(e), id(table))
    hit = _PROGRAMS.get(key)
    if hit is not None and hit[0]() is e:
        return hit[1]
    program, _, slots = _compile(e, table)
    _PROGRAMS[key] = (weakref.ref(e, lambda _ref: _PROGRAMS.pop(key, None)),
                      (program, slots))
    return program, slots


def float_flags() -> np.errstate:
    """A new scope of the float table's IEEE flags: overflow, divide and
    invalid raise FloatingPointError, underflow is silent.  This is their
    one definition.  `eval_point` and `eval_values` enter it per call; the
    solver and branch and bound enter it once per batch and run
    `float_program`s inside it.  Each call makes a new scope, since numpy
    enters one np.errstate only once at a time."""
    return np.errstate(over="raise", divide="raise", invalid="raise",
                       under="ignore")


def float_program(e: ExprAst):
    """The compiled float program ``(x1, x2) -> value`` of e over np.float64
    scalars and arrays.  Inside `float_flags()` it returns a finite value or
    raises the EvalError of its first failing operation.  The value may be
    a scalar, may have fewer elements than the broadcast arguments, and is
    the argument itself for a bare variable.  When e is in both variables,
    the program also takes an arena, as `eval_values` passes it."""
    return _program(e, _FLOATS)[0]


def eval_point(e: ExprAst, x1: float, x2: float) -> float:
    """Evaluate at a point in plain float arithmetic, in its own
    `float_flags()` scope: a finite float, or the EvalError of the first
    operation that fails."""
    with float_flags():
        return float(float_program(e)(np.float64(x1), np.float64(x2)))


def eval_values(e: ExprAst, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Vectorised evaluation over numpy arrays (broadcasting applies), in
    its own `float_flags()` scope: an array of the broadcast shape that
    shares no memory with the arguments, all elements finite, or an
    EvalError.  When e is in both variables, every node in both variables
    writes its value into a slot of one block allocated per call,
    ``np.empty((k, *shape))`` with k fixed at compile time (`_compile`), and
    the root's slot, a view of that block, is returned; so a lattice makes
    no full-size temporary per node.  Otherwise the program's own result is
    returned when it already is a new array of that shape, and a scalar, a
    smaller result or an input is copied out to a fresh array."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    program, slots = _program(e, _FLOATS)
    shape = np.broadcast_shapes(x1.shape, x2.shape)
    with float_flags():
        if slots:
            return program(x1, x2, np.empty((slots, *shape)))
        out = program(x1, x2)
    if isinstance(out, np.ndarray) and out.shape == shape \
            and out is not x1 and out is not x2:
        return out
    return np.broadcast_to(out, shape).copy()


def first_failure(e: ExprAst, x1: np.ndarray, x2: np.ndarray,
                  error: EvalError) -> tuple[int, EvalError]:
    """Where `eval_values(e, x1, x2)` failed with `error`: the row-major index
    of the first failing element of the broadcast arrays, and its own
    EvalError.  Float operations are elementwise, so a prefix of the
    flattened elements fails exactly when it holds a failing one; bisection
    finds the shortest such prefix, whose last element alone fails."""
    x1, x2 = (np.ravel(a) for a in np.broadcast_arrays(x1, x2))
    good, bad = 0, len(x1)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            eval_values(e, x1[:mid], x2[:mid])
            good = mid
        except EvalError as err:
            bad, error = mid, err
    return good, error


def interval_program(e: ExprAst):
    """The compiled enclosure ``(x1, x2) -> (lo, hi)`` of e over endpoint
    pairs: the gradient program's value, with exactly zero derivative seeds.
    Raises EvalError for a `^` without a constant natural exponent."""
    program = _program(e, _GRADIENTS)[0]

    def run(x1, x2):
        return program((x1, _ZERO, _ZERO), (x2, _ZERO, _ZERO))[0]
    return run


def dual_program(e: ExprAst):
    """The compiled derivative program ``(x1, x2) -> (v, d1, d2)`` of e over
    np.float64 scalars and arrays: v is `float_program(e)`'s value, bit for
    bit, and d1, d2 are its partial derivatives in x1 and x2 by the chain
    rule, with each builtin's right-hand slope at its kinks.  Each
    derivative broadcasts with the arguments but may have fewer elements,
    or be the Python float 0.0 or 1.0.  Inside
    `float_flags()` it returns finite values or raises the EvalError of its
    first failing operation."""
    program = _program(e, _DUALS)[0]

    def run(x1, x2):
        return program((x1, 1.0, 0.0), (x2, 0.0, 1.0))
    return run


def gradient_program(e: ExprAst):
    """The compiled first-order enclosure ``(x1, x2) -> (v, d1, d2)`` of e
    over endpoint pairs: v is `interval_program(e)`'s enclosure, and d1, d2
    enclose the partial derivatives (at a kink, every one-sided slope) over
    the box.  Raises EvalError as `interval_program` does."""
    program = _program(e, _GRADIENTS)[0]

    def run(x1, x2):
        return program((x1, _ONE, _ZERO), (x2, _ZERO, _ONE))
    return run


def ramp_breakpoints(e: ExprAst) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The sorted breakpoints of the ramps in e whose argument is the bare
    variable x1, and those of the ramps whose argument is x2: where e may
    change slope along that axis, so a box split there gives halves on which
    each such ramp lies in one closed piece."""
    found = {"x1": set(), "x2": set()}
    # an explicit stack: a nested recursive function would be a
    # function <-> cell cycle left to the cyclic collector on every call
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Call):
            arg = node.args[0]
            if node.fn in _RAMPS and isinstance(arg, Var):
                found[arg.name].update(_RAMPS[node.fn][:2])
            stack.extend(node.args)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, BinOp):
            stack += (node.left, node.right)
    return tuple(sorted(found["x1"])), tuple(sorted(found["x2"]))


def eval_interval(e: ExprAst, x1: Interval, x2: Interval) -> Interval:
    """Rigorous enclosure of the pointwise range of e over the box x1 x x2."""
    return Interval(*interval_program(e)((x1.lo, x1.hi), (x2.lo, x2.hi)))
