"""Nonlinearity expressions f(x1, x2): compilation and evaluation.

`syntax` parses expression text into a tree (its names stay importable
from here); this module compiles and evaluates the trees.  phi, psi and
capphi are the saturating piecewise-linear ramps with breakpoints at 1/2
and 1; negative arguments are clamped to 0 (operators only ever feed
nonnegative functions, but quadrature round-off may produce -eps).

Evaluation compiles each tree once into nested closures, one per node, over
an arithmetic table.  The float table runs np.float64 scalars and arrays
(pointwise, and vectorised for the solver and the grid oracle).  Two
derivative tables carry each value with its two partial derivatives: the
dual table at points, over the same scalars and arrays (for the solver's
Newton step), and the gradient table over outward-rounded endpoint pairs
(the kernels of `interval`: a rigorous range enclosure and both partial
derivative enclosures, for first-order branch and bound; run with exactly
zero derivative seeds, the range enclosure alone).  One builder,
`_derivative_table`, makes both from one set of derivative rules over two
arithmetics, each its value ops and its exact-zero-aware derivative
primitives; the tables differ only in their slopes at a kink, their min
and max, and their `^`.  The float table is `operator` and numpy ufuncs
run with numpy's overflow, divide and invalid flags raising FloatingPointError
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
slope (`_pair_ramp_slope`).  `ramp_breakpoints` lists the breakpoints of
the ramps applied to a bare variable, where branch and bound splits a box
so that each half lies in one piece of them.
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
    into: dict | None = None   # the ops with an `out=` argument, by name
    natural_power: object = None  # n -> the rule of u^n, for a table whose
                                  # ^ takes a constant natural exponent only


_FLOATS = _Table(
    const=np.float64,
    named={"pi": np.float64(math.pi), "e": np.float64(math.e)},
    ops={"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv, "^": np.power, "neg": operator.neg, "exp": np.exp,
         "cos": np.cos, "sin": np.sin, "ln": np.log, "abs": np.abs, "phi": _phi,
         "psi": _psi, "capphi": _capphi, "min": np.minimum, "max": np.maximum},
    into={"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide,
          "^": np.power, "neg": np.negative, "exp": np.exp, "cos": np.cos,
          "sin": np.sin, "ln": np.log, "abs": np.abs, "phi": _phi_into,
          "psi": _psi_into, "capphi": _capphi_into,
          "min": np.minimum, "max": np.maximum})

# The derivative tables: each value is (v, d1, d2), f and its partial
# derivatives in x1 and x2 (forward-mode differentiation; Griewank & Walther
# 2008).  `_derivative_table` states each rule once over an arithmetic, its
# value ops and derivative primitives; the kink slopes, min and max, and ^
# are passed in.  An exactly zero derivative (of a constant, of a term in
# one variable, or of every term under zero seeds) stays exactly zero, and a
# product with an exact 1 (a bare variable's derivative) is exact.
#
# The gradient table runs over outward-rounded endpoint pairs (`interval`'s
# kernels): v, d1 and d2 enclose f and its partial derivatives over the box.
# Rounding 0 + d or 0 * d outward would hide the zero that makes f constant
# in x_k, and 1 * d would turn the slope [0, 2] of a ramp of x_k into
# [-5e-324, 2.0000000000000004].  A ramp whose argument enclosure lies in one
# closed piece takes that piece's slope; at a kink strictly inside the
# enclosure a builtin takes the hull of its one-sided slopes (its Clarke
# generalized gradient), and min and max the hull of both operands'
# derivatives where their ranges overlap, so by Lebourg's mean-value theorem
# a sign-definite d_k proves f monotone in x_k on the closed box.  ^ takes a
# constant natural exponent only.
#
# The dual table runs over np.float64 scalars and arrays, at points: v comes
# from the float table's own op, so it has `float_program`'s bits.  At a kink
# each builtin takes its right-hand slope: a ramp on a breakpoint the slope
# of the piece to its right, abs at 0 the slope 1, and min and max at a tie
# the min and the max of the operands' derivatives.  ^ takes any exponent.
# An exact 0.0 or 1.0 derivative stays a Python float, which costs no array
# operation; every other derivative runs through numpy ufuncs, which raise
# under `float_flags`.


@dataclass(frozen=True)
class _Arithmetic:
    value: dict    # "+", "-", "*", "/", "neg" or builtin name -> value op
    lift: object   # float -> value
    named: dict    # "pi" | "e" -> value
    zero: object   # the exactly zero derivative, of type `kind`
    kind: type
    # the derivative primitives, exact where an operand is exactly zero (and
    # mul where one is exactly one)
    add: object    # d + d
    sub: object    # d - d
    neg: object    # -d
    mul: object    # s * d, for a value or slope s
    div: object    # d / v, for a value v


def _derivative_table(a: _Arithmetic, *, ramp_slope, abs_slope, minimum,
                      maximum, power, natural_exponent: bool) -> _Table:
    """The table of (v, d1, d2) values over arithmetic a.  ramp_slope(lo,
    hi, s) is the slope(u, value) of a ramp with breakpoints lo and hi and
    slope s between them, and abs_slope abs's; minimum and maximum are the
    rules of min and max.  power is the rule of ^, or, where natural_exponent,
    the value op and slope of u^n for a natural number n."""
    value = a.value
    v_add, v_sub, v_mul, v_div = value["+"], value["-"], value["*"], value["/"]
    v_neg, v_cos, v_sin = value["neg"], value["cos"], value["sin"]
    zero, kind = a.zero, a.kind
    plus, minus, negate, times, over = a.add, a.sub, a.neg, a.mul, a.div
    one = a.lift(1.0)

    def const(v):
        return a.lift(v), zero, zero

    def add(x, y):
        return v_add(x[0], y[0]), plus(x[1], y[1]), plus(x[2], y[2])

    def sub(x, y):
        return v_sub(x[0], y[0]), minus(x[1], y[1]), minus(x[2], y[2])

    def neg(x):
        return v_neg(x[0]), negate(x[1]), negate(x[2])

    def mul(x, y):
        u, w = x[0], y[0]
        return (v_mul(u, w), plus(times(w, x[1]), times(u, y[1])),
                plus(times(w, x[2]), times(u, y[2])))

    def div(x, y):
        # (u/w)' = (u' - (u/w) w') / w; the value op fails on w = 0 first
        w = y[0]
        q = v_div(x[0], w)
        d1 = minus(x[1], times(q, y[1]))
        d2 = minus(x[2], times(q, y[2]))
        return q, over(d1, w), over(d2, w)

    def chain(fn, slope):
        """The rule of the unary value op fn, whose derivative at u is
        slope(u, fn(u)).  Where both derivatives of u are exactly zero, as
        in every run of `interval_program`, slope is not run."""
        def run(x):
            u, d1, d2 = x
            v = fn(u)
            # the type first: == on an array derivative is elementwise
            if type(d1) is kind and d1 == zero and type(d2) is kind and d2 == zero:
                return v, zero, zero
            s = slope(u, v)
            return v, times(s, d1), times(s, d2)
        return run

    ops = {"+": add, "-": sub, "*": mul, "/": div, "neg": neg,
           "exp": chain(value["exp"], lambda _, e: e),
           "cos": chain(v_cos, lambda u, _: v_neg(v_sin(u))),
           "sin": chain(v_sin, lambda u, _: v_cos(u)),
           # the value op fails on u <= 0 before the slope divides by it
           "ln": chain(value["ln"], lambda u, _: v_div(one, u)),
           "abs": chain(value["abs"], abs_slope),
           "min": minimum, "max": maximum}
    for name, (lo, hi, s) in _RAMPS.items():
        ops[name] = chain(value[name], ramp_slope(lo, hi, s))
    named = {name: (v, zero, zero) for name, v in a.named.items()}
    if natural_exponent:
        return _Table(const, named, ops, natural_power=lambda n: chain(*power(n)))
    return _Table(const, named, {**ops, "^": power})


# each ramp's breakpoints and its slope between them (0 outside)
_RAMPS = {"phi": (0.5, 1.0, 2.0), "psi": (0.0, 1.0, 1.0), "capphi": (0.5, 1.0, -2.0)}

# the pair arithmetic's derivative primitives and kink rules

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


def _ddiv(d, v):
    return _ZERO if d == _ZERO else iv.div(d, v)


def _pair_ramp_slope(lo: float, hi: float, s: float):
    """The slope enclosure over u of a continuous function that is constant
    on (-inf, lo] and on [hi, inf) and affine with slope s on [lo, hi]."""
    # An enclosure inside one closed piece takes that piece's slope, even
    # where an end touches a breakpoint: over such a box the ramp equals
    # that affine (or constant) piece of u, so f is the smooth expression
    # with the ramp replaced by it, and the mean-value theorem holds with
    # its slope.  Only an enclosure that strictly straddles a breakpoint
    # needs the hull of both slopes.
    piece, hull = (s, s), (min(0.0, s), max(0.0, s))

    def slope(u, _):
        if u[1] <= lo or u[0] >= hi:
            return _ZERO
        return piece if lo <= u[0] and u[1] <= hi else hull
    return slope


def _pair_abs_slope(u, _):
    if u[0] > 0.0:
        return _ONE
    return (-1.0, -1.0) if u[1] < 0.0 else (-1.0, 1.0)


def _hull(a, b):
    return min(a[0], b[0]), max(a[1], b[1])


def _pair_minmax(value, lower: bool):
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


def _pair_power(n: int):
    """u^n's value op and its slope n u^(n-1), exact for n = 0 and 1."""
    if n < 2:
        exact = _ONE if n else _ZERO
        return (lambda u: iv.pow_nat(u, n)), (lambda u, _: exact)
    factor = (float(n), float(n))
    return ((lambda u: iv.pow_nat(u, n)),
            (lambda u, _: iv.mul(factor, iv.pow_nat(u, n - 1))))


_GRADIENTS = _derivative_table(
    _Arithmetic(
        value={"+": iv.add, "-": iv.sub, "*": iv.mul, "/": iv.div, "neg": iv.neg,
               "exp": iv.exp, "cos": iv.cos, "sin": iv.sin, "ln": iv.log,
               "abs": iv.absolute, "phi": iv.phi, "psi": iv.psi,
               "capphi": iv.capphi},
        lift=lambda v: (v, v), named={"pi": (PI.lo, PI.hi), "e": (E.lo, E.hi)},
        zero=_ZERO, kind=tuple,
        add=_dadd, sub=_dsub, neg=iv.neg, mul=_dmul, div=_ddiv),
    ramp_slope=_pair_ramp_slope, abs_slope=_pair_abs_slope,
    minimum=_pair_minmax(iv.minimum, True), maximum=_pair_minmax(iv.maximum, False),
    power=_pair_power, natural_exponent=True)

# the point arithmetic's derivative primitives and kink rules


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


def _negate(d):
    return 0.0 if _zero(d) else np.negative(d)


def _times(s, d):
    # the factor s is a value or a slope, never a Python float
    if _zero(d):
        return 0.0
    return s if type(d) is float else np.multiply(s, d)


def _over(d, w):
    return 0.0 if _zero(d) else np.divide(d, w)


def _point_ramp_slope(lo: float, hi: float, s: float):
    # the slope of the piece to the right of u: s on [lo, hi), 0 elsewhere
    return lambda u, _: np.where((u >= lo) & (u < hi), s, 0.0)


def _point_abs_slope(u, _):
    return np.where(u >= 0.0, 1.0, -1.0)


def _point_minmax(fn, strictly):
    """The rule of min (fn = np.minimum, strictly = np.less) or max
    (np.maximum, np.greater): the derivative of the operand that is strictly
    the result, and at a tie the min or the max of both operands'
    derivatives."""
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


def _point_power(x, y):
    # (u^w)' = w u^(w-1) u' + u^w ln(u) w', each term only where its u' or
    # w' is not exactly zero; with a constant exponent 0, u^0 is constant
    u, w = x[0], y[0]
    value = np.power(u, w)
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


_DUALS = _derivative_table(
    _Arithmetic(value=_FLOATS.ops, lift=np.float64, named=_FLOATS.named,
                zero=0.0, kind=float,
                add=_plus, sub=_minus, neg=_negate, mul=_times, div=_over),
    ramp_slope=_point_ramp_slope, abs_slope=_point_abs_slope,
    minimum=_point_minmax(np.minimum, np.less),
    maximum=_point_minmax(np.maximum, np.greater),
    power=_point_power, natural_exponent=False)


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
    take a natural-number exponent only: u^n is then a node with one
    operand, running the table's rule of u^n, and compiling raises that
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
    natural = name == "^" and table.natural_power is not None
    if natural:
        operands = (node.left,)
    args, full, uses, slots = [], [], 0, 0
    for operand in operands:
        program, used, top = _compile(operand, table, slot + sum(full))
        args.append(program)
        full.append(used == _BOTH)
        uses |= used
        slots = max(slots, top)
    into = None
    if table.into is not None and uses == _BOTH:
        into = table.into[name]
        slots = max(slots, slot + 1)
    fn = table.natural_power(_natural_exponent(node)) if natural else table.ops[name]
    if len(args) == 1:
        return _unary(fn, *args, node.offset, into, slot), uses, slots
    return _binary(fn, *args, node.offset, into, slot, full), uses, slots


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
