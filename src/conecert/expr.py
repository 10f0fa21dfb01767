"""Nonlinearity expressions f(x1, x2): parsing and evaluation.

Grammar (standard precedence, ^ binds tighter than unary minus):

    expr    := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | 'x1' | 'x2' | 'pi' | 'e'
             | NAME '(' expr (',' expr)* ')'
             | '(' expr ')'

Builtins: exp, cos, sin, ln, abs, phi, psi, capphi (unary); min, max (binary).
phi, psi and capphi are the saturating piecewise-linear ramps with
breakpoints at 1/2 and 1; negative arguments are clamped to 0 (operators
only ever feed nonnegative functions, but quadrature round-off may produce
-eps).

Evaluation compiles each tree once into nested closures, one per node, over
one of two arithmetic tables: np.float64 scalars and arrays (pointwise, and
vectorised for the solver and the grid oracle), or gradient triples of
outward-rounded endpoint pairs (with the kernels of `interval`: a rigorous
range enclosure and both partial derivative enclosures, for first-order
branch and bound; run with exactly zero derivative seeds, the range
enclosure alone).  Each table supplies every operation: constant lifting,
the named constants, the operators and the builtins.  The float table is
`operator` and numpy ufuncs run with numpy's overflow, divide and invalid
flags raising FloatingPointError (underflow is silent), so from finite
operands it makes a finite value or raises; a literal that overflows to inf
is a ParseError.  Those flags have one definition, `float_flags`: the public
wrappers `eval_point` and `eval_values` enter it per call, while the solver
and branch and bound enter it once per batch and run the compiled
`float_program` directly.  The gradient table raises DomainError.  The
closure of the node whose operation raised turns either into an EvalError
at its source offset.  Compiled programs are cached by node identity, not
by equality (equal trees may carry different offsets), so the hundreds of
evaluations of one expression in a solve or a branch and bound compile it
once.

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
import re
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import interval as iv
from .errors import DomainError
from .interval import E, PI, Interval


class ParseError(Exception):
    """Malformed expression text."""

    def __init__(self, offset: int, message: str, expected: str | None = None):
        self.offset = offset
        self.message = message
        self.expected = expected
        hint = f" (expected {expected})" if expected else ""
        super().__init__(f"at position {offset}: {message}{hint}")


class EvalError(Exception):
    """Evaluation failure, attributed to a node's source offset.

    A failure that depends on the arguments carries its cause, with its
    message: numpy's FloatingPointError for a float operation that
    overflows, divides by zero or is invalid, or a DomainError for an
    interval one (a divisor enclosure containing 0, say).  A failure of the
    expression itself (a non-constant exponent in interval mode) carries
    none."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        self.message = message
        super().__init__(f"at position {offset}: {message}")


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: float
    offset: int = field(default=0, compare=False)

    def __post_init__(self):
        # the float table raises no flag for an operation on an infinite
        # operand (inf - x1 is inf), so a non-finite constant is refused
        if not math.isfinite(self.value):
            raise ValueError(f"constant {self.value!r} is not finite")


@dataclass(frozen=True)
class NamedConst:
    name: str  # "pi" | "e"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str  # "x1" | "x2"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # "+" | "-" | "*" | "/" | "^"
    left: "ExprAst"
    right: "ExprAst"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["ExprAst", ...]
    offset: int = field(default=0, compare=False)


ExprAst = Const | NamedConst | Var | Neg | BinOp | Call

BUILTIN_ARITY = {
    "exp": 1,
    "cos": 1,
    "sin": 1,
    "ln": 1,
    "abs": 1,
    "phi": 1,
    "psi": 1,
    "capphi": 1,
    "min": 2,
    "max": 2,
}

NAMED_CONSTS = ("pi", "e")


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            bad = len(src) - len(stripped)
            raise ParseError(bad, f"unexpected character {src[bad]!r}")
        if m.group("num") is not None:
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(off, f"got {text!r}" if text else "unexpected end of input",
                             expected=repr(op))
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.sum()
        kind, text, off = self.peek()
        if kind != "end":
            raise ParseError(off, f"unexpected trailing input {text!r}")
        return node

    def sum(self) -> ExprAst:
        node = self.product()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.product(), offset=off)
            else:
                return node

    def product(self) -> ExprAst:
        node = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.unary(), offset=off)
            else:
                return node

    def unary(self) -> ExprAst:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.unary(), offset=off)
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        kind, text, off = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            node = BinOp("^", node, self.unary(), offset=off)
        return node

    def atom(self) -> ExprAst:
        kind, text, off = self.advance()
        if kind == "num":
            if not math.isfinite(float(text)):
                raise ParseError(off, f"the number {text} overflows a float")
            return Const(float(text), offset=off)
        if kind == "name":
            if text in ("x1", "x2"):
                return Var(text, offset=off)
            if text in NAMED_CONSTS:
                return NamedConst(text, offset=off)
            if text in BUILTIN_ARITY:
                self.expect_op("(")
                args = [self.sum()]
                while True:
                    k, t, o = self.peek()
                    if k == "op" and t == ",":
                        self.advance()
                        args.append(self.sum())
                    else:
                        break
                self.expect_op(")")
                arity = BUILTIN_ARITY[text]
                if len(args) != arity:
                    raise ParseError(
                        off, f"{text} takes {arity} argument(s), got {len(args)}")
                return Call(text, tuple(args), offset=off)
            raise ParseError(off, f"unknown identifier {text!r}",
                             expected="x1, x2, pi, e or a builtin")
        if kind == "op" and text == "(":
            node = self.sum()
            self.expect_op(")")
            return node
        raise ParseError(off, f"got {text!r}" if text else "unexpected end of input",
                         expected="a number, variable or '('")


def parse_expr(src: str) -> ExprAst:
    """Parse expression text into an AST; raises ParseError with a position."""
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# evaluation: one compiler over two arithmetic tables

# a ramp clips its argument first, so none overflows it; 2z - 1 and 2 - 2z
# are exact on [1/2, 1], so the bits are those of clipping them to [0, 1]

def _clip(v, lo: float, hi: float):
    return np.minimum(np.maximum(v, lo), hi)


def _phi(z):
    return 2.0 * _clip(z, 0.5, 1.0) - 1.0


def _psi(z):
    return _clip(z, 0.0, 1.0)


def _capphi(z):
    return 2.0 - 2.0 * _clip(z, 0.5, 1.0)


@dataclass(frozen=True)
class _Table:
    const: object              # float -> value
    named: dict                # "pi" | "e" -> value
    ops: dict                  # operator, "neg" or builtin name -> function
    natural_exponent: bool     # ^ takes a constant natural exponent only


_FLOATS = _Table(
    const=np.float64,
    named={"pi": np.float64(math.pi), "e": np.float64(math.e)},
    ops={"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": operator.truediv, "^": np.power, "neg": operator.neg, "exp": np.exp,
         "cos": np.cos, "sin": np.sin, "ln": np.log, "abs": np.abs, "phi": _phi,
         "psi": _psi, "capphi": _capphi, "min": np.minimum, "max": np.maximum},
    natural_exponent=False)

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


def _unary(fn, arg, offset: int):
    def run(x1, x2):
        try:
            return fn(arg(x1, x2))
        except (DomainError, FloatingPointError) as err:
            raise _failure(offset, err) from err
    return run


def _binary(fn, left, right, offset: int):
    def run(x1, x2):
        try:
            return fn(left(x1, x2), right(x1, x2))
        except (DomainError, FloatingPointError) as err:
            raise _failure(offset, err) from err
    return run


def _compile(node: ExprAst, table: _Table):
    """The program ``(x1, x2) -> value`` of node over one table: nested
    closures, one per node, each calling its table function on its
    children's values.  A DomainError or FloatingPointError of that function
    becomes an EvalError at the node's source offset.  Interval programs
    take a natural-number exponent only, so compiling one raises that
    EvalError for the first other `^`, before any evaluation."""
    if isinstance(node, Var):
        return _x1 if node.name == "x1" else _x2
    if isinstance(node, Const):
        return _constant(table.const(node.value))
    if isinstance(node, NamedConst):
        return _constant(table.named[node.name])
    if isinstance(node, Neg):
        return _unary(table.ops["neg"], _compile(node.operand, table), node.offset)
    if isinstance(node, Call):
        args = [_compile(a, table) for a in node.args]
        if len(args) == 2:
            return _binary(table.ops[node.fn], *args, node.offset)
        return _unary(table.ops[node.fn], args[0], node.offset)
    left = _compile(node.left, table)
    if node.op == "^" and table.natural_exponent:
        right = _constant(_natural_exponent(node))
    else:
        right = _compile(node.right, table)
    return _binary(table.ops[node.op], left, right, node.offset)


# compiled programs by (id(node), id(table)); each entry holds a weak
# reference to its node, whose death removes the entry before the id can be
# reused.  Equal trees are not interchangeable: offsets are not compared.
_PROGRAMS: dict = {}


def _program(e: ExprAst, table: _Table):
    key = (id(e), id(table))
    hit = _PROGRAMS.get(key)
    if hit is not None and hit[0]() is e:
        return hit[1]
    program = _compile(e, table)
    _PROGRAMS[key] = (weakref.ref(e, lambda _ref: _PROGRAMS.pop(key, None)),
                      program)
    return program


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
    the argument itself for a bare variable."""
    return _program(e, _FLOATS)


def eval_point(e: ExprAst, x1: float, x2: float) -> float:
    """Evaluate at a point in plain float arithmetic, in its own
    `float_flags()` scope: a finite float, or the EvalError of the first
    operation that fails."""
    with float_flags():
        return float(float_program(e)(np.float64(x1), np.float64(x2)))


def eval_values(e: ExprAst, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Vectorised evaluation over numpy arrays (broadcasting applies), in
    its own `float_flags()` scope: a new array of the broadcast shape, all
    elements finite, or an EvalError.  The program's own result is returned
    when it already is such an array; a scalar, a smaller result or an
    input is copied out to that shape."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    with float_flags():
        out = float_program(e)(x1, x2)
    shape = np.broadcast_shapes(x1.shape, x2.shape)
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
    program = _program(e, _GRADIENTS)

    def run(x1, x2):
        return program((x1, _ZERO, _ZERO), (x2, _ZERO, _ZERO))[0]
    return run


def gradient_program(e: ExprAst):
    """The compiled first-order enclosure ``(x1, x2) -> (v, d1, d2)`` of e
    over endpoint pairs: v is `interval_program(e)`'s enclosure, and d1, d2
    enclose the partial derivatives (at a kink, every one-sided slope) over
    the box.  Raises EvalError as `interval_program` does."""
    program = _program(e, _GRADIENTS)

    def run(x1, x2):
        return program((x1, _ONE, _ZERO), (x2, _ZERO, _ONE))
    return run


def ramp_breakpoints(e: ExprAst) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The sorted breakpoints of the ramps in e whose argument is the bare
    variable x1, and those of the ramps whose argument is x2: where e may
    change slope along that axis, so a box split there gives halves on which
    each such ramp lies in one closed piece."""
    found = {"x1": set(), "x2": set()}

    def walk(node):
        if isinstance(node, Call):
            arg = node.args[0]
            if node.fn in _RAMPS and isinstance(arg, Var):
                found[arg.name].update(_RAMPS[node.fn][:2])
            for a in node.args:
                walk(a)
        elif isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, BinOp):
            walk(node.left)
            walk(node.right)

    walk(e)
    return tuple(sorted(found["x1"])), tuple(sorted(found["x2"]))


def eval_interval(e: ExprAst, x1: Interval, x2: Interval) -> Interval:
    """Rigorous enclosure of the pointwise range of e over the box x1 x x2."""
    return Interval(*interval_program(e)((x1.lo, x1.hi), (x2.lo, x2.hi)))
