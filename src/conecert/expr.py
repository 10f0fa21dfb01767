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
one of three arithmetic tables: plain floats and numpy arrays (pointwise, and
vectorised for the solver and the grid oracle), outward-rounded endpoint
pairs (rigorous range enclosure, with the kernels of `interval`), or
gradient triples of such pairs (the enclosure and both partial derivative
enclosures, for first-order branch and bound).  Each table supplies every
operation: constant lifting, the named constants, the operators and the
builtins.  Every table signals a domain violation with DomainError (the
float table also with numpy's FloatingPointError for an operation that
makes a NaN), which the node's closure turns into an EvalError at its
source offset.  Compiled programs are cached by node identity, not by
equality (equal trees may carry different offsets), so the hundreds of
evaluations of one expression in a solve or a branch and bound compile it
once.

The ramps are monotone (phi and psi nondecreasing, capphi nonincreasing) and
exact in float arithmetic (2z - 1 and 2 - 2z by Sterbenz's lemma on
[1/2, 1]), so the interval image of a ramp is the float ramp applied to the
two endpoints.
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

    A failure that depends on the arguments (division by zero, ln of a
    nonpositive value, an interval divisor containing 0, a float operation
    that makes a NaN) carries the DomainError or numpy's FloatingPointError
    as its ``__cause__``; a failure of the expression itself (a non-constant
    exponent in interval mode) carries none."""

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
# unparsing (precedence-aware; unparse(parse(s)) reparses to an equal tree)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _prec(node: ExprAst) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return _PREC["atom"]


def unparse(node: ExprAst) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, NamedConst):
        return node.name
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = unparse(node.operand)
        if _prec(node.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(unparse(a) for a in node.args)})"
    p = _PREC[node.op]
    left = unparse(node.left)
    right = unparse(node.right)
    if node.op == "^":
        # right-associative
        if _prec(node.left) <= p:
            left = f"({left})"
        if _prec(node.right) < p:
            right = f"({right})"
    else:
        if _prec(node.left) < p:
            left = f"({left})"
        if _prec(node.right) <= p:
            right = f"({right})"
    return f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"


# ---------------------------------------------------------------------------
# evaluation: one compiler over two arithmetic tables

def _clip01(v):
    return np.minimum(np.maximum(v, 0.0), 1.0)


def _phi(z):
    return _clip01(2.0 * z - 1.0)


def _psi(z):
    return _clip01(z)


def _capphi(z):
    return _clip01(2.0 - 2.0 * z)


# domain checks on a float or an array; a numpy reduction costs microseconds
# on a scalar, so scalars are tested directly

def _any(mask) -> bool:
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


def _all_finite(v) -> bool:
    return bool(np.isfinite(v).all()) if isinstance(v, np.ndarray) else math.isfinite(v)


def _div(a, b):
    if _any(b == 0.0):
        raise DomainError("division by zero")
    return a / b


def _pow(a, b):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        out = np.power(np.asarray(a, dtype=float), b)
    if not _all_finite(out):
        raise DomainError("power produced a non-finite value")
    return out


def _exp(a):
    with np.errstate(over="ignore"):
        out = np.exp(a)
    if not _all_finite(out):
        raise DomainError("exp overflow")
    return out


def _trig(name, fn):
    def run(a):
        if not _all_finite(a):
            raise DomainError(f"{name} of a non-finite value")
        return fn(a)
    return run


def _ln(a):
    if _any(a <= 0.0):
        raise DomainError("ln of a nonpositive value")
    return np.log(a)


@dataclass(frozen=True)
class _Table:
    const: object              # float -> value
    named: dict                # "pi" | "e" -> value
    ops: dict                  # operator, "neg" or builtin name -> function
    natural_exponent: bool     # ^ takes a constant natural exponent only


_FLOATS = _Table(
    const=float,
    named={"pi": math.pi, "e": math.e},
    ops={"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _div,
         "^": _pow, "neg": operator.neg, "exp": _exp, "cos": _trig("cos", np.cos),
         "sin": _trig("sin", np.sin), "ln": _ln, "abs": np.abs, "phi": _phi,
         "psi": _psi, "capphi": _capphi, "min": np.minimum, "max": np.maximum},
    natural_exponent=False)

_PAIRS = _Table(
    const=lambda v: (v, v),
    named={"pi": (PI.lo, PI.hi), "e": (E.lo, E.hi)},
    ops={"+": iv.add, "-": iv.sub, "*": iv.mul, "/": iv.div, "^": iv.pow_nat,
         "neg": iv.neg, "exp": iv.exp, "cos": iv.cos, "sin": iv.sin, "ln": iv.log,
         "abs": iv.absolute, "phi": iv.phi, "psi": iv.psi, "capphi": iv.capphi,
         "min": iv.minimum, "max": iv.maximum},
    natural_exponent=True)


# The gradient table: each value is (v, d1, d2), three endpoint pairs that
# enclose f and its partial derivatives in x1 and x2 over the box, built
# from the pair kernels by the sum, product, quotient and chain rules.  v is
# the pair table's value bit for bit.  At a kink a builtin takes the hull of
# its one-sided slopes (its Clarke generalized gradient), so by Lebourg's
# mean-value theorem a sign-definite d_k proves f monotone in x_k on the
# closed box.  An exactly zero derivative (of a constant, or of a term in
# one variable only) stays exactly zero: 0 + d and 0 * d are exact, and
# rounding them outward would hide the zero that makes f constant in x_k.

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
    return _ZERO if s == _ZERO or d == _ZERO else iv.mul(s, d)


def _chain(value, slope, x):
    """(value, slope * d1, slope * d2) for a unary function of x."""
    return value, _dmul(slope, x[1]), _dmul(slope, x[2])


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
    u = x[0]
    slope = iv.mul((float(n), float(n)), iv.pow_nat(u, n - 1))
    return _chain(iv.pow_nat(u, n), slope, x)


def _g_exp(x):
    e = iv.exp(x[0])
    return _chain(e, e, x)


def _g_log(x):
    u = x[0]
    value = iv.log(u)  # rejects u touching 0 before the slope divides by it
    return _chain(value, iv.div(_ONE, u), x)


def _g_cos(x):
    u = x[0]
    return _chain(iv.cos(u), iv.neg(iv.sin(u)), x)


def _g_sin(x):
    u = x[0]
    return _chain(iv.sin(u), iv.cos(u), x)


def _kink_slope(u, lo: float, hi: float, s: float):
    """Slope enclosure over u of a function with slope s on (lo, hi) and 0
    outside [lo, hi]: the hull of both when u touches a breakpoint."""
    if u[1] < lo or u[0] > hi:
        return _ZERO
    if lo < u[0] and u[1] < hi:
        return s, s
    return min(0.0, s), max(0.0, s)


def _g_ramp(fn, lo: float, hi: float, s: float):
    def run(x):
        return _chain(fn(x[0]), _kink_slope(x[0], lo, hi, s), x)
    return run


def _g_abs(x):
    u = x[0]
    if u[0] > 0.0:
        slope = _ONE
    elif u[1] < 0.0:
        slope = (-1.0, -1.0)
    else:
        slope = (-1.0, 1.0)
    return _chain(iv.absolute(u), slope, x)


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
         "abs": _g_abs, "phi": _g_ramp(iv.phi, 0.5, 1.0, 2.0),
         "psi": _g_ramp(iv.psi, 0.0, 1.0, 1.0),
         "capphi": _g_ramp(iv.capphi, 0.5, 1.0, -2.0),
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


def _unary(fn, arg, offset: int):
    def run(x1, x2):
        try:
            return fn(arg(x1, x2))
        except (DomainError, FloatingPointError) as err:
            raise EvalError(offset, str(err)) from err
    return run


def _binary(fn, left, right, offset: int):
    def run(x1, x2):
        try:
            return fn(left(x1, x2), right(x1, x2))
        except (DomainError, FloatingPointError) as err:
            raise EvalError(offset, str(err)) from err
    return run


def _compile(node: ExprAst, table: _Table):
    """The program ``(x1, x2) -> value`` of node over one table: nested
    closures, one per node, each calling its table function on its
    children's values.  A DomainError of that function becomes an EvalError
    at the node's source offset.  Interval programs take a natural-number
    exponent only, so compiling one raises that EvalError for the first
    other `^`, before any evaluation."""
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


# Float programs run with overflow silent (an infinite value is what the
# table's domain checks test for) and an invalid operation raising: inf - inf
# or 0 * inf raises FloatingPointError, which the closure of the operation
# that made the NaN turns into its EvalError.

@np.errstate(over="ignore", invalid="raise")
def eval_point(e: ExprAst, x1: float, x2: float) -> float:
    """Evaluate at a point in plain float arithmetic."""
    return float(_program(e, _FLOATS)(np.float64(x1), np.float64(x2)))


@np.errstate(over="ignore", invalid="raise")
def eval_values(e: ExprAst, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Vectorised evaluation over numpy arrays (broadcasting applies)."""
    out = _program(e, _FLOATS)(np.asarray(x1, dtype=float),
                               np.asarray(x2, dtype=float))
    return np.broadcast_to(np.asarray(out, dtype=float),
                           np.broadcast_shapes(np.shape(x1), np.shape(x2))).copy()


def interval_program(e: ExprAst):
    """The compiled enclosure ``(x1, x2) -> (lo, hi)`` of e over endpoint
    pairs; raises EvalError for a `^` without a constant natural exponent."""
    return _program(e, _PAIRS)


def gradient_program(e: ExprAst):
    """The compiled first-order enclosure ``(x1, x2) -> (v, d1, d2)`` of e
    over endpoint pairs: v is `interval_program(e)`'s enclosure bit for bit,
    and d1, d2 enclose the partial derivatives (at a kink, every one-sided
    slope) over the box.  Raises EvalError as `interval_program` does."""
    program = _program(e, _GRADIENTS)

    def run(x1, x2):
        return program((x1, _ONE, _ZERO), (x2, _ZERO, _ONE))
    return run


def eval_interval(e: ExprAst, x1: Interval, x2: Interval) -> Interval:
    """Rigorous enclosure of the pointwise range of e over the box x1 x x2."""
    return Interval(*interval_program(e)((x1.lo, x1.hi), (x2.lo, x2.hi)))
