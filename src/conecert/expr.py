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

Evaluation is one recursive walk over the tree, run over one of two
arithmetic tables: plain floats and numpy arrays (pointwise, and vectorised
for the solver and the grid oracle), or outward-rounded Intervals (rigorous
range enclosure).  +, -, * and negation are the operators both value
types share; each table supplies the rest: constant lifting, the named
constants, /, ^ and the builtins.  Both tables signal a domain violation with
DomainError, which the walk turns into an EvalError at the node's source
offset.

The ramps are monotone (phi and psi nondecreasing, capphi nonincreasing) and
exact in float arithmetic (2z - 1 and 2 - 2z by Sterbenz's lemma on
[1/2, 1]), so the interval image of a ramp is the float ramp applied to the
two endpoints.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

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
    nonpositive value, an interval divisor containing 0) carries the
    DomainError as its ``__cause__``; a failure of the expression itself
    (a non-constant exponent in interval mode) carries none."""

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
# evaluation: one walk over two arithmetic tables

def _clip01(v):
    return np.minimum(np.maximum(v, 0.0), 1.0)


def _phi(z):
    return _clip01(2.0 * z - 1.0)


def _psi(z):
    return _clip01(z)


def _capphi(z):
    return _clip01(2.0 - 2.0 * z)


def _div(a, b):
    if np.any(np.asarray(b) == 0.0):
        raise DomainError("division by zero")
    return a / b


def _pow(a, b):
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        out = np.power(np.asarray(a, dtype=float), b)
    if not np.all(np.isfinite(out)):
        raise DomainError("power produced a non-finite value")
    return out


def _exp(a):
    with np.errstate(over="ignore"):
        out = np.exp(a)
    if not np.all(np.isfinite(out)):
        raise DomainError("exp overflow")
    return out


def _ln(a):
    if np.any(np.asarray(a) <= 0.0):
        raise DomainError("ln of a nonpositive value")
    return np.log(a)


def _rising(ramp):
    return lambda z: Interval(ramp(z.lo), ramp(z.hi))


def _falling(ramp):
    return lambda z: Interval(ramp(z.hi), ramp(z.lo))


@dataclass(frozen=True)
class _Arithmetic:
    const: object              # float -> value
    named: dict                # "pi" | "e" -> value
    div: object
    pow: object                # (base, exponent value or natural int) -> value
    unary: dict
    binary: dict
    natural_exponent: bool     # ^ takes a constant natural exponent only


_FLOATS = _Arithmetic(
    const=float,
    named={"pi": math.pi, "e": math.e},
    div=_div,
    pow=_pow,
    unary={"exp": _exp, "cos": np.cos, "sin": np.sin, "ln": _ln, "abs": np.abs,
           "phi": _phi, "psi": _psi, "capphi": _capphi},
    binary={"min": np.minimum, "max": np.maximum},
    natural_exponent=False)

_INTERVALS = _Arithmetic(
    const=Interval.point,
    named={"pi": PI, "e": E},
    div=Interval.__truediv__,
    pow=Interval.pow_nat,
    unary={"exp": Interval.exp, "cos": Interval.cos, "sin": Interval.sin,
           "ln": Interval.log, "abs": Interval.abs, "phi": _rising(_phi),
           "psi": _rising(_psi), "capphi": _falling(_capphi)},
    binary={"min": Interval.min_with, "max": Interval.max_with},
    natural_exponent=True)


def _natural_exponent(node: BinOp) -> int:
    e = node.right
    if not isinstance(e, Const) or e.value < 0 or not e.value.is_integer():
        raise EvalError(node.offset,
                        "interval mode requires a constant natural exponent")
    return int(e.value)


def check_natural_exponents(e: ExprAst) -> None:
    """Raise the interval walk's EvalError for the first `^` without a
    constant natural exponent, which a walk failing earlier never reaches."""
    if isinstance(e, BinOp):
        check_natural_exponents(e.left)
        if e.op == "^":
            _natural_exponent(e)
        else:
            check_natural_exponents(e.right)
    elif isinstance(e, Neg):
        check_natural_exponents(e.operand)
    elif isinstance(e, Call):
        for arg in e.args:
            check_natural_exponents(arg)


def _walk(node: ExprAst, x1, x2, ar: _Arithmetic):
    if isinstance(node, BinOp):
        a = _walk(node.left, x1, x2, ar)
        op = node.op
        if op == "^":
            fn = ar.pow
            b = (_natural_exponent(node) if ar.natural_exponent
                 else _walk(node.right, x1, x2, ar))
        else:
            b = _walk(node.right, x1, x2, ar)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            fn = ar.div
    elif isinstance(node, Var):
        return x1 if node.name == "x1" else x2
    elif isinstance(node, Const):
        return ar.const(node.value)
    elif isinstance(node, Call):
        args = node.args
        a = _walk(args[0], x1, x2, ar)
        if len(args) == 2:
            return ar.binary[node.fn](a, _walk(args[1], x1, x2, ar))
        fn, b = ar.unary[node.fn], None
    elif isinstance(node, Neg):
        return -_walk(node.operand, x1, x2, ar)
    else:
        return ar.named[node.name]
    # only /, ^ and the unary builtins can leave their domain
    try:
        return fn(a) if b is None else fn(a, b)
    except DomainError as err:
        raise EvalError(node.offset, str(err)) from err


def eval_point(e: ExprAst, x1: float, x2: float) -> float:
    """Evaluate at a point in plain float arithmetic."""
    return float(_walk(e, np.float64(x1), np.float64(x2), _FLOATS))


def eval_values(e: ExprAst, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Vectorised evaluation over numpy arrays (broadcasting applies)."""
    out = _walk(e, np.asarray(x1, dtype=float), np.asarray(x2, dtype=float),
                _FLOATS)
    return np.broadcast_to(np.asarray(out, dtype=float),
                           np.broadcast_shapes(np.shape(x1), np.shape(x2))).copy()


def eval_interval(e: ExprAst, x1: Interval, x2: Interval) -> Interval:
    """Rigorous enclosure of the pointwise range of e over the box x1 x x2."""
    return _walk(e, x1, x2, _INTERVALS)
