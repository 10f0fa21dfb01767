"""Nonlinearity expressions f(x1, x2): the syntax tree and its parser.

Grammar (standard precedence, ^ binds tighter than unary minus):

    expr    := product (('+' | '-') product)*
    product := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?          # right-associative
    atom    := NUMBER | 'x1' | 'x2' | 'pi' | 'e'
             | NAME '(' expr (',' expr)* ')'
             | '(' expr ')'

Builtins: exp, cos, sin, ln, abs, phi, psi, capphi (unary); min, max (binary).
Each node carries the source offset of its operator or token, which is not
compared: equal trees may sit at different offsets.  A literal that
overflows to inf is a ParseError, and `Const` refuses a non-finite value.
Parsing needs no numpy; `expr` compiles and evaluates the trees.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ParseError


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
