"""Recursive-descent parser for user-supplied function strings.

Grammar (whitespace insignificant)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?          # '^' right-associative
    unary   := '-' unary | primary
    primary := number | 'x' | ident '(' expr ')' | '(' expr ')'

Numbers are decimal literals with an optional exponent; there is no
implicit multiplication.  Supported functions: sqrt, ln, exp, sin, cos,
atan, abs.  Signs, powers, brackets and calls nest at most _MAX_NESTING
deep, counted together, and the tree, a node for each sign, operator and
call, is at most _MAX_NESTING nodes tall, however long a chain of '+' or
'*' (ExprSyntaxError past either).
"""

from __future__ import annotations

import re
from typing import Union

import numpy as np

from .errors import EvaluationFailure, ExprSyntaxError, UnknownFunction
from .quadrature import _pointwise

__all__ = ["Expr", "parse", "FUNCTIONS"]

FUNCTIONS = {
    "sqrt": np.sqrt,
    "ln": np.log,
    "exp": np.exp,
    "sin": np.sin,
    "cos": np.cos,
    "atan": np.arctan,
    "abs": np.abs,
}
_OPERATORS = {"+": np.add, "-": np.subtract, "*": np.multiply,
              "/": np.divide, "^": np.power}
_MAX_NESTING = 100

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", pos,
                                  ("number", "identifier", "operator"))
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.height = 0  # of the tree parsed last

    @property
    def cur(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.cur
        if kind == "op" and text == op:
            return self.advance()
        raise ExprSyntaxError(f"expected {op!r}, found {text or 'end of input'!r}",
                              off, (op,))

    def nested(self, parse, off):
        """parse() one level deeper, for the operator or bracket at off."""
        if self.depth == _MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {_MAX_NESTING}", off)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def grown(self, node, off, left=0):
        """node, made at off over the subtree parsed last and one ``left``
        nodes tall."""
        below = max(left, self.height)
        if below == _MAX_NESTING:
            raise ExprSyntaxError(f"tree taller than {_MAX_NESTING}", off)
        self.height = below + 1
        return node

    def chain(self, ops, operand):
        """operand (ops operand)*, left-associative."""
        node = operand()
        while self.cur[0] == "op" and self.cur[1] in ops:
            left, (_, op, off) = self.height, self.advance()
            node = self.grown(("bin", op, node, operand()), off, left)
        return node

    def parse(self):
        tree = self.expr()
        kind, text, off = self.cur
        if kind != "end":
            raise ExprSyntaxError(f"trailing input {text!r}", off, ("end of input",))
        return tree

    def expr(self):
        return self.chain("+-", self.term)

    def term(self):
        return self.chain("*/", self.factor)

    def factor(self):
        base, left = self.unary(), self.height
        if self.cur[0] == "op" and self.cur[1] == "^":
            off = self.advance()[2]
            power = self.nested(self.factor, off)
            return self.grown(("bin", "^", base, power), off, left)
        return base

    def unary(self):
        if self.cur[0] == "op" and self.cur[1] == "-":
            off = self.advance()[2]
            return self.grown(("neg", self.nested(self.unary, off)), off)
        return self.primary()

    def primary(self):
        kind, text, off = self.cur
        self.height = 0
        if kind == "num":
            self.advance()
            return ("num", float(text))
        if kind == "ident":
            self.advance()
            if text == "x":
                return ("x",)
            if text not in FUNCTIONS:
                raise UnknownFunction(f"unknown function {text!r}", off,
                                      tuple(FUNCTIONS))
            self.expect_op("(")
            arg = self.nested(self.expr, off)
            self.expect_op(")")
            return self.grown(("call", text, arg), off)
        if kind == "op" and text == "(":
            self.advance()
            node = self.nested(self.expr, off)
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {text or 'end of input'!r}", off,
                              ("number", "x", "function", "("))


def _eval(node, x: np.ndarray) -> np.ndarray:
    tag = node[0]
    if tag == "num":
        return np.full_like(x, node[1])
    if tag == "x":
        return x
    if tag == "neg":
        return -_eval(node[1], x)
    if tag == "call":
        return FUNCTIONS[node[1]](_eval(node[2], x))
    _, op, lhs, rhs = node
    return _OPERATORS[op](_eval(lhs, x), _eval(rhs, x))


def _print(node) -> str:
    tag = node[0]
    if tag == "num":
        return repr(node[1])
    if tag == "x":
        return "x"
    if tag == "neg":
        return f"(-{_print(node[1])})"
    if tag == "call":
        return f"{node[1]}({_print(node[2])})"
    _, op, lhs, rhs = node
    return f"({_print(lhs)}{op}{_print(rhs)})"


class Expr:
    """Immutable parsed expression; evaluates on scalars or ndarrays."""

    __slots__ = ("tree", "source")

    def __init__(self, tree, source: str):
        self.tree = tree
        self.source = source

    def evaluate(self, x: Union[float, np.ndarray]):
        """The expression at x: a Python float for a 0-d x, an array of
        x's shape otherwise."""
        return _pointwise(self._evaluate_flat, x)

    def _evaluate_flat(self, xs: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            vals = np.asarray(_eval(self.tree, xs), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvaluationFailure(
                f"{self.source!r} is non-finite at some requested point")
        return vals

    __call__ = evaluate

    def canonical(self) -> str:
        """Fully parenthesized form; reparsing it yields an identical tree."""
        return _print(self.tree)

    def __eq__(self, other):
        return isinstance(other, Expr) and self.tree == other.tree

    def __hash__(self):
        return hash(("Expr", repr(self.tree)))

    def __repr__(self):
        return f"Expr({self.source!r})"


def parse(src: str) -> Expr:
    """Parse an expression string into an evaluable tree."""
    if not src or not src.strip():
        raise ExprSyntaxError("empty expression", 0, ("expression",))
    return Expr(_Parser(src).parse(), src)
