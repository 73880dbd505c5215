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
deep, counted together (ExprSyntaxError past it).  A chain of '+'/'-' or
of '*'/'/' is one node however long, so the nesting bound also bounds the
recursion of evaluating, printing, comparing and hashing the tree.
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
              "/": np.divide}
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
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

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

    def chain(self, ops, operand):
        """operand (ops operand)*, left-associative: one node ("chain", first,
        ((op, operand), ...)) for two or more operands; (a+b)+c is a+b+c."""
        node, links = operand(), []
        while self.cur[0] == "op" and self.cur[1] in ops:
            links.append((self.advance()[1], operand()))
        if not links:
            return node
        if node[0] == "chain" and node[2][0][0] in ops:
            return ("chain", node[1], node[2] + tuple(links))
        return ("chain", node, tuple(links))

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
        base = self.unary()
        if self.cur[0] == "op" and self.cur[1] == "^":
            off = self.advance()[2]
            return ("^", base, self.nested(self.factor, off))
        return base

    def unary(self):
        if self.cur[0] == "op" and self.cur[1] == "-":
            off = self.advance()[2]
            return ("neg", self.nested(self.unary, off))
        return self.primary()

    def primary(self):
        kind, text, off = self.cur
        if kind == "num":
            if float(text) == np.inf:
                raise ExprSyntaxError(f"number {text!r} overflows a float", off)
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
            return ("call", text, arg)
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
    if tag == "^":
        return np.power(_eval(node[1], x), _eval(node[2], x))
    acc = _eval(node[1], x)
    for op, arg in node[2]:
        acc = _OPERATORS[op](acc, _eval(arg, x))
    return acc


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
    if tag == "^":
        return f"({_print(node[1])}^{_print(node[2])})"
    links = "".join(op + _print(arg) for op, arg in node[2])
    return f"({_print(node[1])}{links})"


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
        """Fully parenthesized form, each chain of '+'/'-' or '*'/'/' flat in
        one pair of brackets; reparsing it yields an identical tree."""
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
