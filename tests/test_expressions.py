import math
import sys

import numpy as np
import pytest

from secmeasure import EvaluationFailure, ExprSyntaxError, UnknownFunction
from secmeasure.expressions import parse


def test_precedence_and_value():
    e = parse("1+2*3^2")
    assert e.evaluate(0.0) == 19.0


def test_power_right_associative():
    assert parse("2^3^2").evaluate(0.0) == 512.0


def test_unary_minus():
    assert parse("-x^2").evaluate(3.0) == 9.0  # (-x)^2
    assert parse("3--2").evaluate(0.0) == 5.0


def test_functions():
    x = 0.37
    cases = {
        "sqrt(x)": math.sqrt(x),
        "ln(x)": math.log(x),
        "exp(x)": math.exp(x),
        "sin(x)+cos(x)": math.sin(x) + math.cos(x),
        "atan(x)": math.atan(x),
        "abs(-x)": x,
    }
    for src, want in cases.items():
        assert abs(parse(src).evaluate(x) - want) < 1e-15


def test_vectorized_evaluation():
    xs = np.linspace(0.1, 2.0, 7)
    got = parse("x^2/(1+x)").evaluate(xs)
    np.testing.assert_allclose(got, xs ** 2 / (1 + xs), rtol=1e-15)


def test_evaluation_keeps_the_shape_of_x():
    e = parse("x^2/(1+x)")
    xs = np.linspace(0.1, 2.0, 6)
    flat = e.evaluate(xs)
    scalar = e.evaluate(np.array(0.3))
    assert type(scalar) is float and scalar == e.evaluate(np.array([0.3]))[0]
    np.testing.assert_array_equal(e.evaluate(xs.reshape(2, 3)),
                                  flat.reshape(2, 3))


def test_canonical_round_trip():
    e = parse("2*x - 1/(x+3)")
    again = parse(e.canonical())
    xs = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(e.evaluate(xs), again.evaluate(xs), rtol=0)


def test_equality_ignores_whitespace():
    assert parse("x + 1") == parse("x+1")
    assert hash(parse("x + 1")) == hash(parse("x+1"))
    assert parse("x+1") != parse("x+2")


def test_syntax_error_reports_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("1/(x")
    assert exc.value.offset == 4
    assert ")" in exc.value.expected


def test_unknown_function():
    with pytest.raises(UnknownFunction) as exc:
        parse("foo(x)")
    assert "sqrt" in exc.value.expected


def test_empty_expression():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


def test_trailing_garbage():
    with pytest.raises(ExprSyntaxError):
        parse("x+1 )")


@pytest.mark.parametrize("src, offset", [
    ("1e999-x", 0), ("x+2e308", 2), ("sin(" + "9" * 400 + ")", 4),
], ids=["exponent", "just past the largest float", "digits"])
def test_a_literal_that_overflows_is_a_syntax_error(src, offset):
    # It parsed to inf, and canonical() wrote "(inf-x)", which does not
    # parse: inf is no function.
    with pytest.raises(ExprSyntaxError, match="overflows a float") as exc:
        parse(src)
    assert exc.value.offset == offset
    e = parse("1.7976931348623157e308-x")
    assert parse(e.canonical()) == e


def test_nonfinite_evaluation():
    with pytest.raises(EvaluationFailure):
        parse("1/x").evaluate(0.0)
    with pytest.raises(EvaluationFailure):
        parse("ln(x)").evaluate(-1.0)


@pytest.mark.parametrize("src, offset", [
    ("(" * 2000 + "x" + ")" * 2000, 100),
    ("-" * 3000 + "x", 100),
    ("x^" * 3000 + "x", 201),
    ("sin(" * 500 + "x" + ")" * 500, 400),
], ids=["brackets", "signs", "powers", "calls"])
def test_deep_nesting_is_a_syntax_error(src, offset):
    # Each of these raised RecursionError, which the command line does not
    # catch: a traceback and exit 1.
    with pytest.raises(ExprSyntaxError, match="nesting deeper than 100") as exc:
        parse(src)
    assert exc.value.offset == offset


def test_nesting_of_one_hundred_parses():
    for depth in (99, 100):
        assert parse("(" * depth + "x" + ")" * depth).evaluate(2.0) == 2.0
        assert parse("-" * depth + "x").evaluate(2.0) == (-1) ** depth * 2.0
        assert parse("sin(" * depth + "0" + ")" * depth).evaluate(2.0) == 0.0
        assert parse("1^" * depth + "x").evaluate(2.0) == 1.0
    # Brackets, signs and powers count towards one depth.
    inner, outer = "(" * 50 + "-(" * 25, ")" * 75
    assert parse(inner + "x" + outer).evaluate(2.0) == (-1) ** 25 * 2.0
    with pytest.raises(ExprSyntaxError, match="at offset 101"):
        parse(inner + "x^x" + outer)

@pytest.mark.parametrize("src, x, want", [
    ("+".join(["1"] * 3000) + "-2999", 0.0, 1.0),
    ("*".join(["x"] * 3000), 1.0, 1.0),
    ("(" * 40 + "x" + ("+1" * 50 + ")") * 40, 0.5, 2000.5),
], ids=["sum", "product", "chains in brackets"])
def test_long_chains_parse(src, x, want):
    # Refused past 100 links ("tree taller than 100"), for a left-deep tree
    # as tall as its chain was long; a chain is one node now.
    e = parse(src)
    assert e.evaluate(x) == want
    assert parse(e.canonical()) == e


def test_chains_past_one_hundred_links_parse():
    for links in (99, 100, 101, 3000):
        e = parse("+".join(["1"] * (links + 1)))
        assert e.evaluate(0.0) == links + 1
        assert parse(e.canonical()) == e
    # Signs nest, chain links do not: 100 signs take any chain.
    assert parse("-" * 50 + "x" + "*x" * 51).evaluate(2.0) == 2.0 ** 52
    assert parse("-" * 100 + "x" + "*x" * 3000).evaluate(1.0) == 1.0


_NP_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _fold(first, links, value):
    """((value(first) op value(b)) op value(c)) ..., one numpy call per
    link: the left-deep tower of binary nodes chains were parsed to."""
    acc = value(first)
    for op, item in links:
        acc = _NP_OPS[op](acc, value(item))
    return acc


def test_chains_evaluate_as_the_left_deep_tower(rng):
    xs = np.linspace(-3.0, 3.0, 101)[np.arange(101) != 50]

    def value(s):
        return xs if s == "x" else np.full_like(xs, float(s))

    operands = ["x", "0.1", "3", "7.25", "1e-3", "2.5e2", "0.3333"]
    for links in range(1, 101):
        ops = rng.choice(list("+-*/"), links)
        items = rng.choice(operands, links + 1)
        # A sum of terms, each a product (first item, [(op, item), ...]).
        src, term = str(items[0]), [items[0], []]
        first, sum_links = term, []
        for op, item in zip(ops, items[1:]):
            src += op + item
            if op in "*/":
                term[1].append((op, item))
            else:
                term = [item, []]
                sum_links.append((op, term))
        want = _fold(first, sum_links, lambda t: _fold(*t, value))
        assert parse(src).evaluate(xs).tobytes() == want.tobytes(), src


def _at_depth(frames, fn):
    """fn() with ``frames`` more frames on the call stack."""
    return fn() if frames == 0 else _at_depth(frames - 1, fn)


def _headroom(fn):
    """The most frames on top of which fn() still returns."""
    lo, hi = 0, sys.getrecursionlimit()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            _at_depth(mid, fn)
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("src", [
    "sin(x+" * 100 + "x" + ")" * 100,
    "(x+" * 100 + "x" + ")" * 100,
    "-" * 100 + "x",
    "+".join(["x"] * 3001),
], ids=["calls", "brackets", "signs", "chain"])
def test_parsing_is_the_deepest_recursion(src):
    # Evaluating, printing, comparing and hashing recurse once per node, at
    # most a few nodes per level of nesting; parsing recurses several
    # frames per level, so what parses can be used from the same stack.
    frames = _headroom(lambda: parse(src))
    e, again = parse(src), parse(src)
    assert frames > 0
    _at_depth(frames, lambda: e.evaluate(0.5))
    _at_depth(frames, e.canonical)
    _at_depth(frames, lambda: hash(e))
    assert _at_depth(frames, lambda: e == again)


def test_unexpected_character():
    with pytest.raises(ExprSyntaxError, match=r"unexpected character '\$'"
                       r" at offset 1") as exc:
        parse("x$")
    assert exc.value.offset == 1
