import math

import numpy as np
import pytest

from secmeasure import (DomainError, IntegralEquationProblem,
                        InvalidParameter, apply_T,
                        apply_V, apply_V_inverse, barycentric_check,
                        composition_check, family, inner_product,
                        isometry_check, make_context, mean_project,
                        reducer, residual_check, secondary_measure,
                        solve_integral_equation, transform_relation_check,
                        transformed_polys)
from secmeasure.operators import equation_residual, shift_multiply

from conftest import assert_one_call_per_level


def _poly3(x):
    x = np.asarray(x, dtype=float)
    return x ** 3 - 2.0 / (x + 5.0) + 1.0 / (x * x + 3.0)


_POINTWISE_OPERATORS = {
    "apply_T": lambda ctx, x, spec: apply_T(ctx.base, np.cos, x, spec),
    "apply_T complex": lambda ctx, x, spec: apply_T(
        ctx.base, lambda u: 1.0 / (u - 2j), x, spec),
    "apply_V": lambda ctx, x, spec: apply_V(ctx, np.cos, x, spec),
    "apply_V_inverse": lambda ctx, x, spec: apply_V_inverse(ctx, np.cos, x,
                                                            spec),
    "solve_integral_equation": lambda ctx, x, spec: solve_integral_equation(
        IntegralEquationProblem(ctx.base, 1.0, np.cos), x, spec),
}


@pytest.mark.parametrize("name", sorted(_POINTWISE_OPERATORS))
def test_empty_x_gives_empty_array(name, uniform, spec):
    ctx = make_context(uniform, 0.5, spec)
    for x in (np.array([]), np.empty((0, 3))):
        got = _POINTWISE_OPERATORS[name](ctx, x, spec)
        assert isinstance(got, np.ndarray) and got.shape == x.shape
        # f is called on the empty array: the dtype is that of one point's.
        one = _POINTWISE_OPERATORS[name](ctx, np.array([0.3]), spec)
        assert got.dtype == one.dtype


def test_isometry_reference_value(cheb_u, spec):
    ctx = make_context(cheb_u, 1.35, spec)
    rep = isometry_check(ctx, _poly3, spec)
    assert rep.passed
    assert abs(float(rep.expected) - 0.1010020264) < 1e-9
    assert abs(rep.computed - 0.1010020264) < 1e-7


def test_V_and_multiplication_keep_a_complex_f(cheb_u, spec):
    # A cast of f(x) to float dropped the imaginary part of a complex f.
    ctx = make_context(cheb_u, 0.5, spec)
    f = lambda x: 1.0 / (np.asarray(x) - 2j)
    xs = cheb_u.interval.interior_grid(9, 2e-3)
    want = 0.5 * f(xs) + 0.5 * (xs - ctx.c1) * apply_T(cheb_u, f, xs, spec)
    np.testing.assert_allclose(apply_V(ctx, f, xs, spec), want,
                               rtol=1e-14, atol=0)
    assert abs(apply_V(ctx, f, 0.1, spec).imag - 0.2488) < 1e-4
    np.testing.assert_array_equal(shift_multiply(f, ctx.c1)(xs),
                                  (xs - ctx.c1) * f(xs))


_F_PLUS_T = {
    "apply_V": lambda ctx, f, x, spec: apply_V(ctx, f, x, spec),
    "apply_V_inverse": lambda ctx, f, x, spec: apply_V_inverse(ctx, f, x,
                                                               spec),
    "solve_integral_equation": lambda ctx, f, x, spec: solve_integral_equation(
        IntegralEquationProblem(ctx.base, 1.0 / ctx.t - 1.0, f), x, spec),
}


@pytest.mark.parametrize("name", sorted(_F_PLUS_T))
def test_operators_call_f_once_per_level_of_T(name, cheb_u, counted, spec,
                                              levels):
    # f(x) comes from T's own calls, one per pass, the first holding x.
    ctx = make_context(cheb_u, 0.5, spec)
    xs = cheb_u.interval.interior_grid(30, 2e-3)
    f = counted(_poly3)
    got = _F_PLUS_T[name](ctx, f, xs, spec)
    assert_one_call_per_level(f.args, levels, cheb_u.interval)
    assert np.isin(xs, f.args[0]).all()
    np.testing.assert_array_equal(got, _F_PLUS_T[name](ctx, _poly3, xs, spec))


def test_isometry_check_call_count(cheb_u, counted, spec):
    # f's values at rho's rule nodes are kept for the check: the mean calls
    # f on the rule's 65 nodes, the left side on the 64 of the level after
    # them, and each T inside V reads both, so its passes call f only at
    # rho_t's x off rho's nodes and the difference offsets: 4 calls and
    # 377 points.  With f called again at rho's nodes by the left side and
    # T it was 5 calls and 571 points; running each first level apart from
    # the next made 11 calls, and calling f at x apart from the nodes, for
    # V apart from T, twice per level for the inner product and again for
    # each level's difference offsets made 24.
    ctx = make_context(cheb_u, 1.35, spec)
    f = counted(lambda x: x ** 3 - 0.5 * x + 0.25)
    rep = isometry_check(ctx, f, spec)
    assert rep.passed
    assert (repr(rep.expected), repr(rep.computed)) == (
        "0.015625", "0.01562500000000329")
    assert len(f.args) <= 4
    assert sum(map(len, f.args)) <= 377
    # Each first-pass rule node reaches f once, in the mean's call.  The
    # outermost nodes round to the ends +-1, where finer levels' nodes fall
    # too, so only the inner nodes are told apart by value.
    nodes = cheb_u.rule(spec).x
    np.testing.assert_array_equal(f.args[0], nodes)
    inner = nodes[np.abs(nodes) < 1.0]
    later = np.concatenate(f.args[1:])
    assert len(inner) > 40 and not np.isin(later, inner).any()


@pytest.mark.parametrize("call", ["mean_project", "inner_product",
                                  "isometry_check"])
def test_a_complex_f_is_refused_where_an_integral_must_be_real(call, cheb_u,
                                                               spec):
    # Each cast its integral to float, dropping the imaginary part with a
    # ComplexWarning: the check reported left -0.0625 against right
    # -0.03125 and failed.
    f = lambda x: (1 + 1j) * np.asarray(x) ** 2
    run = {
        "mean_project": lambda: mean_project(f, cheb_u, spec),
        "inner_product": lambda: inner_product(f, f, cheb_u, spec),
        "isometry_check": lambda: isometry_check(
            make_context(cheb_u, 0.5, spec), f, spec),
    }[call]
    with pytest.raises(TypeError, match="imaginary part 2.500e-01"):
        run()


def test_isometry_random_polynomials(cheb_u, uniform, spec, rng):
    for rho in (cheb_u, uniform):
        for t in (0.5, 1.0):
            ctx = make_context(rho, t, spec)
            coeffs = rng.uniform(-1, 1, size=7)
            f = lambda x, c=coeffs: np.polynomial.polynomial.polyval(
                np.asarray(x, dtype=float), c)
            assert isometry_check(ctx, f, spec).passed


def test_inverse_pair(cheb_u, spec):
    ctx = make_context(cheb_u, 0.7, spec)
    f = mean_project(_poly3, cheb_u, spec)
    xs = np.linspace(-0.9, 0.9, 9)
    vf = lambda u: np.atleast_1d(apply_V(ctx, f, u, spec))
    back = np.atleast_1d(apply_V_inverse(ctx, vf, xs, spec))
    np.testing.assert_allclose(back, f(xs), atol=1e-10)


def test_factorization(cheb_u, spec):
    # T over rho_t composed with V equals T over rho
    ctx = make_context(cheb_u, 0.7, spec)
    f = mean_project(_poly3, cheb_u, spec)
    xs = np.linspace(-0.9, 0.9, 9)
    vf = lambda u: np.atleast_1d(apply_V(ctx, f, u, spec))
    np.testing.assert_allclose(
        np.atleast_1d(apply_T(ctx, vf, xs, spec)),
        np.atleast_1d(apply_T(cheb_u, f, xs, spec)), atol=1e-9)


def test_transformed_polys_orthonormal(cheb_u, spec):
    ctx = make_context(cheb_u, 0.6, spec)
    Pt, Qt = transformed_polys(ctx, 4, spec)
    for n in range(5):
        for m in range(n + 1):
            val = inner_product(Pt.as_callable(n), Pt.as_callable(m),
                                ctx, spec)
            assert abs(val - (1.0 if n == m else 0.0)) < 1e-10
    # secondary polynomials transport: Q_n^t = T_{rho_t}(P_n^t)
    xs = np.linspace(-0.8, 0.8, 7)
    for n in range(1, 5):
        got = np.atleast_1d(apply_T(ctx, Pt.as_callable(n), xs, spec))
        np.testing.assert_allclose(got, Qt.eval(n, xs), atol=1e-8)


def test_problem_rejects_minus_one(cheb_u):
    with pytest.raises(InvalidParameter):
        IntegralEquationProblem(cheb_u, -1.0, lambda x: x)


def test_problem_rejects_nonpositive_t(cheb_u, spec):
    problem = IntegralEquationProblem(cheb_u, -2.0, lambda x: x)
    with pytest.raises(InvalidParameter):
        solve_integral_equation(problem, 0.3, spec)


def test_solver_round_trips(cheb_u, spec):
    gs = (
        lambda x: 2 * x ** 11 - 7 * x ** 10 + 8 * x ** 5 - 3 * x + 2,
        lambda x: 1.0 / (1.0 + x * x),
        lambda x: x ** 3 / (x + 2.0),
        lambda x: 1.0 / (x + 3.0) ** 2,
    )
    for g in gs:
        problem = IntegralEquationProblem(cheb_u, -0.5, g)
        f = lambda xs, p=problem: np.atleast_1d(
            solve_integral_equation(p, xs, spec))
        assert residual_check(problem, f, spec).passed


def test_solver_lambda_zero_echo(uniform, spec):
    g = lambda x: np.sin(np.asarray(x, dtype=float))
    problem = IntegralEquationProblem(uniform, 0.0, g)
    xs = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(
        np.atleast_1d(solve_integral_equation(problem, xs, spec)), g(xs),
        rtol=0)


def test_barycentric_identity_and_value(cheb_u, spec):
    f = lambda x: 7 * x ** 5 - 4 * x ** 3 + x / (x * x + 3.0)
    assert barycentric_check(cheb_u, 2.0, 1.0, f, spec).passed
    with pytest.raises(InvalidParameter):
        barycentric_check(cheb_u, 1.5, 1.5, f, spec)


def test_composition(cheb_u, spec):
    f = mean_project(lambda x: np.asarray(x, dtype=float) ** 3 + 1.0,
                     cheb_u, spec)
    assert composition_check(cheb_u, 0.5, 0.8, f, spec).passed


def test_transform_relation(cheb_u, uniform, spec):
    assert transform_relation_check(cheb_u, 1.0, 2.0, 2.0, spec).passed
    assert transform_relation_check(uniform, 0.5, 0.9, 2 + 1j, spec).passed
    with pytest.raises(InvalidParameter):
        transform_relation_check(cheb_u, 1.0, 1.0, 2.0, spec)


def test_scalar_shapes(cheb_u, spec):
    ctx = make_context(cheb_u, 0.8, spec)
    f = mean_project(_poly3, cheb_u, spec)
    assert isinstance(apply_V(ctx, f, 0.3, spec), float)
    problem = IntegralEquationProblem(cheb_u, 0.25, lambda x: x)
    assert isinstance(solve_integral_equation(problem, 0.3, spec), float)


_AT_NON_FINITE = {
    "apply_T": lambda rho: apply_T(rho, np.sin, math.nan),
    "apply_V": lambda rho: apply_V(make_context(rho, 1.0), np.sin, math.nan),
    "apply_V at inf": lambda rho: apply_V(make_context(rho, 1.0), np.sin,
                                          np.array([0.2, math.inf])),
    "apply_V_inverse": lambda rho: apply_V_inverse(make_context(rho, 1.0),
                                                   np.sin, math.nan),
    "solve_integral_equation": lambda rho: solve_integral_equation(
        IntegralEquationProblem(rho, 0.0, np.sin), math.nan),
    "equation_residual": lambda rho: equation_residual(
        IntegralEquationProblem(rho, 0.0, np.sin), np.sin,
        np.array([0.1, math.nan])),
}


@pytest.mark.parametrize("name", sorted(_AT_NON_FINITE))
def test_a_non_finite_point_is_refused(name, cheb_u):
    # Where T's coefficient is 0 (t = 1, lambda = 0) NaN came back silently;
    # T itself failed as a numerical failure (EvaluationFailure, exit 3).
    with pytest.raises(DomainError, match="points must be finite"):
        _AT_NON_FINITE[name](cheb_u)


@pytest.mark.parametrize("name", ["reducer", "mu", "mu0", "apply_T", "apply_V",
                                  "apply_V_inverse", "solve_integral_equation"])
def test_pointwise_shapes(name, cheb_u, spec):
    # A 0-d x gives a Python float, a 2-d x an array of its shape; both
    # equal the 1-d result at the same points.
    ctx = make_context(cheb_u, 0.8, spec)
    f = mean_project(_poly3, cheb_u, spec)
    mu = secondary_measure(cheb_u, spec)
    problem = IntegralEquationProblem(cheb_u, 0.25, _poly3)
    fn = {"reducer": lambda x: reducer(cheb_u, x, spec),
          "mu": mu.mu,
          "mu0": mu.mu0,
          "apply_T": lambda x: apply_T(cheb_u, f, x, spec),
          "apply_V": lambda x: apply_V(ctx, f, x, spec),
          "apply_V_inverse": lambda x: apply_V_inverse(ctx, f, x, spec),
          "solve_integral_equation":
              lambda x: solve_integral_equation(problem, x, spec)}[name]
    xs = np.linspace(-0.7, 0.6, 6)
    scalar = fn(np.array(0.3))
    assert type(scalar) is float
    np.testing.assert_allclose(scalar, fn(np.array([0.3]))[0], rtol=1e-14)
    grid = fn(xs.reshape(2, 3))
    assert grid.shape == (2, 3)
    np.testing.assert_allclose(grid, fn(xs).reshape(2, 3), rtol=1e-14)
