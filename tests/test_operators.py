import math

import numpy as np
import pytest

from secmeasure import (IntegralEquationProblem, InvalidParameter, apply_T,
                        apply_V, apply_V_inverse, barycentric_check,
                        composition_check, family, inner_product,
                        isometry_check, make_context, mean_project,
                        reducer, residual_check, secondary_measure,
                        solve_integral_equation, transform_relation_check,
                        transformed_polys)


def _poly3(x):
    x = np.asarray(x, dtype=float)
    return x ** 3 - 2.0 / (x + 5.0) + 1.0 / (x * x + 3.0)


def test_isometry_reference_value(cheb_u, spec):
    ctx = make_context(cheb_u, 1.35, spec)
    rep = isometry_check(ctx, _poly3, spec)
    assert rep.passed
    assert abs(float(rep.expected) - 0.1010020264) < 1e-9
    assert abs(rep.computed - 0.1010020264) < 1e-7


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
