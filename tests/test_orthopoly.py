import math

import numpy as np
import pytest

from secmeasure import (Density, IntegrationSpec, Interval, catalog, family,
                        moment)
from secmeasure.errors import InstabilityDetected, NonConvergence
from secmeasure.measures import CATALOG_NAMES
from secmeasure.orthopoly import (_KERNEL_ENTRIES, RecurrenceCoefficients,
                                  _t_against_rule, apply_T, orthonormal_polys,
                                  recurrence_coefficients, secondary_polys)
from secmeasure.quadrature import (QUOTIENT_FALLBACK, EndpointExponents,
                                   derivative)
from secmeasure.stieltjes import secondary_measure


def test_recurrence_cheb_u(cheb_u, spec):
    rc = recurrence_coefficients(cheb_u, 8, spec)
    np.testing.assert_allclose(rc.a, 0.0, atol=1e-13)
    np.testing.assert_allclose(rc.b, 0.5, atol=1e-13)


def test_recurrence_uniform(uniform, spec):
    # shifted Legendre: a_n = 1/2, b_n = n / (2 sqrt(4n^2 - 1))
    rc = recurrence_coefficients(uniform, 6, spec)
    np.testing.assert_allclose(rc.a, 0.5, atol=1e-12)
    expected_b = [n / (2.0 * math.sqrt(4 * n * n - 1.0)) for n in range(1, 6)]
    np.testing.assert_allclose(rc.b, expected_b, atol=1e-12)


def test_recurrence_rejects_shape():
    with pytest.raises(ValueError):
        RecurrenceCoefficients(np.zeros(3), np.zeros(3))


def test_degree_cap(cheb_u, spec):
    with pytest.raises(InstabilityDetected):
        recurrence_coefficients(cheb_u, 25, spec)


def test_orthonormal_polys_are_orthonormal(linear2x, spec):
    rc = recurrence_coefficients(linear2x, 6, spec)
    polys = orthonormal_polys(rc)
    for n in range(6):
        for m in range(n + 1):
            val = float(linear2x.weighted_integral(
                lambda x: polys.eval(n, x) * polys.eval(m, x), spec).real)
            assert abs(val - (1.0 if n == m else 0.0)) < 1e-10


def test_drift_check_evaluates_only_new_nodes(counted, spec):
    # The next-finer Gram matrix is half the rule's plus its odd-k nodes',
    # so a warm call evaluates the density at len(rule.x) - 1 points; on the
    # finer rule in full it took 2 len(rule.x) - 1.
    h = counted(lambda x: 1.0 + x)
    rho = Density(Interval(0.0, 1.0), h, EndpointExponents(0.5, 0.0), "h")
    rule = rho.rule(spec, min_level=8)
    h.args.clear()
    recurrence_coefficients(rho, 10, spec)
    assert sum(map(len, h.args)) == len(rule.x) - 1 == 4096


@pytest.mark.parametrize("name", ["uniform", "linear2x", "sqrt32"])
def test_orthonormal_at_degree_cap(name, spec):
    # Monomial coefficients lost 1.7e-3 to 3.0e-3 of orthonormality here.
    rho = catalog(name)
    polys = orthonormal_polys(recurrence_coefficients(rho, 20, spec))
    x, w = rho._rule_at_level(rho.rule(spec, min_level=8).level + 1)
    rows = np.array([polys.eval(n, x) for n in range(20)])
    np.testing.assert_allclose((rows * w) @ rows.T, np.eye(20), rtol=0,
                               atol=1e-12)
    np.testing.assert_array_equal(polys.values(x), rows)


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("t", [0.3, 0.7])
def test_family_recurrence_is_codilated(name, t, spec):
    # J_t is J with b_1 scaled by sqrt(t) (Marcellan, Dehesa, Ronveaux 1990);
    # the left side runs the reducer, the family density and its own rule.
    rho = catalog(name)
    got = recurrence_coefficients(family(rho, t, spec), 8, spec)
    want = recurrence_coefficients(rho, 8, spec).codilated(t)
    np.testing.assert_allclose(got.a, want.a, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-10)


def _codilated_moments(rho, t, spec):
    """(J_t^n)_00 for n = 0..6, J_t the 4 x 4 co-dilated Jacobi matrix of
    rho; four rows reach every path of length 6 from row 0."""
    rc = recurrence_coefficients(rho, 4, spec).codilated(t)
    J = np.diag(rc.a) + np.diag(rc.b, 1) + np.diag(rc.b, -1)
    return [np.linalg.matrix_power(J, n)[0, 0] for n in range(7)]


@pytest.mark.parametrize("t", [0.3, 0.7])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_family_moments_are_codilated(name, t, spec):
    # c_n of rho_t is (J_t^n)_00; the right side needs no integral of rho_t.
    rho = catalog(name)
    dens = family(rho, t, spec)
    got = [moment(dens, n, spec) for n in range(7)]
    np.testing.assert_allclose(got, _codilated_moments(rho, t, spec),
                               rtol=0, atol=1e-10)


@pytest.mark.parametrize("t", [0.25, 0.5, 0.75])
def test_uniform_codilated_second_moment(uniform, t, spec):
    # a_0^2 + t b_1^2 is the paper's c'_2 = (t + 3)/12.
    assert abs(_codilated_moments(uniform, t, spec)[2]
               - (t + 3) / 12) < 1e-12


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_secondary_recurrence_is_shifted(name, spec):
    # The Jacobi matrix of mu (that of mu0 = mu/d0: scaling a measure
    # leaves it unchanged) is rho's with its first row and column dropped;
    # the left side runs the principal-value reducer.
    rho = catalog(name)
    got = recurrence_coefficients(secondary_measure(rho, spec), 8, spec)
    full = recurrence_coefficients(rho, 9, spec)
    np.testing.assert_allclose(got.a, full.a[1:], rtol=0, atol=1e-10)
    np.testing.assert_allclose(got.b, full.b[1:], rtol=0, atol=1e-10)


def test_cheb_u_polys_match_chebyshev(cheb_u, spec):
    rc = recurrence_coefficients(cheb_u, 5, spec)
    polys = orthonormal_polys(rc)
    xs = np.linspace(-0.9, 0.9, 9)
    theta = np.arccos(xs)
    for n in range(5):
        u_n = np.sin((n + 1) * theta) / np.sin(theta)
        np.testing.assert_allclose(polys.eval(n, xs), u_n, atol=1e-11)


def test_secondary_polys_start(cheb_u, spec):
    rc = recurrence_coefficients(cheb_u, 5, spec)
    d0 = moment(cheb_u, 2, spec) - moment(cheb_u, 1, spec) ** 2
    Q = secondary_polys(rc)
    xs = np.linspace(-0.9, 0.9, 5)
    np.testing.assert_allclose(Q.eval(0, xs), 0.0, atol=1e-15)
    np.testing.assert_allclose(Q.eval(1, xs), 1.0 / math.sqrt(d0), atol=1e-12)


def test_apply_T_constants_and_linear(uniform, spec):
    # T annihilates constants; T(x) integrates the density, giving 1
    xs = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(
        np.atleast_1d(apply_T(uniform, lambda x: np.ones_like(x), xs, spec)),
        0.0, atol=1e-12)
    np.testing.assert_allclose(
        np.atleast_1d(apply_T(uniform, lambda x: np.asarray(x, float), xs,
                              spec)), 1.0, atol=1e-12)


def test_apply_T_quadratic(uniform, spec):
    # T(x^2)(x) = x + c_1
    xs = np.linspace(0.05, 0.95, 7)
    c1 = moment(uniform, 1, spec)
    got = np.atleast_1d(apply_T(uniform, lambda x: np.asarray(x, float) ** 2,
                                xs, spec))
    np.testing.assert_allclose(got, xs + c1, atol=1e-11)


def test_apply_T_gives_secondary_polys(sqrt32, spec):
    rc = recurrence_coefficients(sqrt32, 5, spec)
    P = orthonormal_polys(rc)
    Q = secondary_polys(rc)
    xs = np.linspace(0.05, 0.95, 9)
    for n in range(5):
        got = np.atleast_1d(apply_T(sqrt32, P.as_callable(n), xs, spec))
        np.testing.assert_allclose(got, Q.eval(n, xs), atol=1e-9)


def test_apply_T_scalar_and_complex(cheb_u, spec):
    val = apply_T(cheb_u, lambda x: np.asarray(x, float) ** 2, 0.3, spec)
    assert np.isscalar(val) or np.ndim(val) == 0
    f = lambda x: 1.0 / (np.asarray(x) - 2j)
    got = np.atleast_1d(apply_T(cheb_u, f, np.array([0.1]), spec))
    assert np.iscomplexobj(got)


def _sin1000(x):
    return np.sin(1000.0 * np.asarray(x, dtype=float))


def test_apply_T_oscillatory_reference(uniform, spec):
    # mpmath at 30 digits
    assert abs(apply_T(uniform, _sin1000, 0.3, spec)
               - 0.7735340651037179) < 1e-9


def test_unresolved_integrals_raise(uniform):
    spec = IntegrationSpec(max_refinement_levels=2)
    with pytest.raises(NonConvergence):
        uniform.weighted_integral(_sin1000, spec)
    with pytest.raises(NonConvergence):
        apply_T(uniform, _sin1000, 0.3, spec)


@pytest.mark.parametrize("name", ["cheb-u", "uniform", "sqrt32"])
def test_apply_T_on_nodes_calls_f_a_few_times_per_level(name, counted, spec):
    rho = catalog(name)
    x = rho.rule(spec).x
    f = counted(np.cos)
    got = apply_T(rho, f, x, spec)
    assert np.all(np.isfinite(got))
    levels = sum(any(len(a) == len(u) and np.array_equal(a, u)
                     for a in f.args)
                 for u in (rho._rule_at_level(k)[0] for k in range(2, 15)))
    assert levels >= 2
    assert len(f.args) <= 1 + 3 * levels


def test_t_kernel_blocks_match_one_matrix(uniform):
    u, w = uniform._rule_at_level(9)
    xs = np.concatenate([np.linspace(0.01, 0.99, 200), u[5::len(u) // 100][:100]])
    assert len(xs) * len(u) > 2 * _KERNEL_ENTRIES
    a, b, width = 0.0, 1.0, 1.0
    fx = np.exp(xs)
    got = _t_against_rule(np.exp, xs, fx, u, w, width, a, b)
    den = u[None, :] - xs[:, None]
    near = np.abs(den) < QUOTIENT_FALLBACK * width
    assert near.any(axis=1).sum() == 100
    K = (np.exp(u)[None, :] - fx[:, None]) / np.where(near, 1.0, den)
    K = np.where(near, derivative(np.exp, xs, fx, a, b, width)[:, None], K)
    # Equal to rounding: BLAS may sum a row in another order depending on
    # its place in the matrix (up to 5 ulps seen here).
    np.testing.assert_allclose(got, K @ w, rtol=8 * np.finfo(float).eps, atol=0)
