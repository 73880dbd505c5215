import math

import numpy as np
import pytest

from secmeasure import (DEFAULT_SPEC, Density, IntegrationSpec, Interval,
                        catalog, family, moment, user_density)
from secmeasure.errors import InstabilityDetected, NonConvergence
from secmeasure.measures import CATALOG_NAMES
from secmeasure.orthopoly import (QUOTIENT_FALLBACK, RecurrenceCoefficients,
                                  _t_against_rule, apply_T, derivative,
                                  orthonormal_polys, recurrence_coefficients,
                                  secondary_polys)
from secmeasure.quadrature import (KERNEL_ENTRIES, EndpointExponents,
                                   tanh_sinh_nodes)
from secmeasure.stieltjes import secondary_measure

from conftest import assert_one_call_per_level


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


@pytest.mark.parametrize("b", [0.0, -1.0, np.nan])
def test_recurrence_rejects_nonpositive_or_nan_b(b):
    with pytest.raises(InstabilityDetected):
        RecurrenceCoefficients(np.zeros(2), np.array([b]))


@pytest.mark.parametrize("a, b", [((np.nan, 0.0), (0.5,)),
                                  ((0.0, np.inf), (0.5,)),
                                  ((0.0, -np.inf), (0.5,)),
                                  ((0.0, 0.0), (np.inf,)),
                                  ((np.nan, 0.0), (np.inf,))])
def test_recurrence_rejects_non_finite_terms(a, b):
    with pytest.raises(InstabilityDetected):
        RecurrenceCoefficients(np.array(a), np.array(b))


def test_degree_cap(cheb_u, spec):
    with pytest.raises(ValueError):
        recurrence_coefficients(cheb_u, 25, spec)
    with pytest.raises(ValueError, match="got 21"):
        recurrence_coefficients(cheb_u, 21, spec)


def test_orthonormal_polys_are_orthonormal(linear2x, spec):
    rc = recurrence_coefficients(linear2x, 6, spec)
    polys = orthonormal_polys(rc)
    for n in range(6):
        for m in range(n + 1):
            val = float(linear2x.weighted_integral(
                lambda x: polys.eval(n, x) * polys.eval(m, x), spec).real)
            assert abs(val - (1.0 if n == m else 0.0)) < 1e-10


def _counted_density(counted):
    h = counted(lambda x: 1.0 + x)
    return Density(Interval(0.0, 1.0), h, EndpointExponents(0.5, 0.0), "h"), h


def test_recurrence_far_from_origin(spec):
    # Shifted Legendre rows on [1e8, 1e8 + 1]: the procedure takes the unit
    # coordinate exact from the tanh-sinh nodes.  Forming it as
    # (x - midpoint)/half width loses a_n to 2.2e-7 widths here.
    rho = Density(Interval(1e8, 1e8 + 1.0), np.ones_like, EndpointExponents(),
                  "far")
    rc = recurrence_coefficients(rho, 20, spec)
    n = np.arange(1, 20)
    np.testing.assert_allclose(rc.a - 1e8, 0.5, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rc.b, n / (2.0 * np.sqrt(4.0 * n * n - 1.0)),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("sigma", [0.025, 0.05])
@pytest.mark.parametrize("N", [6, 20])
def test_recurrence_of_concentrated_density(sigma, N, spec):
    # A normalised Gaussian of width sigma on [0, 1]: the modified Chebyshev
    # algorithm on moments over the whole support loses the high rows here
    # (Gautschi 2004, Section 2.1.6).  The rows must give polynomials
    # orthonormal on a finer rule.
    c = 1.0 / (sigma * math.sqrt(2.0 * math.pi)
               * math.erf(0.5 / (sigma * math.sqrt(2.0))))
    rho = user_density(lambda x: c * np.exp(-0.5 * ((x - 0.5) / sigma) ** 2),
                       Interval(0.0, 1.0))
    polys = orthonormal_polys(recurrence_coefficients(rho, N, spec))
    x, w = rho._rule_at_level(10)
    rows = polys.values(x)
    np.testing.assert_allclose((rows * w) @ rows.T, np.eye(N), rtol=0,
                               atol=1e-12)


def test_unsettled_recurrence_raises_and_caches_nothing(counted):
    # The recurrence honours the spec's level cap.
    rho, _ = _counted_density(counted)
    with pytest.raises(NonConvergence, match="recurrence against"):
        recurrence_coefficients(rho, 6,
                                IntegrationSpec(max_refinement_levels=1))
    assert rho._recurrence == {}
    recurrence_coefficients(rho, 6)
    assert list(rho._recurrence) == [DEFAULT_SPEC]


def test_recurrence_prefix_served_from_cache(counted, spec):
    # On a built rule the recurrence evaluates the density only at the odd
    # nodes of the levels past it; every later N is served from the cache,
    # bit for bit a fresh call.
    rho, h = _counted_density(counted)
    rho.rule(spec)
    h.args.clear()
    rc6 = recurrence_coefficients(rho, 6, spec)
    assert sum(map(len, h.args)) < 1000
    h.args.clear()
    rc20 = recurrence_coefficients(rho, 20, spec)
    recurrence_coefficients(rho, 6, spec)
    assert h.args == []
    np.testing.assert_array_equal(rc20.a[:6], rc6.a)
    np.testing.assert_array_equal(rc20.b[:5], rc6.b)
    fresh = recurrence_coefficients(_counted_density(counted)[0], 6, spec)
    np.testing.assert_array_equal(rc6.a, fresh.a)
    np.testing.assert_array_equal(rc6.b, fresh.b)


def test_recurrence_arrays_are_read_only(counted, spec):
    rho, _ = _counted_density(counted)
    for n in (6, 5):  # computed, then served from the cache
        rc = recurrence_coefficients(rho, n, spec)
        with pytest.raises(ValueError):
            rc.a[0] = 0.0
        with pytest.raises(ValueError):
            rc.b[0] = 0.0


@pytest.mark.parametrize("name", ["uniform", "linear2x", "sqrt32"])
def test_orthonormal_at_degree_cap(name, spec):
    # Monomial coefficients lost 1.7e-3 to 3.0e-3 of orthonormality here.
    rho = catalog(name)
    polys = orthonormal_polys(recurrence_coefficients(rho, 20, spec))
    x, w = rho._rule_at_level(10)
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
def test_apply_T_on_nodes_calls_f_a_few_times_per_level(name, counted, spec,
                                                        levels):
    # f is called once per pass of T: first on the rule's nodes, which are
    # the x, together with the difference offsets of every x, each of which
    # has a node at it; then on each later level's new nodes alone.  When
    # the first level's nodes were a call of their own, the x they lack went
    # into it again.
    rho = catalog(name)
    iv = rho.interval
    x = rho.rule(spec).x
    f = counted(np.cos)
    got = apply_T(rho, f, x, spec)
    assert np.all(np.isfinite(got))
    assert_one_call_per_level(f.args, levels, iv)
    offsets = len(derivative(x, iv.a, iv.b, iv.width)[0])
    assert len(f.args[0]) == len(x) + offsets
    assert [len(a) for a in f.args[1:]] == [
        len(tanh_sinh_nodes(level, odd)[0])
        for what, level, odd in levels if what.startswith("T ")][1:]


def test_t_kernel_blocks_match_one_matrix(uniform):
    u, w = uniform._rule_at_level(9)
    xs = np.concatenate([np.linspace(0.01, 0.99, 200), u[5::len(u) // 100][:100]])
    assert len(xs) * len(u) > 2 * KERNEL_ENTRIES
    a, b, width = 0.0, 1.0, 1.0
    fx = np.exp(xs)
    points, finish = derivative(xs, a, b, width)
    dfx = finish(fx, np.exp(points))
    (got,) = _t_against_rule(xs, fx, dfx, u, np.exp(u), (w,),
                             QUOTIENT_FALLBACK * width)
    den = u[None, :] - xs[:, None]
    near = np.abs(den) < QUOTIENT_FALLBACK * width
    assert near.any(axis=1).sum() == 100
    K = (np.exp(u)[None, :] - fx[:, None]) / np.where(near, 1.0, den)
    K = np.where(near, dfx[:, None], K)
    # Equal to rounding: BLAS may sum a row in another order depending on
    # its place in the matrix (up to 5 ulps seen here).
    np.testing.assert_allclose(got, K @ w, rtol=8 * np.finfo(float).eps, atol=0)
