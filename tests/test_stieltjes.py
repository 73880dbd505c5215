import math

import numpy as np
import pytest

from secmeasure import (CATALOG_NAMES, DegenerateMeasure, Density,
                        DomainError, ExtrapolationDivergence, IntegrationSpec,
                        Interval, NonConvergence, PointOnInterval, catalog,
                        family, family_transform, lerch_phi_half, moment,
                        perron_invert, reducer, secondary_measure,
                        secondary_transform, stieltjes_transform)
from secmeasure.quadrature import EndpointExponents


def _s_semicircle(z):
    # branch with S ~ 1/z at infinity
    return 2.0 * (z - np.sqrt(z - 1) * np.sqrt(z + 1))


def test_transform_cheb_u_closed_form(cheb_u, spec):
    for z in (2.0, -3.0, 1.5 + 1j, -0.4 + 2j, 10.0):
        z = complex(z)
        assert abs(stieltjes_transform(cheb_u, z, spec)
                   - _s_semicircle(z)) < 1e-12


def test_transform_uniform_closed_form(uniform, spec):
    for z in (2.0, -1.0, 1.2 + 0.5j, 0.5 + 2j):
        z = complex(z)
        assert abs(stieltjes_transform(uniform, z, spec)
                   - np.log(z / (z - 1.0))) < 1e-12


def test_transform_next_to_an_endpoint(uniform, sqrt32, linear2x, spec):
    # Real z 1e-10 widths off either end; z - t formed by subtraction lost
    # every digit of the node's distance and never settled.
    # One z per call takes the one-sided path, the pair the per-row one.
    z = np.array([1.0 + 1e-10, -1e-10])
    want = np.log(z / (z - 1.0))
    np.testing.assert_allclose([stieltjes_transform(uniform, v, spec)
                                for v in z], want, rtol=1e-9, atol=0)
    np.testing.assert_allclose(stieltjes_transform(uniform, z, spec), want,
                               rtol=1e-9, atol=0)
    for rho in (sqrt32, linear2x):
        assert np.isfinite(stieltjes_transform(rho, 1.0 + 1e-10, spec))


def test_transform_near_cut(cheb_u, spec):
    z = 0.3 + 1e-6j
    assert abs(stieltjes_transform(cheb_u, z, spec)
               - _s_semicircle(z)) < 1e-9


def test_transform_near_cut_against_mpmath(spec):
    # Seeded Jacobi densities x^alpha (1-x)^beta p(x), exponents in
    # (-0.6, 1.5), at z from 1.5e-3 widths off an end to mid-support and
    # |Im z| from 1e-10 to 4.9e-2 widths; the reference is mpmath's
    # tanh-sinh at 30 digits on [0, Re z] and [Re z, 1].
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    zs = np.array([1.5e-3 + 1e-10j, 0.37 - 2e-6j, 0.81 + 3e-4j,
                   1.0 - 1.5e-3 - 4.9e-2j])
    for k in range(3):
        alpha, beta = rng.uniform(-0.6, 1.5, 2)
        coef = rng.uniform(0.2, 1.0, 4)
        rho = Density(Interval(0.0, 1.0),
                      lambda x, c=coef: np.polynomial.polynomial.polyval(x, c),
                      EndpointExponents(alpha, beta), f"j{k}")
        got = stieltjes_transform(rho, zs, spec)
        with mpmath.workdps(30):
            al, be = mpmath.mpf(alpha), mpmath.mpf(beta)
            cs = [mpmath.mpf(c) for c in coef[::-1]]
            want = [complex(mpmath.quad(
                lambda x, z=mpmath.mpc(z): (x ** al * (1 - x) ** be
                                            * mpmath.polyval(cs, x) / (z - x)),
                [0, z.real, 1])) for z in zs]
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name, closed_form, x0s", [
    ("cheb-u", _s_semicircle, (-0.9, -0.5, 0.0, 0.3, 0.8)),
    ("uniform", lambda z: np.log(z / (z - 1.0)), (0.05, 0.3, 0.5, 0.9)),
    ("linear2x", lambda z: 2.0 * (z * np.log(z / (z - 1.0)) - 1.0),
     (0.05, 0.3, 0.5, 0.9)),
], ids=["cheb-u", "uniform", "linear2x"])
def test_transform_near_cut_closed_forms(name, closed_form, x0s, spec):
    rho = catalog(name)
    ys = [s * y for y in (1e-2, 1e-4, 1e-6, 1e-8) for s in (1, -1)]
    zs = np.array([[complex(x0, y) for y in ys] for x0 in x0s])
    expct = closed_form(zs)
    got = stieltjes_transform(rho, zs, spec)
    np.testing.assert_allclose(got, expct, rtol=1e-9, atol=0)
    for z, e in zip(zs[::2, ::3].ravel(), expct[::2, ::3].ravel()):
        assert abs(stieltjes_transform(rho, z, spec) - e) <= 1e-9 * abs(e)


def test_transform_array_matches_scalar(cheb_u, spec):
    far = [2.0, -3.0 + 0.5j, 1.5 + 1j, 10.0, 0.3 + 0.2j]
    near = [0.3 + 1e-6j, -0.7 - 1e-3j, 0.999 + 1e-4j, 0.5 - 1e-8j] + [
        0.3 + s * y * 1j for y in (1e-2, 1e-4, 1e-6) for s in (1, -1)]
    for zs in (np.array(far), np.array(near),
               np.array(far[:3] + near + far[3:]).reshape(3, 5)):
        got = stieltjes_transform(cheb_u, zs, spec)
        assert got.shape == zs.shape and got.dtype == complex
        want = np.array([stieltjes_transform(cheb_u, z, spec)
                         for z in zs.ravel()]).reshape(zs.shape)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_transform_scalar_returns_complex(cheb_u, spec):
    for z in (2.0, 3, 1.5 + 1j, np.float64(-2.0), np.complex128(0.3 + 1e-3j)):
        assert type(stieltjes_transform(cheb_u, z, spec)) is complex


def test_far_batch_costs_no_more_than_its_hardest_point(counted_semicircle,
                                                        spec, rng):
    rho, calls = counted_semicircle
    zs = rng.uniform(1.2, 4.0, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
    per_z = []
    for z in zs:
        calls.clear()
        stieltjes_transform(rho, z, spec)
        per_z.append(len(calls))
    calls.clear()
    stieltjes_transform(rho, zs, spec)
    assert len(calls) <= max(per_z)


def test_near_cut_batch_calls_h_once_per_level(counted_semicircle, spec):
    rho, calls = counted_semicircle
    zs = 0.3 + 1j * np.array([1e-2, -1e-2, 1e-4, -1e-4, 1e-6, -1e-6])
    stieltjes_transform(rho, zs, spec)
    assert len(calls) <= spec.max_refinement_levels + 2


def test_transform_decay_at_infinity(cheb_u, spec):
    z = 1e6
    assert abs(z * stieltjes_transform(cheb_u, z, spec) - 1.0) < 1e-4


def test_point_on_interval(cheb_u, spec):
    with pytest.raises(PointOnInterval):
        stieltjes_transform(cheb_u, 0.3, spec)
    with pytest.raises(PointOnInterval):
        stieltjes_transform(cheb_u, np.array([2.0, 0.3 + 1e-3j, -0.5, 3j]),
                            spec)


def test_reducer_closed_forms(cheb_u, uniform, linear2x, spec):
    xs = np.linspace(-0.9, 0.9, 7)
    np.testing.assert_allclose(reducer(cheb_u, xs, spec), 4.0 * xs, atol=1e-10)
    xu = np.linspace(0.1, 0.9, 7)
    np.testing.assert_allclose(reducer(uniform, xu, spec),
                               2.0 * np.log(xu / (1.0 - xu)), atol=1e-10)
    np.testing.assert_allclose(reducer(linear2x, xu, spec),
                               -4.0 * xu * np.log((1.0 - xu) / xu) - 4.0,
                               atol=1e-10)


def test_reducer_sqrt32_against_series(sqrt32, spec):
    # Lerch Phi(x, 1, -1/2) by direct series summation
    def lerch_series(x, terms=400):
        k = np.arange(terms)
        return float(np.sum(x ** k / (k - 0.5)))

    for x in (0.2, 0.36, 0.7):
        assert abs(lerch_phi_half(x) - lerch_series(x)) < 1e-12
        assert abs(reducer(sqrt32, x, spec) - 3.0 * lerch_series(x)) < 1e-9


def test_reducer_honours_level_cap(wiggly):
    with pytest.raises(NonConvergence) as exc:
        reducer(wiggly, 0.3, IntegrationSpec(max_refinement_levels=1))
    msg = str(exc.value)
    for part in ("reducer quadrature of 'wiggly'", "by level 4",
                 "1 of 1 unsettled", "worst gap", "against tolerance"):
        assert part in msg, msg


def test_lerch_domain():
    with pytest.raises(DomainError):
        lerch_phi_half(1.5)
    with pytest.raises(DomainError):
        lerch_phi_half(0.0)


def test_reducer_domain(cheb_u, spec):
    with pytest.raises(DomainError):
        reducer(cheb_u, 1.0 - 1e-9, spec)
    with pytest.raises(DomainError):
        reducer(cheb_u, 2.0, spec)


def test_reducer_cache_is_bounded(counted_semicircle, spec, monkeypatch):
    # Each call adds five points; the cache is emptied once it holds ten.
    monkeypatch.setattr("secmeasure.stieltjes._PHI_CACHE_SIZE", 10)
    rho, _ = counted_semicircle
    sizes = []
    for x in (-0.8, -0.5, -0.2, 0.1, 0.4):
        reducer(rho, np.linspace(x, x + 0.1, 5), spec)
        sizes.append(len(rho._phi[spec]))
    assert sizes == [5, 10, 5, 10, 5]


def test_secondary_measure_cheb_u(cheb_u, spec):
    # phi = 4x gives mu = rho / 4 and d0 = 1/4
    sm = secondary_measure(cheb_u, spec)
    assert abs(sm.d0 - 0.25) < 1e-12
    xs = np.linspace(-0.9, 0.9, 9)
    np.testing.assert_allclose(sm.mu(xs), cheb_u.value(xs) / 4.0, atol=1e-10)
    np.testing.assert_allclose(sm.mu0(xs), cheb_u.value(xs), atol=1e-9)
    assert abs(sm.mass() - sm.d0) < 1e-10


def test_secondary_measure_mass_matches_variance(all_catalog, spec):
    for rho in all_catalog:
        sm = secondary_measure(rho, spec)
        var = moment(rho, 2, spec) - moment(rho, 1, spec) ** 2
        assert abs(sm.d0 - var) < 1e-12
        assert abs(sm.mass() - var) < 1e-9


def test_secondary_transform_identity(uniform, cheb_u, spec):
    # S_mu(z) = z - c_1 - 1/S_rho(z)
    for rho in (uniform, cheb_u):
        c1 = moment(rho, 1, spec)
        for z in (2.0 + 0.5j, -1.5, 3j):
            z = complex(z)
            s = stieltjes_transform(rho, z, spec)
            assert abs(secondary_transform(rho, z, spec)
                       - (z - c1 - 1.0 / s)) < 1e-10


@pytest.mark.parametrize("a", [0.0, 1e4, 1e6, 1e8])
def test_d0_keeps_its_digits_far_from_the_origin(a, spec):
    # Uniform on [a, a + 1]: c_2 - c_1^2 was 6e-8 off at a = 1e4, 1e-3 off
    # at 1e6 and 0 at 1e8; the centred second moment keeps its digits.
    rho = Density(Interval(a, a + 1.0), np.ones_like, EndpointExponents(),
                  "uniform")
    assert abs(12.0 * secondary_measure(rho, spec).d0 - 1.0) <= 1e-9


def test_degenerate_measure_raises_on_reading_d0(spec):
    # Uniform on [0, 1e-6] has variance 8e-14; mu is built, d0 refuses.
    rho = Density(Interval(0.0, 1e-6), lambda x: np.full_like(x, 1e6),
                  EndpointExponents(), "narrow")
    mu = secondary_measure(rho, spec)
    with pytest.raises(DegenerateMeasure):
        mu.d0


def _jacobi_densities(count, seed, spec):
    """Probability densities x^alpha (1-x)^beta p(x) on [0, 1], exponents
    in (-0.5, 1.5) and p a cubic with coefficients in (0.2, 1)."""
    rng = np.random.default_rng(seed)
    polyval = np.polynomial.polynomial.polyval
    out = []
    for k in range(count):
        exps = EndpointExponents(*rng.uniform(-0.5, 1.5, 2))
        coef = rng.uniform(0.2, 1.0, 4)
        raw = Density(Interval(0.0, 1.0), lambda x, c=coef: polyval(x, c),
                      exps, "raw")
        coef = coef / raw.mass(spec)
        out.append(Density(Interval(0.0, 1.0),
                           lambda x, c=coef: polyval(x, c), exps, f"j{k}"))
    return out


@pytest.fixture(scope="module")
def relation_densities(spec):
    return ([catalog(name) for name in CATALOG_NAMES]
            + _jacobi_densities(20, 2026, spec))


def _relation_points(rho):
    """Far z, one of them real and 1e-2 widths off b, then near-cut z."""
    iv = rho.interval
    a, b, w = iv.a, iv.b, iv.width
    return np.array([b + 1e-2 * w, b + 0.5 * w, a - 2 * w + 0.3j * w,
                     iv.midpoint + 2j * w, a + 0.3 * w + 0.01j * w,
                     a + 0.7 * w - 0.02j * w])


def test_secondary_mass_is_d0(relation_densities, spec):
    for rho in relation_densities:
        mu = secondary_measure(rho, spec)
        assert abs(mu.mass() - mu.d0) <= 1e-9 * mu.d0


def test_secondary_transform_is_homographic(relation_densities, spec):
    # S_mu by quadrature of mu against the paper's z - c_1 - 1/S_rho(z).
    for rho in relation_densities:
        z = _relation_points(rho)
        s = stieltjes_transform(rho, z, spec)
        want = z - moment(rho, 1, spec) - 1.0 / s
        np.testing.assert_allclose(secondary_transform(rho, z, spec), want,
                                   rtol=1e-9, atol=0)


def test_family_transform_is_homographic(relation_densities, spec):
    # S/(t + (1-t)(z-c_1)S) against the quadrature of rho_t itself.
    rng = np.random.default_rng(2027)
    for rho in relation_densities:
        t = rng.uniform(0.2, 1.0)
        z = _relation_points(rho)
        np.testing.assert_allclose(
            family_transform(rho, t, z, spec),
            stieltjes_transform(family(rho, t, spec), z, spec),
            rtol=1e-8, atol=0)


def test_perron_recovers_density(cheb_u, uniform, spec):
    for rho, xs in ((cheb_u, (-0.5, 0.0, 0.6)), (uniform, (0.2, 0.5, 0.8))):
        S = lambda z, r=rho: stieltjes_transform(r, z, spec)
        for x in xs:
            assert abs(perron_invert(S, x) - rho.value(x)) < 1e-8


def test_perron_calls_S_once_on_the_whole_ladder(cheb_u, spec):
    shapes = []

    def S(z):
        shapes.append(np.shape(z))
        return stieltjes_transform(cheb_u, z, spec)

    assert abs(perron_invert(S, 0.3) - cheb_u.value(0.3)) < 1e-8
    assert shapes == [(18,)]


def test_perron_divergence_on_pole():
    with pytest.raises(ExtrapolationDivergence):
        perron_invert(lambda z: 1.0 / (z - 0.4), 0.4)
