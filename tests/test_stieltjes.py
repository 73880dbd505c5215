import math

import numpy as np
import pytest

from secmeasure import (DomainError, ExtrapolationDivergence, IntegrationSpec,
                        NonConvergence, PointOnInterval, catalog,
                        lerch_phi_half, moment, perron_invert, reducer,
                        secondary_measure, secondary_transform,
                        stieltjes_transform)


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
