import math
import warnings

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from secmeasure import (CATALOG_NAMES, DegenerateMeasure, Density,
                        DomainError, EvaluationFailure,
                        ExtrapolationDivergence, IntegrationSpec,
                        Interval, NonConvergence, PointOnInterval, catalog,
                        family, family_transform, lerch_phi_half, moment,
                        moment0_curve, perron_invert, reducer, secondary_measure,
                        secondary_transform, stieltjes_transform)
from secmeasure.quadrature import KERNEL_ENTRIES, EndpointExponents
from secmeasure.stieltjes import _PHI_CLAMP, _on_cut, _phi_batch


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
    # One z per call and the pair, one z next to each end, agree.
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


def test_transform_near_an_end_is_served(uniform, spec):
    # Re z inside the support but within 5e-4 widths of an end, |Im z| down
    # to 1e-10: the far path did not settle for 12 of these z (Re z 1e-5,
    # 5e-4 or 0.9995 with |Im z| 1e-8 or 1e-10), nor for any array that
    # held one of them.  Those lie closer to the cut than to the end and
    # take the near-cut path.
    re = np.array([1e-8, 1e-5, 5e-4, 0.9995, 1.0 - 1e-9])
    im = np.array([s * y for y in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
                   for s in (1, -1)])
    zs = (re[:, None] + 1j * im[None, :]).ravel()
    want = np.log(zs / (zs - 1.0))
    np.testing.assert_allclose(stieltjes_transform(uniform, zs, spec), want,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose([stieltjes_transform(uniform, z, spec)
                                for z in zs], want, rtol=1e-12, atol=0)


def test_transform_near_an_end_against_mpmath(spec):
    # x^-0.4 (1-x)^0.3, normalised, 5e-4 widths off each end at Im z =
    # 1e-8; the far path did not settle at either z.  The reference is
    # mpmath's tanh-sinh at 30 digits on [0, Re z] and [Re z, 1].
    mpmath = pytest.importorskip("mpmath")
    norm = math.gamma(1.9) / (math.gamma(0.6) * math.gamma(1.3))
    rho = Density(Interval(0.0, 1.0), lambda x: np.full(np.shape(x), norm),
                  EndpointExponents(-0.4, 0.3), "jacobi")
    zs = np.array([5e-4 + 1e-8j, 0.9995 + 1e-8j])
    got = stieltjes_transform(rho, zs, spec)
    with mpmath.workdps(30):
        c = 1 / mpmath.beta(mpmath.mpf("0.6"), mpmath.mpf("1.3"))
        want = [complex(mpmath.quad(
            lambda x, z=mpmath.mpc(z): (c * x ** mpmath.mpf("-0.4")
                                        * (1 - x) ** mpmath.mpf("0.3")
                                        / (z - x)),
            [0, z.real, 1])) for z in zs]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_transform_nearer_an_end_than_the_cut_takes_the_far_path(spec):
    # The arcsine density on [0, 1], S(z) = 1/(sqrt(z) sqrt(z - 1)).  Here
    # Im z is far larger than the distance to the end, so rho(Re z), up to
    # 1e150, dwarfs S: the subtracted near-cut form lost 2.5e-11 relative
    # to cancellation at 1e-12 widths, and raised at 1e-300, where rho is
    # infinite.  These z take the far path.
    rho = Density(Interval(0.0, 1.0),
                  lambda x: np.full(np.shape(x), 1.0 / math.pi),
                  EndpointExponents(-0.5, -0.5), "arcsine")
    zs = np.array([1e-12 + 1e-2j, 1e-12 - 1e-2j, 1e-300 + 1e-2j,
                   1.0 - 1e-12 + 1e-2j, 1e-6 + 1e-3j])
    want = 1.0 / (np.sqrt(zs) * np.sqrt(zs - 1.0))
    np.testing.assert_allclose(stieltjes_transform(rho, zs, spec), want,
                               rtol=1e-13, atol=0)
    np.testing.assert_allclose([stieltjes_transform(rho, z, spec)
                                for z in zs], want, rtol=1e-13, atol=0)


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
    # 600 far z, real and complex, each side of the midpoint: more rows
    # than one block of kernel entries holds on the first pass.
    r = np.linspace(1.5, 6.0, 150)
    big = np.concatenate([r, -r, r * np.exp(0.5j), -r * np.exp(-2j)])
    for zs in (np.array(far), np.array(near),
               np.array(far[:3] + near + far[3:]).reshape(3, 5), big):
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


def test_near_cut_blocks_bound_each_density_call(spec):
    # 2,000 z at Im z = 1e-6 make 4,000 rows; one matrix of all of them
    # handed h 512,000 points at once.  Blocked, no call exceeds the block
    # bound, and a z's value does not depend on its block: every fifth z
    # alone gives the same number.
    calls = []

    def h(x):
        calls.append(np.size(x))
        return 1.0 + 0.5 * x * x

    rho = Density(Interval(0.0, 1.0), h, EndpointExponents(-0.3, 0.4), "h")
    zs = np.linspace(0.01, 0.99, 2000) + 1e-6j
    got = stieltjes_transform(rho, zs, spec)
    assert max(calls) <= KERNEL_ENTRIES
    np.testing.assert_allclose([stieltjes_transform(rho, z, spec)
                                for z in zs[::5]], got[::5], rtol=1e-14,
                               atol=0)


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


def test_reducer_of_a_rough_density_to_its_tolerance(spec):
    # h = 1 + |x - 0.3|^3 jumps in its third derivative, so the level sums
    # of the reducer converge algebraically, 16 times per level, and only
    # the relative tolerance stops them; a stop at 1e-8 of the integrand's
    # magnitude leaves errors of 1e-8.  Each polynomial piece P on [lo, hi]
    # has PV int P(t)/(x - t) dt = P(x) ln|(x - lo)/(x - hi)| +
    # int (P(t) - P(x))/(x - t) dt, the last a polynomial integral.
    c = 0.3
    rho = Density(Interval(0.0, 1.0), lambda x: 1.0 + np.abs(x - c) ** 3,
                  EndpointExponents(), "rough")
    pieces = [(0.0, c, 1.0 + Polynomial([c, -1.0]) ** 3),
              (c, 1.0, 1.0 + Polynomial([-c, 1.0]) ** 3)]
    xs = np.array([0.1, 0.25, 0.5, 0.7, 0.9])
    want = []
    for x in xs:
        pv = 0.0
        for lo, hi, p in pieces:
            q = (p - p(x)) // Polynomial([x, -1.0])
            pv += p(x) * math.log(abs((x - lo) / (x - hi))) + q.integ()(hi) \
                - q.integ()(lo)
        want.append(2.0 * pv)
    np.testing.assert_allclose(reducer(rho, xs, spec), want, rtol=1e-10,
                               atol=0)


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
    # Served from 1e-4 widths inside: here at 2e-4 widths off each end.
    x = np.array([-1.0 + 4e-4, 1.0 - 4e-4])
    np.testing.assert_allclose(reducer(cheb_u, x, spec), 4.0 * x, atol=1e-10)


def test_reducer_and_mu_refuse_a_non_finite_point(uniform, spec):
    # A NaN passed the margin's comparisons and failed in the quadrature
    # as a non-finite estimate (EvaluationFailure).
    mu = secondary_measure(uniform, spec)
    for x in (math.nan, np.array([0.5, math.nan]), -math.inf):
        with pytest.raises(DomainError):
            reducer(uniform, x, spec)
        with pytest.raises(DomainError):
            mu.mu(x)


@pytest.mark.parametrize("name", ["stieltjes_transform", "family_transform",
                                  "perron_invert"])
def test_a_non_finite_z_is_refused(name, uniform, cheb_u, spec):
    # A NaN failed as a non-finite estimate (EvaluationFailure, exit 3), and
    # S(inf) = 0 times an infinite Moebius coefficient gave nan+nanj.
    call = {"stieltjes_transform":
            lambda: stieltjes_transform(uniform, math.nan, spec),
            "family_transform":
            lambda: family_transform(cheb_u, 0.5, math.inf, spec),
            "perron_invert": lambda: perron_invert(
                lambda z: stieltjes_transform(uniform, z, spec), math.nan)}
    with pytest.raises(DomainError, match="points must be finite"):
        call[name]()


def test_reducer_cache_is_bounded(counted_semicircle, spec, monkeypatch):
    # Each call adds five points; the cache is emptied once it holds ten.
    monkeypatch.setattr("secmeasure.stieltjes._PHI_CACHE_SIZE", 10)
    rho, _ = counted_semicircle
    sizes = []
    for x in (-0.8, -0.5, -0.2, 0.1, 0.4):
        reducer(rho, np.linspace(x, x + 0.1, 5), spec)
        sizes.append(len(rho._phi[spec]))
    assert sizes == [5, 10, 5, 10, 5]


def test_reducer_cache_names_each_node_by_its_exact_distance(spec):
    # On [1e8, 1e8 + 1] floats are 1.5e-8 widths apart, so next to an end
    # many nodes round to one x.  After these calls the density keeps phi
    # at every node of the finest level reached, in its node cache, and
    # each node's is the one _phi_batch gives at that point alone; keyed by
    # x, 122 of 1,325 nodes read another node's phi, off by up to 3.9.
    a = 1e8
    rho = Density(Interval(a, a + 1.0), lambda x: np.ones(np.shape(x)),
                  EndpointExponents(), "far uniform")
    secondary_measure(rho, spec).mass()
    moment0_curve(rho, 0.7, spec)
    moment0_curve(rho, 1.5, spec)
    kept, level = rho._phi_nodes[spec][:2]
    x, dl, dr = rho._node_points(level)
    phi = 2.0 * _on_cut(rho, x, dl, dr, spec, (level, False))[0]
    # Read from the node cache: no level added, nothing new in the dict,
    # which holds the two clamp points only.
    assert rho._phi_nodes[spec][0] is kept and len(kept) > 1000
    assert len(rho._phi[spec]) == 2
    clamp = _PHI_CLAMP * rho.interval.width
    dl, dr = np.clip(dl, clamp, 1.0 - clamp), np.clip(dr, clamp, 1.0 - clamp)
    nodes = np.unique(np.where(dl <= dr, dl, -dr), return_index=True)[1]
    assert len(np.unique(x[nodes])) < len(nodes) - 100
    alone = [_phi_batch(rho, dl[i:i + 1], dr[i:i + 1], np.ones(1), spec)[0]
             for i in nodes]
    np.testing.assert_allclose(phi[nodes], alone, rtol=1e-13, atol=1e-13)


def test_reducer_settles_on_its_first_two_levels():
    # The first level's factored sum, its odd-k part the second column of
    # the level's kernel product, already agrees with the second level's
    # on these smooth reducers; with the full sums in the odd part's
    # place it was off by 0.59 on cheb-u and needed a third level.
    two = IntegrationSpec(max_refinement_levels=1)
    x = np.linspace(0.1, 0.9, 9)
    semi = Density(Interval(-1.0, 1.0),
                   lambda x: np.full(np.shape(x), 2.0 / math.pi),
                   EndpointExponents(0.5, 0.5), "cheb-u")
    np.testing.assert_allclose(reducer(semi, 2.0 * x - 1.0, two),
                               4.0 * (2.0 * x - 1.0), rtol=0, atol=1e-12)
    lin = Density(Interval(0.0, 1.0), lambda x: 2.0 * np.asarray(x),
                  EndpointExponents(), "linear2x")
    np.testing.assert_allclose(reducer(lin, x, two),
                               4.0 * (x * np.log(x / (1.0 - x)) - 1.0),
                               rtol=0, atol=1e-12)


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
    in (-0.5, 1.5) and p a cubic with coefficients in (0.2, 1), the
    ``Polynomial`` p their smooth part."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        exps = EndpointExponents(*rng.uniform(-0.5, 1.5, 2))
        p = Polynomial(rng.uniform(0.2, 1.0, 4))
        raw = Density(Interval(0.0, 1.0), p, exps, "raw")
        out.append(Density(Interval(0.0, 1.0), p / raw.mass(spec), exps,
                           f"j{k}"))
    return out


@pytest.fixture(scope="module")
def relation_densities(spec):
    return ([catalog(name) for name in CATALOG_NAMES]
            + _jacobi_densities(20, 2026, spec))


def test_reducer_at_and_next_to_rule_nodes_against_mpmath(spec):
    # The reducer at the rule's nodes in (1e-3, 1 - 1e-3) and at points
    # 1e-9 widths off them.  A finite difference of h in place of the
    # quotient next to a node left the off-node points of 3 of these
    # densities unsettled, and missed the mpmath values at the points
    # below by up to 1.8e-11 at nodes and 1.0e-10 off them; the factored
    # sum misses by 6.2e-15 and 1.3e-15.  The reference is phi(x)/2 = int
    # (rho(u) - rho(x))/(x - u) du + rho(x) ln(x/(1 - x)), the integral
    # split at x, in mpmath at 30 digits, at one node and one off-node
    # point per density.
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2029)
    for rho in _jacobi_densities(20, 2026, spec):
        x = rho.rule(spec).x
        x = x[(x > 1e-3) & (x < 1.0 - 1e-3)]
        pts = np.concatenate([x, x + 1e-9])
        got = reducer(rho, pts, spec)
        pick = rng.integers(len(x), size=2) + [0, len(x)]
        with mpmath.workdps(30):
            al, be = (mpmath.mpf(e) for e in (rho.exps.alpha, rho.exps.beta))
            cs = [mpmath.mpf(c) for c in rho.smooth_part.coef[::-1]]

            def r(u):
                return u ** al * (1 - u) ** be * mpmath.polyval(cs, u)

            want = []
            for v in map(mpmath.mpf, pts[pick]):
                rv = r(v)
                want.append(float(2 * (mpmath.quad(
                    lambda u: (r(u) - rv) / (v - u), [0, v, 1])
                    + rv * mpmath.log(v / (1 - v)))))
        np.testing.assert_allclose(got[pick], want, rtol=1e-12, atol=0)


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


def test_derived_mass_defaults_to_its_own_spec(all_catalog, spec):
    # mu's mass took no spec (TypeError), and rho_t's mass() integrated at
    # the default spec, not its own: linear2x at t = 0.5 read 1.0000000000016
    # against 1.0000000000016112.
    coarse = IntegrationSpec(rel_tol=1e-6)
    for rho in all_catalog:
        mu = secondary_measure(rho, spec)
        assert mu.mass(spec) == mu.mass()
        rho_t = family(rho, 0.5, coarse)
        assert rho_t.mass() == rho_t.mass(rho_t.spec)


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


def test_second_generation_constructions(relation_densities, spec):
    # mu and rho_s of a member rho_t: the mass of mu_t is t d0, rho_t's
    # members have unit mass for s <= 1, and (rho_t)_s = rho_{ts} (the
    # co-dilations compose), checked on the second moment.
    rng = np.random.default_rng(2028)
    for rho in relation_densities:
        t, s = rng.uniform(0.2, 1.0, 2)
        rho_t = family(rho, t, spec)
        d0 = secondary_measure(rho, spec).d0
        mu_t = secondary_measure(rho_t, spec)
        assert abs(mu_t.mass() - t * d0) <= 1e-9 * t * d0
        assert abs(moment0_curve(rho_t, s, spec) - 1.0) <= 1e-9
        assert abs(moment(family(rho_t, s, spec), 2, spec)
                   - moment(family(rho, t * s, spec), 2, spec)) <= 1e-9


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


def test_perron_rejects_imaginary_residue(cheb_u, spec):
    # A rotated transform leaves a cut jump with an imaginary part.
    with pytest.raises(ExtrapolationDivergence,
                       match="kept imaginary residue 6.073e-04"):
        perron_invert(
            lambda z: (1 + 1e-3j) * stieltjes_transform(cheb_u, z, spec), 0.3)


def _uniform_transform(z):
    return np.log(z / (z - 1.0))


def _spoiled(k, value):
    """The uniform density's transform with its k-th value replaced."""

    def S(z):
        s = _uniform_transform(z)
        s[k] = value
        return s

    return S


@pytest.mark.parametrize("S, error", [
    (lambda z: np.complex128(1.0), TypeError),
    (lambda z: _uniform_transform(z)[:-1], TypeError),
    (_spoiled(4, np.nan), EvaluationFailure),
    (_spoiled(13, np.inf), EvaluationFailure),
], ids=["0-d", "short", "one-nan", "one-inf"])
def test_perron_rejects_a_ladder_of_wrong_shape_or_not_finite(S, error):
    # The evaluator's values are checked before any arithmetic on them:
    # no numpy error or warning, and no NaN returned.
    assert abs(perron_invert(_uniform_transform, 0.3) - 1.0) < 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="shape|x=0.3"):
            perron_invert(S, 0.3)


def test_perron_rejects_nearby_pole(cheb_u, spec):
    # A pole 1e-3 off x spoils the extrapolation without reaching x.
    with pytest.raises(ExtrapolationDivergence,
                       match=r"not Cauchy \(best gap 9.284e-05\)"):
        perron_invert(lambda z: stieltjes_transform(cheb_u, z, spec)
                      + 1e-3 / (z - 0.301), 0.3)
