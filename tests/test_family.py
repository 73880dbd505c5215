import math

import numpy as np
import pytest

from secmeasure import (DenominatorZero, Density, DomainError, Interval,
                        InvalidParameter, denominator_root_scan,
                        dirac_limit_check, equi_normality_check, family,
                        family_density, family_transform, moment,
                        moment0_curve, reducer, validate_parameter)
from secmeasure.family import _FAMILY_CACHE_SIZE
from secmeasure.quadrature import EndpointExponents


def test_parameter_validation(uniform, spec):
    for t in (0.0, -2.0):
        with pytest.raises(InvalidParameter):
            family(uniform, t, spec)
        with pytest.raises(InvalidParameter):
            family_density(uniform, t, 0.5, spec)
        with pytest.raises(InvalidParameter):
            validate_parameter(uniform, t, spec)


def test_t_equals_one_is_identity(uniform, spec):
    xs = np.linspace(0.05, 0.95, 9)
    np.testing.assert_allclose(family_density(uniform, 1.0, xs, spec),
                               uniform.value(xs), rtol=0)


def test_family_density_cheb_u_closed_form(cheb_u, spec):
    xs = np.linspace(-0.9, 0.9, 11)
    for t in (0.4, 1.5, 2.0):
        expct = (2 * t * np.sqrt(1 - xs * xs)
                 / (math.pi * (t * t + 4 * (1 - t) * xs * xs)))
        np.testing.assert_allclose(family_density(cheb_u, t, xs, spec), expct,
                                   atol=1e-12)


def test_family_t2_is_cheb_t(cheb_u, cheb_t, spec):
    xs = np.linspace(-0.95, 0.95, 11)
    np.testing.assert_allclose(family_density(cheb_u, 2.0, xs, spec),
                               cheb_t.value(xs), atol=1e-12)


def test_family_reducer_cheb_u(cheb_u, spec):
    xs = np.linspace(-0.8, 0.8, 9)
    for t in (0.5, 1.5):
        dens = validate_parameter(cheb_u, t, spec)
        expct = 2 * (4 - 2 * t) * xs / (t * t + 4 * (1 - t) * xs * xs)
        np.testing.assert_allclose(reducer(dens, xs, spec), expct, atol=1e-9)


def test_family_transform_closed_form(cheb_u, spec):
    for t in (0.6, 1.4):
        for z in (2.0, 3.0 + 1j, 4.0 - 0.5j):
            z = complex(z)
            expct = 2.0 / ((2 - t) * z + t * np.sqrt(z - 1) * np.sqrt(z + 1))
            assert abs(family_transform(cheb_u, t, z, spec) - expct) < 1e-12


def test_family_transform_array(cheb_u, spec):
    zs = np.array([[2.0, 3.0 + 1j], [0.3 + 1e-6j, -4.0 - 0.5j]])
    got = family_transform(cheb_u, 1.4, zs, spec)
    assert got.shape == zs.shape
    want = [family_transform(cheb_u, 1.4, z, spec) for z in zs.ravel()]
    np.testing.assert_allclose(got.ravel(), want, rtol=1e-14, atol=0)
    assert type(family_transform(cheb_u, 1.4, 2.0, spec)) is complex


def test_family_transform_denominator_zero(cheb_u, spec):
    # 3 + (1-3) z S(z) vanishes at z = 3/(2 sqrt 2) for the semicircle
    root = 3.0 / (2.0 * math.sqrt(2.0))
    with pytest.raises(DenominatorZero):
        family_transform(cheb_u, 3.0, root, spec)
    with pytest.raises(DenominatorZero):
        family_transform(cheb_u, 3.0, np.array([2.0, root, 3.0 + 1j]), spec)
    assert np.all(np.isfinite(
        family_transform(cheb_u, 3.0, np.array([2.0, 3.0 + 1j]), spec)))


def test_family_transform_rejects_bad_t(cheb_u, spec):
    with pytest.raises(InvalidParameter):
        family_transform(cheb_u, -1.0, 2.0, spec)


def test_moment0_curve_paper_values(uniform, sqrt32, linear2x, cheb_u, spec):
    assert abs(moment0_curve(uniform, 1.3, spec) - 0.9799849175) < 1e-8
    assert abs(moment0_curve(sqrt32, 2.0, spec) - 0.7496041742) < 1e-8
    assert abs(moment0_curve(sqrt32, 1.24, spec) - 0.9911159300) < 1e-8
    assert abs(moment0_curve(linear2x, 0.45, spec) - 1.0) < 1e-10
    for t in (0.3, 1.0, 1.7, 2.0):
        assert abs(moment0_curve(cheb_u, t, spec) - 1.0) < 1e-6


def test_validity_statuses(cheb_u, uniform, spec):
    assert validate_parameter(cheb_u, 0.5, spec).validity == "proven"
    assert validate_parameter(cheb_u, 2.0, spec).validity == "empirical"
    assert validate_parameter(uniform, 1.5, spec).validity == "invalid"
    with pytest.raises(InvalidParameter):
        family(uniform, 1.5, spec)


def test_screen_stops_at_a_root(spec):
    # At t = 1.3 the root scan finds the uniform density's two roots, so
    # the screen never builds rho_t's rule for the mass check; the mass is
    # still there to read afterwards.
    rho = Density(Interval(0.0, 1.0), lambda x: np.ones(np.shape(x)),
                  EndpointExponents(), "uniform")
    dens = validate_parameter(rho, 1.3, spec)
    assert dens.validity == "invalid"
    assert dens._rules == {}
    assert abs(moment0_curve(rho, 1.3, spec) - 0.9799849175) < 1e-8


def test_family_cache_is_bounded(spec):
    rho = Density(Interval(0.0, 1.0), lambda x: np.ones(np.shape(x)),
                  EndpointExponents(), "uniform")
    for t in np.linspace(0.01, 1.0, 300):
        assert validate_parameter(rho, float(t), spec).t == t
    assert 0 < len(rho._family) <= _FAMILY_CACHE_SIZE < 300


def test_root_scan_bracket(cheb_u, spec):
    brackets = denominator_root_scan(cheb_u, 3.0, Interval(1.001, 5.0), spec)
    assert len(brackets) == 1
    lo, hi = brackets[0]
    assert 1.06 < lo < hi < 1.07
    assert hi - lo < 1e-9
    # exact root of 3 + (1-3) z S(z) for the semicircle: 3/(2 sqrt 2)
    root = 3.0 / (2.0 * math.sqrt(2.0))
    assert lo <= root <= hi


def test_root_scan_both_sides(cheb_u):
    # search=None searches both sides of the support, left first; for the
    # semicircle at t = 3 the roots are -+3/(2 sqrt 2).
    brackets = denominator_root_scan(cheb_u, 3.0, None)
    root = 3.0 / (2.0 * math.sqrt(2.0))
    assert len(brackets) == 2
    (llo, lhi), (rlo, rhi) = brackets
    assert llo <= -root <= lhi and rlo <= root <= rhi


def test_root_scan_none_below_one(all_catalog, spec):
    for rho in all_catalog:
        a, b, w = rho.interval.a, rho.interval.b, rho.interval.width
        for t in (0.3, 0.9):
            assert denominator_root_scan(
                rho, t, Interval(b + 1e-3 * w, b + 10 * w), spec) == []


def test_root_scan_is_one_batched_call(counted_semicircle, spec):
    rho, calls = counted_semicircle
    moment(rho, 1, spec)  # c_1 is cached before counting
    calls.clear()
    assert denominator_root_scan(rho, 0.5, Interval(1.001, 11.0), spec) == []
    assert len(calls) <= spec.max_refinement_levels + 1


def test_root_scan_rejects_overlap(cheb_u, spec):
    with pytest.raises(DomainError):
        denominator_root_scan(cheb_u, 2.0, Interval(0.5, 3.0), spec)


def _uniform_root(t):
    """Distance d > 0 from [0, 1] of the roots 1 + d and -d of the uniform
    density's denominator at t > 1: the solution of
    (d + 1/2) log((1 + d)/d) = t/(t - 1), by bisection in log d."""
    level = t / (t - 1.0)
    lo, hi = -40.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        d = math.exp(mid)
        if (d + 0.5) * math.log((1.0 + d) / d) > level:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


@pytest.mark.parametrize("t", [1.3, 1500.0])
def test_root_scan_finds_near_and_far_roots(uniform, t, spec):
    # At t = 1.3 the roots lie 1.728e-4 off the support, at t = 1500 about
    # 10.68 off it; a grid from 1e-3 to 10 widths missed both.
    d = _uniform_root(t)
    (llo, lhi), (rlo, rhi) = denominator_root_scan(uniform, t, None, spec)
    assert llo <= -d <= lhi and rlo <= 1.0 + d <= rhi
    assert max(lhi - llo, rhi - rlo) <= 1e-10
    assert validate_parameter(uniform, t, spec).validity == "invalid"


@pytest.mark.parametrize("w", [1e-9, 1e-3, 1e6])
def test_root_scan_is_scale_free(w, spec):
    rho = Density(Interval(0.0, w), lambda x: np.full(np.shape(x), 1.0 / w),
                  EndpointExponents(), "uniform")
    d = _uniform_root(3.0)
    brackets = denominator_root_scan(rho, 3.0, None, spec)
    assert len(brackets) == 2
    for (lo, hi), root in zip(brackets, (-d, 1.0 + d)):
        assert lo <= root * w <= hi
        assert hi - lo <= 1e-10 * w


@pytest.mark.parametrize("a", [1e4, 1e6, 1e7, 1e8])
def test_root_scan_far_from_the_origin(a, spec):
    # Uniform on [a, a + 1]: 1e-10 w is below the float spacing there.
    # Before the brackets stopped at a few spacings, a = 1e6 never returned,
    # a = 1e7 raised PointOnInterval, and a = 1e8 (where c_2 - c_1^2
    # cancels to 0) returned no brackets.
    rho = Density(Interval(a, a + 1.0), lambda x: np.ones(np.shape(x)),
                  EndpointExponents(), "uniform")
    d = _uniform_root(3.0)
    brackets = denominator_root_scan(rho, 3.0, None, spec)
    assert len(brackets) == 2
    for (lo, hi), root in zip(brackets, (a - d, a + 1.0 + d)):
        assert lo <= root <= hi
        assert hi - lo <= max(1e-10, 8 * np.spacing(a + 1.0))


def test_root_scan_narrows_in_few_calls(counted_semicircle, spec):
    # One call for the ends of both sides, then one per k-section round;
    # the grid scan with bisection made 128 calls of h here.
    rho, calls = counted_semicircle
    root = 3.0 / (2.0 * math.sqrt(2.0))
    (llo, lhi), (rlo, rhi) = denominator_root_scan(rho, 3.0, None, spec)
    assert llo <= -root <= lhi and rlo <= root <= rhi
    assert len(calls) <= 40


def test_group_action(cheb_u, spec):
    xs = np.linspace(-0.8, 0.8, 9)
    dens_t = family(cheb_u, 0.5, spec)
    np.testing.assert_allclose(family_density(dens_t, 0.8, xs, spec),
                               family_density(cheb_u, 0.4, xs, spec),
                               atol=1e-10)


def test_equi_normality(cheb_u, uniform, spec):
    assert equi_normality_check(cheb_u, 2.0, spec).passed
    assert equi_normality_check(uniform, 0.5, spec).passed


def test_second_moment_identity(uniform, spec):
    for t in (0.25, 0.5, 0.75):
        c2p = moment(family(uniform, t, spec), 2, spec)
        assert abs(c2p - (t + 3.0) / 12.0) < 1e-9


def test_dirac_limit(uniform, spec):
    # g = exp, not a polynomial: with g = x the gap is zero at every t.
    g = np.exp
    rep = dirac_limit_check(uniform, g, spec=spec)
    assert rep.passed and rep.computed > 1e-4
