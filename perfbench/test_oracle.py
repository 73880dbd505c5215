"""Tests of the benchmark's oracle against known catalog values.

Run with ``python -m pytest perfbench``; needs numpy only.
"""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from oracle import (JacobiDensity, cheb_u_transform, semicircle,
                    semicircle_family, semicircle_root)


def test_uniform_moments():
    c = JacobiDensity(0.0, 1.0, 0.0, 0.0, [1.0]).moments(12)
    np.testing.assert_allclose(c, 1.0 / np.arange(1, 14), rtol=1e-15)


def test_cheb_u_catalan_moments():
    c = semicircle(-1.0, 1.0).moments(10)
    catalan = [math.comb(2 * k, k) // (k + 1) for k in range(6)]
    even = [catalan[k] / 4 ** k for k in range(6)]
    np.testing.assert_allclose(c[0::2], even, rtol=1e-12)
    np.testing.assert_allclose(c[1::2], 0.0, atol=1e-12)


@pytest.mark.parametrize("z", [3.0, -2.5, 2.0 + 2.0j, -0.3 + 3.1j, 0.5 - 4.0j])
def test_cheb_u_transform(z):
    assert semicircle(-1.0, 1.0).stieltjes(z) == pytest.approx(
        cheb_u_transform(z), rel=1e-14)


def test_cheb_u_recurrence():
    a, b = semicircle(-1.0, 1.0).recurrence(10)
    np.testing.assert_allclose(a, 0.0, atol=1e-14)
    np.testing.assert_allclose(b, 0.5, rtol=1e-13)


def _jacobi():
    return JacobiDensity(0.0, 1.0, 0.3, -0.4, [0.5, 0.2, 0.7])


def test_gauss_rule_reproduces_moments():
    rho = _jacobi()
    x, w = rho.gauss_rule()
    np.testing.assert_allclose([w @ x ** n for n in range(30)],
                               rho.moments(29), rtol=1e-13)


def test_transform_series_matches_rule():
    rho = _jacobi()
    x, w = rho.gauss_rule(80)
    for z in (-1.5, 2.5, 0.5 + 2.0j, -1.0 - 1.5j):
        assert rho.stieltjes(z) == pytest.approx(w @ (1.0 / (z - x)), rel=1e-13)
        assert rho.stieltjes_prime(z) == pytest.approx(
            -(w @ (1.0 / (z - x) ** 2)), rel=1e-13)


def test_T_poly_and_pole_match_rule():
    rho = _jacobi()
    x, w = rho.gauss_rule(80)
    xs = np.array([0.1, 0.45, 0.9])
    f = np.array([0.3, -1.0, 0.5, 2.0])
    direct = [w @ ((P.polyval(x, f) - P.polyval(v, f)) / (x - v)) for v in xs]
    np.testing.assert_allclose(P.polyval(xs, rho.T_poly(f)), direct, rtol=1e-13)
    p = 1.7
    direct = [w @ ((1 / (x + p) - 1 / (v + p)) / (x - v)) for v in xs]
    np.testing.assert_allclose(rho.T_pole_factor(p) / (xs + p), direct, rtol=1e-13)


def test_variances_match_rule():
    rho = _jacobi()
    x, w = rho.gauss_rule(80)
    f = np.array([0.2, 1.0, -0.7])
    v = P.polyval(x, f)
    assert rho.variance_of_poly(f) == pytest.approx(w @ v ** 2 - (w @ v) ** 2,
                                                    rel=1e-13)
    v = 1 / (x + 2.2)
    assert rho.variance_of_pole(2.2) == pytest.approx(w @ v ** 2 - (w @ v) ** 2,
                                                      rel=1e-11)


def test_uniform_T_of_square():
    # T(x^2)(x) = int (u + x) du = 1/2 + x for the uniform density.
    rho = JacobiDensity(0.0, 1.0, 0.0, 0.0, [1.0])
    np.testing.assert_allclose(rho.T_poly([0.0, 0.0, 1.0]), [0.5, 1.0])


def test_semicircle_family_and_roots():
    rho = semicircle(-1.0, 1.0)
    # rho_1 = rho, and cheb-u at t = 2 is the Chebyshev-T density.
    xs = np.array([-0.7, 0.1, 0.8])
    np.testing.assert_allclose(semicircle_family(-1, 1, 1.0, xs), rho.value(xs))
    np.testing.assert_allclose(semicircle_family(-1, 1, 2.0, xs),
                               1 / (math.pi * np.sqrt(1 - xs ** 2)), rtol=1e-14)
    assert semicircle_root(3.0) == pytest.approx(math.sqrt(9 / 8))
    assert rho.denominator_roots(3.0) == ("left", "right")
    assert rho.denominator_roots(1.9) == ()
    assert rho.endpoint_limits() == pytest.approx((2.0, 2.0))
    assert rho.screen_outcomes(3.0) == {"invalid"}
    assert rho.screen_outcomes(1.9) == {"empirical"}


def test_screen_gap():
    # alpha = 0.13: (x - c_1) S(x) creeps up to L_a like |x - a|^0.13, so at
    # t = 1.604 the left root sits far closer to the support than 1e-3 widths.
    rho = JacobiDensity(0.0, 1.0, 0.130606660232373, 0.4212266571073773,
                        [0.45699955, 1.68858542, 1.6979404])
    assert rho.denominator_roots(1.6038272986781354) == ("left",)
    assert rho.screen_outcomes(1.6038272986781354) == {"empirical", "invalid"}
