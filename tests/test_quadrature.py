import math

import numpy as np
import pytest

from secmeasure import IntegrationSpec, Interval, NonConvergence
from secmeasure.quadrature import (DEFAULT_SPEC, difference_quotient,
                                   numerical_derivative, principal_value,
                                   tanh_sinh, tanh_sinh_nodes)


def test_interval_helpers():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert iv.midpoint == 1.0
    assert iv.contains(0.0) and not iv.contains(3.5)
    assert iv.distance_to(5.0) == 2.0
    assert iv.distance_to(1.0) == 0.0


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(2.0, 2.0)


def test_tanh_sinh_nodes_nest():
    g3, w3, _, _ = tanh_sinh_nodes(3)
    g4, _, _, _ = tanh_sinh_nodes(4)
    assert set(np.round(g3, 12)).issubset(set(np.round(g4, 12)))
    assert np.all(w3 > 0)


def test_tanh_sinh_smooth():
    val = tanh_sinh(lambda x, dl, dr: np.exp(x), Interval(0.0, 1.0),
                    DEFAULT_SPEC)
    assert abs(val - (math.e - 1.0)) < 1e-13


def test_tanh_sinh_endpoint_singularity():
    # int_0^1 x^{-1/2} dx = 2, integrable singularity at the left endpoint
    val = tanh_sinh(lambda x, dl, dr: 1.0 / np.sqrt(dl), Interval(0.0, 1.0),
                    DEFAULT_SPEC)
    assert abs(val - 2.0) < 1e-12


def test_tanh_sinh_both_singular():
    # int_{-1}^{1} (1-x^2)^{-1/2} dx = pi
    val = tanh_sinh(lambda x, dl, dr: 1.0 / np.sqrt(dl * dr),
                    Interval(-1.0, 1.0), DEFAULT_SPEC)
    assert abs(val - math.pi) < 1e-12


def test_tanh_sinh_nonconvergence():
    spec = IntegrationSpec(rel_tol=1e-15, abs_tol=1e-16,
                           max_refinement_levels=3)
    with pytest.raises(NonConvergence):
        tanh_sinh(lambda x, dl, dr: np.cos(50.0 * x * x) / np.sqrt(dl),
                  Interval(0.0, 1.0), spec)


def test_tanh_sinh_sin_and_polynomial():
    val = tanh_sinh(lambda x, dl, dr: np.sin(x), Interval(0.0, math.pi),
                    DEFAULT_SPEC)
    assert abs(val - 2.0) < 1e-12
    assert abs(tanh_sinh(lambda x, dl, dr: x ** 7, Interval(-1.0, 2.0),
                         DEFAULT_SPEC) - (2.0 ** 8 - 1.0) / 8.0) < 1e-10


def test_tanh_sinh_complex():
    val = tanh_sinh(lambda x, dl, dr: 1.0 / (x - 1j), Interval(0.0, 1.0),
                    DEFAULT_SPEC)
    expected = complex(np.log((1 - 1j) / (-1j)))
    assert abs(val - expected) < 1e-12


def test_principal_value_analytic():
    # PV int_{-1}^{1} 1/(c - u) du = ln((1+c)/(1-c)) at c = 0.3
    val = principal_value(lambda x: np.ones_like(x), 0.3, Interval(-1.0, 1.0),
                          DEFAULT_SPEC)
    assert abs(val - math.log(1.3 / 0.7)) < 1e-12


def test_principal_value_smooth_numerator():
    # PV int_{-1}^{1} u/(c - u) du = -2 + c ln((1+c)/(1-c))
    c = -0.4
    val = principal_value(lambda x: np.asarray(x, dtype=float), c,
                          Interval(-1.0, 1.0), DEFAULT_SPEC)
    assert abs(val - (-2.0 + c * math.log((1 + c) / (1 - c)))) < 1e-12


def test_difference_quotient_near_pole():
    f = lambda x: np.asarray(x, dtype=float) ** 3
    x = 0.7
    u = np.array([0.2, 0.7])
    q = difference_quotient(f, x, u, x ** 3, f(u), 2.0, -1.0, 1.0)
    exact = u * u + u * x + x * x  # (u^3 - x^3)/(u - x)
    assert abs(q[0] - exact[0]) < 1e-12
    # at coincidence the quotient falls back to the derivative
    assert abs(q[1] - 3 * x * x) < 1e-6


def test_numerical_derivative_one_sided_at_boundary():
    f = lambda x: np.exp(x)
    d = numerical_derivative(f, 0.0, 1.0, 0.0, 1.0, 1.0)
    assert abs(d - 1.0) < 1e-6
