"""Properties of the operator layer on random Jacobi densities
x^alpha (1-x)^beta h(x) on [0, 1]: alpha and beta in (-0.5, 1.5) and h a
polynomial of degree at most 3 with coefficients in (0.2, 1), so positive
on the interval, normalized to mass 1.  Examples are drawn by hypothesis,
derandomized and without an example database, so every run checks the same
densities."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from secmeasure import (Density, Interval, apply_T, apply_V, apply_V_inverse,
                        make_context, mean_project, orthonormal_polys,
                        recurrence_coefficients, secondary_polys)
from secmeasure.quadrature import EndpointExponents

from conftest import assert_one_call_per_level

_UNIT = Interval(0.0, 1.0)
_GRID = _UNIT.interior_grid(12, 2e-3)

_EXAMPLES = settings(max_examples=10, derandomize=True, database=None,
                     deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])

# On grids, so that examples spread over the ranges instead of gathering
# at the simplest floats (0 and subnormals).
_exponent = st.integers(1, 99).map(lambda k: -0.5 + k / 50)
_coefficient = st.integers(1, 79).map(lambda k: 0.2 + k / 100)
_t = st.integers(0, 15).map(lambda k: 0.2 + k / 20)


@st.composite
def jacobi_densities(draw):
    exps = EndpointExponents(draw(_exponent), draw(_exponent))
    h = Polynomial(draw(st.lists(_coefficient, min_size=1, max_size=4)))
    raw = Density(_UNIT, h, exps, "raw")
    return Density(_UNIT, h / raw.mass(), exps, "jacobi")


def _cubic(x):
    return x ** 3 - 0.7 * x ** 2 + 0.2 * x + 1.0 / (x + 2.0)


@_EXAMPLES
@given(rho=jacobi_densities(), t=_t)
def test_V_inverse_undoes_V(rho, t):
    ctx = make_context(rho, t)
    f = mean_project(_cubic, rho)
    back = apply_V_inverse(ctx, lambda u: apply_V(ctx, f, u), _GRID)
    np.testing.assert_allclose(back, f(_GRID), rtol=0, atol=1e-9)


@_EXAMPLES
@given(rho=jacobi_densities())
def test_T_maps_orthonormal_to_secondary_polynomials(rho):
    rc = recurrence_coefficients(rho, 6)
    P, Q = orthonormal_polys(rc), secondary_polys(rc)
    for n in range(6):
        np.testing.assert_allclose(apply_T(rho, P.as_callable(n), _GRID),
                                   Q.eval(n, _GRID), rtol=0, atol=1e-9)


@_EXAMPLES
@given(rho=jacobi_densities())
def test_T_calls_f_once_per_level(rho, counted, levels):
    x = np.concatenate([_GRID, rho.rule().x])
    levels.clear()
    f = counted(_cubic)
    apply_T(rho, f, x)
    assert_one_call_per_level(f.args, levels, _UNIT)
    assert np.isin(_GRID, f.args[0]).all()
