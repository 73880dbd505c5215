import math

import numpy as np
import pytest

from secmeasure import (Density, EvaluationFailure, IntegrationSpec,
                        Interval, NonConvergence, apply_T, moment, reducer,
                        stieltjes_transform)
from secmeasure.orthopoly import derivative
from secmeasure.quadrature import (DEFAULT_SPEC, EndpointExponents,
                                   tanh_sinh, tanh_sinh_nodes)


def test_interval_helpers():
    iv = Interval(-1.0, 3.0)
    assert iv.width == 4.0
    assert iv.midpoint == 1.0
    assert iv.distance_to(5.0) == 2.0
    assert iv.distance_to(1.0) == 0.0
    np.testing.assert_array_equal(iv.interior_grid(5, 0.1),
                                  np.linspace(-1.0 + 0.4, 3.0 - 0.4, 5))
    np.testing.assert_array_equal(iv.interior_grid(2, 0.0), [-1.0, 3.0])
    with pytest.raises(ValueError, match="got 1"):
        iv.interior_grid(1, 0.1)


def test_interval_rejects_empty():
    with pytest.raises(ValueError):
        Interval(2.0, 2.0)


@pytest.mark.parametrize("field, value", [
    ("rel_tol", math.inf), ("abs_tol", math.inf), ("rel_tol", math.nan),
    ("abs_tol", -1e-12), ("max_refinement_levels", 2.5),
    ("max_refinement_levels", 0)])
def test_spec_rejects_non_finite_tolerances_and_fractional_levels(field, value):
    # An infinite tolerance stopped every refinement at its second level:
    # cos(60x) against uniform read 0.02827, where sin(60)/60 = -0.00508.
    with pytest.raises(ValueError, match="got"):
        IntegrationSpec(**{field: value})


def test_spec_caps_levels_at_sixteen():
    # Each level doubles the nodes; the cap keeps an integral that never
    # settles to about 0.3 GB before it raises NonConvergence.
    assert IntegrationSpec(max_refinement_levels=16).max_refinement_levels == 16
    with pytest.raises(ValueError, match="from 1 to 16, got 17"):
        IntegrationSpec(max_refinement_levels=17)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_endpoint_exponents_must_be_finite_and_exceed_minus_one(bad):
    for exps in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="got alpha"):
            EndpointExponents(*exps)


def test_tanh_sinh_nodes_nest():
    # Level L+1's even-k nodes are level L's bit for bit, at exactly half
    # the weight; the odd view is the rest.
    for level in range(2, 15):
        coarse, fine = tanh_sinh_nodes(level), tanh_sinh_nodes(level + 1)
        g, w, dm, dp = coarse
        assert len(g) == 8 * 2 ** level + 1 and np.all(w > 0)
        for c, f in zip((g, dm, dp), (fine[0], fine[2], fine[3])):
            np.testing.assert_array_equal(f[::2], c)
        np.testing.assert_array_equal(fine[1][::2], 0.5 * w)
        for f, o in zip(fine, tanh_sinh_nodes(level + 1, odd=True)):
            np.testing.assert_array_equal(f[1::2], o)


def test_refinement_evaluates_each_node_once(counted):
    # Settling at level L, an integral has called its integrand on exactly
    # the 8 2^L + 1 nodes of level L: the first two levels in one call on
    # the second's nodes, then only the odd-k nodes of each finer one.
    # Evaluating every level in full called it on 98 points at level 3, and
    # the first level apart from the second called it twice there.
    def nodes(level):
        return 8 * 2 ** level + 1

    f = counted(lambda x: np.exp(x))
    val = tanh_sinh(lambda x, dl, dr: f(x), Interval(0.0, 1.0))
    level = 2 + len(f.args)
    assert abs(val - (math.e - 1.0)) < 1e-13
    assert [len(a) for a in f.args] == [nodes(3)] + [4 * 2 ** k
                                                   for k in range(4, level + 1)]

    h = counted(lambda x: 1.0 + x * x)
    rho = Density(Interval(0.0, 1.0), h, EndpointExponents(), "quadratic")
    rule = rho.rule()
    assert rule.level == 3
    assert sum(map(len, h.args)) == nodes(rule.level) == 65

    # g's first call holds the rule's nodes; past the rule's level, h too is
    # called on the new nodes alone.
    g = counted(np.cos)
    rho.weighted_integral(g)
    np.testing.assert_array_equal(g.args[0], rule.x)
    level = rule.level + len(g.args) - 1
    assert sum(map(len, g.args)) == sum(map(len, h.args)) == nodes(level)


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
    with pytest.raises(NonConvergence) as exc:
        tanh_sinh(lambda x, dl, dr: np.cos(50.0 * x * x) / np.sqrt(dl),
                  Interval(0.0, 1.0), spec)
    msg = str(exc.value)
    for part in ("tanh-sinh", "by level 5", "1 of 1 unsettled", "worst gap",
                 "against tolerance"):
        assert part in msg, msg


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


def test_derivative_one_sided_at_boundary(counted):
    # Centered inside, one-sided within a step of either end; f is called
    # once, on the offset points, and never outside [0, 1].
    f = counted(np.exp)
    x = np.array([0.0, 5e-7, 0.3, 0.5, 1.0 - 5e-7, 1.0])
    points, finish = derivative(x, 0.0, 1.0, 1.0)
    d = finish(np.exp(x), f(points))
    assert len(f.args) == 1
    assert np.all((f.args[0] >= 0.0) & (f.args[0] <= 1.0))
    np.testing.assert_allclose(d, np.exp(x), rtol=1e-6)
    np.testing.assert_allclose(d[2:4], np.exp(x[2:4]), rtol=1e-9)


# A node of the level-3 tanh-sinh rule on [0, 1] that level 2 lacks.
_LEVEL3_NODE = 0.4028214983375323

_NONFINITE_H = {
    "nan above 0.7": lambda x: np.where(x > 0.7, np.nan, 1.0),
    "inf at one node": lambda x: np.where(x == _LEVEL3_NODE, np.inf, 1.0),
}

_LAYERS = {
    "reducer": lambda rho: reducer(rho, 0.3),
    "moment": lambda rho: moment(rho, 1),
    "mass": lambda rho: rho.mass(),
    "far transform": lambda rho: stieltjes_transform(rho, 3.0),
    # Re z is the spike itself, so the subtracted value w(Re z) is infinite.
    "near-cut transform":
        lambda rho: stieltjes_transform(rho, _LEVEL3_NODE + 1e-3j),
}


@pytest.mark.parametrize("layer", sorted(_LAYERS))
@pytest.mark.parametrize("kind", sorted(_NONFINITE_H))
def test_nonfinite_density_fails_at_first_level(kind, layer, counted):
    # The engine stops at the first non-finite level estimate.  Before it
    # checked, NaN ran every level to the cap and ended in NonConvergence
    # ("worst gap nan"), and moment(rho, 1) returned inf for the spike.
    h = counted(_NONFINITE_H[kind])
    rho = Density(Interval(0.0, 1.0), h, EndpointExponents(), "bad")
    with pytest.raises(EvaluationFailure) as exc:
        _LAYERS[layer](rho)
    assert "'bad'" in str(exc.value) and "at level" in str(exc.value)
    assert len(h.args) <= 2


def test_nan_on_the_next_levels_nodes_fails_at_that_level(counted):
    # The reducer's first pass evaluates level 4's nodes once for levels 3
    # and 4.  A NaN on level 4's odd-k nodes alone leaves level 3's sums
    # finite, so the loop raises at level 4, as a pass per level did.
    on_01 = 0.5 + 0.5 * tanh_sinh_nodes(4, odd=True)[0]
    only_odd = np.setdiff1d(on_01, 0.5 + 0.5 * tanh_sinh_nodes(3)[0])
    h = counted(lambda x: np.where(np.isin(x, only_odd), np.nan, 1.0))
    rho = Density(Interval(0.0, 1.0), h, EndpointExponents(), "bad")
    with pytest.raises(EvaluationFailure) as exc:
        reducer(rho, 0.3)
    err = exc.value
    assert str(err) == "reducer quadrature of 'bad' is not finite at level 4"
    assert (err.what, err.level) == ("reducer quadrature of 'bad'", 4)
    assert [len(a) for a in h.args] == [1, 8 * 2 ** 4 + 1]


def test_nonconvergence_carries_the_fields_it_names():
    spec = IntegrationSpec(max_refinement_levels=2)
    f = lambda x, dl, dr: np.sin(1000.0 * x)
    with pytest.raises(NonConvergence) as exc:
        tanh_sinh(f, Interval(0.0, 1.0), spec)
    err = exc.value
    assert (err.what, err.level, err.unsettled, err.count) \
        == ("tanh-sinh", 4, 1, 1)
    assert err.gap > err.tolerance >= spec.abs_tol
    assert str(err) == (
        f"tanh-sinh did not settle by level 4: 1 of 1 unsettled, worst gap "
        f"{err.gap:.3e} against tolerance {err.tolerance:.3e}")


def test_scalar_callable_raises_type_error(uniform):
    # One value for an array of points is refused, not retried point by point.
    with pytest.raises(TypeError, match="vectorised"):
        apply_T(uniform, lambda x: 1.0, np.array([0.3, 0.6]))
    rho = Density(Interval(0.0, 1.0), lambda x: 1.0, EndpointExponents(),
                  "scalar")
    with pytest.raises(TypeError):
        rho.mass()
