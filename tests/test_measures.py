import math
import tracemalloc

import numpy as np
import pytest

from secmeasure import (CATALOG_NAMES, DEFAULT_SPEC, Density, DomainError,
                        IntegrationSpec, Interval, InvalidDensity,
                        NonConvergence, UnknownDensity, catalog,
                        family_density, inner_product, mean_project,
                        measures, moment, moments, user_density)
from secmeasure.quadrature import EndpointExponents, refine_levels

from conftest import assert_one_call_per_level


def test_catalog_names_and_unknown():
    assert set(CATALOG_NAMES) == {"cheb-u", "cheb-t", "uniform", "linear2x",
                                  "sqrt32"}
    with pytest.raises(UnknownDensity):
        catalog("gauss")


def test_catalog_is_cached(cheb_u):
    assert catalog("cheb-u") is cheb_u


def test_masses_are_one(all_catalog, spec):
    for rho in all_catalog:
        assert abs(rho.mass(spec) - 1.0) < 1e-12


def test_pointwise_values(cheb_u, cheb_t, uniform, linear2x, sqrt32):
    assert abs(cheb_u.value(0.0) - 2.0 / math.pi) < 1e-15
    assert abs(cheb_t.value(0.0) - 1.0 / math.pi) < 1e-15
    assert uniform.value(0.3) == 1.0
    assert abs(linear2x.value(0.3) - 0.6) < 1e-15
    assert abs(sqrt32.value(0.25) - 0.75) < 1e-15


def test_value_is_served_on_the_closed_support(uniform, linear2x):
    # Outside the support the parent read uniform(2) = 1, linear2x(-1) = -2
    # and uniform_t(2) = 0.0019 at t = 0.5.
    for rho, x in ((uniform, 2.0), (linear2x, -1.0), (uniform, -1e-300),
                   (uniform, math.nan), (uniform, math.inf)):
        with pytest.raises(DomainError):
            rho.value(x)
        with pytest.raises(DomainError):
            rho.value(np.array([0.5, x]))
    with pytest.raises(DomainError):
        family_density(uniform, 0.5, 2.0)
    assert linear2x.value(0.0) == 0.0 and linear2x.value(1.0) == 2.0
    vals = uniform.value(np.full((2, 3), 0.5))
    assert vals.shape == (2, 3) and np.all(vals == 1.0)
    assert type(uniform.value(0.5)) is float


def _power(p):
    """x^p on [0, 1], normalized."""
    return Density(Interval(0.0, 1.0), lambda x: np.full(np.shape(x), 1 + p),
                   EndpointExponents(p, 0.0), f"x^{p}")


@pytest.mark.parametrize("p", [-0.74, -0.8])
def test_rule_refuses_mass_beyond_its_outermost_nodes(spec, p):
    # The mass beyond the nodes at |t| = 4, 5.9e-38 widths from the end, is
    # d_0^(1+p): 2.1e-10 at p = -0.74 and 3.6e-8 at p = -0.8, above the
    # tolerance 1e-10.  The parent reported masses 1 - 3.5e-11 (offset by a
    # discretization error) and 1 - 3.567e-8.
    with pytest.raises(NonConvergence, match="beyond its outermost nodes"):
        _power(p).mass(spec)


def test_rule_keeps_a_tail_below_tolerance(spec):
    # At p = -0.7 the tail is 6.8e-12.
    assert abs(_power(-0.7).mass(spec) - 1.0) < 1e-11


def test_moments_closed_forms(cheb_u, uniform, spec):
    # uniform on [0,1]: c_n = 1/(n+1)
    ms = moments(uniform, 6, spec)
    for n in range(7):
        assert abs(ms[n] - 1.0 / (n + 1)) < 1e-12
    # semicircle weight: c_{2k} = Catalan(k)/4^k, odd moments vanish
    catalan = [1, 1, 2, 5]
    for k in range(4):
        assert abs(moment(cheb_u, 2 * k, spec) - catalan[k] / 4.0 ** k) < 1e-12
        assert abs(moment(cheb_u, 2 * k + 1, spec)) < 1e-12


def test_moment_cache_and_validation(uniform, spec):
    assert moment(uniform, 3, spec) == moment(uniform, 3, spec)
    with pytest.raises(ValueError):
        moment(uniform, -1, spec)
    with pytest.raises(ValueError, match="got -1"):
        moments(uniform, -1, spec)


def test_caches_keyed_by_whole_spec(wiggly):
    coarse = IntegrationSpec(max_refinement_levels=2)
    with pytest.raises(NonConvergence):
        moment(wiggly, 1, coarse)
    moment(wiggly, 1)  # fills the rule and moment caches of the default spec
    with pytest.raises(NonConvergence):
        moment(wiggly, 1, coarse)


def test_hankel_positive(uniform, spec):
    ms = moments(uniform, 6, spec)
    H = np.array([[ms[i + j] for j in range(4)] for i in range(4)])
    assert np.all(np.linalg.eigvalsh(H) > 0)


def test_user_density_renormalizes(spec):
    # mass 1.005, within the renormalization window
    rho = user_density(lambda x: 1.005 * np.ones_like(x), Interval(0.0, 1.0),
                       spec=spec)
    assert abs(rho.mass(spec) - 1.0) < 1e-10


def test_user_density_rejects_bad_mass(spec):
    with pytest.raises(InvalidDensity):
        user_density(lambda x: 2.0 * np.ones_like(x), Interval(0.0, 1.0),
                     spec=spec)


def test_user_density_rejects_mass_past_window(spec):
    # 1.05 lies outside the 1e-2 renormalisation window, not a 1e-1 one.
    with pytest.raises(InvalidDensity):
        user_density(lambda x: 1.05 * np.ones_like(x), Interval(0.0, 1.0),
                     spec=spec)


def test_user_density_rejects_negative(spec):
    with pytest.raises(InvalidDensity):
        user_density(lambda x: np.asarray(x, dtype=float), Interval(-1.0, 1.0),
                     spec=spec)


def test_user_density_with_exponents(spec):
    # 3/2 sqrt(x) expressed as exponents + constant smooth part
    rho = user_density(lambda x: 1.5 * np.ones_like(x), Interval(0.0, 1.0),
                       EndpointExponents(0.5, 0.0), spec=spec)
    assert abs(rho.mass(spec) - 1.0) < 1e-12
    assert abs(rho.value(0.25) - 0.75) < 1e-14


def test_inner_product_orthogonality(cheb_u, spec):
    # U_1(x) = 2x and U_2(x) = 4x^2 - 1 are orthonormal for the semicircle
    u1 = lambda x: 2.0 * np.asarray(x, dtype=float)
    u2 = lambda x: 4.0 * np.asarray(x, dtype=float) ** 2 - 1.0
    assert abs(inner_product(u1, u1, cheb_u, spec) - 1.0) < 1e-12
    assert abs(inner_product(u1, u2, cheb_u, spec)) < 1e-12


def test_inner_product_of_f_with_itself_calls_f_once_per_level(
        uniform, counted, spec, levels):
    f = counted(np.cos)
    val = inner_product(f, f, uniform, spec)
    assert_one_call_per_level(f.args, levels, uniform.interval,
                              "weighted integral")
    # int_0^1 cos^2 = 1/2 + sin(2)/4
    assert abs(val - (0.5 + 0.25 * math.sin(2.0))) < 1e-12


def test_mean_project(uniform, spec):
    f = mean_project(lambda x: np.asarray(x, dtype=float) ** 2, uniform, spec)
    assert abs(f.mean - 1.0 / 3.0) < 1e-12
    assert abs(float(uniform.weighted_integral(
        lambda x: np.atleast_1d(f(x)), spec).real)) < 1e-12


def test_weighted_integral(sqrt32, spec):
    # int_0^1 (3/2) sqrt(x) * x dx = 3/5
    val = sqrt32.weighted_integral(
        lambda x: np.asarray(x, dtype=float), spec)
    assert abs(float(val.real) - 0.6) < 1e-12


def _quartic():
    return Density(Interval(0.0, 1.0), lambda x: 0.5 + x ** 4,
                   EndpointExponents(0.5, 0.0), "quartic")


def test_moments_make_one_engine_call(monkeypatch, spec):
    # One refinement with one element, and one stop test, per order; it
    # fills the cache that moment reads.  One call per order made seven.
    rho = _quartic()
    rho.rule(spec)
    moment(rho, 2, spec)
    calls = []

    def counting(estimate, count, *args, **kwargs):
        calls.append(count)
        return refine_levels(estimate, count, *args, **kwargs)

    monkeypatch.setattr(measures, "refine_levels", counting)
    ms = moments(rho, 6, spec)
    assert calls == [6]
    assert [moment(rho, n, spec) for n in range(7)] == list(ms.values)
    assert calls == [6]
    monkeypatch.undo()
    for n in range(7):
        assert abs(ms[n] - moment(_quartic(), n, spec)) <= 1e-15 * ms[n]


def test_moments_stay_in_bounded_blocks():
    # The powers x^n formed in one piece, (orders x nodes) entries, peaked
    # at 41 MB for n = 20000 on a fresh uniform density.
    rho = Density(Interval(0.0, 1.0), lambda x: np.ones_like(x),
                  EndpointExponents(), "uniform")
    tracemalloc.start()
    try:
        ms = moments(rho, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
    assert abs(ms[20000] * 20001 - 1.0) < 1e-12


def test_rule_equals_its_level_bit_for_bit():
    # rule() builds each level from the one before and its new nodes; the
    # result is the level computed in full, and so is the coarser level
    # derived from it, x[::2] with weights 2 w[::2].
    rng = np.random.default_rng(2024)
    for _ in range(20):
        alpha, beta = rng.uniform(-0.5, 1.5, 2)
        coef = rng.uniform(0.2, 1.0, 4)
        rho = Density(Interval(0.0, 1.0),
                      lambda x, c=coef: np.polynomial.polynomial.polyval(x, c),
                      EndpointExponents(alpha, beta), "jacobi")
        rule = rho.rule()
        coarse = (rule.x[::2], 2.0 * rule.w[::2])
        for (x, w), level in (((rule.x, rule.w), rule.level),
                              (coarse, rule.level - 1)):
            want_x, want_w = rho._rule_at_level(level)
            np.testing.assert_array_equal(x, want_x)
            np.testing.assert_array_equal(w, want_w)
        assert np.all(np.diff(rule.x) >= 0)
