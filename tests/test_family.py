import math
import sys
from pathlib import Path

import numpy as np
import pytest

from secmeasure import (DenominatorZero, Density, DomainError,
                        EvaluationFailure, IntegralEquationProblem, Interval,
                        InvalidDensity, InvalidParameter, catalog,
                        denominator_root_scan, dirac_limit_check,
                        equi_normality_check, family, family_density,
                        family_transform, make_context, moment,
                        moment0_curve, reducer, secondary_measure,
                        solve_integral_equation, validate_parameter)
import secmeasure.measures as measures
import secmeasure.stieltjes as stieltjes
from secmeasure.family import _FAMILY_CACHE_SIZE
from secmeasure.quadrature import EndpointExponents
from secmeasure.stieltjes import _end_transforms

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_parameter_validation(uniform, spec):
    for t in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            family(uniform, t, spec)
        with pytest.raises(InvalidParameter):
            family_density(uniform, t, 0.5, spec)
        with pytest.raises(InvalidParameter):
            validate_parameter(uniform, t, spec)
        with pytest.raises(InvalidParameter):
            denominator_root_scan(uniform, t, None, spec)


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


@pytest.mark.parametrize("name, t", [("uniform", 0.6), ("uniform", 1.5),
                                     ("sqrt32", 2.0), ("cheb-u", 1.5)])
def test_member_reducer_is_twice_the_real_part_of_its_transform(name, t, spec):
    # phi_t(x) = 2 Re S_t(x + i0), for an invalid t too (uniform at 1.5,
    # sqrt32 at 2), where it includes the principal parts of rho_t's
    # point masses off the support.
    rho = catalog(name)
    xs = rho.interval.interior_grid(9, 0.05)
    want = 2.0 * family_transform(rho, t, xs + 1e-9j, spec).real
    got = reducer(validate_parameter(rho, t, spec), xs, spec)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)


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
    # 1e-7 off the root the denominator is 5.7e-7, far above its rounding
    # error: served, and equal to the closed form.
    z = root + 1e-7
    expct = 2.0 / (3.0 * math.sqrt(z * z - 1.0) - z)
    assert abs(family_transform(cheb_u, 3.0, z, spec) / expct - 1.0) < 1e-8


def test_family_transform_refuses_a_cancelled_denominator(cheb_u, spec):
    # 1e-10 off the root 3/(2 sqrt 2) the denominator's digits have
    # cancelled to within rel_tol of its terms: the parent served
    # 2,500,000,655.8 where the closed form gives 2,500,002,144.9.
    root = 3.0 / (2.0 * math.sqrt(2.0))
    with pytest.raises(DenominatorZero):
        family_transform(cheb_u, 3.0, root + 1e-10, spec)


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
    # Just past t = 2 the root lies about 1.25e-11 off an end, closer than
    # the root scan brackets (it finds no root there); the denominator at
    # the ends, -1.0e-5, finds rho_t invalid.
    assert validate_parameter(cheb_u, 2.00001, spec).validity == "invalid"
    assert validate_parameter(uniform, 1.5, spec).validity == "invalid"
    with pytest.raises(InvalidParameter):
        family(uniform, 1.5, spec)


def test_family_refuses_a_base_that_is_not_a_probability_density(
        uniform, cheb_u, spec):
    # rho_t is a probability density only for a probability base.  mu of
    # the uniform density has mass d0 = 1/12: its rho_0.5 reads "proven",
    # yet has mass 0.1538.  uniform at t = 1.3 is invalid, of mass 0.98.
    # The mass is checked before validity is read; validate_parameter and
    # moment0_curve stay raw.  cheb-u at t = 2 (cheb-t, mass 1 - 2e-9)
    # and at t = 0.5 are probability bases.
    mu = secondary_measure(uniform, spec)
    for base in (mu, validate_parameter(uniform, 1.3, spec)):
        with pytest.raises(InvalidDensity, match="has mass"):
            family(base, 0.5, spec)
        with pytest.raises(InvalidDensity):
            make_context(base, 0.5, spec)
        with pytest.raises(InvalidDensity):
            solve_integral_equation(
                IntegralEquationProblem(base, 0.5, np.exp), 0.5, spec)
    with pytest.raises(InvalidDensity, match="0.0833333, not 1"):
        family(mu, 3.0, spec)
    assert "validity" not in validate_parameter(mu, 3.0, spec).__dict__
    assert validate_parameter(mu, 0.5, spec).validity == "proven"
    assert abs(moment0_curve(mu, 0.5, spec) - 0.1538461538) < 1e-9
    for t in (2.0, 0.5):
        assert family(family(cheb_u, t, spec), 0.9, spec).validity == "proven"


def test_screen_stops_at_a_root(spec):
    # At t = 1.3 the uniform density's denominator has a root on each
    # side; the screen finds them from the ends without building rho_t's
    # rule, and the mass is still there to read afterwards.
    rho = Density(Interval(0.0, 1.0), lambda x: np.ones(np.shape(x)),
                  EndpointExponents(), "uniform")
    dens = validate_parameter(rho, 1.3, spec)
    assert dens.validity == "invalid"
    assert dens._rules == {}
    assert abs(moment0_curve(rho, 1.3, spec) - 0.9799849175) < 1e-8


@pytest.mark.parametrize("name, t, validity, runs", [
    ("cheb-u", 3.0, "invalid", 3), ("uniform", 1.3, "invalid", 2),
    ("sqrt32", 2.0, "invalid", 3), ("cheb-u", 2.0, "empirical", 3)])
def test_screen_reads_only_the_sign_test(monkeypatch, spec, name, t,
                                         validity, runs):
    # The screen reads the sign of the denominator at the two ends of the
    # support: beside rho's rule and c_1, one refinement of the end
    # transforms, none where both ends diverge (uniform), no transform off
    # the support and no rule of rho_t.  Through the root scan's sign test
    # and a unit-mass check, cheb-u at t = 2 ran 7 refinements and uniform
    # at t = 1.3 ran 3.  sqrt32 at t = 2 has one root, right of the support.
    seen = []
    for module in (measures, stieltjes):
        def spy(estimate, count, spec, start, what, real=module.refine_levels,
                **kwargs):
            seen.append(what)
            return real(estimate, count, spec, start, what, **kwargs)

        monkeypatch.setattr(module, "refine_levels", spy)
    rho = Density(*measures._CATALOG_SPECS[name], name)
    dens = validate_parameter(rho, t, spec)
    assert dens.validity == validity
    assert len(seen) == runs
    assert not any(w.startswith("transform") for w in seen)
    assert dens._rules == {}


@pytest.mark.parametrize("name", ["uniform", "linear2x", "sqrt32"])
@pytest.mark.parametrize("t", [1.0001, 1.01, 1.05])
def test_exponent_zero_end_is_invalid_for_every_t_above_one(name, t, spec):
    # Each has exponent 0 at an end where rho does not vanish, so S
    # diverges there and D has a root on that side for every t > 1.  The
    # roots lie closer to the support than the root scan brackets (about
    # e^-20000 widths for uniform at 1.0001) and rho_t's mass defect is
    # below 1e-6: a root scan with a unit-mass check read all nine as
    # "empirical".
    assert validate_parameter(catalog(name), t, spec).validity == "invalid"


@pytest.fixture(scope="module")
def oracle(request):
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    mp.setattr(sys, "dont_write_bytecode", True)
    request.addfinalizer(mp.undo)
    import oracle
    return oracle


def _latin_jacobi(oracle):
    """40 Jacobi densities on [0, 1], exponents in (-1/2, 3/2) with one in
    each of 40 strata per axis, each with the oracle's twin."""
    rng = np.random.default_rng(19)
    n = 40
    exps = [-0.5 + 2.0 * (rng.permutation(n) + rng.random(n)) / n
            for _ in range(2)]
    for k, (alpha, beta) in enumerate(zip(*exps)):
        oj = oracle.JacobiDensity(0.0, 1.0, alpha, beta,
                                  rng.uniform(0.2, 1.0, rng.integers(1, 5)))
        yield oj, Density(Interval(0.0, 1.0), oj.smooth,
                          EndpointExponents(alpha, beta), f"j{k}")


def test_validity_matches_the_oracle_on_jacobi_densities(oracle, spec):
    # The oracle decides from Beta-function limits of (x - c_1) S(x) at the
    # ends.
    for oj, rho in _latin_jacobi(oracle):
        for t in (1.0001, 1.01, 1.5, 3.0):
            got = validate_parameter(rho, t, spec).validity
            assert (got == "invalid") == bool(oj.denominator_roots(t)), \
                (oj.alpha, oj.beta, t, got)


def test_root_scan_matches_the_oracle_on_jacobi_densities(oracle, spec,
                                                         monkeypatch):
    # Every bracket is at most eps = 1e-10 wide and lies on a side where
    # the oracle has a root.  A side it names with no bracket has its root
    # within eps of the support: D, negative at the support's end and
    # tending to 1 far from it, is already positive eps off the end.  Each
    # scan runs at most 7 far refinements (equal sections ran 7-10).
    eps = 1e-10
    seen = _count_refinements(monkeypatch)
    for oj, rho in _latin_jacobi(oracle):
        for t in (1.01, 1.5, 3.0, 10.0):
            seen.clear()
            brackets = denominator_root_scan(rho, t, None, spec)
            assert len(seen) <= 7
            sides = [("left" if hi <= 0.0 else "right") for lo, hi in brackets]
            want = oj.denominator_roots(t)
            assert set(sides) <= set(want) and sides == sorted(sides), \
                (oj.alpha, oj.beta, t, brackets, want)
            for lo, hi in brackets:
                assert 0.0 < hi - lo <= eps and (hi <= 0.0 or lo >= 1.0)
            near = [x for side, x in (("left", -eps), ("right", 1.0 + eps))
                    if side in want and side not in sides]
            if near:
                dens = validate_parameter(rho, t, spec)
                s = stieltjes.stieltjes_transform(rho, np.array(near), spec)
                assert np.all(t + (1.0 - t) * (np.array(near) - dens.c1)
                              * s.real > 0.0), (oj.alpha, oj.beta, t, near)


@pytest.mark.parametrize("alpha, beta", [
    (1e-6, 0.7), (1e-3, 1e-3), (0.01, -0.4), (0.159, 1.3), (1.4, 1e-6),
    (-0.3, 0.5), (0.8, 0.0)])
def test_end_transforms_against_beta_closed_forms(alpha, beta, spec):
    # rho = (x-a)^alpha (b-x)^beta p((x-a)/w) on [a, b] = [-1.5, 2.5];
    # int rho(u)/(u-a) du = w^(alpha+beta) sum_j p_j B(alpha+j, beta+1),
    # and at b likewise.  An end with exponent <= 0 where p does not
    # vanish diverges.
    beta_fn = pytest.importorskip("scipy.special").beta
    a, w = -1.5, 4.0
    coef = np.random.default_rng(7).uniform(0.2, 1.0, 4)
    j = np.arange(len(coef))
    mass = w ** (alpha + beta + 1) * coef @ beta_fn(alpha + 1 + j, beta + 1)
    rho = Density(Interval(a, a + w),
                  lambda x: np.polyval(coef[::-1], (x - a) / w) / mass,
                  EndpointExponents(alpha, beta), "jacobi")
    scale = w ** (alpha + beta) / mass
    want = [-scale * coef @ beta_fn(alpha + j, beta + 1) if alpha > 0
            else -math.inf,
            scale * coef @ beta_fn(alpha + 1 + j, beta) if beta > 0
            else math.inf]
    np.testing.assert_allclose(_end_transforms(rho, spec), want, rtol=1e-13)


def test_end_transforms_of_the_catalog(linear2x, cheb_u, spec):
    # linear2x has exponent 0 at 0, where h = 2x vanishes: S(0) is finite.
    sa, sb = _end_transforms(linear2x, spec)
    assert abs(sa + 2.0) < 1e-14 and sb == math.inf
    np.testing.assert_allclose(_end_transforms(cheb_u, spec), [-2.0, 2.0],
                               rtol=1e-14)


def test_h_vanishing_to_rounding_at_an_exponent_zero_end(spec):
    # (pi/2) sin(pi x) on [0, 1] with exponents 0: h(1) is 1.9e-16, not 0,
    # yet rho vanishes there and S(1) = (pi/2) Si(pi) is finite.  The
    # denominator at the ends is t - (t - 1) S(1)/2, negative from
    # t = 3.2 on.
    si = pytest.importorskip("scipy.special").sici(math.pi)[0]
    rho = Density(Interval(0.0, 1.0),
                  lambda x: 0.5 * math.pi * np.sin(math.pi * x),
                  EndpointExponents(), "sine")
    assert rho.smooth_part(np.array([1.0]))[0] != 0.0
    np.testing.assert_allclose(_end_transforms(rho, spec),
                               [-0.5 * math.pi * si, 0.5 * math.pi * si],
                               rtol=1e-13)
    for t, want in ((1.01, "empirical"), (2.0, "empirical"),
                    (3.1, "empirical"), (3.3, "invalid")):
        assert validate_parameter(rho, t, spec).validity == want, t


def test_end_rows_with_and_without_a_leading_term_in_one_far_call(
        monkeypatch, spec):
    # rho = C x^(1/2) (1 - x)(1 + x) on [0, 1], declared with exponents
    # (0.5, 0): at 0 the row takes g x^(1/2) out, g = h(0) = C; at 1, where
    # h vanishes, g = 0.  Both rows go through one refinement.
    # S(0) = -C (2 - 2/5) = -4.2 and S(1) = C (2/3 + 2/5) = 2.8.
    c = 1.0 / (2.0 / 3.0 - 2.0 / 7.0)
    rho = Density(Interval(0.0, 1.0), lambda x: c * (1.0 - x) * (1.0 + x),
                  EndpointExponents(0.5, 0.0), "both-rows")
    seen = []

    def spy(estimate, count, spec, start, what, real=stieltjes.refine_levels,
            **kwargs):
        seen.append((what, count))
        return real(estimate, count, spec, start, what, **kwargs)

    monkeypatch.setattr(stieltjes, "refine_levels", spy)
    np.testing.assert_allclose(_end_transforms(rho, spec), [-4.2, 2.8],
                               rtol=1e-13)
    assert seen == [("end transforms of 'both-rows'", 2)]


def test_end_transform_needs_h_finite_where_the_exponent_is_positive(spec):
    rho = Density(Interval(0.0, 1.0),
                  lambda x: np.where(x > 0.0, 1.0, math.nan),
                  EndpointExponents(0.5, 0.5), "nan-at-0")
    with pytest.raises(EvaluationFailure, match="not finite at 0.0"):
        _end_transforms(rho, spec)


def test_validity_composes(all_catalog, spec):
    # (rho_t)_s = rho_{ts}, so a valid rho_t at s has the validity of rho
    # at ts; its end transforms are rho's mapped by rho_t's Möbius map.
    # The base cheb-u at t = 2 (cheb-t) has a vanishing map denominator at
    # both ends, cheb-t's ends an infinite transform.
    cases = 0
    for rho in all_catalog:
        for t in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
            if validate_parameter(rho, t, spec).validity == "invalid":
                continue
            rho_t = family(rho, t, spec)
            for s in (1.0001, 1.2, 1.3, 1.9, 2.5, 4.1):
                got = validate_parameter(rho_t, s, spec).validity
                want = validate_parameter(rho, t * s, spec).validity
                assert (got == "invalid") == (want == "invalid"), \
                    (rho.name, t, s, got, want)
                cases += 1
    assert cases == 132


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


def test_root_scan_is_one_batched_call(counted_semicircle, spec, monkeypatch):
    # Not even one for t <= 1: off the support (x - c_1) S(x) > 0, so
    # D >= t > 0 and no transform runs.
    rho, calls = counted_semicircle
    moment(rho, 1, spec)  # c_1 is cached before counting
    calls.clear()
    seen = _count_refinements(monkeypatch)
    for t in (0.5, 1.0):
        assert denominator_root_scan(rho, t, Interval(1.001, 11.0), spec) == []
        assert denominator_root_scan(rho, t, None, spec) == []
    assert calls == [] and seen == []


def test_root_scan_rejects_overlap(cheb_u, spec):
    with pytest.raises(DomainError):
        denominator_root_scan(cheb_u, 2.0, Interval(0.5, 3.0), spec)


@pytest.mark.parametrize("t", [0.5, 3.0])
def test_root_scan_rejects_a_search_touching_the_support(cheb_u, t, spec):
    # The brackets stop 2e-10 (1e-10 widths) off [-1, 1], and so must a
    # search.  One from the support's end was refused only by the
    # transform's PointOnInterval, deep inside the scan, and only for t > 1.
    for search in (Interval(1.0, 3.0), Interval(1.0 + 1e-10, 3.0),
                   Interval(-3.0, -1.0 - 1e-10)):
        with pytest.raises(DomainError, match="root scan"):
            denominator_root_scan(cheb_u, t, search, spec)


def _count_refinements(monkeypatch):
    """The labels of the refinements the transform module runs from now on."""
    seen = []
    refine = stieltjes.refine_levels

    def counted(estimate, count, spec, start, what, *args, **kw):
        seen.append(what)
        return refine(estimate, count, spec, start, what, *args, **kw)

    monkeypatch.setattr(stieltjes, "refine_levels", counted)
    return seen


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
    # One call for the ends of both sides, then one per round; the grid
    # scan with bisection made 128 calls of h here.
    rho, calls = counted_semicircle
    root = 3.0 / (2.0 * math.sqrt(2.0))
    (llo, lhi), (rlo, rhi) = denominator_root_scan(rho, 3.0, None, spec)
    assert llo <= -root <= lhi and rlo <= root <= rhi
    assert len(calls) <= 40


def test_root_scan_takes_few_far_refinements(cheb_u, spec, monkeypatch):
    # One far refinement for the ends, then one per round: equal
    # 16-sections took 11 here, regula falsi in log-distance takes 5.
    seen = _count_refinements(monkeypatch)
    [(lo, hi)] = denominator_root_scan(cheb_u, 3.0, Interval(1.002, 21.0), spec)
    assert lo <= 3.0 / (2.0 * math.sqrt(2.0)) <= hi and hi - lo <= 2e-10
    assert len(seen) <= 5 and all(w.startswith("transform") for w in seen)


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
