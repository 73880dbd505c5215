"""Reproduction suite: every published reference value and identity.

Each criterion function returns a list of VerificationReports; run_suite
aggregates them.  There is one suite, "paper", which runs every criterion.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import List

import numpy as np

from .family import (denominator_root_scan, dirac_limit_check,
                     equi_normality_check, family, family_density,
                     family_transform, moment0_curve, validate_parameter)
from .measures import catalog, inner_product, mean_project, moment
from .operators import (IntegralEquationProblem, apply_T, apply_V,
                        apply_V_inverse, barycentric_check, composition_check,
                        isometry_check, make_context, residual_check,
                        shift_multiply, solve_integral_equation,
                        transform_relation_check, transformed_polys)
from .quadrature import DEFAULT_SPEC, IntegrationSpec, Interval
from .report import (VerificationReport, numeric_report, property_report,
                     timer)
from .stieltjes import lerch_phi_half, perron_invert, reducer

__all__ = ["run_suite", "SUITES"]


def criterion_reducer_closed_forms(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """Reducer matches the four published closed forms on 50-point grids."""
    out = []
    cases = {
        "cheb-u": lambda x: 4.0 * x,
        "uniform": lambda x: 2.0 * np.log(x / (1.0 - x)),
        "linear2x": lambda x: -4.0 * x * np.log((1.0 - x) / x) - 4.0,
        "sqrt32": lambda x: 3.0 * np.array([lerch_phi_half(v) for v in x]),
    }
    for name, closed in cases.items():
        rho = catalog(name)
        with timer() as tm:
            g = rho.interval.interior_grid(50, 0.02)
            dev = float(np.max(np.abs(reducer(rho, g, spec) - closed(g))))
        out.append(property_report(f"1 reducer closed form {name}", dev,
                                   1e-7, "paper", tm.ms))
    return out


def criterion_moment0_values(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """Mass of rho_t against the published curve values."""
    cases = [
        ("uniform", 1.3, 0.9799849175),
        ("sqrt32", 2.0, 0.7496041742),
        ("sqrt32", 1.24, 0.9911159300),
        ("linear2x", 0.45, 1.0),
        ("cheb-u", 0.3, 1.0),
        ("cheb-u", 1.0, 1.0),
        ("cheb-u", 1.7, 1.0),
        ("cheb-u", 2.0, 1.0),
    ]
    out = []
    for name, t, expected in cases:
        with timer() as tm:
            val = moment0_curve(catalog(name), t, spec)
        out.append(numeric_report(f"2 moment-0 curve {name} t={t:g}",
                                  expected, val, 1e-6, "paper", tm.ms))
    return out


def criterion_family_closed_forms(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """The three published family formulas for the semicircle-type density."""
    u = catalog("cheb-u")
    out = []
    with timer() as tm:
        g = u.interval.interior_grid(40, 0.02)
        dev = 0.0
        for t in (0.5, 4.0 / 3.0, 2.0):
            expct = 2 * t * np.sqrt(1 - g * g) / (math.pi * (t * t + 4 * (1 - t) * g * g))
            dev = max(dev, float(np.max(np.abs(family_density(u, t, g, spec) - expct))))
    out.append(property_report("3 family density closed form cheb-u", dev,
                               1e-7, "paper", tm.ms))
    with timer() as tm:
        dev = float(np.max(np.abs(family_density(u, 2.0, g, spec)
                                  - catalog("cheb-t").value(g))))
    out.append(property_report("3 family t=2 is cheb-t", dev, 1e-7,
                               "paper", tm.ms))
    with timer() as tm:
        dev = 0.0
        for t in (0.5, 1.5):
            dens = validate_parameter(u, t, spec)
            expct = 2 * (4 - 2 * t) * g / (t * t + 4 * (1 - t) * g * g)
            dev = max(dev, float(np.max(np.abs(reducer(dens, g, spec) - expct))))
    out.append(property_report("3 family reducer closed form cheb-u", dev,
                               1e-6, "paper", tm.ms))
    with timer() as tm:
        dev = 0.0
        for t in (0.7, 1.5):
            for z in (2.0, 3.0, 2 + 1j, 4 - 0.5j):
                z = complex(z)
                expct = 2.0 / ((2 - t) * z + t * np.sqrt(z * z - 1))
                dev = max(dev, abs(family_transform(u, t, z, spec) - expct))
    out.append(property_report("3 family transform closed form cheb-u", dev,
                               1e-8, "paper", tm.ms))
    return out


def criterion_equinormal_moments(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """c'_2 = (t+3)/12 for the uniform density."""
    uni = catalog("uniform")
    out = []
    for t in (0.25, 0.5, 0.75):
        with timer() as tm:
            c2p = moment(family(uni, t, spec), 2, spec)
        out.append(numeric_report(f"4 uniform second moment t={t:g}",
                                  (t + 3) / 12, c2p, 1e-6, "paper", tm.ms))
    return out


def criterion_root_scans(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """Denominator root scans: none for t <= 0.9, one for cheb-u at t=3."""
    out = []
    for name in ("cheb-u", "uniform", "linear2x", "sqrt32"):
        rho = catalog(name)
        with timer() as tm:
            n_roots = sum(len(denominator_root_scan(rho, t, None, spec))
                          for t in (0.3, 0.6, 0.9))
        out.append(property_report(f"5 no denominator roots {name} t<=0.9",
                                   float(n_roots), 0.0, "paper", tm.ms))
    u = catalog("cheb-u")
    with timer() as tm:
        brackets = denominator_root_scan(u, 3.0, Interval(1.001, 5.0), spec)
        ok = (len(brackets) == 1 and 1.06 < brackets[0][0]
              and brackets[0][1] < 1.07)
    out.append(property_report("5 one root in (1.06,1.07) cheb-u t=3",
                               0.0 if ok else 1.0, 0.5, "paper", tm.ms))
    return out


def criterion_isometry_value(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """Both sides of the isometry identity hit the published value."""
    u = catalog("cheb-u")
    f = lambda x: x ** 3 - 2.0 / (x + 5.0) + 1.0 / (x * x + 3.0)
    with timer() as tm:
        ctx = make_context(u, 1.35, spec)
        rep = isometry_check(ctx, f, spec)
    out = [numeric_report("6 isometry left side cheb-u t=1.35",
                          0.1010020264, float(rep.expected), 1e-6,
                          "paper", tm.ms),
           numeric_report("6 isometry right side cheb-u t=1.35",
                          0.1010020264, rep.computed, 1e-6, "paper", tm.ms)]
    return out


def criterion_integral_equation(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """Solve-then-residual round trips at lambda = -1/2."""
    u = catalog("cheb-u")
    gs = {
        "2x^11-7x^10+8x^5-3x+2": lambda x: 2 * x ** 11 - 7 * x ** 10 + 8 * x ** 5 - 3 * x + 2,
        "1/(1+x^2)": lambda x: 1.0 / (1.0 + x * x),
        "x^3/(x+2)": lambda x: x ** 3 / (x + 2.0),
        "1/(x+3)^2": lambda x: 1.0 / (x + 3.0) ** 2,
    }
    out = []
    for name, g in gs.items():
        prob = IntegralEquationProblem(u, -0.5, g)
        f = lambda xs, p=prob: solve_integral_equation(p, xs, spec)
        out.append(replace(residual_check(prob, f, spec),
                           check_id=f"7 round trip g={name}", provenance="paper"))
    return out


def criterion_barycentric(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """Barycentric identity at (t,s)=(2,1) with the published closed form."""
    u = catalog("cheb-u")
    f = lambda x: 7 * x ** 5 - 4 * x ** 3 + x / (x * x + 3.0)
    out = [replace(barycentric_check(u, 2.0, 1.0, f, spec),
                   check_id="8 barycentric identity cheb-u (t,s)=(2,1)",
                   provenance="paper")]
    with timer() as tm:
        g = u.interval.interior_grid(20, 0.02)
        expct = (41 * g ** 2 - 24 * math.sqrt(3) + 81 + 56 * g ** 6
                 + 178 * g ** 4) / (8 * (g * g + 3))
        dens2, dens1 = family(u, 2.0, spec), family(u, 1.0, spec)
        sf = shift_multiply(f, dens2.c1)
        inner = lambda v: apply_T(dens1, sf, v, spec)
        left = apply_T(dens2, inner, g, spec)
        dev = float(np.max(np.abs(left - expct)))
    out.append(property_report("8 barycentric closed-form value", dev, 1e-5,
                               "paper", tm.ms))
    return out


def criterion_transform_relation(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """Transform relation at 10 sample points for two parameter pairs, one
    check per pair."""
    zs_u = [2, 3, -2, 2 + 1j, -1.5 - 2j, 0.5 + 3j, 4 - 0.2j, -3 + 0.4j,
            1.8 + 0.05j, 10]
    zs_uni = [2, 3, -1, 2 + 1j, -0.5 - 2j, 0.5 + 3j, 4 - 0.2j, -2 + 0.4j,
              1.8 + 0.05j, 10]
    out = []
    for name, (t, s), zs in (("cheb-u", (1.0, 2.0), zs_u),
                             ("uniform", (0.5, 0.9), zs_uni)):
        rho = catalog(name)
        rep = transform_relation_check(rho, t, s, zs, spec)
        out.append(replace(
            rep, check_id=f"9 transform relation {name} (t,s)=({t:g},{s:g})",
            provenance="paper"))
    return out


def criterion_property_suites(spec=DEFAULT_SPEC) -> List[VerificationReport]:
    """Operator-level identities with no single published number."""
    u = catalog("cheb-u")
    uni = catalog("uniform")
    out = []

    # Orthonormality transport of the transformed polynomials.
    with timer() as tm:
        ctx = make_context(u, 0.8, spec)
        Pt, _ = transformed_polys(ctx, 5, spec)
        dev = 0.0
        for n in range(6):
            for m in range(n + 1):
                val = inner_product(Pt.as_callable(n), Pt.as_callable(m),
                                    ctx, spec)
                dev = max(dev, abs(val - (1.0 if n == m else 0.0)))
    out.append(property_report("10 orthonormality transport cheb-u t=0.8",
                               dev, 1e-6, "paper", tm.ms))

    # Inverse pair and factorization.
    with timer() as tm:
        ctx = make_context(u, 0.7, spec)
        f = mean_project(lambda x: x ** 3, u, spec)
        g = u.interval.interior_grid(15, 0.02)
        vf = lambda xs: apply_V(ctx, f, xs, spec)
        dev = float(np.max(np.abs(apply_V_inverse(ctx, vf, g, spec) - f(g))))
    out.append(property_report("10 inverse pair cheb-u t=0.7", dev, 1e-6,
                               "paper", tm.ms))
    with timer() as tm:
        dev = float(np.max(np.abs(apply_T(ctx, vf, g, spec)
                                  - apply_T(u, f, g, spec))))
    out.append(property_report("10 factorization cheb-u t=0.7", dev, 1e-6,
                               "paper", tm.ms))

    # Group action of the family parameter.
    with timer() as tm:
        g = u.interval.interior_grid(12, 0.02)
        dens_t = family(u, 0.5, spec)
        dev = float(np.max(np.abs(family_density(dens_t, 0.8, g, spec)
                                  - family_density(u, 0.4, g, spec))))
    out.append(property_report("10 group action cheb-u (0.5,0.8)", dev, 1e-5,
                               "paper", tm.ms))

    # Stieltjes-Perron consistency of the family transform.
    for rho in (u, uni):
        with timer() as tm:
            dev = 0.0
            for t in (0.5, 0.8):
                for x in rho.interval.interior_grid(5, 0.1):
                    p = perron_invert(
                        lambda z: family_transform(rho, t, z, spec), x)
                    dev = max(dev, abs(p - family_density(rho, t, x, spec)))
        out.append(property_report(f"10 perron consistency {rho.name}", dev,
                                   1e-4, "paper", tm.ms))

    # Equi-normality and the Dirac limit.
    out.append(equi_normality_check(u, 2.0, spec))
    out.append(equi_normality_check(uni, 0.5, spec))
    # A non-polynomial g: the family keeps c_1, so g = x would give a gap of
    # zero at every t whether or not rho_t concentrates.
    out.append(dirac_limit_check(uni, np.exp, spec=spec))
    out.append(dirac_limit_check(u, np.exp, spec=spec))

    # Isometry on random polynomials.
    rng = np.random.default_rng(0)
    with timer() as tm:
        worst = 0.0
        for rho in (u, uni):
            for t in (0.5, 0.8, 1.0):
                ctx = make_context(rho, t, spec)
                for _ in range(4):
                    coeffs = rng.uniform(-1, 1, size=9)
                    poly = lambda x, c=coeffs: np.polynomial.polynomial.polyval(
                        np.asarray(x, dtype=float), c)
                    rep = isometry_check(ctx, poly, spec)
                    worst = max(worst, abs(rep.computed - float(rep.expected))
                                / max(1.0, abs(float(rep.expected))))
    out.append(property_report("10 isometry random polynomials", worst, 1e-6,
                               "derived", tm.ms))

    # Composition identity.
    out.append(composition_check(u, 0.5, 0.8,
                                 mean_project(lambda x: x ** 3 + x, u, spec),
                                 spec))
    return out


SUITES = {
    "paper": (
        criterion_reducer_closed_forms,
        criterion_moment0_values,
        criterion_family_closed_forms,
        criterion_equinormal_moments,
        criterion_root_scans,
        criterion_isometry_value,
        criterion_integral_equation,
        criterion_barycentric,
        criterion_transform_relation,
        criterion_property_suites,
    ),
}


def run_suite(suite: str = "paper", spec: IntegrationSpec = DEFAULT_SPEC
              ) -> List[VerificationReport]:
    """Run a named verification suite and return all reports."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; have {sorted(SUITES)}")
    return [rep for fn in SUITES[suite] for rep in fn(spec)]
