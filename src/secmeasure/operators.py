"""The isometry V and the closed-form integral-equation solver.

V(f)(x) = t f(x) + (1-t)(x-c_1) T(f)(x) maps the zero-mean hyperplane of
L^2(rho) isometrically onto that of L^2(rho_t/t); its inverse has the same
shape with rho and rho_t swapped and t replaced by 1/t.  That inverse
solves the integral equation

    (E_lambda):  f(x) + lambda (x-c_1) int (f(u)-f(x))/(u-x) rho(u) du = g(x)

in closed form, f = g - (lambda/(1+lambda)) (x-c_1) T_{rho_t}(g) with
t = 1/(1+lambda).  The operators' context is rho_t itself, the
``FamilyDensity`` that ``make_context`` validates, carrying rho, c_1 and t.
The module also verifies the composition, barycentric, and
transform-relation identities satisfied by the family of operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidParameter
from .family import FamilyDensity, family, family_transform
from .measures import BaseDensity, inner_product, mean_project, moment
from .orthopoly import (_apply_T, apply_T, orthonormal_polys,
                        recurrence_coefficients, secondary_polys)
from .quadrature import (DEFAULT_SPEC, IntegrationSpec, _call, _finite,
                         _pointwise)
from .report import VerificationReport, numeric_report, property_report, timer

__all__ = [
    "IntegralEquationProblem",
    "make_context",
    "apply_V",
    "apply_V_inverse",
    "isometry_check",
    "transformed_polys",
    "solve_integral_equation",
    "equation_residual",
    "residual_check",
    "shift_multiply",
    "barycentric_check",
    "composition_check",
    "transform_relation_check",
]


make_context = family  # the operators' context, rho_t: base, c1 and t
RESIDUAL_LIMIT = 1e-5  # the largest |residual| of (E_lambda) accepted


def _f_plus_T(a: float, b: float, rho: BaseDensity, c1: float, f: Callable,
              xs: np.ndarray, spec: IntegrationSpec) -> tuple:
    """(a f(xs) + b (xs-c_1) T_rho(f)(xs), f(xs)) for a flat array xs, f(xs)
    from T's calls of f; T is not evaluated when b == 0."""
    if not b:
        fx = _call(f, xs)
        return a * fx, fx
    Tf, fx = _apply_T(rho, f, xs, spec)
    return a * fx + b * (xs - c1) * Tf, fx


def apply_V(ctx: FamilyDensity, f: Callable, x,
            spec: IntegrationSpec = DEFAULT_SPEC):
    """V(f)(x) = t f(x) + (1-t)(x-c_1) T(f)(x), T against the base density."""
    return _pointwise(lambda xs: _f_plus_T(ctx.t, 1.0 - ctx.t, ctx.base,
                                           ctx.c1, f, xs, spec)[0], x)


def apply_V_inverse(ctx: FamilyDensity, f: Callable, x,
                    spec: IntegrationSpec = DEFAULT_SPEC):
    """V^{-1}(f)(x) = (1/t) f(x) + (1 - 1/t)(x-c_1) T_{rho_t}(f)(x)."""
    t = ctx.t
    return _pointwise(lambda xs: _f_plus_T(1.0 / t, 1.0 - 1.0 / t, ctx,
                                           ctx.c1, f, xs, spec)[0], x)


def isometry_check(ctx: FamilyDensity, f: Callable,
                   spec: IntegrationSpec = DEFAULT_SPEC) -> VerificationReport:
    """Compare int f~^2 rho with int V(f~)^2 rho_t/t, f~ mean-projected.

    Passes when the two sides agree within 1e-6 * max(1, |left|).
    """
    with timer() as tm:
        ft = mean_project(f, ctx.base, spec)
        left = inner_product(ft, ft, ctx.base, spec)
        right = float(ctx.weighted_integral(
            lambda xs: apply_V(ctx, ft, xs, spec) ** 2,
            spec).real) / ctx.t
    tol = 1e-6 * max(1.0, abs(left))
    return numeric_report(f"isometry {ctx.base.name} t={ctx.t:g}",
                          left, right, tol, "paper", tm.ms)


def transformed_polys(ctx: FamilyDensity, N: int,
                      spec: IntegrationSpec = DEFAULT_SPEC):
    """P_0^t..P_N^t and Q_0^t..Q_N^t, orthonormal and secondary for rho_t.

    They are the polynomials of rho's recurrence co-dilated by t (b_1
    scaled by sqrt(t), every other row kept), which equal
    P_n^t = (1/sqrt(t)) [t P_n + (1-t)(x - c_1) Q_n] for n >= 1 and
    Q_n^t = Q_n / sqrt(t).
    """
    rc = recurrence_coefficients(ctx.base, N + 1, spec).codilated(ctx.t)
    return orthonormal_polys(rc), secondary_polys(rc)


@dataclass(frozen=True)
class IntegralEquationProblem:
    """Data of (E_lambda); the derived family parameter is t = 1/(1+lambda)."""

    rho: BaseDensity
    lam: float
    g: Callable

    def __post_init__(self):
        if self.lam == -1.0:
            raise InvalidParameter("lambda = -1 leaves no derived parameter")

    @property
    def t(self) -> float:
        return 1.0 / (1.0 + self.lam)


def solve_integral_equation(problem: IntegralEquationProblem, x,
                            spec: IntegrationSpec = DEFAULT_SPEC):
    """Closed-form solution f = g - (lambda/(1+lambda))(x-c_1) T_{rho_t}(g);
    InvalidParameter when t is not a valid family parameter (lambda <= -1
    gives t <= 0)."""
    t = problem.t
    dens = family(problem.rho, t, spec)
    return _pointwise(lambda xs: _f_plus_T(1.0, -problem.lam * t, dens,
                                           dens.c1, problem.g, xs, spec)[0], x)


def equation_residual(problem: IntegralEquationProblem, f: Callable,
                      xs: np.ndarray, spec: IntegrationSpec = DEFAULT_SPEC):
    """(f(xs), f + lambda (x-c_1) T(f) - g at xs), the residual of f in
    (E_lambda) on a flat array xs; f(xs) comes from T's calls of f, which
    hold xs (f is called on xs alone only when lambda == 0); DomainError
    for a non-finite point."""
    rho, xs = problem.rho, _finite(xs)
    lhs, fx = _f_plus_T(1.0, problem.lam, rho, moment(rho, 1, spec), f, xs,
                        spec)
    return fx, lhs - _call(problem.g, xs)


def residual_check(problem: IntegralEquationProblem, f: Callable,
                   spec: IntegrationSpec = DEFAULT_SPEC) -> VerificationReport:
    """Plug f into (E_lambda) on a 30-point grid (``equation_residual``);
    the largest |residual| must not exceed RESIDUAL_LIMIT."""
    with timer() as tm:
        grid = problem.rho.interval.interior_grid(30, 2e-3)
        dev = float(np.max(np.abs(equation_residual(problem, f, grid,
                                                    spec)[1])))
    return property_report(
        f"integral-equation residual {problem.rho.name} lambda={problem.lam:g}",
        dev, RESIDUAL_LIMIT, "derived", tm.ms)


def shift_multiply(f: Callable, c1: float) -> Callable:
    """The multiplication operator f(x) -> (x - c_1) f(x)."""

    def shifted(x):
        x = np.asarray(x, dtype=float)
        return (x - c1) * _call(f, x)

    return shifted


def barycentric_check(rho: BaseDensity, t: float, s: float, f: Callable,
                      spec: IntegrationSpec = DEFAULT_SPEC) -> VerificationReport:
    """T_{rho_t}(T_{rho_s}((x-c_1) f)) vs [s T_{rho_s}(f) - t T_{rho_t}(f)]/(s-t).

    Compared on a 20-point interior grid with tolerance 1e-5.
    """
    if t == s:
        raise InvalidParameter("barycentric identity needs t != s")
    with timer() as tm:
        dens_t = family(rho, t, spec)
        dens_s = family(rho, s, spec)
        sf = shift_multiply(f, dens_t.c1)
        grid = rho.interval.interior_grid(20, 2e-3)

        def inner(u):
            return apply_T(dens_s, sf, u, spec)

        left = apply_T(dens_t, inner, grid, spec)
        right = (s * apply_T(dens_s, f, grid, spec)
                 - t * apply_T(dens_t, f, grid, spec)) / (s - t)
        dev = float(np.max(np.abs(left - right)))
    return property_report(f"barycentric {rho.name} t={t:g} s={s:g}",
                           dev, 1e-5, "derived", tm.ms)


def composition_check(rho: BaseDensity, t: float, s: float, f: Callable,
                      spec: IntegrationSpec = DEFAULT_SPEC) -> VerificationReport:
    """V over rho_t at s, composed with V at t, vs the single step at t*s."""
    with timer() as tm:
        ctx_t = make_context(rho, t, spec)
        ctx_ts = make_context(rho, t * s, spec)
        ctx_s = make_context(ctx_t, s, spec)
        grid = rho.interval.interior_grid(20, 2e-3)

        def vf(x):
            return apply_V(ctx_t, f, x, spec)

        left = apply_V(ctx_s, vf, grid, spec)
        right = apply_V(ctx_ts, f, grid, spec)
        dev = float(np.max(np.abs(left - right)))
    return property_report(f"composition {rho.name} t={t:g} s={s:g}",
                           dev, 1e-5, "derived", tm.ms)


def transform_relation_check(rho: BaseDensity, t: float, s: float, z,
                             spec: IntegrationSpec = DEFAULT_SPEC
                             ) -> VerificationReport:
    """(z-c_1) S^t(z) S^s(z) vs [t S^t(z) - s S^s(z)]/(t-s), tolerance 1e-8.

    z is one point or an array of them, each parameter's transform one
    call for all; the report carries the worst deviation.
    """
    if t == s:
        raise InvalidParameter("transform relation needs t != s")
    with timer() as tm:
        zs = np.asarray(z, dtype=complex)
        c1 = moment(rho, 1, spec)
        st = family_transform(rho, t, zs, spec)
        ss = family_transform(rho, s, zs, spec)
        dev = float(np.max(np.abs((zs - c1) * st * ss
                                  - (t * st - s * ss) / (t - s))))
    where = f"z={complex(zs)}" if zs.ndim == 0 else f"{zs.size} z"
    return property_report(
        f"transform-relation {rho.name} t={t:g} s={s:g} {where}",
        dev, 1e-8, "derived", tm.ms)
