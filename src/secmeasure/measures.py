"""Probability densities on compact intervals.

A density is stored as a smooth part h together with declared endpoint
exponents, the pointwise value being (x-a)^alpha (b-x)^beta h(x).  The
module ships the catalog of worked examples (Chebyshev of both kinds,
uniform, 2x, (3/2)sqrt(x)), moments, the weighted inner product, and mean
projection onto the zero-mean hyperplane.

Every density caches a converged tanh-sinh rule with the density values
folded into the weights; downstream modules reuse that rule for all
density-weighted integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidDensity, UnknownDensity
from .quadrature import (DEFAULT_SPEC, EndpointExponents, IntegrationSpec,
                         Interval, _call, derivative, refine_levels,
                         tanh_sinh_nodes)

__all__ = [
    "BaseDensity",
    "Density",
    "MomentSequence",
    "WeightedRule",
    "CATALOG_NAMES",
    "catalog",
    "user_density",
    "moment",
    "moments",
    "inner_product",
    "mean_project",
]


@dataclass(frozen=True)
class WeightedRule:
    """Quadrature rule with the density absorbed into the weights.

    ``x_lo/w_lo`` are the nodes of the next-coarser tanh-sinh level and are
    used as a cross-check when integrating a new function against the rule.
    """

    x: np.ndarray
    w: np.ndarray
    x_lo: np.ndarray
    w_lo: np.ndarray
    level: int


class BaseDensity:
    """Shared machinery for catalog densities and derived family densities."""

    name: str
    interval: Interval

    def __init__(self, interval: Interval, name: str):
        self.interval = interval
        self.name = name
        self._rules: dict = {}
        self._phi: dict = {}
        self._moments: dict = {}
        self._family: dict = {}

    # -- pointwise evaluation --------------------------------------------

    def value_at(self, x, dleft, dright):
        """Density value given accurate distances to both endpoints."""
        raise NotImplementedError

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = self.value_at(x, x - self.interval.a, self.interval.b - x)
        return float(out) if out.ndim == 0 else out

    def derivative_at(self, x, dleft, dright):
        """d(density)/dx, the reducer's difference-quotient fallback."""
        iv = self.interval
        return derivative(self.value, x, self.value_at(x, dleft, dright),
                          iv.a, iv.b, iv.width)

    # -- cached weighted rule --------------------------------------------

    def _rule_at_level(self, level: int) -> tuple:
        half = 0.5 * self.interval.width
        mid = self.interval.midpoint
        g, w, dm, dp = tanh_sinh_nodes(level)
        x = mid + half * g
        return x, half * w * self.value_at(x, half * dp, half * dm)

    def rule(self, spec: IntegrationSpec = DEFAULT_SPEC,
             min_level: int = 2) -> WeightedRule:
        key = (spec, min_level)
        cached = self._rules.get(key)
        if cached is not None:
            return cached
        built = {}

        def estimate(level, act):
            built[level] = self._rule_at_level(level)
            return built[level][1].sum()[None]

        refine_levels(estimate, 1, spec, min_level,
                      f"weighted rule of {self.name!r}")
        level = max(built)
        rule = WeightedRule(*built[level], *built[level - 1], level)
        self._rules[key] = rule
        return rule

    def _refine(self, evaluate: Callable, spec: IntegrationSpec, what: str):
        """``evaluate(x, w)`` on the cached rule, refined until two levels agree.

        The first two levels are the rule's coarser level and the rule
        itself; later levels are built anew, up to the rule's own cap,
        level 2 + max_refinement_levels.  The estimates may be scalars or
        arrays (compared in max-norm).
        """
        rule = self.rule(spec)
        cached = {rule.level - 1: (rule.x_lo, rule.w_lo), rule.level: (rule.x, rule.w)}

        def estimate(level, act):
            x, w = cached.get(level) or self._rule_at_level(level)
            return np.asarray(evaluate(x, w))[None]

        return refine_levels(estimate, 1, spec, 2, f"{what} against {self.name!r}",
                             first=rule.level - 1)[0]

    def weighted_integral(self, f: Callable, spec: IntegrationSpec = DEFAULT_SPEC):
        """Integral of f against this density, refined until levels agree."""
        return self._refine(lambda x, w: w @ _call(f, x), spec, "weighted integral")

    def mass(self, spec: IntegrationSpec = DEFAULT_SPEC) -> float:
        """Total mass: the sum of the cached rule's weights."""
        return float(self.rule(spec).w.sum())


class Density(BaseDensity):
    """Probability density (x-a)^alpha (b-x)^beta h(x) on [a, b]."""

    def __init__(self, interval: Interval, smooth_part: Callable,
                 exps: EndpointExponents, name: str):
        super().__init__(interval, name)
        self.smooth_part = smooth_part
        self.exps = exps

    def value_at(self, x, dleft, dright):
        x = np.asarray(x, dtype=float)
        vals = np.asarray(_call(self.smooth_part, x), dtype=float)
        if self.exps.alpha != 0.0:
            vals = vals * np.asarray(dleft, dtype=float) ** self.exps.alpha
        if self.exps.beta != 0.0:
            vals = vals * np.asarray(dright, dtype=float) ** self.exps.beta
        return vals

    def derivative_at(self, x, dleft, dright):
        # rho = wt h with wt = dl^alpha dr^beta, so rho' = rho (alpha/dl -
        # beta/dr) + wt h'; the first term is what matters arbitrarily close
        # to an endpoint.
        x = np.asarray(x, dtype=float)
        dl = np.asarray(dleft, dtype=float)
        dr = np.asarray(dright, dtype=float)
        hx = np.asarray(_call(self.smooth_part, x), dtype=float)
        wt = dl ** self.exps.alpha * dr ** self.exps.beta
        iv = self.interval
        return (hx * wt * (self.exps.alpha / dl - self.exps.beta / dr)
                + wt * derivative(self.smooth_part, x, hx, iv.a, iv.b, iv.width))

    def __repr__(self):
        return f"Density({self.name!r} on [{self.interval.a}, {self.interval.b}])"


@dataclass(frozen=True)
class MomentSequence:
    """Moments c_0..c_N of a density."""

    values: tuple

    def __getitem__(self, n):
        return self.values[n]

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

CATALOG_NAMES = ("cheb-u", "cheb-t", "uniform", "linear2x", "sqrt32")

_CATALOG_SPECS = {
    "cheb-u": (Interval(-1.0, 1.0), lambda x: np.full_like(np.asarray(x, float), 2.0 / math.pi),
               EndpointExponents(0.5, 0.5)),
    "cheb-t": (Interval(-1.0, 1.0), lambda x: np.full_like(np.asarray(x, float), 1.0 / math.pi),
               EndpointExponents(-0.5, -0.5)),
    "uniform": (Interval(0.0, 1.0), lambda x: np.ones_like(np.asarray(x, float)),
                EndpointExponents(0.0, 0.0)),
    "linear2x": (Interval(0.0, 1.0), lambda x: 2.0 * np.asarray(x, float),
                 EndpointExponents(0.0, 0.0)),
    "sqrt32": (Interval(0.0, 1.0), lambda x: np.full_like(np.asarray(x, float), 1.5),
               EndpointExponents(0.5, 0.0)),
}

_catalog_cache: dict = {}


def catalog(name: str) -> Density:
    """Return one of the built-in example densities (singletons)."""
    if name not in _CATALOG_SPECS:
        raise UnknownDensity(
            f"unknown density {name!r}; available: {', '.join(CATALOG_NAMES)}")
    if name not in _catalog_cache:
        interval, h, exps = _CATALOG_SPECS[name]
        _catalog_cache[name] = Density(interval, h, exps, name)
    return _catalog_cache[name]


def user_density(h: Callable, interval: Interval,
                 exps: EndpointExponents = EndpointExponents(),
                 name: str = "user",
                 spec: IntegrationSpec = DEFAULT_SPEC) -> Density:
    """Build a density from a user-supplied smooth part.

    The candidate is spot-checked for nonnegativity on a 1000-point grid.
    If its mass deviates from 1 by more than 1e-8 but at most 1e-2 it is
    renormalized; larger deviations are rejected.
    """
    dens = Density(interval, h, exps, name)
    grid = np.linspace(interval.a, interval.b, 1002)[1:-1]
    vals = dens.value(grid)
    if np.any(vals < 0):
        raise InvalidDensity(f"{name!r} is negative inside the interval")
    m = dens.mass(spec)
    if abs(m - 1.0) <= 1e-8:
        return dens
    if abs(m - 1.0) <= 1e-2:
        return Density(interval, lambda x, _h=h, _m=m: np.asarray(_call(_h, x)) / _m,
                       exps, name)
    raise InvalidDensity(f"{name!r} has mass {m:.6g}, too far from 1 to normalize")


# ---------------------------------------------------------------------------
# moments and inner products
# ---------------------------------------------------------------------------

def moment(rho: BaseDensity, n: int, spec: IntegrationSpec = DEFAULT_SPEC) -> float:
    """Moment c_n = int x^n rho(x) dx."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    key = (n, spec)
    if key not in rho._moments:
        rho._moments[key] = float(rho.weighted_integral(lambda x: x ** n, spec))
    return rho._moments[key]


def moments(rho: BaseDensity, n_max: int,
            spec: IntegrationSpec = DEFAULT_SPEC) -> MomentSequence:
    """Moments c_0..c_{n_max} as a sequence."""
    return MomentSequence(tuple(moment(rho, n, spec) for n in range(n_max + 1)))


def inner_product(f: Callable, g: Callable, rho: BaseDensity,
                  spec: IntegrationSpec = DEFAULT_SPEC) -> float:
    """Weighted inner product <f, g> = int f g rho."""
    return float(rho.weighted_integral(lambda x: _call(f, x) * _call(g, x), spec))


def mean_project(f: Callable, rho: BaseDensity,
                 spec: IntegrationSpec = DEFAULT_SPEC) -> Callable:
    """Project f onto the zero-mean hyperplane: returns x -> f(x) - mean."""
    mean = float(rho.weighted_integral(f, spec))

    def projected(x):
        return _call(f, np.asarray(x, dtype=float)) - mean

    projected.mean = mean
    return projected
