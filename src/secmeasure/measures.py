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
from .quadrature import (DEFAULT_SPEC, ODD, EndpointExponents,
                         IntegrationSpec, Interval, _call, derivative,
                         finer_rule, refine_levels, tanh_sinh_nodes)

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

    The next-coarser tanh-sinh level, the first level of every integral
    refined on the rule, is x[::2] with weights 2 w[::2], bit for bit.
    """

    x: np.ndarray
    w: np.ndarray
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

    def _rule_at_level(self, level: int, odd: bool = False) -> tuple:
        half, mid = 0.5 * self.interval.width, self.interval.midpoint
        g, w, dm, dp = tanh_sinh_nodes(level, odd)
        x = mid + half * g
        return x, half * w * self.value_at(x, half * dp, half * dm)

    def rule(self, spec: IntegrationSpec = DEFAULT_SPEC,
             min_level: int = 2) -> WeightedRule:
        """The density-weighted rule, cached per (spec, min_level); each
        level past ``min_level`` is ``finer_rule`` of the one before and
        its odd-k nodes, bit for bit ``_rule_at_level``."""
        key = (spec, min_level)
        cached = self._rules.get(key)
        if cached is not None:
            return cached
        x = w = top = None

        def estimate(level, act, odd):
            nonlocal x, w, top
            xl, wl = self._rule_at_level(level, odd)
            x, w = finer_rule(x, w, xl, wl) if odd else (xl, wl)
            top = level
            return wl.sum()[None]

        refine_levels(estimate, 1, spec, min_level,
                      f"weighted rule of {self.name!r}")
        rule = self._rules[key] = WeightedRule(x, w, top)
        return rule

    def _refine(self, evaluate: Callable, spec: IntegrationSpec, what: str,
                count: int = 1):
        """``evaluate(x, w)``, ``count`` sums over the nodes x with weights
        w stacked along the first axis, on the cached rule, each refined
        until two levels agree (arrays compared in max-norm).  The first
        level is the rule's coarser one in full; later levels pass only
        their odd-k nodes, the rule's and then new ones up to the rule's
        own cap, level 2 + max_refinement_levels."""
        rule = self.rule(spec)

        def estimate(level, act, odd):
            x, w = ((rule.x[::2], 2.0 * rule.w[::2]) if not odd
                    else (rule.x[ODD], rule.w[ODD]) if level == rule.level
                    else self._rule_at_level(level, odd))
            return np.asarray(evaluate(x, w))[act]

        return refine_levels(estimate, count, spec, 2,
                             f"{what} against {self.name!r}",
                             first=rule.level - 1)

    def weighted_integral(self, f: Callable, spec: IntegrationSpec = DEFAULT_SPEC):
        """Integral of f against this density, refined until levels agree."""
        return self._refine(lambda x, w: (w @ _call(f, x))[None], spec,
                            "weighted integral")[0]

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
    return _moments(rho, [n], spec)[0]


def moments(rho: BaseDensity, n_max: int,
            spec: IntegrationSpec = DEFAULT_SPEC) -> MomentSequence:
    """Moments c_0..c_{n_max} as a sequence."""
    return MomentSequence(tuple(_moments(rho, range(n_max + 1), spec)))


def _moments(rho: BaseDensity, orders, spec: IntegrationSpec) -> list:
    """Cached moments; the missing ones come from one refinement with one
    element, and one stop test, per order."""
    todo = [n for n in orders if (n, spec) not in rho._moments]
    if todo:
        p = np.array(todo)[:, None]
        vals = rho._refine(lambda x, w: (x ** p) @ w, spec, "moments", len(todo))
        rho._moments.update(zip([(n, spec) for n in todo], vals.tolist()))
    return [rho._moments[(n, spec)] for n in orders]


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
