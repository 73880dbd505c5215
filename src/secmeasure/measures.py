"""Probability densities on compact intervals.

A density is stored as a smooth part h together with declared endpoint
exponents, the pointwise value being (x-a)^alpha (b-x)^beta h(x).  The
module ships the catalog of worked examples (Chebyshev of both kinds,
uniform, 2x, (3/2)sqrt(x)), moments, the weighted inner product, and mean
projection onto the zero-mean hyperplane.

Every density keeps its values at the nodes of the finest tanh-sinh level
any integral on its interval has reached, one array whatever the spec,
and every evaluation at those nodes reads it: the weighted rule (a
converged rule with the density values folded into the weights, cached
per spec and reused for all density-weighted integrals), the reducer's
inner sums and the transform away from the cut.  A derived density (mu,
rho_t, ``stieltjes.DerivedDensity``) forms its node values from its
base's.  The nodes themselves and their exact distances to the ends are
kept once per interval, whatever the density (``_node_points``).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, InvalidDensity, NonConvergence,
                     UnknownDensity)
from .quadrature import (DEFAULT_SPEC, ODD, EndpointExponents,
                         IntegrationSpec, Interval, _call, _pointwise,
                         kernel_sums, level_sums, level_weights,
                         refine_levels, tanh_sinh_nodes)

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


# Node points (x, x - a, b - x) at the finest tanh-sinh level asked for on an
# interval, (level, x, da, db) keyed by the whole Interval, for the
# _NODE_POINT_INTERVALS intervals last used, the least recent dropped first.
# Every coarser level's nodes are the finer one's even-k nodes, bit for bit.
_NODE_POINT_INTERVALS = 4
_node_point_cache: dict = {}
_node_point_lock = threading.Lock()  # densities in other threads share it


class BaseDensity:
    """Shared machinery for catalog densities and derived family densities."""

    name: str
    interval: Interval
    exps = EndpointExponents()  # 0 at both ends unless a Density declares them

    def __init__(self, interval: Interval, name: str):
        self.interval = interval
        self.name = name
        self._nodes = None
        self._node_level = 0
        self._rules: dict = {}
        self._moments: dict = {}
        self._family: dict = {}
        self._recurrence: dict = {}

    # -- pointwise evaluation --------------------------------------------

    def value_at(self, x, dleft, dright):
        """Density value given accurate distances to both endpoints."""
        raise NotImplementedError

    def value(self, x):
        """rho at points of the closed support [a, b] (``_served``)."""
        return _served(self, x, "value", self.value_at)

    # -- values at the tanh-sinh nodes -------------------------------------

    def _node_values(self, level: int, odd: bool = False) -> np.ndarray:
        """rho at a level's nodes (``odd``: its odd-k ones), by ``_level_view``."""
        self._nodes, self._node_level, view = _level_view(
            self._nodes, self._node_level, level, odd, self._evaluate_nodes)
        return view

    def _node_points(self, level: int, odd: bool = False) -> tuple:
        """A level's nodes on the interval (with ``odd`` its odd-k ones) and
        their exact distances to a and to b: read-only strided views of the
        three arrays ``_node_point_cache`` keeps for the interval, at the
        finest level any density on an equal interval has asked for."""
        key = self.interval
        with _node_point_lock:
            kept = _node_point_cache.pop(key, None)
            if kept is None or kept[0] < level:
                half, mid = 0.5 * self.interval.width, self.interval.midpoint
                g, _, dm, dp = tanh_sinh_nodes(level)
                kept = (level, mid + half * g, half * dp, half * dm)
                for v in kept[1:]:
                    v.flags.writeable = False
            _node_point_cache[key] = kept
            if len(_node_point_cache) > _NODE_POINT_INTERVALS:
                del _node_point_cache[next(iter(_node_point_cache))]
        top, x, da, db = kept
        step = 2 ** (top - level)
        part = slice(step, None, 2 * step) if odd else slice(None, None, step)
        return x[part], da[part], db[part]

    def _evaluate_nodes(self, level: int, odd: bool) -> np.ndarray:
        """``value_at`` at a level's nodes (``odd``: its odd-k ones)."""
        return np.asarray(self.value_at(*self._node_points(level, odd)),
                          dtype=float)

    # -- cached weighted rule --------------------------------------------

    def _rule_at_level(self, level: int, odd: bool = False) -> tuple:
        w = 0.5 * self.interval.width * tanh_sinh_nodes(level, odd)[1]
        x = self._node_points(level, odd)[0]
        return x, w * self._node_values(level, odd)

    def rule(self, spec: IntegrationSpec = DEFAULT_SPEC) -> WeightedRule:
        """The density-weighted rule, cached per spec: ``_rule_at_level``
        at the first level whose sum agrees with the one before."""
        cached = self._rules.get(spec)
        if cached is not None:
            return cached
        top = None

        def estimate(level, act, odd):
            nonlocal top
            top = level
            return [w.sum()[None] for w in
                    level_weights(self._rule_at_level(level, odd)[1], odd)]

        what = f"weighted rule of {self.name!r}"
        refine_levels(estimate, 1, spec, 2, what)
        rule = WeightedRule(*self._rule_at_level(top), top)
        # No level sees the mass beyond the outermost nodes, rho(x_0) d_0 /
        # (1 + p) at each end of exponent p.
        dm, dp = tanh_sinh_nodes(top)[2:]
        r, half = self._node_values(top), 0.5 * self.interval.width
        tail = half * (r[0] * dp[0] / (1.0 + self.exps.alpha)
                       + r[-1] * dm[-1] / (1.0 + self.exps.beta))
        tol = max(spec.abs_tol, spec.rel_tol * rule.w.sum())
        if tail > tol:
            raise NonConvergence(
                f"{what} misses mass {tail:.3e} beyond its outermost nodes, "
                f"above tolerance {tol:.3e}")
        self._rules[spec] = rule
        return rule

    def _refine(self, evaluate: Callable, spec: IntegrationSpec, what: str,
                count: int = 1, settle: Optional[Callable] = None):
        """``evaluate(x, ws)``, the ``level_sums`` of the nodes x with the
        weights ws, each ``count`` sums stacked along the first axis, on the
        cached rule, refined until two levels agree (arrays compared in
        max-norm).  The first pass is the rule's nodes, for it and the level
        before; later levels pass only their odd-k nodes, up to the rule's
        own cap, level 2 + max_refinement_levels, their density values read
        from the node values.  ``settle`` is ``refine_levels``' hook: it
        maps the sums to the values compared."""
        rule = self.rule(spec)

        def estimate(level, act, odd):
            x, w = self._rule_at_level(level, odd) if odd else (rule.x, rule.w)
            return [np.asarray(s)[act]
                    for s in evaluate(x, level_weights(w, odd))]

        return refine_levels(estimate, count, spec, 2,
                             f"{what} against {self.name!r}",
                             first=rule.level - 1, settle=settle)

    def weighted_integral(self, f: Callable, spec: IntegrationSpec = DEFAULT_SPEC):
        """Integral of f against this density, refined until levels agree."""
        return self._refine(lambda x, ws: [s[None] for s in level_sums(
            _call(f, x), ws)], spec, "weighted integral")[0]

    def mass(self, spec: IntegrationSpec = DEFAULT_SPEC) -> float:
        """Total mass: the sum of the cached rule's weights."""
        return float(self.rule(spec).w.sum())


def _level_view(vals, top: int, level: int, odd: bool, evaluate: Callable):
    """(vals, top, view): ``vals`` at the nodes of level ``top`` (None for
    none) reaches ``level`` and is viewed there (``odd``: at its odd-k nodes),
    ``evaluate`` giving a first level in full, each finer one at its odd-k."""
    if vals is None:
        vals, top = evaluate(level, False), level
    while top < level:
        top += 1
        finer = np.empty(2 * len(vals) - 1)
        finer[::2], finer[ODD] = vals, evaluate(top, True)
        vals = finer
    step = 2 ** (top - level)
    return vals, top, vals[step::2 * step] if odd else vals[::step]


def _served(rho: BaseDensity, x, what: str, fn: Callable, margin=0.0):
    """fn(xs, xs - a, b - xs) at points at least ``margin`` widths inside
    the support [a, b], in x's shape (``_pointwise``); DomainError for any
    other point, a non-finite one included."""
    a, b = rho.interval.a, rho.interval.b
    delta = margin * rho.interval.width
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= a + delta) & (xs <= b - delta)):
        raise DomainError(f"{what} of {rho.name!r} is served on "
                          f"[{a + delta:g}, {b - delta:g}] only")
    return _pointwise(lambda xs: fn(xs, xs - a, b - xs), xs)


class Density(BaseDensity):
    """Probability density (x-a)^alpha (b-x)^beta h(x) on [a, b]."""

    def __init__(self, interval: Interval, smooth_part: Callable,
                 exps: EndpointExponents, name: str):
        super().__init__(interval, name)
        self.smooth_part = smooth_part
        self.exps = exps
        self._phi, self._phi_nodes = {}, {}  # reducer: dict, node arrays

    def value_at(self, x, dleft, dright):
        vals = np.asarray(_call(self.smooth_part, np.asarray(x, dtype=float)),
                          dtype=float)
        return (vals * np.asarray(dleft, dtype=float) ** self.exps.alpha
                * np.asarray(dright, dtype=float) ** self.exps.beta)

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
    vals = dens.value(interval.interior_grid(1000, 1 / 1001))
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
    """Moment c_n = int x^n rho(x) dx; ValueError for n < 0."""
    if n < 0:
        raise ValueError(f"moment order must be nonnegative, got {n}")
    return _moments(rho, [n], spec)[0]


def moments(rho: BaseDensity, n_max: int,
            spec: IntegrationSpec = DEFAULT_SPEC) -> MomentSequence:
    """Moments c_0..c_{n_max} as a sequence; ValueError for n_max < 0."""
    if n_max < 0:
        raise ValueError(f"moment order must be nonnegative, got {n_max}")
    return MomentSequence(tuple(_moments(rho, range(n_max + 1), spec)))


def _moments(rho: BaseDensity, orders, spec: IntegrationSpec) -> list:
    """Cached moments; the missing ones come from one refinement with one
    element, and one stop test, per order, the powers x^n formed in
    ``kernel_sums``' bounded blocks."""
    todo = [n for n in orders if (n, spec) not in rho._moments]
    if todo:
        p = np.array(todo)[:, None]
        vals = rho._refine(lambda x, w: kernel_sums(lambda n: x ** n, p, w),
                           spec, "moments", len(todo))
        rho._moments.update(zip([(n, spec) for n in todo], vals.tolist()))
    return [rho._moments[(n, spec)] for n in orders]


def inner_product(f: Callable, g: Callable, rho: BaseDensity,
                  spec: IntegrationSpec = DEFAULT_SPEC) -> float:
    """Weighted inner product <f, g> = int f g rho; <f, f> calls f once."""
    fg = ((lambda x: _call(f, x) ** 2) if g is f
          else (lambda x: _call(f, x) * _call(g, x)))
    return float(rho.weighted_integral(fg, spec))


def mean_project(f: Callable, rho: BaseDensity,
                 spec: IntegrationSpec = DEFAULT_SPEC) -> Callable:
    """Project f onto the zero-mean hyperplane: returns x -> f(x) - mean."""
    mean = float(rho.weighted_integral(f, spec))

    def projected(x):
        return _call(f, np.asarray(x, dtype=float)) - mean

    projected.mean = mean
    return projected
