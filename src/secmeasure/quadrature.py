"""Integration engine on compact intervals.

Every integral here is a tanh-sinh (double exponential) rule refined until
two levels agree.  Level L's nodes are the even-k nodes of level L+1, bit
for bit, at half the weight, so (as in Takahasi and Mori's scheme, mpmath's
``TanhSinh.sum_next``) a refinement evaluates each later level only at the
odd-k nodes it adds and adds half the previous level's sum; only this
module knows that.  Entry points:

* ``refine_levels``   -- the one tanh-sinh level loop, through which every
                         integral in the package goes: a batch of integrals
                         refined together, each stopping on its own test.
* ``tanh_sinh``       -- integral of ``fn(x, dist_left, dist_right)``; the
                         endpoint distances come without cancellation, so
                         endpoint singularities, and sharp features placed
                         at an endpoint, are resolved.
* ``derivative``      -- finite-difference derivatives at an array of points,
                         centered where the interval allows and one-sided
                         near its ends; the fallback of every difference
                         quotient (u - x) -> 0.

Integrands map an ndarray of abscissae to an ndarray of values, one per
abscissa; a user callable that returns another shape raises TypeError.
The engine rejects non-finite estimates: the first level whose estimate is
NaN or infinite raises EvaluationFailure, naming the integral and the level.
Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import EvaluationFailure, NonConvergence

__all__ = [
    "Interval",
    "IntegrationSpec",
    "EndpointExponents",
    "DEFAULT_SPEC",
    "derivative",
    "refine_levels",
    "tanh_sinh",
    "tanh_sinh_nodes",
]


@dataclass(frozen=True)
class Interval:
    """Compact interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got [{self.a}, {self.b}]")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def distance_to(self, z):
        """Distance from complex points (a scalar or an array) to the
        interval as a subset of R."""
        z = np.asarray(z)
        dx = np.maximum(np.maximum(self.a - z.real, 0.0), z.real - self.b)
        return np.hypot(dx, z.imag)

    def interior_grid(self, n: int, pad: float) -> np.ndarray:
        """n equispaced points from a + pad*width to b - pad*width."""
        p = pad * self.width
        return np.linspace(self.a + p, self.b - p, n)


@dataclass(frozen=True)
class IntegrationSpec:
    """Accuracy knobs shared by every quadrature call."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_refinement_levels: int = 12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_refinement_levels < 1:
            raise ValueError("need at least one refinement level")


DEFAULT_SPEC = IntegrationSpec()


@dataclass(frozen=True)
class EndpointExponents:
    """Exponents of (x-a)^alpha (b-x)^beta; both must be integrable (> -1)."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.alpha <= -1 or self.beta <= -1:
            raise ValueError("endpoint exponents must exceed -1")


def _call(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a vectorised user callable on an array of points.

    f must return one value per point; any other shape raises TypeError.
    """
    vals = np.asarray(f(x))
    if vals.shape != np.shape(x):
        raise TypeError(f"callable returned shape {vals.shape} for points "
                        f"of shape {np.shape(x)}; it must be vectorised")
    return vals


def _pointwise(fn: Callable, x):
    """fn on the flat array of x's points, returned in x's shape: a Python
    scalar for a 0-d x, an array of x's shape otherwise."""
    xs = np.asarray(x, dtype=float)
    out = np.asarray(fn(xs.ravel())).reshape(xs.shape)
    return out.item() if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# tanh-sinh rule
# ---------------------------------------------------------------------------

# Truncation of the doubly infinite trapezoid sum.  At |t| = 4.0 the distance
# of the mapped node to the endpoint is ~1e-37, small enough that even
# alpha = -1/2 weights contribute below 1e-15.
_TS_TMAX = 4.0
# Positions of the odd-k nodes, the ones level - 1 lacks, in a level's arrays.
ODD = slice(1, None, 2)


@lru_cache(maxsize=None)
def tanh_sinh_nodes(level: int, odd: bool = False):
    """Unit tanh-sinh nodes on (-1, 1) at mesh h = 2^-level.

    Returns ``(g, w, dm, dp)`` where g are the abscissae, w the weights,
    and dm = 1 - g, dp = 1 + g computed without cancellation, at the
    8 * 2^level + 1 nodes t = k h, |k| <= 4/h; with ``odd`` at the odd-k
    ones only (a view of the full arrays).
    """
    if odd:
        return tuple(v[ODD] for v in tanh_sinh_nodes(level))
    h = 2.0 ** (-level)
    k = np.arange(-int(_TS_TMAX / h), int(_TS_TMAX / h) + 1)
    t = k * h
    u = 0.5 * np.pi * np.sinh(t)
    g = np.tanh(u)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    dm = 2.0 / (1.0 + np.exp(2.0 * u))   # 1 - g, exact near the right endpoint
    dp = 2.0 / (1.0 + np.exp(-2.0 * u))  # 1 + g
    return g, w, dm, dp


def finer_sum(coarse, odd):
    """Level L+1's sum from level L's and that over its odd-k nodes."""
    return 0.5 * coarse + odd


def finer_rule(x, w, x_odd, w_odd):
    """Level L+1's nodes and weights: level L's (x, w) at half the weight,
    interleaved with its odd-k nodes."""
    out = np.empty((2, 2 * len(x) - 1))
    out[:, ::2], out[:, ODD] = (x, 0.5 * w), (x_odd, w_odd)
    return out


def refine_levels(estimate: Callable, count: int, spec: IntegrationSpec,
                  start: int, what: str, first: Optional[int] = None,
                  settle: Optional[Callable] = None):
    """The one tanh-sinh level loop: refines ``count`` integrals together
    and returns their values stacked along the first axis.

    ``estimate(level, act, odd)`` returns the sums of the elements indexed
    by the array ``act`` (an element may be an array, compared in
    max-norm) over all of the level's nodes at the first level, and after
    it (``odd``) over its odd-k nodes, to which the loop adds half the
    previous level's sums.  The estimates are the sums, or the first of
    ``settle(act, sums)``, which also returns a per-element ``floor``.  An
    element settles at the first level where max|cur - prev| <=
    max(abs_tol, rel_tol max|cur|, floor).  Levels run from ``first``
    (default ``start``) to start + max_refinement_levels; ``what`` names
    the integrals in NonConvergence, and in the EvaluationFailure raised
    at the first level whose estimates are not all finite.
    """
    act = np.arange(count)
    sums = est = None
    # A non-finite estimate raises below; numpy's warnings about forming it
    # would only repeat that.
    with np.errstate(invalid="ignore", divide="ignore"):
        for level in range(start if first is None else first,
                           start + spec.max_refinement_levels + 1):
            new = estimate(level, act, sums is not None)
            if sums is None:
                sums = new.copy()
            else:
                new = sums[act] = finer_sum(sums[act], new)
            cur, floor = settle(act, new) if settle else (new, None)
            if not np.isfinite(cur).all():
                raise EvaluationFailure(f"{what} is not finite at level {level}")
            if est is None:
                est = cur.copy()
                continue
            gap, size = np.abs(cur - est[act]), np.abs(cur)
            if cur.ndim > 1:
                gap, size = (v.reshape(len(act), -1).max(axis=1)
                             for v in (gap, size))
            tol = np.maximum(size * spec.rel_tol, spec.abs_tol)
            if floor is not None:
                tol = np.maximum(tol, floor)
            est[act] = cur
            ok = gap <= tol
            if ok.all():
                return est
            act, gap, tol = act[~ok], gap[~ok], tol[~ok]
    worst = np.argmax(gap / tol)
    raise NonConvergence(
        f"{what} did not settle by level {level}: {len(act)} of {count} "
        f"unsettled, worst gap {gap[worst]:.3e} against tolerance {tol[worst]:.3e}")


def tanh_sinh(fn: Callable, interval: Interval,
              spec: IntegrationSpec = DEFAULT_SPEC) -> complex:
    """Tanh-sinh integration of ``fn(x, dist_left, dist_right)``.

    ``fn`` receives the mapped abscissae together with their distances to
    the two endpoints (computed without cancellation), so integrands with
    endpoint singularities can be evaluated accurately arbitrarily close
    to the boundary.
    """
    half = 0.5 * interval.width
    mid = interval.midpoint

    def estimate(level, act, odd):
        g, w, dm, dp = tanh_sinh_nodes(level, odd)
        vals = np.asarray(fn(mid + half * g, half * dp, half * dm))
        return half * (w @ vals)[None]

    return refine_levels(estimate, 1, spec, 2, "tanh-sinh")[0]


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

# Difference quotients (f(u)-f(x))/(u-x) are 0/0 at u = x; below this
# relative separation they are replaced by a numerical derivative.
QUOTIENT_FALLBACK = 1e-8
DERIVATIVE_STEP = 1e-6


def derivative(f: Callable, x: np.ndarray, fx: np.ndarray, lo: float,
               hi: float, scale: float) -> np.ndarray:
    """Derivative estimates of f at the points x, where fx = f(x).

    The step is DERIVATIVE_STEP * scale.  Each point gets a centered
    difference where x - step and x + step lie inside (lo, hi), and a
    one-sided difference with the same step, towards the far end of the
    interval, otherwise.  f is called once, on all the offset points.
    """
    x = np.asarray(x, dtype=float)
    h = DERIVATIVE_STEP * scale
    centered = (x - h > lo) & (x + h < hi)
    step = np.where(centered | (x <= 0.5 * (lo + hi)), h, -h)
    vals = _call(f, np.concatenate([x + step, x[centered] - h]))
    ahead, behind = vals[:len(x)], vals[len(x):]
    out = (ahead - fx) / step
    out[centered] = (ahead[centered] - behind) / (2.0 * h)
    return out
