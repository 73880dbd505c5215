"""Integration engine on compact intervals.

Every integral here is a tanh-sinh (double exponential) rule refined until
two levels agree.  Level L's nodes are the even-k nodes of level L+1, bit
for bit, at half the weight, so (as in Takahasi and Mori's scheme, mpmath's
``TanhSinh.sum_next``) a refinement evaluates each later level only at the
odd-k nodes it adds and adds half the previous level's sum; as none stops
at its first level, its first pass evaluates the next level's nodes for
both.  A density keeps its values at the nodes of the finest level reached
(``measures``), every coarser level a strided view of them.  Entry points:

* ``refine_levels``   -- the one tanh-sinh level loop, through which every
                         integral in the package goes: a batch of integrals
                         refined together, each stopping on its own test.
* ``kernel_sums``     -- every rows x nodes kernel sum, formed in blocks of
                         at most KERNEL_ENTRIES entries, for one level or a
                         first pass's two (``level_sums``).
* ``tanh_sinh``       -- integral of ``fn(x, dist_left, dist_right)``; the
                         endpoint distances come without cancellation, so
                         endpoint singularities, and sharp features placed
                         at an endpoint, are resolved.

Integrands map an ndarray of abscissae to an ndarray of values, one per
abscissa; a user callable that returns another shape raises TypeError.
The engine rejects non-finite estimates: the first level whose estimate is
NaN or infinite raises EvaluationFailure, naming the integral and the level.
Everything here is pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, EvaluationFailure, NonConvergence

__all__ = [
    "Interval",
    "IntegrationSpec",
    "EndpointExponents",
    "DEFAULT_SPEC",
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
            raise ValueError(f"interval endpoints must be finite, "
                             f"got [{self.a}, {self.b}]")
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
        """n equispaced points from a + pad*width to b - pad*width, n >= 2
        (ValueError otherwise)."""
        if n < 2:
            raise ValueError(f"a grid needs at least 2 points, got {n}")
        p = pad * self.width
        return np.linspace(self.a + p, self.b - p, n)


@dataclass(frozen=True)
class IntegrationSpec:
    """Accuracy knobs shared by every quadrature call: finite positive
    tolerances and an integer level cap from 1 to 16 (ValueError
    otherwise)."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_refinement_levels: int = 12

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError(f"tolerances must be finite and positive, got "
                             f"rel_tol={self.rel_tol}, abs_tol={self.abs_tol}")
        # Each level doubles the nodes.  An integral that never settles
        # raises NonConvergence at the cap, after about 0.3 GB at 16 and
        # twice that for each level more, until memory runs out first.
        levels = self.max_refinement_levels
        if not (isinstance(levels, numbers.Integral) and 1 <= levels <= 16):
            raise ValueError(f"max_refinement_levels must be an integer from "
                             f"1 to 16, got {levels!r}")


DEFAULT_SPEC = IntegrationSpec()


@dataclass(frozen=True)
class EndpointExponents:
    """Exponents of (x-a)^alpha (b-x)^beta; both must be finite and
    integrable (> -1), ValueError otherwise."""

    alpha: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if not (-1 < self.alpha < math.inf and -1 < self.beta < math.inf):
            raise ValueError(f"endpoint exponents must be finite and exceed "
                             f"-1, got alpha={self.alpha}, beta={self.beta}")


def _call(f: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a vectorised user callable on an array of points.

    f must return one value per point; any other shape raises TypeError.
    """
    vals = np.asarray(f(x))
    if vals.shape != np.shape(x):
        raise TypeError(f"callable returned shape {vals.shape} for points "
                        f"of shape {np.shape(x)}; it must be vectorised")
    return vals


def _finite(xs: np.ndarray) -> np.ndarray:
    """xs, real or complex points; DomainError if one is NaN or infinite."""
    bad = ~np.isfinite(xs)
    if np.count_nonzero(bad):
        raise DomainError(f"points must be finite, got {xs[bad][0]}")
    return xs


def _pointwise(fn: Callable, x):
    """fn on the flat array of x's points, returned in x's shape: a Python
    scalar for a 0-d x, an array of x's shape otherwise; DomainError for a
    non-finite point (``_finite``)."""
    xs = _finite(np.asarray(x, dtype=float))
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
# Entries (rows x nodes) of one block of a kernel matrix (``kernel_sums``).
KERNEL_ENTRIES = 2 ** 16


def tanh_sinh_nodes(level: int, odd: bool = False):
    """Unit tanh-sinh nodes on (-1, 1) at mesh h = 2^-level.

    Returns ``(g, w, dm, dp)`` where g are the abscissae, w the weights,
    and dm = 1 - g, dp = 1 + g computed without cancellation, at the
    8 * 2^level + 1 nodes t = k h, |k| <= 4/h; with ``odd`` at the odd-k
    ones only (a view of the full arrays).  Each level is computed once,
    however the arguments are passed.
    """
    return _unit_nodes(level, bool(odd))


@lru_cache(maxsize=None)
def _unit_nodes(level: int, odd: bool):
    if odd:
        return tuple(v[ODD] for v in _unit_nodes(level, False))
    h = 2.0 ** (-level)
    k = np.arange(-int(_TS_TMAX / h), int(_TS_TMAX / h) + 1)
    t = k * h
    u = 0.5 * np.pi * np.sinh(t)
    g = np.tanh(u)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(u) ** 2
    dm = 2.0 / (1.0 + np.exp(2.0 * u))   # 1 - g, exact near the right endpoint
    dp = 2.0 / (1.0 + np.exp(-2.0 * u))  # 1 + g
    return g, w, dm, dp


def refine_levels(estimate: Callable, count: int, spec: IntegrationSpec,
                  start: int, what: str, first: Optional[int] = None,
                  settle: Optional[Callable] = None):
    """The one tanh-sinh level loop: refines ``count`` integrals together
    and returns their values stacked along the first axis.

    ``estimate(level, act, odd)`` returns a list of sums of the elements
    indexed by the array ``act`` (an element may be an array, compared in
    max-norm): on the first pass, not ``odd``, two from ``level``'s nodes,
    the level before's sums (its even-k ones) and ``level``'s over its odd-k
    ones (``level_weights``); after it, one, over the odd-k nodes.  To
    those the loop adds half the previous level's sums.  The estimates are
    the sums, or the first of ``settle(level, act, sums)``, run on each
    level's in turn, whose second is a per-element ``floor``.  An element
    settles at the first level where max|cur - prev| <= max(abs_tol,
    rel_tol max|cur|, floor).  Levels run from ``first`` (default
    ``start``) to start + max_refinement_levels; ``what`` names the
    integrals in NonConvergence, and in the EvaluationFailure raised at the
    first level whose estimates are not all finite, with the fields."""
    act = np.arange(count)
    sums = est = odd = None
    # np.count_nonzero tests a mask of a few elements at a fraction of the
    # cost of .any() and .all(), once or twice per level.
    # A non-finite estimate raises below; numpy's warnings about forming it
    # would only repeat that.
    with np.errstate(invalid="ignore", divide="ignore"):
        for level in range(start if first is None else first,
                           start + spec.max_refinement_levels + 1):
            if sums is None:
                new, odd = estimate(level + 1, act, False)
                sums = new.copy()
            else:
                odd = estimate(level, act, True)[0] if odd is None else odd
                new = sums[act] = 0.5 * sums[act] + odd
                odd = None
            cur, floor = settle(level, act, new) if settle else (new, None)
            if np.count_nonzero(np.isfinite(cur)) < cur.size:
                raise EvaluationFailure(f"{what} is not finite at level {level}",
                                        what=what, level=level)
            if est is None:
                est = cur.copy()
                continue
            gap, size = np.abs(cur - est[act]), np.abs(cur)
            if cur.ndim > 1:
                gap, size = (v.reshape(len(act), -1).max(axis=1, initial=0.0)
                             for v in (gap, size))
            tol = np.maximum(size * spec.rel_tol, spec.abs_tol)
            if floor is not None:
                np.maximum(tol, floor, out=tol)
            est[act] = cur
            unsettled = gap > tol
            if not np.count_nonzero(unsettled):
                return est
            act, gap, tol = act[unsettled], gap[unsettled], tol[unsettled]
    worst = np.argmax(gap / tol)
    raise NonConvergence(
        f"{what} did not settle by level {level}: {len(act)} of {count} "
        f"unsettled, worst gap {gap[worst]:.3e} against tolerance {tol[worst]:.3e}",
        what=what, level=level, unsettled=len(act), count=count,
        gap=float(gap[worst]), tolerance=float(tol[worst]))


def level_weights(w: np.ndarray, odd: bool) -> tuple:
    """An ``estimate`` call's weights from its level's w: (w,) for odd-k
    nodes; on a first pass, the first level's, 2 w[::2], and w[ODD]."""
    return (w,) if odd else (2.0 * w[::2], w[ODD])


def level_sums(vals: np.ndarray, ws: tuple) -> list:
    """vals (nodes on the last axis) @ each of ``level_weights``; for a
    first pass's two, a contiguous copy of the even-k and of the odd-k
    columns, as each level's own call would form its sum."""
    if len(ws) == 1:
        return [vals @ ws[0]]
    return [np.ascontiguousarray(vals[..., part]) @ w
            for part, w in zip((slice(None, None, 2), ODD), ws)]


def kernel_sums(kernel: Callable, rows: np.ndarray, ws: tuple) -> list:
    """``level_sums(kernel(block), ws)`` over consecutive blocks of the
    array ``rows`` (indices, or the rows' own parameters), each sum
    concatenated along the rows axis: the last, or the second-last for a
    weight of several columns, one sum per column.  ``kernel(block)`` puts
    the block's rows on its second-last axis and the nodes of ``ws`` on
    its last; a block has at most KERNEL_ENTRIES // nodes rows, and one at
    least, so that no temporary grows with the number of rows; an empty
    ``rows`` is one empty block, which gives the result's leading shape."""
    step = max(1, KERNEL_ENTRIES // sum(map(len, ws)))
    blocks = [level_sums(kernel(rows[s:s + step]), ws)
              for s in range(0, max(len(rows), 1), step)]
    if len(blocks) == 1:
        return blocks[0]
    return [np.concatenate(part, axis=-np.ndim(w))
            for part, w in zip(zip(*blocks), ws)]


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
        return [half * s[None] for s in level_sums(vals, level_weights(w, odd))]

    return refine_levels(estimate, 1, spec, 2, "tanh-sinh")[0]

