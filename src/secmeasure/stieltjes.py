"""Stieltjes transforms, the reducer, and the secondary measure.

The transform S_rho(z) = int rho(t)/(z - t) dt is computed for a whole
array of z at once: by tanh-sinh quadrature away from the support, and by
singularity subtraction with an interval split when z approaches the cut,
where the four pieces of every near z are the rows of one batched
refinement.  The reducer

    phi(x) = 2 PV int rho(t)/(x - t) dt

is the jump data of S across the cut and enters the closed form of the
secondary measure, mu = rho / (phi^2/4 + pi^2 rho^2).  Stieltjes-Perron
inversion goes the other way: it recovers a density from an arbitrary
transform evaluator by extrapolating (S(x - i eps) - S(x + i eps))/(2 i pi)
to eps = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (DegenerateMeasure, DomainError, ExtrapolationDivergence,
                     PointOnInterval, TransformZero)
from .measures import BaseDensity, moment
from .quadrature import (DEFAULT_SPEC, IntegrationSpec, QUOTIENT_FALLBACK,
                         refine_levels, tanh_sinh, tanh_sinh_nodes)

__all__ = [
    "SecondaryMeasureData",
    "stieltjes_transform",
    "reducer",
    "lerch_phi_half",
    "secondary_measure",
    "secondary_transform",
    "perron_invert",
]

# Transform arguments within this many widths of the support are rejected.
ONCUT_DISTANCE = 1e-12
# The reducer is only served on [a + margin*w, b - margin*w].
REDUCER_MARGIN = 1e-4
# Below this distance (in interval widths) the transform switches to the
# subtracted, split-interval evaluation.
NEAR_CUT_FRACTION = 5e-2

_FAR_START_LEVEL = 3
_PHI_START_LEVEL = 3
# Rows of a point x node matrix formed at once, so that no temporary grows
# with the number of points.
_ROW_CHUNK = 64
# Points closer than this (in widths) to an endpoint are clamped before the
# reducer quadrature: below it the pole region is unresolvable at the level
# cap, and every downstream weighted integral is insensitive to phi there.
_PHI_CLAMP = 1e-9
# A density's reducer cache for one spec is emptied at this many points.
_PHI_CACHE_SIZE = 2 ** 16


# ---------------------------------------------------------------------------
# reducer
# ---------------------------------------------------------------------------

def _phi_batch(rho: BaseDensity, xs, dxl, dxr, spec: IntegrationSpec):
    """Reducer values by singularity subtraction on refining tanh-sinh rules.

    phi(x)/2 = int (rho(u) - rho(x))/(x - u) du + rho(x) ln(dxl/dxr); the
    pole separation x - u is formed as a difference of endpoint distances,
    which stays exact when both points crowd the same endpoint.  Each row
    sums the integral and its magnitude (for the rounding floor); ``settle``
    adds the log term to the nested sums.
    """
    interval = rho.interval
    half, mid = 0.5 * interval.width, interval.midpoint
    scale = interval.width
    rx = np.asarray(rho.value_at(xs, dxl, dxr), dtype=float)
    base = rx * np.log(dxl / dxr)
    interior = (dxl > REDUCER_MARGIN * scale) & (dxr > REDUCER_MARGIN * scale)
    drx = np.full(len(xs), np.nan)

    def deriv(sel):
        miss = sel[np.isnan(drx[sel])]
        if len(miss):
            drx[miss] = np.asarray(
                rho.derivative_at(xs[miss], dxl[miss], dxr[miss]), dtype=float)
        return drx[sel]

    def estimate(level, act, odd):
        g, w, dm, dp = tanh_sinh_nodes(level, odd)
        u, dl, dr = mid + half * g, half * dp, half * dm
        ru = np.asarray(rho.value_at(u, dl, dr), dtype=float)
        sums = np.empty((len(act), 2))
        for s in range(0, len(act), _ROW_CHUNK):
            sel = act[s:s + _ROW_CHUNK]
            # x - u as a difference of distances to the nearer endpoint of
            # x; stays exact when x and u crowd the same endpoint.
            use_left = (dxl[sel] <= dxr[sel])[:, None]
            den = np.where(use_left, dxl[sel, None] - dl[None, :],
                           dr[None, :] - dxr[sel, None])
            exact = den == 0.0
            quot = (ru[None, :] - rx[sel, None]) / np.where(exact, 1.0, den)
            # Derivative fallback only where both x and the node sit well
            # inside the interval; near an endpoint the raw quotient is the
            # accurate one (den is an exact difference of tiny distances).
            swap = ((np.abs(den) < QUOTIENT_FALLBACK * scale)
                    & interior[sel, None]) | exact
            if swap.any():
                quot = np.where(swap, -deriv(sel)[:, None], quot)
            sums[s:s + _ROW_CHUNK, 0] = half * (quot @ w)
            sums[s:s + _ROW_CHUNK, 1] = half * (np.abs(quot) @ w)
        return sums

    def settle(act, sums):
        cur = sums[:, 0] + base[act]
        mag = sums[:, 1] + np.abs(base[act])
        # Within the endpoint margin phi only enters downstream through
        # phi^2/4 + pi^2 rho^2, which is rho^2-dominated exactly where the
        # subtraction above is ill-conditioned (singular densities).  Accept
        # any error that perturbs that combination below 1e-9.
        rxa = np.abs(rx[act])
        slack = np.where(interior[act], 0.0,
                         1e-9 * (cur ** 2 + math.pi ** 2 * rxa ** 2)
                         / (2.0 * np.abs(cur) + 1e-30))
        return cur, np.maximum(100 * np.finfo(float).eps * mag, slack)

    return 2.0 * refine_levels(estimate, len(xs), spec, _PHI_START_LEVEL,
                               f"reducer quadrature of {rho.name!r}",
                               settle=settle)


def _phi_values(rho: BaseDensity, xs, dxl, dxr,
                spec: IntegrationSpec = DEFAULT_SPEC) -> np.ndarray:
    """Cached reducer phi at points supplied with exact endpoint distances."""
    interval = rho.interval
    clamp = _PHI_CLAMP * interval.width
    xs = np.atleast_1d(np.asarray(xs, dtype=float)).copy()
    dxl = np.atleast_1d(np.asarray(dxl, dtype=float)).copy()
    dxr = np.atleast_1d(np.asarray(dxr, dtype=float)).copy()
    low, high = dxl < clamp, dxr < clamp
    xs[low], dxl[low], dxr[low] = interval.a + clamp, clamp, interval.width - clamp
    xs[high], dxl[high], dxr[high] = interval.b - clamp, interval.width - clamp, clamp
    cache = rho._phi.setdefault(spec, {})
    if len(cache) >= _PHI_CACHE_SIZE:
        cache.clear()
    keys = xs.tolist()
    vals = [cache.get(x) for x in keys]
    todo = [i for i, v in enumerate(vals) if v is None]
    if todo:
        new = _phi_batch(rho, xs[todo], dxl[todo], dxr[todo], spec)
        for i, v in zip(todo, new.tolist()):
            vals[i] = cache[keys[i]] = v
    return np.array(vals)


def reducer(rho: BaseDensity, x, spec: IntegrationSpec = DEFAULT_SPEC):
    """phi(x) = 2 PV int rho(t)/(x - t) dt at interior points.

    Points closer than 1e-4 interval widths to an endpoint are refused:
    phi can diverge there (logarithmically for the uniform density).
    """
    interval = rho.interval
    delta = REDUCER_MARGIN * interval.width
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < interval.a + delta) or np.any(xs > interval.b - delta):
        raise DomainError(
            f"reducer of {rho.name!r} is served on "
            f"[{interval.a + delta:g}, {interval.b - delta:g}] only")
    vals = _phi_values(rho, xs, xs - interval.a, interval.b - xs, spec)
    return float(vals[0]) if np.isscalar(x) else vals


def lerch_phi_half(x: float) -> float:
    """Sum_{n>=0} x^n / (n - 1/2) for 0 < x < 1.

    Closed form: splitting off the n = 0 term and recognising the odd-index
    logarithm series gives 2 sqrt(x) artanh(sqrt(x)) - 2.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"lerch_phi_half needs 0 < x < 1, got {x}")
    r = math.sqrt(x)
    return 2.0 * r * math.atanh(r) - 2.0


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _weight_eval(rho: BaseDensity, t, dl, dr, shift: Optional[float]):
    vals = np.asarray(rho.value_at(t, dl, dr), dtype=float)
    if shift is not None:
        vals = vals * (np.asarray(t, dtype=float) - shift)
    return vals


def _cauchy_near_cut(rho: BaseDensity, zs: np.ndarray, spec: IntegrationSpec,
                     shift: Optional[float]) -> np.ndarray:
    """int w(t)/(z - t) dt for a 1-d array of z close to the cut,
    w = rho * (t - shift).

    Subtracting w at the projection x0 = Re z leaves a bounded integrand;
    the closed-form log carries the near-singular part.  Each z splits the
    support into four pieces, which are the rows of one batched tanh-sinh
    refinement, so w is evaluated once per level for all rows.  The outer
    pieces [a, x0 - delta] and [x0 + delta, b] take the endpoint
    singularities of rho.  The inner pieces [x0 - delta, x0] and
    [x0, x0 + delta] cluster their nodes at x0, where the integrand turns
    over on the scale Im z; there z - t is formed from each node's exact
    distance to x0, without cancellation.
    """
    a, b = rho.interval.a, rho.interval.b
    x0, y = zs.real, zs.imag
    w0 = _weight_eval(rho, x0, x0 - a, b - x0, shift)
    delta = 0.5 * np.minimum(x0 - a, b - x0)
    # Row r is piece r // n (left, right, below, above) of z number r % n.
    n = len(zs)
    lo = np.concatenate([np.full(n, a), x0 + delta, x0 - delta, x0])
    hi = np.concatenate([x0 - delta, np.full(n, b), x0, x0 + delta])
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    piece = np.repeat(np.arange(4), n)
    z, iy, w0_row = np.tile(zs, 4), np.tile(1j * y, 4), np.tile(w0, 4)

    def estimate(level, act, odd):
        g, w, dm, dp = tanh_sinh_nodes(level, odd)
        h, p = half[act, None], piece[act, None]
        t = mid[act, None] + h * g
        dl, dr = h * dp, h * dm
        # Distances to a and b: exact from the node on the outer piece
        # that ends there, else by difference.
        da = np.where(p == 0, dl, t - a)
        db = np.where(p == 1, dr, b - t)
        zt = np.where(p == 2, dr + iy[act, None],
                      np.where(p == 3, iy[act, None] - dl, z[act, None] - t))
        vals = (_weight_eval(rho, t.ravel(), da.ravel(), db.ravel(), shift)
                .reshape(t.shape) - w0_row[act, None]) / zt
        return half[act] * (vals @ w)

    rows = refine_levels(estimate, 4 * n, spec, 2,
                         f"near-cut transform of {rho.name!r}")
    left, right, below, above = rows.reshape(4, n)
    return left + right + below + above + w0 * np.log((zs - a) / (zs - b))


def _cauchy_far(rho: BaseDensity, zs: np.ndarray, spec: IntegrationSpec,
                shift: Optional[float]) -> np.ndarray:
    """int w(t)/(z - t) dt for a 1-d array of z away from the cut.

    All z share one tanh-sinh level loop, so w is evaluated once per level;
    each z stops at the first level that agrees with the one before it.
    z - t is formed as (z - e) + (e - t), e the endpoint nearer z and e - t
    the node's exact distance to it, so that it keeps its digits for z next
    to an endpoint, where the nodes crowd.
    """
    interval = rho.interval
    half, mid = 0.5 * interval.width, interval.midpoint
    left = zs.real < mid
    ze = zs - np.where(left, interval.a, interval.b)
    one_side = np.count_nonzero(left) in (0, len(zs))

    def estimate(level, act, odd):
        g, w, dm, dp = tanh_sinh_nodes(level, odd)
        dl, dr = half * dp, half * dm
        vals = _weight_eval(rho, mid + half * g, dl, dr, shift)
        cur = np.empty(len(act), dtype=complex)
        for s in range(0, len(act), _ROW_CHUNK):
            sel = act[s:s + _ROW_CHUNK]
            # e - t is -dl on rows next to a and dr on rows next to b; a
            # batch on one side, the usual case, needs no per-row choice.
            if one_side:
                e_t = -dl if left[0] else dr
            else:
                e_t = np.where(left[sel, None], -dl, dr)
            cur[s:s + _ROW_CHUNK] = half * ((vals / (ze[sel, None] + e_t)) @ w)
        return cur

    return refine_levels(estimate, len(zs), spec, _FAR_START_LEVEL,
                         f"transform of {rho.name!r}")


def _cauchy_integral(rho: BaseDensity, z, spec: IntegrationSpec,
                     shift: Optional[float] = None) -> np.ndarray:
    """int w(t)/(z - t) dt elementwise over an array of z (any shape)."""
    interval = rho.interval
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    dist = interval.distance_to(flat)
    on_cut = dist < ONCUT_DISTANCE * interval.width
    if on_cut.any():
        raise PointOnInterval(
            f"{flat[on_cut][0]} is within {ONCUT_DISTANCE:g} widths of "
            f"[{interval.a}, {interval.b}]")
    margin = 1e-3 * interval.width
    near = ((dist < NEAR_CUT_FRACTION * interval.width)
            & (interval.a + margin < flat.real) & (flat.real < interval.b - margin))
    out = np.empty(len(flat), dtype=complex)
    if not near.all():
        out[~near] = _cauchy_far(rho, flat[~near], spec, shift)
    if near.any():
        out[near] = _cauchy_near_cut(rho, flat[near], spec, shift)
    return out.reshape(zs.shape)


def stieltjes_transform(rho: BaseDensity, z,
                        spec: IntegrationSpec = DEFAULT_SPEC):
    """S_rho(z) = int rho(t)/(z - t) dt for z off the support interval.

    A scalar z gives a ``complex``, an array a complex array of its shape.
    rho is evaluated once per level for all z away from the cut, and once
    per level for all z near it (``_cauchy_near_cut``).  Any z on the
    support raises PointOnInterval.
    """
    s = _cauchy_integral(rho, z, spec)
    return complex(s) if s.ndim == 0 else s


def secondary_transform(rho: BaseDensity, z,
                        spec: IntegrationSpec = DEFAULT_SPEC) -> complex:
    """Transform of the secondary measure, S_mu(z) = z - c_1 - 1/S_rho(z).

    Evaluated as [int rho(t)(t - c_1)/(z - t) dt] / S_rho(z), which is the
    same quantity without the catastrophic cancellation of the homographic
    form at large |z|.
    """
    z = complex(z)
    s = complex(_cauchy_integral(rho, z, spec))
    if abs(s) < 1e-14:
        raise TransformZero(f"|S_rho({z})| < 1e-14, cannot form S_mu")
    c1 = moment(rho, 1, spec)
    return complex(_cauchy_integral(rho, z, spec, shift=c1)) / s


# ---------------------------------------------------------------------------
# secondary measure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SecondaryMeasureData:
    """Secondary measure mu of a density, with its normalized companion.

    mu(x) = rho(x) / (phi^2(x)/4 + pi^2 rho^2(x)); its total mass is
    d0 = c_2 - c_1^2 and mu0 = mu/d0 is a probability density.
    """

    base: BaseDensity
    d0: float
    spec: IntegrationSpec

    def density_at(self, x, dleft, dright):
        """mu at points supplied with exact endpoint distances."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        dleft = np.atleast_1d(np.asarray(dleft, dtype=float))
        dright = np.atleast_1d(np.asarray(dright, dtype=float))
        rho = np.asarray(self.base.value_at(x, dleft, dright), dtype=float)
        phi = _phi_values(self.base, x, dleft, dright, self.spec)
        return rho / (0.25 * phi ** 2 + math.pi ** 2 * rho ** 2)

    def mu(self, x):
        interval = self.base.interval
        delta = REDUCER_MARGIN * interval.width
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xs < interval.a + delta) or np.any(xs > interval.b - delta):
            raise DomainError(
                f"mu of {self.base.name!r} is served on "
                f"[{interval.a + delta:g}, {interval.b - delta:g}] only")
        vals = self.density_at(xs, xs - interval.a, interval.b - xs)
        return float(vals[0]) if np.isscalar(x) else vals

    def mu0(self, x):
        return self.mu(x) / self.d0

    def mass(self) -> float:
        """int mu, which must reproduce d0."""
        return float(tanh_sinh(self.density_at, self.base.interval,
                               self.spec).real)


def secondary_measure(rho: BaseDensity,
                      spec: IntegrationSpec = DEFAULT_SPEC) -> SecondaryMeasureData:
    """Secondary measure of rho; fails if c_2 - c_1^2 is numerically zero."""
    c1 = moment(rho, 1, spec)
    d0 = moment(rho, 2, spec) - c1 * c1
    if d0 <= 1e-12:
        raise DegenerateMeasure(
            f"{rho.name!r} has c_2 - c_1^2 = {d0:.3e}; secondary measure degenerate")
    return SecondaryMeasureData(rho, d0, spec)


# ---------------------------------------------------------------------------
# Stieltjes-Perron inversion
# ---------------------------------------------------------------------------

# The imaginary offsets of the Perron ladder, 1e-2 halved eight times.
_PERRON_EPS = 1e-2 * 0.5 ** np.arange(9)


def perron_invert(S: Callable[[np.ndarray], np.ndarray], x: float) -> float:
    """Recover a density value from its transform evaluator.

    S takes an array of complex points and returns the transform at each.
    It is called once, on the 18 points x - i eps and x + i eps of the
    decreasing eps ladder 1e-2 * 2^-k, k = 0..8; the cut jump
    (S(x - i eps) - S(x + i eps))/(2 i pi) is then polynomial-extrapolated
    to eps = 0 (Neville).  The extrapolant must settle and its imaginary
    part must be residual.
    """
    eps, n = _PERRON_EPS, len(_PERRON_EPS)
    s = np.asarray(S(x + 1j * np.concatenate([-eps, eps])), dtype=complex)
    vals = (s[:n] - s[n:]) / (2j * math.pi)
    tab = vals.copy()
    diag = [tab[0]]
    for j in range(1, n):
        for i in range(n - j):
            tab[i] = (eps[i] * tab[i + 1] - eps[i + j] * tab[i]) \
                / (eps[i] - eps[i + j])
        diag.append(tab[0])
    diffs = np.abs(np.diff(diag))
    j = int(np.argmin(diffs)) + 1
    est = diag[j]
    if diffs[j - 1] > 1e-5 * max(1.0, abs(est)):
        raise ExtrapolationDivergence(
            f"cut-jump extrapolation at x={x} not Cauchy "
            f"(best gap {diffs[j - 1]:.3e})")
    if abs(est.imag) > 1e-6:
        raise ExtrapolationDivergence(
            f"cut-jump extrapolation at x={x} kept imaginary residue "
            f"{est.imag:.3e}")
    return float(est.real)
