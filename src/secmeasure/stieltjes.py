"""Stieltjes transforms, the reducer, and the secondary measure.

The transform S_rho(z) = int rho(t)/(z - t) dt is computed for a whole
array of z at once: by tanh-sinh quadrature away from the support, and by
singularity subtraction with an interval split at Re z when z approaches
the cut, closer to it than to either end of the support; the two pieces
of every near z are the rows of one batched refinement.  The reducer

    phi(x) = 2 PV int rho(t)/(x - t) dt

is the jump data of S across the cut: S(x + i0) = phi/2 - i pi rho.  The
transforms of the secondary measure mu (of mass d0) and of the family
members rho_t are Möbius maps of S, S_mu = z - c_1 - 1/S and
S_t = S/(t + (1-t)(z - c_1) S), which on the cut give their values and
reducers from rho's; only a ``Density`` runs the reducer quadrature.  S_mu
is ``stieltjes_transform`` of mu; the homographic form is checked on it.
The limits of S at the ends of the support, from outside, are rows of the
far transform at z = a and b (a derived density maps rho's); they decide
the validity of rho_t (``family``).
Stieltjes-Perron inversion goes the other way: it recovers a density from
an arbitrary transform evaluator by extrapolating
(S(x - i eps) - S(x + i eps))/(2 i pi) to eps = 0.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

from .errors import (DegenerateMeasure, DomainError, EvaluationFailure,
                     ExtrapolationDivergence, PointOnInterval)
from .measures import BaseDensity, Density, _level_view, _served, moment
from .quadrature import (DEFAULT_SPEC, IntegrationSpec, _call, _finite,
                         kernel_sums, level_weights, refine_levels,
                         tanh_sinh_nodes)

__all__ = [
    "SecondaryMeasure",
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
# A z closer than this many widths to the cut, and closer to the cut than
# to either end, takes the subtracted, split-interval evaluation.
NEAR_CUT_FRACTION = 5e-2

_START_LEVEL = 3
# Points closer than this (in widths) to an endpoint are clamped before the
# reducer quadrature: below it the pole region is unresolvable at the level
# cap, and every downstream weighted integral is insensitive to phi there.
_PHI_CLAMP = 1e-9
# A density's reducer cache for one spec is emptied at this many points.
_PHI_CACHE_SIZE = 2 ** 16
# A reducer row settles once two levels differ by no more than this many
# times the sum of its terms' magnitudes: below it the gap is rounding.
_ROUNDING_FLOOR = 100 * np.finfo(float).eps


# ---------------------------------------------------------------------------
# reducer
# ---------------------------------------------------------------------------

def _phi_batch(rho: Density, dxl, dxr, rx, spec: IntegrationSpec):
    """Reducer values by singularity subtraction on refining tanh-sinh rules
    at points given by endpoint distances, rx rho at them; each point within
    _PHI_CLAMP widths of an end moves to that end's clamp point, taking rho there.

    phi(x)/2 = int (rho(u) - rho(x))/(x - u) du + rho(x) ln(dxl/dxr); the
    pole separation x - u is formed as a difference of endpoint distances,
    which stays exact when both points crowd the same endpoint.  Node k's
    term carries Stenger's Sinc factor 1 - cos(pi (sigma - k h)/h) (F.
    Stenger, Numerical Methods Based on Sinc and Analytic Functions, 1993),
    sigma = asinh(ln(dxl/dxr)/pi) being x's own tanh-sinh coordinate.  It
    vanishes to second order where a node meets x: the quotient's
    cancellation next to x is damped, and a node at x, where it is 0/0,
    drops out.  At mesh h = 2^-L it is 1 - c_L on the even-k nodes and
    1 + c_L on the odd-k ones, c_L = cos(pi sigma 2^L), so the level-L
    estimate is F_L = (1 - c_L) R_L + 2 c_L O_L + rho(x) ln(dxl/dxr), R_L
    the nested sum over the level's nodes and O_L its part over the odd-k
    nodes, which ``estimate`` keeps for ``settle``: the first level's second
    column and the next level's sums on the first pass, then each later
    level's.  Each row sums the integral and its magnitude, factored alike,
    for the rounding floor.
    """
    width = rho.interval.width
    clamp, half = _PHI_CLAMP * width, 0.5 * width
    dxl, dxr, rx = (np.array(v, dtype=float) for v in (dxl, dxr, rx))
    low, high = dxl < clamp, dxr < clamp
    dxl[low], dxr[low] = clamp, width - clamp
    dxl[high], dxr[high] = width - clamp, clamp
    if (moved := low | high).any():
        rx[moved] = rho.value_at(rho.interval.a + dxl[moved], dxl[moved],
                                 dxr[moved])
    ratio = np.log(dxl / dxr)
    sigma = np.arcsinh(ratio / math.pi)
    # The log term and its magnitude, added to each row's two sums.
    log_term = rx * ratio
    base = np.stack([log_term, np.abs(log_term)], axis=1)
    odd_sums = {}

    def estimate(level, act, odd):
        w = tanh_sinh_nodes(level, odd)[1]
        dl, dr = rho._node_points(level, odd)[1:]
        ru = rho._node_values(level, odd)

        def kernel(sel):
            # x - u as a difference of distances to the nearer endpoint of
            # x; stays exact when x and u crowd the same endpoint.
            use_left = (dxl[sel] <= dxr[sel])[:, None]
            den = np.where(use_left, dxl[sel, None] - dl, dr - dxr[sel, None])
            # quot and |quot| are written in place: stacking copies both.
            out = np.empty((2, len(sel), len(ru)))
            quot = np.subtract(ru, rx[sel, None], out=out[0])
            quot /= den
            quot[den == 0.0] = 0.0  # a node at x, whose factor is 0
            np.abs(quot, out=out[1])
            return out

        ws = level_weights(w, odd)
        if not odd:  # the first level's sums over all nodes and odd-k ones
            c = ws[0]
            ws = (np.stack([c, c * (np.arange(len(c)) % 2)], axis=1), ws[1])
        sums = [half * s.T for s in kernel_sums(kernel, act, ws)]
        if not odd:
            (sums[0], odd_sums[level - 1]) = sums[0]
        odd_sums[level] = sums[-1]
        return sums

    def settle(level, act, sums):
        c = np.cos(math.pi * 2.0 ** level * sigma[act])[:, None]
        f = (1.0 - c) * sums + 2 * c * odd_sums.pop(level) + base[act]
        return f[:, 0], _ROUNDING_FLOOR * f[:, 1]

    return 2.0 * refine_levels(estimate, len(rx), spec, _START_LEVEL,
                               f"reducer quadrature of {rho.name!r}",
                               settle=settle)


def _phi_values(rho: Density, dxl, dxr, rx, spec: IntegrationSpec):
    """Cached reducer phi, flat, at points off the nodes given by endpoint
    distances, rx rho there: a ``_phi_batch`` row per point, in a dict of at
    most _PHI_CACHE_SIZE keyed by the clamped dxl, or -dxr nearer b."""
    clamp = _PHI_CLAMP * rho.interval.width
    dxl, dxr, rx = (np.asarray(v, dtype=float).ravel() for v in (dxl, dxr, rx))
    cache = rho._phi.setdefault(spec, {})
    if len(cache) >= _PHI_CACHE_SIZE:
        cache.clear()
    keys = np.where(dxl <= dxr, np.maximum(dxl, clamp),
                    -np.maximum(dxr, clamp)).tolist()
    todo = list({k: i for i, k in enumerate(keys) if k not in cache}.values())
    if todo:
        phi = _phi_batch(rho, dxl[todo], dxr[todo], rx[todo], spec)
        cache.update(zip([keys[i] for i in todo], phi.tolist()))
    return np.array([cache[k] for k in keys])


def _phi_at_nodes(rho: Density, spec: IntegrationSpec, level: int, odd: bool):
    """phi at the nodes of (level, odd), one row per node in one batch with
    the clamp points the dict lacks, each at its clamp's innermost node: the
    nodes in an end's clamp take that end's phi, kept in the dict."""
    _, dl, dr = rho._node_points(level, odd)
    clamp, cache = _PHI_CLAMP * rho.interval.width, rho._phi.setdefault(spec, {})
    # Nodes ascend: a's clamp holds the first lo, b's those from hi on.
    lo, hi = np.searchsorted(dl, clamp), np.searchsorted(-dr, -clamp, "right")
    rows = slice(lo - (lo > 0 and clamp not in cache),
                 hi + (hi < len(dl) and -clamp not in cache))
    phi = np.empty_like(dl)
    phi[rows] = _phi_batch(rho, dl[rows], dr[rows],
                           rho._node_values(level, odd)[rows], spec)
    if lo:
        phi[:lo] = cache.setdefault(clamp, float(phi[lo - 1]))
    if hi < len(dl):
        phi[hi:] = cache.setdefault(-clamp, float(phi[hi]))
    return phi


def reducer(rho: BaseDensity, x, spec: IntegrationSpec = DEFAULT_SPEC):
    """phi(x) = 2 PV int rho(t)/(x - t) dt at interior points, twice the
    first of ``_on_cut``: a Density's cached quadrature, a derived one's map.

    Points closer than 1e-4 interval widths to an endpoint are refused:
    phi can diverge there (logarithmically for the uniform density).
    """
    return _served(rho, x, "reducer",
                   lambda *p: 2.0 * _on_cut(rho, *p, spec)[0], REDUCER_MARGIN)


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

def _cauchy_near_cut(rho: BaseDensity, zs: np.ndarray,
                     spec: IntegrationSpec) -> np.ndarray:
    """int rho(t)/(z - t) dt for a 1-d array of z close to the cut.

    Subtracting rho at the projection x0 = Re z leaves a bounded integrand;
    the closed-form log carries the near-singular part.  Each z splits the
    support once, at x0, into the pieces [a, x0] and [x0, b], which are the
    rows of one batched tanh-sinh refinement.  z with the same x0 share
    their pieces: rho is evaluated once per distinct x0, and once per pass
    on each piece that a block of rows (``kernel_sums``) holds, however many
    rows hold it; while one block holds all the rows, Perron's ladder at one
    x0 costs what its slowest z costs alone.  Tanh-sinh clusters each
    piece's nodes at both of its ends: at a or b, where rho may be singular,
    and at x0, where the integrand turns over on the scale Im z.  There
    z - t is formed from each node's exact distance to x0, without
    cancellation, and the distance to the far end is a sum of positives.
    """
    a, b = rho.interval.a, rho.interval.b
    cuts, of_z = np.unique(zs.real, return_inverse=True)
    m, n = len(cuts), len(zs)
    w0 = np.asarray(rho.value_at(cuts, cuts - a, b - cuts))[of_z]
    # Piece p is [a, x0] for p < m and [x0, b] after, x0 = cuts[p % m]; row
    # r is the left (r < n) or right piece of z number r % n.
    left, x0 = np.repeat([True, False], m), np.tile(cuts, 2)
    lo, hi = np.where(left, a, x0), np.where(left, x0, b)
    half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
    piece = np.concatenate([of_z, of_z + m])
    iy, w0_row = np.tile(1j * zs.imag, 2), np.tile(w0, 2)

    def estimate(level, act, odd):
        g, w, dm, dp = tanh_sinh_nodes(level, odd)

        def kernel(sel):
            p, of_row = np.unique(piece[sel], return_inverse=True)
            h = half[p, None]
            t = mid[p, None] + h * g
            dl, dr = h * dp, h * dm
            # t - a = (lo - a) + dl and b - t = (b - hi) + dr are sums of
            # positives; x0 - t is dr on the left piece, -dl on the right.
            da, db = (lo[p] - a)[:, None] + dl, (b - hi[p])[:, None] + dr
            vals = rho.value_at(t.ravel(), da.ravel(), db.ravel())
            zt = np.where(left[p, None], dr, -dl)[of_row] + iy[sel, None]
            return (vals.reshape(t.shape)[of_row] - w0_row[sel, None]) / zt

        return [half[piece[act]] * s
                for s in kernel_sums(kernel, act, level_weights(w, odd))]

    rows = refine_levels(estimate, 2 * n, spec, 2,
                         f"near-cut transform of {rho.name!r}")
    return rows[:n] + rows[n:] + w0 * np.log((zs - a) / (zs - b))


def _cauchy_far(rho: BaseDensity, zs: np.ndarray, spec: IntegrationSpec,
                lead: Optional[tuple] = None) -> np.ndarray:
    """int rho(t)/(z - t) dt, in z's dtype, for a 1-d array of z off the cut.

    All z share one tanh-sinh level loop on rho's node values; each z
    stops at the first level that agrees with the one before it.
    z - t is formed as (z - e) + (e - t), e the endpoint nearer z and e - t
    the node's exact distance to it, so that it keeps its digits for z next
    to an endpoint, where the nodes crowd.  ``lead`` = (g, p), one entry
    per z, takes g dist^p out of rho on each row, dist the node's distance
    to e: the rows of ``_end_transforms``, refined as end transforms.
    """
    interval = rho.interval
    half = 0.5 * interval.width
    left = zs.real < interval.midpoint
    ze = zs - np.where(left, interval.a, interval.b)
    side = left.astype(np.intp)

    def estimate(level, act, odd):
        w = tanh_sinh_nodes(level, odd)[1]
        dl, dr = rho._node_points(level, odd)[1:]
        vals = rho._node_values(level, odd)
        # e - t: dr on rows next to b (side 0), -dl on rows next to a.
        e_t = np.array([dr, -dl])

        def kernel(sel):
            den = ze[sel, None] + e_t[side[sel]]
            if lead is None:
                return vals / den
            g, p = (v[sel, None] for v in lead)
            return (vals - g * np.where(left[sel, None], dl, dr) ** p) / den

        return [half * s
                for s in kernel_sums(kernel, act, level_weights(w, odd))]

    what = "transform" if lead is None else "end transforms"
    return refine_levels(estimate, len(zs), spec, _START_LEVEL,
                         f"{what} of {rho.name!r}")


def stieltjes_transform(rho: BaseDensity, z,
                        spec: IntegrationSpec = DEFAULT_SPEC):
    """S_rho(z) = int rho(t)/(z - t) dt for z off the support interval.

    A scalar z gives a ``complex``, an array a complex array of its shape.
    Any z within ONCUT_DISTANCE widths of the support raises
    PointOnInterval, a non-finite z DomainError.  A z with |Im z| below
    NEAR_CUT_FRACTION widths and below both Re z - a and b - Re z takes the
    near-cut path (``_cauchy_near_cut``), however close Re z is to an end:
    it evaluates rho once per distinct Re z and once per level on each
    piece of the support a block of at most KERNEL_ENTRIES kernel entries
    holds.  Every other z takes the far path (``_cauchy_far``), which reads
    rho's node values, so rho is evaluated only at nodes finer than any an
    integral on it has reached.  Nearer an end than the cut, rho(Re z) can
    exceed S by orders (at a singular end) and the near-cut path's
    subtracted term would cancel against its rows; the far path forms z - t
    exactly next to an end.
    """
    interval = rho.interval
    zs = np.asarray(z, dtype=complex)
    flat = _finite(zs.ravel())
    dist = interval.distance_to(flat)
    on_cut = dist < ONCUT_DISTANCE * interval.width
    if np.count_nonzero(on_cut):
        raise PointOnInterval(
            f"{flat[on_cut][0]} is within {ONCUT_DISTANCE:g} widths of "
            f"[{interval.a}, {interval.b}]")
    near = np.abs(flat.imag) < np.minimum(
        NEAR_CUT_FRACTION * interval.width,
        np.minimum(flat.real - interval.a, interval.b - flat.real))
    some = np.count_nonzero(near)
    if some in (0, len(flat)):  # one path, no scatter; none for no z
        path = _cauchy_near_cut if some else _cauchy_far
        out = path(rho, flat, spec) if len(flat) else flat
    else:
        out = np.empty(len(flat), dtype=complex)
        out[~near] = _cauchy_far(rho, flat[~near], spec)
        out[near] = _cauchy_near_cut(rho, flat[near], spec)
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def secondary_transform(rho: BaseDensity, z,
                        spec: IntegrationSpec = DEFAULT_SPEC):
    """Transform of the secondary measure, S_mu(z) = int mu(t)/(z - t) dt,
    by quadrature of mu.  The paper's homographic form
    z - c_1 - 1/S_rho(z) is the same quantity by another route."""
    return stieltjes_transform(secondary_measure(rho, spec), z, spec)


# ---------------------------------------------------------------------------
# derived densities and the secondary measure
# ---------------------------------------------------------------------------

class DerivedDensity(BaseDensity):
    """A density whose transform is a Möbius map of its base's, c1 the
    base's mean; its integrals use ``spec``.  Its values come from the map
    on the cut, at its nodes from the base's node values."""

    def __init__(self, base: BaseDensity, name: str, spec: IntegrationSpec):
        super().__init__(base.interval, name)
        self.base = base
        self.spec = spec
        self.c1 = moment(base, 1, spec)

    def mobius(self, x) -> tuple:
        """(a, b, c, d) at x, the map being (a S_base + b)/(c S_base + d)."""
        raise NotImplementedError

    def value_at(self, x, dleft, dright):
        return _on_cut(self, x, dleft, dright, self.spec)[1]

    def _evaluate_nodes(self, level: int, odd: bool) -> np.ndarray:
        return _on_cut(self, *self._node_points(level, odd), self.spec,
                       (level, odd))[1]

    def mass(self, spec: Optional[IntegrationSpec] = None) -> float:
        """Total mass on the rule at ``spec``, by default the density's own
        ``spec``."""
        return super().mass(self.spec if spec is None else spec)


def _vanishes(cs, d, spec: IntegrationSpec):
    """Whether the Möbius denominator c s + d vanishes, elementwise: to
    within rel_tol of its terms, |c s + d| <= rel_tol (|c s| + |d|)."""
    return np.abs(cs + d) <= spec.rel_tol * (np.abs(cs) + np.abs(d))


def _on_cut(rho: BaseDensity, x, dl, dr, spec: IntegrationSpec, node=None):
    """(phi/2, rho) at points x with exact endpoint distances, the nodes of
    (level, odd) = ``node`` if given; a Density reads phi there from arrays
    like its node values (``_phi_at_nodes``).  A derived density maps its base's
    s = phi/2 - i pi rho by (a s + b)/(c s + d) to (ad - bc) rho / |c s + d|^2
    and half its reducer Re((a s + b) conj(c s + d)) over |c s + d|^2, the
    sum of squares (c phi/2 + d)^2 + (c pi rho)^2."""
    if not isinstance(rho, DerivedDensity):
        if node:
            rho._phi_nodes[spec] = kept = _level_view(
                *rho._phi_nodes.get(spec, (None, 0))[:2], *node,
                partial(_phi_at_nodes, rho, spec))
            return 0.5 * kept[2], rho._node_values(*node)
        r = rho.value_at(x, dl, dr)
        return 0.5 * _phi_values(rho, dl, dr, r, spec).reshape(r.shape), r
    hp, r = _on_cut(rho.base, x, dl, dr, spec, node)
    a, b, c, d = rho.mobius(x)
    pr = math.pi * r
    den = (c * hp + d) ** 2 + (c * pr) ** 2
    half_phi = (a * c * (hp ** 2 + pr ** 2) + (a * d + b * c) * hp + b * d) / den
    return half_phi, (a * d - b * c) * r / den


def _smooth_scale(rho: Density) -> float:
    """The largest |h| at rho's nodes of the start level, h read off the
    node values as rho / (dist_a^alpha dist_b^beta)."""
    _, da, db = rho._node_points(_START_LEVEL)
    with np.errstate(all="ignore"):
        h = np.abs(rho._node_values(_START_LEVEL)
                   / (da ** rho.exps.alpha * db ** rho.exps.beta))
    return float(np.max(h, where=np.isfinite(h), initial=0.0))


def _end_transforms(rho: BaseDensity, spec: IntegrationSpec) -> list:
    """[S(a), S(b)], the limits of rho's transform at the ends of its
    support, S(a) = -int rho(u)/(u - a) du and S(b) = int rho(u)/(b - u) du.

    For a ``Density``, h is called once at the two ends; it must be finite
    there, as rho's outermost nodes round to the ends.  An end whose
    exponent p is <= 0 gives -inf at a and +inf at b unless h vanishes
    there, to within rel_tol of its largest value at rho's nodes (a
    non-finite h(e) does not vanish).  Every other end is a row at z = e
    of one ``_cauchy_far`` call, with the end's leading term g dist^p taken
    out (g = w^q h(e), q the other end's exponent and w the width; g = 0
    for p <= 0) and its integral g w^p / p added back, signed by the end.
    An h not finite at an end with p > 0 raises EvaluationFailure.
    A derived density maps its base's end values by its ``mobius`` at the
    end: an infinite value to its limit a/c (s a/d where c = 0, as at
    t = 1), and a value where c s + d vanishes (``_vanishes``) to -inf at
    a and +inf at b.
    """
    ends = (rho.interval.a, rho.interval.b)
    if isinstance(rho, DerivedDensity):
        out = []
        base = _end_transforms(rho.base, spec)
        for e, sign, s in zip(ends, (-1.0, 1.0), base):
            a, b, c, d = rho.mobius(e)
            if math.isinf(s):
                out.append(a / c if c else s * a / d)
            elif _vanishes(c * s, d, spec):
                out.append(sign * math.inf)
            else:
                out.append((a * s + b) / (c * s + d))
        return out
    w = rho.interval.width
    with np.errstate(all="ignore"):
        h = np.asarray(_call(rho.smooth_part, np.array(ends)), dtype=float)
    exps = (rho.exps.alpha, rho.exps.beta)
    vanish = spec.rel_tol * _smooth_scale(rho) if min(exps) <= 0 else 0.0
    out = [-math.inf, math.inf]
    # (end, g, p, the signed add-back) for each end with a finite transform.
    rows = []
    for k in (0, 1):
        p, g = exps[k], w ** exps[1 - k] * h[k]
        if p > 0:
            if not math.isfinite(h[k]):
                raise EvaluationFailure(
                    f"the smooth part of {rho.name!r} is not finite at "
                    f"{ends[k]}, an end with exponent {p:g} > 0")
            rows.append((k, g, p, (2 * k - 1) * g * w ** p / p))
        elif abs(h[k]) <= vanish:
            rows.append((k, 0.0, p, 0.0))
    if rows:
        k, g, p, back = (np.array(v) for v in zip(*rows))
        sums = _cauchy_far(rho, np.array(ends)[k], spec, (g, p)) + back
        for end, s in zip(k, sums):
            out[end] = float(s)
    return out


class SecondaryMeasure(DerivedDensity):
    """Secondary measure mu of a density rho, itself a density.

    S_mu = z - c_1 - 1/S_rho, so mu(x) = rho(x) / (phi^2(x)/4 + pi^2
    rho^2(x)), phi the reducer of rho at ``spec``; its total mass is d0,
    the variance of rho, and mu0 = mu/d0 is a probability density.
    """

    def __init__(self, base: BaseDensity, spec: IntegrationSpec = DEFAULT_SPEC):
        super().__init__(base, f"mu of {base.name}", spec)

    def mobius(self, x) -> tuple:
        return x - self.c1, -1.0, 1.0, 0.0

    @cached_property
    def d0(self) -> float:
        """The variance of rho, as the centred second moment
        sum w (x - c_1)^2 refined on rho's rule: c_2 - c_1^2 would cancel on
        a support far from the origin.  DegenerateMeasure at 1e-12 or less."""
        d0 = float(self.base.weighted_integral(lambda x: (x - self.c1) ** 2,
                                               self.spec))
        if d0 <= 1e-12:
            raise DegenerateMeasure(
                f"{self.base.name!r} has variance {d0:.3e}; "
                "secondary measure degenerate")
        return d0

    def mu(self, x):
        return _served(self.base, x, "mu", self.value_at, REDUCER_MARGIN)

    def mu0(self, x):
        return self.mu(x) / self.d0


def secondary_measure(rho: BaseDensity,
                      spec: IntegrationSpec = DEFAULT_SPEC) -> SecondaryMeasure:
    """Secondary measure of rho; reading its d0 fails if the variance of
    rho is numerically zero."""
    return SecondaryMeasure(rho, spec)


# ---------------------------------------------------------------------------
# Stieltjes-Perron inversion
# ---------------------------------------------------------------------------

# The imaginary offsets of the Perron ladder, 1e-2 halved eight times, and
# Neville's columns j = 1..8 on them: the offsets eps_i and eps_{i+j} each
# entry combines, and their gaps.
_PERRON_EPS = 1e-2 * 0.5 ** np.arange(9)
_NEVILLE_COLUMNS = [(big, small, big - small) for big, small in
                    ((_PERRON_EPS[:-j], _PERRON_EPS[j:]) for j in range(1, 9))]


def perron_invert(S: Callable[[np.ndarray], np.ndarray], x: float) -> float:
    """Recover a density value from its transform evaluator.

    S takes an array of complex points and returns the transform at each,
    one value per point (TypeError otherwise).  It is called once, on the
    18 points x - i eps and x + i eps of the decreasing eps ladder
    1e-2 * 2^-k, k = 0..8; a value that is not finite raises
    EvaluationFailure.  The cut jump (S(x - i eps) - S(x + i eps))/(2 i pi)
    is then polynomial-extrapolated to eps = 0 (Neville, a column at a
    time).  The extrapolant must settle and its imaginary part must be
    residual.
    """
    eps, n = _PERRON_EPS, len(_PERRON_EPS)
    s = np.asarray(_call(S, x + 1j * np.concatenate([-eps, eps])),
                   dtype=complex)
    if not np.isfinite(s).all():
        raise EvaluationFailure(
            f"transform evaluator is not finite on the Perron ladder at x={x}")
    tab = (s[:n] - s[n:]) / (2j * math.pi)
    diag = [tab[0]]
    for big, small, gap in _NEVILLE_COLUMNS:
        m = len(gap)
        tab[:m] = (big * tab[1:m + 1] - small * tab[:m]) / gap
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
