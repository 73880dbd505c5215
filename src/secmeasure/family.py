"""The one-parameter family rho_t of densities equi-normal with rho.

Every member shares the normalized secondary measure of rho (its own
secondary measure is t*mu) and the mean c_1.  The Stieltjes transforms are
related by the Möbius map S_t = S / (t + (1-t)(z-c_1) S), so rho_t is a
``DerivedDensity`` with coefficients (1, 0, (1-t)(x-c_1), t); on the cut
that gives, pointwise,

    rho_t(x) = t rho(x) / ([(1-t)(x-c_1) phi(x)/2 + t]^2
                           + pi^2 rho^2(x) (1-t)^2 (x-c_1)^2),

and the reducer of rho_t as 2 Re S_t(x + i0).  Whether rho_t is a
probability density is a fact about rho_t, its ``validity``.  By
co-dilation (rho_t's Jacobi matrix is rho's with b_1 scaled by sqrt(t)),
S_t is the transform of a probability measure whose part on the support
is rho_t dx; it has a point mass at each real root of the denominator
D(x) = t + (1-t)(x-c_1) S(x) off the support.  Parameters t in (0,1]
always give a density ("proven").  For t > 1, (x - c_1) S(x) is monotone
on each side of the support, so D has at most one root there, and has one
exactly when D is negative at that end of the support: D at the ends
decides validity, "invalid" or "empirical", with no root looked for.  A
root too close to the end for ``denominator_root_scan`` to bracket still
makes t invalid.  By Weyl's inequality for the Jacobi matrix with b_1
scaled, no root lies farther than |sqrt(t) - 1| b_1 from the support; the
root scan searches from a bracket width off the support out to that
reach, placing each round's points by regula falsi in the log of the
distance to the support, and runs no transform for t <= 1, where D >= t.
``validate_parameter`` returns the cached rho_t whatever its validity;
``family`` refuses an invalid one, and a base of mass other than 1.  rho_t
alone checks t and forms D; ``stieltjes._vanishes`` alone decides D = 0.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (DenominatorZero, DomainError, InvalidDensity,
                     InvalidParameter)
from .measures import BaseDensity, moment
from .quadrature import DEFAULT_SPEC, IntegrationSpec, Interval, _call
from .report import VerificationReport, property_report, timer
from .stieltjes import (DerivedDensity, _end_transforms, _vanishes, reducer,
                        secondary_measure, stieltjes_transform)

__all__ = [
    "FamilyDensity",
    "family",
    "validate_parameter",
    "family_density",
    "family_transform",
    "moment0_curve",
    "denominator_root_scan",
    "equi_normality_check",
    "dirac_limit_check",
]

# The root scan narrows its brackets to this many widths, or to this many
# float spacings of the endpoints where that is wider; it refuses a search
# nearer the support than that, and does not look for a root that near.
_BRACKET_WIDTH = 1e-10
_BRACKET_SPACINGS = 8
# Columns of the root scan's point offsets: k = 1..7 for the seven points
# splitting a bracket in eighths, j/4 for j = 0..3 for the powers of q.
_EIGHTHS = np.arange(1.0, 8.0)[:, None]
_QUARTERS = np.arange(4)[:, None] / 4
# A density's family cache is emptied at this many members.
_FAMILY_CACHE_SIZE = 256
# The decreasing parameters along which the Dirac limit t -> 0 is checked.
_DIRAC_T_LADDER = (0.2, 0.1, 0.05, 0.02)


class FamilyDensity(DerivedDensity):
    """The density rho_t, whose transform is S/(t + (1-t)(z-c_1) S), for
    0 < t < inf (InvalidParameter otherwise, the package's one check of t).

    ``validity`` is "proven" for t <= 1.  For t > 1 its first read takes
    rho_t's own end transforms S_t = S/D, D = t + (1-t)(x-c_1) S, at the
    ends a and b of the support: "invalid" when D < 0 at either end, seen
    as S_t(a) > 0 or S_t(b) < 0, "empirical" otherwise.  A D that vanishes
    to within rel_tol of its terms t and (1-t)(x-c_1) S (``_vanishes``)
    makes S_t infinite and of the valid sign, so the boundary case D = 0
    (cheb-u at t = 2) stays valid whatever the rounding.
    """

    def __init__(self, base: BaseDensity, t: float,
                 spec: IntegrationSpec = DEFAULT_SPEC):
        if not 0.0 < t < math.inf:
            raise InvalidParameter(
                f"family parameter must be a positive real, got {t}")
        super().__init__(base, f"{base.name}|t={t:g}", spec)
        self.t = t

    @cached_property
    def validity(self) -> str:
        if self.t <= 1.0:
            return "proven"
        sa, sb = _end_transforms(self, self.spec)
        return "invalid" if sa > 0.0 or sb < 0.0 else "empirical"

    def mobius(self, x) -> tuple:
        return 1.0, 0.0, (1.0 - self.t) * (x - self.c1), self.t

    def __repr__(self):
        return f"FamilyDensity({self.base.name!r}, t={self.t:g})"


def validate_parameter(rho: BaseDensity, t: float,
                       spec: IntegrationSpec = DEFAULT_SPEC) -> FamilyDensity:
    """rho_t, cached on rho per (t, spec) and not refused whatever its
    ``validity``; InvalidParameter unless 0 < t < inf."""
    if (t, spec) not in rho._family:
        if len(rho._family) >= _FAMILY_CACHE_SIZE:
            rho._family.clear()
        rho._family[t, spec] = FamilyDensity(rho, t, spec)
    return rho._family[t, spec]


def family(rho: BaseDensity, t: float,
           spec: IntegrationSpec = DEFAULT_SPEC) -> FamilyDensity:
    """rho_t, or InvalidParameter when its ``validity`` is "invalid";
    first InvalidDensity unless rho's mass at ``spec`` is 1 within 1e-6:
    rho_t needs a probability base (mu, of mass d0, is not one)."""
    dens = validate_parameter(rho, t, spec)
    mass = rho.mass(spec)
    if abs(mass - 1.0) > 1e-6:
        raise InvalidDensity(f"{rho.name!r} has mass {mass:.6g}, not 1")
    if dens.validity == "invalid":
        raise InvalidParameter(
            f"t={t:g} is not a valid parameter for {rho.name!r}")
    return dens


def family_density(rho: BaseDensity, t: float, x,
                   spec: IntegrationSpec = DEFAULT_SPEC):
    """rho_t(x); evaluable for any t > 0, validated or not."""
    return validate_parameter(rho, t, spec).value(x)


def family_transform(rho: BaseDensity, t: float, z,
                     spec: IntegrationSpec = DEFAULT_SPEC):
    """S_{rho_t}(z) = S(z) / (t + (1-t)(z-c_1) S(z)), the Möbius map of
    rho_t (``validate_parameter``), elementwise over an array of z;
    DenominatorZero if the denominator vanishes at any z, to within
    rel_tol of its terms (``stieltjes._vanishes``)."""
    zs = np.asarray(z, dtype=complex)
    rho_t = validate_parameter(rho, t, spec)
    s = stieltjes_transform(rho, zs, spec)
    a, b, c, d = rho_t.mobius(zs)
    cs = c * s
    zero = _vanishes(cs, d, spec)
    if zero.any():
        raise DenominatorZero(
            f"transform denominator vanished at z={zs[zero][0]} for t={t:g}")
    out = (a * s + b) / (cs + d)
    return complex(out) if zs.ndim == 0 else out


def moment0_curve(rho: BaseDensity, t: float,
                  spec: IntegrationSpec = DEFAULT_SPEC) -> float:
    """f(t) = int rho_t; equals 1 exactly when t is a valid parameter."""
    return validate_parameter(rho, t, spec).mass(spec)


def denominator_root_scan(rho: BaseDensity, t: float,
                          search: Optional[Interval] = None,
                          spec: IntegrationSpec = DEFAULT_SPEC):
    """Brackets of the real roots of D(x) = t + (1-t)(x-c_1) S(x) off the
    support [a, b], left of it first; D has at most one on each side.
    c_1 and D come from rho_t (``validate_parameter``), which raises
    InvalidParameter unless 0 < t < inf.  A ``search`` nearer the support
    than eps (below) raises DomainError.  For t <= 1 there is no root, as
    (x - c_1) S(x) > 0 off the support makes D >= t, and no transform runs.

    ``search`` None searches both sides from eps off the support out to the
    Weyl reach |sqrt(t) - 1| sqrt(d0), d0 the centred second moment on the
    cached rule; otherwise ``search`` is the one side.  A side whose ends
    give D the same sign has no root.  The others narrow in rounds, each D
    at 15 interior points in one array call, placed in u, the log of the
    distance to the support, where D is smooth even next to a singular
    end: 7 split the bracket evenly in u, which shrinks it by a fixed share
    whatever D does; 8 sit at r -+ eps/4 q^j, j = 0..3, q = (W/eps)^(1/4),
    W the bracket's width and r the regula-falsi estimate in u from the
    values of D the previous round left at the bracket's ends (a
    safeguarded regula falsi, after Dowell and Jarratt, BIT 11, 1971).
    The new bracket is the first adjacent pair of points whose D differ in
    sign.  Rounds stop when every bracket is at most eps wide, eps the
    larger of 1e-10 w (w = b - a) and 8 float spacings at the endpoint
    farther from 0, or when a round leaves every bracket as it was.  A
    root closer than eps to the support is not found, though it makes t
    invalid (``FamilyDensity.validity``): for the uniform density at
    t = 1.0001 the scan returns no bracket.
    """
    dens = validate_parameter(rho, t, spec)
    interval = rho.interval
    a, b, w = interval.a, interval.b, interval.width
    eps = max(_BRACKET_WIDTH * w, _BRACKET_SPACINGS * np.spacing(max(-a, b)))
    if search is not None and not (search.b <= a - eps or search.a >= b + eps):
        raise DomainError(
            f"root scan: the search interval [{search.a:g}, {search.b:g}] must "
            f"lie at least {eps:g} off the support [{a:g}, {b:g}]")
    if t <= 1.0:
        return []
    if search is None:
        rule = rho.rule(spec)
        d0 = rule.w @ (rule.x - dens.c1) ** 2
        reach = abs(math.sqrt(t) - 1.0) * math.sqrt(d0)
        sides = [(a - reach, a - eps), (b + eps, b + reach)] if reach > eps else []
    else:
        sides = [(search.a, search.b)]

    def D(x):
        _, _, c, d = dens.mobius(x)
        return c * stieltjes_transform(rho, x, spec).real + d

    ends = np.array(sides).reshape(-1, 2).T
    vals = D(ends) if sides else ends
    root = np.sign(vals[0]) != np.sign(vals[1])
    (lo, hi), (dlo, dhi) = ends[:, root], vals[:, root]
    # x = end + way e^u, u the log of the distance to the support.
    way = np.where(lo >= b, 1.0, -1.0)
    end = np.where(lo >= b, b, a)
    rows = np.arange(len(lo))
    while np.count_nonzero(hi - lo > eps):
        ulo, uhi = np.log(way * (lo - end)), np.log(way * (hi - end))
        r = end + way * np.exp(ulo + dlo / (dlo - dhi) * (uhi - ulo))
        # np.linspace(ulo, uhi, 9)[1:-1], by the arithmetic it does.
        even = end + way * np.exp(_EIGHTHS * ((uhi - ulo) / 8) + ulo)
        off = eps / 4 * ((hi - lo) / eps) ** _QUARTERS
        pts = np.clip(np.concatenate([even, r - off, r + off]), lo, hi)
        xs = np.concatenate([lo[:, None], np.sort(pts, axis=0).T, hi[:, None]],
                            axis=1)
        ds = np.concatenate([dlo[:, None], D(xs[:, 1:-1]), dhi[:, None]],
                            axis=1)
        # The first pair of points whose D leaves the sign of lo's; hi's has.
        k = np.argmax(np.sign(ds[:, 1:]) != np.sign(dlo)[:, None], axis=1) + 1
        if np.array_equal(xs[rows, k - 1], lo) and np.array_equal(xs[rows, k], hi):
            break
        lo, hi, dlo, dhi = xs[rows, k - 1], xs[rows, k], ds[rows, k - 1], ds[rows, k]
    return [(float(l), float(h)) for l, h in zip(lo, hi)]


def equi_normality_check(rho: BaseDensity, t: float,
                         spec: IntegrationSpec = DEFAULT_SPEC) -> VerificationReport:
    """Verify that the secondary measure of rho_t is t times that of rho.

    Checks the pointwise identity mu_t = t*mu on a 30-point interior grid
    (tolerance 1e-4) and the moment identity c'_2 - c'_1^2 = t (c_2 - c_1^2)
    (tolerance 1e-6); both must hold to pass.
    """
    with timer() as tm:
        dens = validate_parameter(rho, t, spec)
        sm = secondary_measure(rho, spec)
        sm_t = secondary_measure(dens, spec)
        grid = rho.interval.interior_grid(30, 2e-3)
        dev_grid = float(np.max(np.abs(sm_t.mu(grid) - t * sm.mu(grid))))
        dev_moment = abs(sm_t.d0 - t * sm.d0)
    rep = property_report(f"equi-normality {rho.name} t={t:g}",
                          max(dev_grid, dev_moment), 1e-4, "paper", tm.ms)
    return replace(rep, passed=dev_grid <= 1e-4 and dev_moment <= 1e-6)


def dirac_limit_check(rho: BaseDensity, g: Callable,
                      spec: IntegrationSpec = DEFAULT_SPEC) -> VerificationReport:
    """Verify that rho_t converges weakly to the point mass at c_1 as t -> 0.

    Along the t ladder 0.2, 0.1, 0.05, 0.02, int g rho_t must approach
    g(c_1) with non-increasing error and a final gap below 5e-2, and the
    reducer of rho_t must trend toward 2/(x - c_1) at two fixed interior
    points.
    """
    with timer() as tm:
        c1 = moment(rho, 1, spec)
        target = float(np.asarray(_call(g, np.asarray([c1])))[0])
        gaps = []
        interval = rho.interval
        probes = [c1 + 0.3 * interval.width, c1 - 0.3 * interval.width]
        probes = [x for x in probes
                  if interval.a + 1e-3 * interval.width < x
                  < interval.b - 1e-3 * interval.width]
        probe_gaps = []
        for t in _DIRAC_T_LADDER:
            dens = family(rho, t, spec)
            gaps.append(abs(float(dens.weighted_integral(g, spec).real) - target))
            probe_gaps.append(max(abs(reducer(dens, x, spec) - 2.0 / (x - c1))
                                  for x in probes))
        monotone = all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        trending = probe_gaps[-1] <= probe_gaps[0] + 1e-12
    rep = property_report(f"dirac-limit {rho.name}", gaps[-1], 5e-2,
                          "paper", tm.ms)
    return replace(rep, passed=monotone and trending and gaps[-1] < 5e-2)
