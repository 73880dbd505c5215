"""The one-parameter family rho_t of densities equi-normal with rho.

Every member shares the normalized secondary measure of rho (its own
secondary measure is t*mu) and the mean c_1.  Pointwise,

    rho_t(x) = t rho(x) / ([(t-1)(x-c_1) phi(x)/2 - t]^2
                           + pi^2 rho^2(x) (t-1)^2 (x-c_1)^2),

and the Stieltjes transforms are related homographically,
S_t = S / (t + (1-t)(z-c_1) S).  Whether rho_t is a probability density
is a fact about rho_t, its ``validity``: parameters t in (0,1] always
produce one ("proven"); larger t are screened empirically on first read.
A real root of the transform denominator outside the support marks t
"invalid" without further work; otherwise a mass defect of rho_t does, and
a unit mass makes it "empirical".  The denominator has at most one real
root on each side of the support, where (x - c_1) S(x) is monotone, and by
Weyl's inequality for rho's Jacobi matrix with b_1 scaled by sqrt(t) none
lies farther than |sqrt(t) - 1| b_1 from it; the root scan searches from a
bracket width off the support out to that reach.  ``validate_parameter``
returns the cached rho_t whatever its validity, ``family`` refuses an
invalid one.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DenominatorZero, DomainError, InvalidParameter
from .measures import BaseDensity, moment
from .quadrature import DEFAULT_SPEC, IntegrationSpec, Interval, _call
from .report import VerificationReport, property_report, timer
from .stieltjes import (_phi_values, reducer, secondary_measure,
                        stieltjes_transform)

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

# Empirical screen for t > 1: a real-axis root scan on both sides of the
# support, then, when it finds no root, a unit-mass check to this tolerance.
_MASS_TOL = 1e-6
# The root scan narrows its brackets to this many widths, or to this many
# float spacings of the endpoints where that is wider, by k-section into
# this many sections; a root closer than a bracket width to the support is
# not looked for.
_BRACKET_WIDTH = 1e-10
_BRACKET_SPACINGS = 8
_SECTIONS = 16
# A density's family cache is emptied at this many members.
_FAMILY_CACHE_SIZE = 256
# The decreasing parameters along which the Dirac limit t -> 0 is checked.
_DIRAC_T_LADDER = (0.2, 0.1, 0.05, 0.02)


class FamilyDensity(BaseDensity):
    """The density rho_t built pointwise from rho and its reducer.

    ``validity`` is "proven" for t <= 1; for t > 1 reading it runs the
    screen once: the denominator root scan, then, only if it finds no root,
    the unit-mass check.  Either failing gives "invalid", passing both
    "empirical".
    """

    def __init__(self, base: BaseDensity, t: float,
                 spec: IntegrationSpec = DEFAULT_SPEC):
        if t <= 0:
            raise InvalidParameter(f"family parameter must be positive, got {t}")
        super().__init__(base.interval, f"{base.name}|t={t:g}")
        self.base = base
        self.t = t
        self.spec = spec
        self.c1 = moment(base, 1, spec)

    @cached_property
    def validity(self) -> str:
        if self.t <= 1.0:
            return "proven"
        ok = (not denominator_root_scan(self.base, self.t, None, self.spec)
              and abs(self.mass(self.spec) - 1.0) < _MASS_TOL)
        return "empirical" if ok else "invalid"

    def value_at(self, x, dleft, dright):
        rho = np.asarray(self.base.value_at(x, dleft, dright), dtype=float)
        t = self.t
        if t == 1.0:
            return rho
        phi = _phi_values(self.base, x, dleft, dright, self.spec)
        shift = np.asarray(x, dtype=float) - self.c1
        bracket = 0.5 * (t - 1.0) * shift * phi.reshape(rho.shape) - t
        den = bracket ** 2 + (math.pi * rho * (t - 1.0) * shift) ** 2
        return t * rho / den

    def __repr__(self):
        return f"FamilyDensity({self.base.name!r}, t={self.t:g})"


def validate_parameter(rho: BaseDensity, t: float,
                       spec: IntegrationSpec = DEFAULT_SPEC) -> FamilyDensity:
    """rho_t, cached on rho per (t, spec) and not refused whatever its
    ``validity``; InvalidParameter for t <= 0."""
    if (t, spec) not in rho._family:
        if len(rho._family) >= _FAMILY_CACHE_SIZE:
            rho._family.clear()
        rho._family[t, spec] = FamilyDensity(rho, t, spec)
    return rho._family[t, spec]


def family(rho: BaseDensity, t: float,
           spec: IntegrationSpec = DEFAULT_SPEC) -> FamilyDensity:
    """rho_t, or InvalidParameter when its ``validity`` is "invalid"."""
    dens = validate_parameter(rho, t, spec)
    if dens.validity == "invalid":
        raise InvalidParameter(
            f"t={t:g} fails the validity screen for {rho.name!r}")
    return dens


def family_density(rho: BaseDensity, t: float, x,
                   spec: IntegrationSpec = DEFAULT_SPEC):
    """rho_t(x); evaluable for any t > 0, validated or not."""
    return validate_parameter(rho, t, spec).value(x)


def family_transform(rho: BaseDensity, t: float, z,
                     spec: IntegrationSpec = DEFAULT_SPEC):
    """S_{rho_t}(z) = S(z) / (t + (1-t)(z-c_1) S(z)), elementwise over an
    array of z; DenominatorZero if the denominator vanishes at any z."""
    if t <= 0:
        raise InvalidParameter(f"family parameter must be positive, got {t}")
    zs = np.asarray(z, dtype=complex)
    s = stieltjes_transform(rho, zs, spec)
    c1 = moment(rho, 1, spec)
    den = t + (1.0 - t) * (zs - c1) * s
    zero = np.abs(den) < 1e-12 * max(1.0, abs(t))
    if zero.any():
        raise DenominatorZero(
            f"transform denominator vanished at z={zs[zero][0]} for t={t:g}")
    out = s / den
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

    ``search`` None searches both sides from eps off the support out to the
    Weyl reach |sqrt(t) - 1| sqrt(d0), d0 the centred second moment on the
    cached rule; otherwise ``search`` is the one side.  A side whose ends give D the
    same sign has no root; the others narrow by k-section, D at the 15
    interior points of 16 equal sections in one array call, to eps, the
    larger of 1e-10 w (w = b - a) and 8 float spacings at the endpoint
    farther from 0, or until a round leaves every bracket as it was.
    """
    interval = rho.interval
    a, b, w = interval.a, interval.b, interval.width
    if search is not None and not (search.b <= a or search.a >= b):
        raise DomainError("root-scan interval must be disjoint from the support")
    c1 = moment(rho, 1, spec)
    eps = max(_BRACKET_WIDTH * w, _BRACKET_SPACINGS * np.spacing(max(-a, b)))
    if search is None:
        rule = rho.rule(spec)
        reach = abs(math.sqrt(t) - 1.0) * math.sqrt(rule.w @ (rule.x - c1) ** 2)
        if reach <= eps:
            return []
        lo, hi = np.array([a - reach, b + eps]), np.array([a - eps, b + reach])
    else:
        lo, hi = np.array([search.a]), np.array([search.b])

    def D(x):
        return t + (1.0 - t) * (x - c1) * stieltjes_transform(rho, x, spec).real

    sign = np.sign(D(np.concatenate([lo, hi]))).reshape(2, -1)
    root = sign[0] != sign[1]
    lo, hi, sign = lo[root], hi[root], sign[0, root]
    rows = np.arange(len(lo))
    while np.any(hi - lo > eps):
        xs = np.linspace(lo, hi, _SECTIONS + 1, axis=1)
        # Keep the first section whose right end has left the sign of lo;
        # hi always has.
        left = np.sign(D(xs[:, 1:-1])) != sign[:, None]
        k = np.where(left.any(axis=1), left.argmax(axis=1) + 1, _SECTIONS)
        if np.array_equal(xs[rows, k - 1], lo) and np.array_equal(xs[rows, k], hi):
            break
        lo, hi = xs[rows, k - 1], xs[rows, k]
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
