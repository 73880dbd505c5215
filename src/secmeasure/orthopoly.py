"""Orthonormal polynomials of a density and their secondary companions.

The three-term recurrence (convention x P_n = b_{n+1} P_{n+1} + a_n P_n +
b_n P_{n-1}) is built by the discretized Stieltjes procedure on the
density's cached quadrature rule, refined like every density integral,
and kept on the density, MAX_DEGREE rows per spec whose leading rows
serve every request; its arrays are read-only.  A polynomial sequence is
stored as that recurrence with its first two members and evaluated by
running it forward.
Secondary polynomials Q_n share the recurrence with shifted initial
conditions Q_0 = 0, Q_1 = 1/b_1 (b_1^2 = d_0 = c_2 - c_1^2), and agree
pointwise with the operator

    T(f)(x) = int (f(u) - f(x)) / (u - x) rho(u) du,

applied to P_n.  The families A_n = Q_{n+1} and B_n = (x - c_1) Q_{n+1} -
P_{n+1} are orthonormal for the secondary measure.  Within
QUOTIENT_FALLBACK widths of x, ``derivative`` takes T's 0/0 quotient's place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import InstabilityDetected
from .measures import BaseDensity
from .quadrature import (DEFAULT_SPEC, IntegrationSpec, _call, _pointwise,
                         kernel_sums, tanh_sinh_nodes)

__all__ = [
    "RecurrenceCoefficients",
    "PolynomialSequence",
    "recurrence_coefficients",
    "orthonormal_polys",
    "secondary_polys",
    "apply_T",
]

# Recurrence rows a density keeps, and the most served.
MAX_DEGREE = 20


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Diagonal a_0..a_{N-1} and off-diagonal b_1..b_{N-1} terms, all
    finite and every b positive; InstabilityDetected otherwise."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if len(self.b) != len(self.a) - 1:
            raise ValueError("need one fewer off-diagonal than diagonal term")
        if not np.all((self.b > 0) & (self.b < np.inf)):
            raise InstabilityDetected(
                "nonpositive or non-finite off-diagonal recurrence term")
        if not np.all(np.isfinite(self.a)):
            raise InstabilityDetected("non-finite diagonal recurrence term")

    @property
    def n(self) -> int:
        return len(self.a)

    def codilated(self, t: float) -> "RecurrenceCoefficients":
        """The same rows with b_1 scaled by sqrt(t): the recurrence of rho_t.

        This is the co-dilated perturbation of Marcellan, Dehesa and
        Ronveaux, "On orthogonal polynomials with perturbed recurrence
        relations", J. Comput. Appl. Math. 30 (1990).
        """
        b = self.b.copy()
        b[:1] *= math.sqrt(t)
        return RecurrenceCoefficients(self.a, b)


@dataclass(frozen=True)
class PolynomialSequence:
    """P_0..P_{N-1} of one recurrence, evaluated by running it forward.

    P_0 is the constant ``p0`` and P_1(x) = (p1[0] x + p1[1]) / b_1; then
    P_{n+1} = ((x - a_n) P_n - b_n P_{n-1}) / b_{n+1}.
    """

    coeffs: RecurrenceCoefficients
    p0: float
    p1: tuple

    def __len__(self):
        return self.coeffs.n

    def values(self, x) -> np.ndarray:
        """All members at x, stacked along a new first axis."""
        x = np.asarray(x, dtype=float)
        a, b = self.coeffs.a, self.coeffs.b
        rows = len(self)
        out = np.empty((rows,) + x.shape)
        out[0] = self.p0
        if rows > 1:
            out[1] = (self.p1[0] * x + self.p1[1]) / b[0]
        for n in range(1, rows - 1):
            out[n + 1] = ((x - a[n]) * out[n] - b[n - 1] * out[n - 1]) / b[n]
        return out

    def eval(self, n: int, x):
        return self.values(x)[n]

    def as_callable(self, n: int) -> Callable:
        return lambda x: self.eval(n, x)


def recurrence_coefficients(rho: BaseDensity, N: int,
                            spec: IntegrationSpec = DEFAULT_SPEC
                            ) -> RecurrenceCoefficients:
    """The first N recurrence rows of rho, by the discretized Stieltjes
    procedure (W. Gautschi, *Orthogonal Polynomials: Computation and
    Approximation*, Oxford 2004, Section 2.2.3) on each level of the
    density's cached rule, refined like every density integral until two
    levels agree in max-norm.  The rows are formed in g, the nodes' exact
    unit coordinate, so a support far from the origin loses no digits, and
    mapped back as a = midpoint + half width alpha, b = half width beta.
    Working on the nodes, not on moments, keeps a density concentrated on
    a small part of its support accurate.  N must lie in 1..MAX_DEGREE
    (ValueError otherwise); a nonpositive or NaN b_n raises
    InstabilityDetected.

    The density keeps its MAX_DEGREE rows per spec and serves any N as
    their prefix, bit for bit the same for every N, with no quadrature or
    density evaluation after the first call; a call that raises caches
    nothing.  The returned arrays are read-only.
    """
    if not 1 <= N <= MAX_DEGREE:
        raise ValueError(f"need 1 to {MAX_DEGREE} recurrence rows, got {N}")
    rows = rho._recurrence.get(spec)
    if rows is None:
        rows = rho._recurrence[spec] = _stieltjes_rows(rho, spec)
    return RecurrenceCoefficients(rows.a[:N], rows.b[:N - 1])


def _stieltjes_rows(rho: BaseDensity, spec: IntegrationSpec
                    ) -> RecurrenceCoefficients:
    """MAX_DEGREE recurrence rows of rho, refined on its rule."""
    def stieltjes(level, act, sums):
        # s_n = sqrt(w) P_n on the level's nodes, orthonormal in the dot
        # product; its recurrence in g is the density's in unit coordinates.
        g, w = tanh_sinh_nodes(level)[0], rho._rule_at_level(level)[1]
        s, prev, b = np.sqrt(w / w.sum()), 0.0, 0.0
        alpha, beta = [], []
        for n in range(MAX_DEGREE):
            gs = g * s
            alpha.append(gs @ s)
            q = gs - alpha[n] * s - b * prev
            b = math.sqrt(q @ q)
            beta.append(b)
            prev, s = s, q / b
        return np.array(alpha + beta[:-1])[None], None

    rows = rho._refine(lambda x, ws: [w.sum()[None] for w in ws], spec,
                       "recurrence", settle=stieltjes)[0]
    half = 0.5 * rho.interval.width
    a = rho.interval.midpoint + half * rows[:MAX_DEGREE]
    b = half * rows[MAX_DEGREE:]
    a.flags.writeable = b.flags.writeable = False
    return RecurrenceCoefficients(a, b)


def orthonormal_polys(coeffs: RecurrenceCoefficients) -> PolynomialSequence:
    """P_0..P_{N-1}: P_0 = 1, P_1 = (x - a_0)/b_1."""
    return PolynomialSequence(coeffs, 1.0, (1.0, -coeffs.a[0]))


def secondary_polys(coeffs: RecurrenceCoefficients) -> PolynomialSequence:
    """Q_0..Q_{N-1}: the same recurrence with Q_0 = 0, Q_1 = 1/b_1."""
    return PolynomialSequence(coeffs, 0.0, (0.0, 1.0))


# ---------------------------------------------------------------------------
# the secondary-polynomial operator T
# ---------------------------------------------------------------------------

# T's difference quotients (f(u)-f(x))/(u-x) are 0/0 at u = x; below this
# relative separation they are replaced by a numerical derivative.
QUOTIENT_FALLBACK = 1e-8
DERIVATIVE_STEP = 1e-6


def derivative(x: np.ndarray, lo: float, hi: float, scale: float):
    """Derivative estimates of f at the points x, in two steps: returns the
    points where f is needed and ``finish(fx, vals)``, the estimates from
    fx = f(x) and f's values ``vals`` at those points.

    The step is DERIVATIVE_STEP * scale.  Each point gets a centered
    difference where x - step and x + step lie inside (lo, hi), and a
    one-sided difference with the same step, towards the far end of the
    interval, otherwise.
    """
    h = DERIVATIVE_STEP * scale
    centered = (x - h > lo) & (x + h < hi)
    step = np.where(centered | (x <= 0.5 * (lo + hi)), h, -h)

    def finish(fx: np.ndarray, vals: np.ndarray) -> np.ndarray:
        ahead, behind = vals[:len(x)], vals[len(x):]
        out = (ahead - fx) / step
        out[centered] = (ahead[centered] - behind) / (2.0 * h)
        return out

    return np.concatenate([x + step, x[centered] - h]), finish


def _t_against_rule(xs: np.ndarray, fx: np.ndarray, dfx: np.ndarray,
                    u: np.ndarray, fu: np.ndarray, ws: tuple,
                    near_tol: float) -> list:
    """``kernel_sums`` of f's difference quotients, f(x) = fx and f(u) = fu,
    the derivative dfx in the place of those with |u - x| < near_tol."""

    def kernel(blk):
        den = u[None, :] - xs[blk, None]
        near = np.abs(den) < near_tol
        K = (fu[None, :] - fx[blk, None]) / np.where(near, 1.0, den)
        return np.where(near, dfx[blk, None], K)

    return kernel_sums(kernel, np.arange(len(xs)), ws)


def _apply_T(rho: BaseDensity, f: Callable, xs: np.ndarray,
             spec: IntegrationSpec) -> tuple:
    """(T(f)(xs), f(xs)) for a flat array xs.  f's one call per pass holds
    its new nodes, the xs off the first's and new rows' offsets."""
    iv = rho.interval
    near_tol = QUOTIENT_FALLBACK * iv.width
    fx = dfx = None
    todo = np.ones(len(xs), dtype=bool)

    def level(u, ws):
        nonlocal fx, dfx
        # u ascends, so the node nearest each x is one of its two neighbours.
        j = np.clip(np.searchsorted(u, xs), 1, len(u) - 1)
        left, right = np.abs(xs - u[j - 1]), np.abs(u[j] - xs)
        gap = np.minimum(left, right)
        rows = np.flatnonzero(todo & (gap < near_tol))
        todo[rows] = False
        off_nodes = xs[gap != 0] if fx is None else xs[:0]
        parts = [off_nodes, u]
        if len(rows):
            offsets, finish = derivative(xs[rows], iv.a, iv.b, iv.width)
            parts.append(offsets)
        vals = _call(f, np.concatenate(parts))
        n = len(off_nodes)
        fu = vals[n:n + len(u)]
        if fx is None:
            fx = fu[j - (left <= right)]
            fx[gap != 0] = vals[:n]
            dfx = np.zeros(len(xs), dtype=np.result_type(vals, float))
        if len(rows):
            dfx[rows] = finish(fx[rows], vals[n + len(u):])
        return [s[None]
                for s in _t_against_rule(xs, fx, dfx, u, fu, ws, near_tol)]

    return rho._refine(level, spec, "T")[0], fx


def apply_T(rho: BaseDensity, f: Callable, x: Union[float, np.ndarray],
            spec: IntegrationSpec = DEFAULT_SPEC):
    """T(f)(x) = int (f(u) - f(x))/(u - x) rho(u) du at one or many points.

    The difference quotient is evaluated on the density's cached rule and
    refined with it until two levels agree (NonConvergence past the rule's
    level cap); where a node falls within 1e-8 interval widths of x, the
    derivative of f takes the quotient's place.  f is called once per pass,
    on its new nodes (both first levels' on the first), the x off the first
    pass's nodes and the difference offsets of the x that first fall back.
    Works for complex f (e.g. resolvent kernels).  A 0-d x gives a Python
    scalar, else x's shape.
    """
    return _pointwise(lambda xs: _apply_T(rho, f, xs, spec)[0], x)
