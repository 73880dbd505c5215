"""Orthonormal polynomials of a density and their secondary companions.

The three-term recurrence (convention x P_n = b_{n+1} P_{n+1} + a_n P_n +
b_n P_{n-1}) is built by the discretized Stieltjes procedure against the
density's cached quadrature rule.  Secondary polynomials Q_n share the
recurrence with shifted initial conditions Q_0 = 0, Q_1 = 1/sqrt(d_0), and
agree pointwise with the operator

    T(f)(x) = int (f(u) - f(x)) / (u - x) rho(u) du,

applied to P_n.  The families A_n = Q_{n+1} and B_n = (x - c_1) Q_{n+1} -
P_{n+1} are orthonormal for the secondary measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import InstabilityDetected
from .measures import BaseDensity
from .quadrature import (DEFAULT_SPEC, IntegrationSpec, _call,
                         QUOTIENT_FALLBACK, derivative)

__all__ = [
    "RecurrenceCoefficients",
    "PolynomialSequence",
    "recurrence_coefficients",
    "orthonormal_polys",
    "secondary_polys",
    "apply_T",
]

# Highest recurrence row count served, and the largest deviation of the
# Gram matrix from the identity on the next-finer rule.
MAX_DEGREE = 20
DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class RecurrenceCoefficients:
    """Diagonal a_0..a_{N-1} and off-diagonal b_1..b_{N-1} terms."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if len(self.b) != len(self.a) - 1:
            raise ValueError("need one fewer off-diagonal than diagonal term")
        if np.any(self.b <= 0):
            raise InstabilityDetected("nonpositive off-diagonal recurrence term")

    @property
    def n(self) -> int:
        return len(self.a)


class PolynomialSequence:
    """Polynomials stored as ascending monomial coefficient vectors."""

    def __init__(self, coeffs):
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, n) -> np.ndarray:
        return self.coeffs[n]

    def eval(self, n: int, x):
        return P.polyval(np.asarray(x, dtype=float), self.coeffs[n])

    def as_callable(self, n: int) -> Callable:
        c = self.coeffs[n]
        return lambda x: P.polyval(np.asarray(x, dtype=float), c)


def recurrence_coefficients(rho: BaseDensity, N: int,
                            spec: IntegrationSpec = DEFAULT_SPEC
                            ) -> RecurrenceCoefficients:
    """Stieltjes procedure for the first N recurrence rows of rho.

    Inner products are discretized on the density's tanh-sinh rule; a
    cross-check of the resulting Gram matrix on the next-finer rule guards
    against orthogonality loss (monomial-coefficient storage degrades
    beyond degree ~20 for non-classical weights).
    """
    if N < 1:
        raise ValueError("need at least one recurrence row")
    if N > MAX_DEGREE:
        raise InstabilityDetected(f"degree cap is {MAX_DEGREE}")
    rule = rho.rule(spec, min_level=8)
    x, w = rule.x, rule.w

    a = np.empty(N)
    b = np.empty(max(N - 1, 0))
    vecs = np.empty((N, len(x)))
    p_prev = np.zeros_like(x)
    mass = w.sum()
    p_cur = np.ones_like(x) / np.sqrt(mass)
    b_cur = 0.0
    for n in range(N):
        vecs[n] = p_cur
        a[n] = w @ (x * p_cur * p_cur)
        if n == N - 1:
            break
        q = (x - a[n]) * p_cur - b_cur * p_prev
        b2 = w @ (q * q)
        if b2 <= 0:
            raise InstabilityDetected(f"b_{n + 1}^2 = {b2:.3e} <= 0")
        b[n] = np.sqrt(b2)
        p_prev, p_cur, b_cur = p_cur, q / b[n], b[n]

    # Independent orthogonality check on the next-finer rule.
    xf, wf = rho._rule_at_level(rule.level + 1)
    pf_prev = np.zeros_like(xf)
    pf_cur = np.ones_like(xf) / np.sqrt(mass)
    fine = np.empty((N, len(xf)))
    for n in range(N):
        fine[n] = pf_cur
        if n == N - 1:
            break
        pf_prev, pf_cur = pf_cur, ((xf - a[n]) * pf_cur -
                                   (b[n - 1] if n else 0.0) * pf_prev) / b[n]
    gram = (fine * wf) @ fine.T
    drift = np.max(np.abs(gram - np.eye(N)))
    if drift > DRIFT_TOL:
        raise InstabilityDetected(
            f"orthogonality drift {drift:.3e} exceeds {DRIFT_TOL:g}")
    return RecurrenceCoefficients(a, b)


def _run_recurrence(coeffs: RecurrenceCoefficients, first: np.ndarray,
                    second: np.ndarray) -> PolynomialSequence:
    a, b = coeffs.a, coeffs.b
    out = [first]
    if coeffs.n >= 2:
        out.append(second)
    for n in range(1, coeffs.n - 1):
        grown = P.polymulx(out[n]) - a[n] * np.pad(out[n], (0, 1))
        prev = np.pad(out[n - 1], (0, len(grown) - len(out[n - 1])))
        out.append((grown - b[n - 1] * prev) / b[n])
    return PolynomialSequence(out)


def orthonormal_polys(coeffs: RecurrenceCoefficients) -> PolynomialSequence:
    """P_0..P_{N-1} from the recurrence, P_0 = 1."""
    if coeffs.n == 1:
        return PolynomialSequence([np.array([1.0])])
    first = np.array([1.0])
    second = np.array([-coeffs.a[0], 1.0]) / coeffs.b[0]
    return _run_recurrence(coeffs, first, second)


def secondary_polys(coeffs: RecurrenceCoefficients, d0: float) -> PolynomialSequence:
    """Q_0..Q_{N-1}: same recurrence with Q_0 = 0, Q_1 = 1/sqrt(d_0)."""
    if d0 <= 0:
        raise ValueError("d0 = c_2 - c_1^2 must be positive")
    if coeffs.n == 1:
        return PolynomialSequence([np.array([0.0])])
    first = np.array([0.0])
    second = np.array([1.0 / np.sqrt(d0)])
    return _run_recurrence(coeffs, first, second)


# ---------------------------------------------------------------------------
# the secondary-polynomial operator T
# ---------------------------------------------------------------------------

# Entries of one block of the T kernel (rows x nodes), so that no temporary
# grows with the number of points.
_KERNEL_ENTRIES = 2 ** 16


def _t_against_rule(f: Callable, xs: np.ndarray, fx: np.ndarray,
                    u: np.ndarray, w: np.ndarray, scale: float,
                    lo: float, hi: float) -> np.ndarray:
    fu = np.asarray(_call(f, u))
    near_tol = QUOTIENT_FALLBACK * scale
    # u ascends, so the node nearest each x is one of its two neighbours.
    j = np.clip(np.searchsorted(u, xs), 1, len(u) - 1)
    fallback = np.minimum(np.abs(u[j] - xs), np.abs(u[j - 1] - xs)) < near_tol
    dtype = np.result_type(fu, fx, float)
    dfx = np.zeros(len(xs), dtype=dtype)
    if fallback.any():
        dfx[fallback] = derivative(f, xs[fallback], fx[fallback], lo, hi, scale)
    out = np.empty(len(xs), dtype=dtype)
    rows = max(1, _KERNEL_ENTRIES // len(u))
    for s in range(0, len(xs), rows):
        blk = slice(s, s + rows)
        den = u[None, :] - xs[blk, None]
        near = np.abs(den) < near_tol
        K = (fu[None, :] - fx[blk, None]) / np.where(near, 1.0, den)
        out[blk] = np.where(near, dfx[blk, None], K) @ w
    return out


def apply_T(rho: BaseDensity, f: Callable, x: Union[float, np.ndarray],
            spec: IntegrationSpec = DEFAULT_SPEC):
    """T(f)(x) = int (f(u) - f(x))/(u - x) rho(u) du at one or many points.

    The difference quotient is evaluated on the density's cached rule and
    refined with it until two levels agree (NonConvergence past the rule's
    level cap); where a node falls within 1e-8 interval widths of x, the
    derivative of f takes the quotient's place.  Works for complex-valued
    f (e.g. resolvent kernels).
    """
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    fx = np.asarray(_call(f, xs))
    iv = rho.interval
    out = rho._refine(
        lambda u, w: _t_against_rule(f, xs, fx, u, w, iv.width, iv.a, iv.b),
        spec, "T")
    if scalar:
        return complex(out[0]) if np.iscomplexobj(out) else float(out[0])
    return out
