"""Orthonormal polynomials of a density and their secondary companions.

The three-term recurrence (convention x P_n = b_{n+1} P_{n+1} + a_n P_n +
b_n P_{n-1}) is built by the discretized Stieltjes procedure against the
density's cached quadrature rule.  A polynomial sequence is stored as that
recurrence with its first two members and evaluated by running it forward.
Secondary polynomials Q_n share the recurrence with shifted initial
conditions Q_0 = 0, Q_1 = 1/b_1 (b_1^2 = d_0 = c_2 - c_1^2), and agree
pointwise with the operator

    T(f)(x) = int (f(u) - f(x)) / (u - x) rho(u) du,

applied to P_n.  The families A_n = Q_{n+1} and B_n = (x - c_1) Q_{n+1} -
P_{n+1} are orthonormal for the secondary measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import InstabilityDetected
from .measures import BaseDensity
from .quadrature import (DEFAULT_SPEC, IntegrationSpec, _call, _pointwise,
                         QUOTIENT_FALLBACK, derivative, finer_sum)

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
    """Stieltjes procedure for the first N recurrence rows of rho.

    Inner products are discretized on the density's tanh-sinh rule
    (``rule(spec, min_level=8)``); the Gram matrix of the resulting
    polynomials on the next-finer rule must stay within DRIFT_TOL of the
    identity.  That check evaluates the density only at the len(rule.x) - 1
    nodes the finer rule adds.
    """
    if N < 1:
        raise ValueError("need at least one recurrence row")
    if N > MAX_DEGREE:
        raise InstabilityDetected(f"degree cap is {MAX_DEGREE}")
    rule = rho.rule(spec, min_level=8)
    x, w = rule.x, rule.w

    a = np.empty(N)
    b = np.empty(max(N - 1, 0))
    mass = w.sum()
    # Row n is P_n / sqrt(mass) on the rule.
    p = np.empty((N, len(x)))
    p[0] = 1.0 / np.sqrt(mass)
    for n in range(N):
        a[n] = w @ (x * p[n] * p[n])
        if n == N - 1:
            break
        q = (x - a[n]) * p[n] - (b[n - 1] * p[n - 1] if n else 0.0)
        b2 = w @ (q * q)
        if b2 <= 0:
            raise InstabilityDetected(f"b_{n + 1}^2 = {b2:.3e} <= 0")
        b[n] = np.sqrt(b2)
        p[n + 1] = q / b[n]
    coeffs = RecurrenceCoefficients(a, b)

    # The rule must resolve the polynomials: check their orthonormality on
    # the next-finer rule, which the procedure above did not see.  Its Gram
    # matrix is half the rule's plus that of the odd-k nodes it adds.
    xf, wf = rho._rule_at_level(rule.level + 1, odd=True)
    fine = orthonormal_polys(coeffs).values(xf) / np.sqrt(mass)
    gram = finer_sum((p * w) @ p.T, (fine * wf) @ fine.T)
    drift = np.max(np.abs(gram - np.eye(N)))
    if drift > DRIFT_TOL:
        raise InstabilityDetected(
            f"orthogonality drift {drift:.3e} exceeds {DRIFT_TOL:g}")
    return coeffs


def orthonormal_polys(coeffs: RecurrenceCoefficients) -> PolynomialSequence:
    """P_0..P_{N-1}: P_0 = 1, P_1 = (x - a_0)/b_1."""
    return PolynomialSequence(coeffs, 1.0, (1.0, -coeffs.a[0]))


def secondary_polys(coeffs: RecurrenceCoefficients) -> PolynomialSequence:
    """Q_0..Q_{N-1}: the same recurrence with Q_0 = 0, Q_1 = 1/b_1."""
    return PolynomialSequence(coeffs, 0.0, (0.0, 1.0))


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
    f (e.g. resolvent kernels).  A 0-d x gives a Python scalar, any other
    x an array of its shape.
    """
    iv = rho.interval

    def T(xs):
        fx = _call(f, xs)
        return rho._refine(
            lambda u, w: _t_against_rule(f, xs, fx, u, w, iv.width, iv.a,
                                         iv.b)[None], spec, "T")[0]

    return _pointwise(T, x)
