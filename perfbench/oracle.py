"""Closed-form answers for Jacobi densities, independent of secmeasure.

A Jacobi density on [a, b] is

    rho(x) = (x-a)^alpha (b-x)^beta q((x-a)/w),   w = b - a,

with q a polynomial in y = (x-a)/w, normalised so that rho has unit mass.
Everything below follows from Beta functions: the normaliser, the
moments (as products of exact Beta ratios), the Stieltjes transform off
the support (as a moment series about the farther endpoint), the operator
T on polynomials and simple poles, the Gauss-Jacobi rule (Golub-Welsch on
the closed-form Jacobi recurrence) and, from that rule, the exact
three-term recurrence of rho.  Only the standard library and numpy are
used.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.polynomial import polynomial as P

# Terms of a moment series are summed until they fall below this share of
# the partial sum.
_SERIES_RTOL = 1e-18


def beta_fn(p: float, q: float) -> float:
    """Euler's Beta function B(p, q) for p, q > 0."""
    return math.exp(math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q))


def _beta_ratios(alpha: float, beta: float, n: int) -> np.ndarray:
    """R_k = B(alpha+1+k, beta+1) / B(alpha+1, beta+1) for k = 0..n."""
    r = np.ones(n + 1)
    for k in range(n):
        r[k + 1] = r[k] * (alpha + 1 + k) / (alpha + beta + 2 + k)
    return r


def _y_moments(alpha: float, beta: float, q: np.ndarray, n: int) -> np.ndarray:
    """E[y^k], k = 0..n, under y^alpha (1-y)^beta q(y) on [0, 1], normalised."""
    r = _beta_ratios(alpha, beta, n + len(q))
    raw = np.array([q @ r[k:k + len(q)] for k in range(n + 1)])
    return raw / raw[0]


class JacobiDensity:
    """(x-a)^alpha (b-x)^beta q((x-a)/w) on [a, b] with unit mass.

    ``shape`` holds the ascending coefficients of an unnormalised positive
    polynomial in y = (x-a)/w; the normalised coefficients are ``q``.
    """

    def __init__(self, a: float, b: float, alpha: float, beta: float, shape):
        if not (b > a and alpha > -1 and beta > -1):
            raise ValueError("need a < b and exponents > -1")
        self.a, self.b, self.w = float(a), float(b), float(b - a)
        self.alpha, self.beta = float(alpha), float(beta)
        shape = np.asarray(shape, dtype=float)
        mass = self.w ** (self.alpha + self.beta + 1) * sum(
            c * beta_fn(self.alpha + 1 + j, self.beta + 1)
            for j, c in enumerate(shape))
        self.q = shape / mass

    # -- pointwise ---------------------------------------------------------

    def smooth(self, x):
        """The smooth part q((x-a)/w), as passed to ``Density``."""
        return P.polyval((np.asarray(x, dtype=float) - self.a) / self.w, self.q)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return (x - self.a) ** self.alpha * (self.b - x) ** self.beta * self.smooth(x)

    # -- moments -------------------------------------------------------------

    def moments(self, n_max: int) -> np.ndarray:
        """c_0..c_{n_max}; exact Beta ratios, binomial shift when a != 0."""
        ey = _y_moments(self.alpha, self.beta, self.q, n_max)
        if self.a == 0.0:
            return ey * self.w ** np.arange(n_max + 1)
        out = np.empty(n_max + 1)
        for n in range(n_max + 1):
            out[n] = sum(math.comb(n, i) * self.a ** (n - i) * self.w ** i * ey[i]
                         for i in range(n + 1))
        return out

    @property
    def mean(self) -> float:
        return float(self.moments(1)[1])

    @property
    def variance(self) -> float:
        c = self.moments(2)
        return float(c[2] - c[1] ** 2)

    # -- Stieltjes transform off the support ---------------------------------

    def _series(self, z: complex):
        """Expansion about the endpoint farther from z: (sign, zeta, moments).

        S(z) = sign/w * sum_n m_n / zeta^(n+1) with m_n the moments of the
        distance to that endpoint in widths; converges for |zeta| > 1.
        """
        if abs(z - self.a) >= abs(z - self.b):
            sign, zeta = 1.0, (z - self.a) / self.w
            alpha, beta, q = self.alpha, self.beta, self.q
        else:
            sign, zeta = -1.0, (self.b - z) / self.w
            alpha, beta = self.beta, self.alpha
            q = _reflect(self.q)
        if abs(zeta) <= 1.0:
            raise ValueError(f"z={z} is too close to the support for the series")
        n = int(math.ceil(math.log(1 / _SERIES_RTOL) / math.log(abs(zeta)))) + 2
        return sign, zeta, _y_moments(alpha, beta, q, n)

    def stieltjes(self, z: complex) -> complex:
        """S(z) = int rho(u)/(z-u) du by the moment series."""
        sign, zeta, m = self._series(complex(z))
        powers = zeta ** -np.arange(1, len(m) + 1)
        return complex(sign * (m @ powers) / self.w)

    def stieltjes_prime(self, z: complex) -> complex:
        """dS/dz = -int rho(u)/(z-u)^2 du by the differentiated series."""
        _, zeta, m = self._series(complex(z))
        k = np.arange(len(m))
        return complex(-((k + 1) * m) @ (zeta ** -(k + 2.0)) / self.w ** 2)

    # -- operator T and the integral equation ---------------------------------

    def T_poly(self, f_coeffs) -> np.ndarray:
        """Coefficients of T(f) for f = sum f_k x^k.

        (f(u)-f(x))/(u-x) = sum_k f_k sum_{j<k} u^j x^(k-1-j), so the
        coefficient of x^m is sum_{k>m} f_k c_{k-1-m}.
        """
        f = np.asarray(f_coeffs, dtype=float)
        c = self.moments(max(len(f) - 1, 0))
        out = np.zeros(max(len(f) - 1, 1))
        for m in range(len(f) - 1):
            out[m] = sum(f[k] * c[k - 1 - m] for k in range(m + 1, len(f)))
        return out

    def T_pole_factor(self, p: float) -> float:
        """T(1/(x+p)) = s / (x+p) with s = S(-p), for -p off the support."""
        return float(self.stieltjes(complex(-p, 0.0)).real)

    def equation_rhs_poly(self, f_coeffs, lam: float) -> np.ndarray:
        """g = f + lam (x - c_1) T(f), for polynomial f, as coefficients."""
        f = np.asarray(f_coeffs, dtype=float)
        tf = self.T_poly(f)
        g = P.polyadd(f, lam * P.polymul([-self.mean, 1.0], tf))
        return np.asarray(g, dtype=float)

    def variance_of_poly(self, f_coeffs) -> float:
        """int f^2 rho - (int f rho)^2 for polynomial f."""
        f = np.asarray(f_coeffs, dtype=float)
        f2 = P.polymul(f, f)
        c = self.moments(len(f2) - 1)
        return float(f2 @ c[:len(f2)] - (f @ c[:len(f)]) ** 2)

    def variance_of_pole(self, p: float) -> float:
        """Variance of 1/(x+p): -S'(-p) - S(-p)^2."""
        s = self.stieltjes(complex(-p, 0.0)).real
        return float(-self.stieltjes_prime(complex(-p, 0.0)).real - s * s)

    # -- family screen ---------------------------------------------------------

    def endpoint_limits(self):
        """(L_a, L_b) with L = (x - c_1) S(x) at the endpoints, inf if divergent.

        (x - c_1) S(x) increases from 1 to L_a on x < a and decreases from
        L_b to 1 on x > b (covariance of monotone functions), so for t > 1
        each side carries a real root of t + (1-t)(x-c_1)S(x) exactly when
        its L exceeds t/(t-1).
        """
        c1 = self.mean
        scale = self.w ** (self.alpha + self.beta)
        if self.beta > 0:
            s_b = scale * sum(c * beta_fn(self.alpha + 1 + j, self.beta)
                              for j, c in enumerate(self.q))
            l_b = (self.b - c1) * s_b
        else:
            l_b = math.inf
        if self.alpha > 0:
            s_a = scale * sum(c * beta_fn(self.alpha + j, self.beta + 1)
                              for j, c in enumerate(self.q))
            l_a = (c1 - self.a) * s_a
        else:
            l_a = math.inf
        return l_a, l_b

    def denominator_roots(self, t: float):
        """Sides ('left', 'right') on which D(x) = t + (1-t)(x-c_1)S(x) has a root."""
        if t <= 1.0:
            return ()
        l_a, l_b = self.endpoint_limits()
        level = t / (t - 1.0)
        return tuple(side for side, l in (("left", l_a), ("right", l_b))
                     if l > level)

    def screen_outcomes(self, t: float, gap: float = 1e-3):
        """Answers a validity screen of t > 1 may give, if it scans for roots
        from ``gap`` widths off the support and checks the mass.

        A root inside the scanned range makes t "invalid"; no root at all
        makes it "empirical" (rho_t then has unit mass).  A root only inside
        the unscanned gap leaves the answer to the mass check, whose defect
        (the pole's residue) has no closed form here, so both are accepted.
        """
        roots = self.denominator_roots(t)
        if not roots:
            return {"empirical"}
        x, w = self.gauss_rule(300)
        c1, level = self.mean, t / (t - 1.0)
        for side in roots:
            edge = self.a - gap * self.w if side == "left" else self.b + gap * self.w
            if (edge - c1) * (w @ (1.0 / (edge - x))) > level:
                return {"invalid"}
        return {"empirical", "invalid"}

    # -- Gauss-Jacobi rule and recurrence ---------------------------------------

    def gauss_rule(self, n_nodes: int = 40):
        """Nodes and weights exact for rho times polynomials of degree
        below 2 n_nodes - deg q."""
        # Monic Jacobi recurrence for (1-s)^A (1+s)^B on [-1, 1], s = 2y - 1.
        A, B = self.beta, self.alpha
        k = np.arange(n_nodes, dtype=float)
        s2 = 2 * k + A + B
        with np.errstate(divide="ignore", invalid="ignore"):
            diag = np.where(k == 0, (B - A) / (A + B + 2),
                            (B * B - A * A) / (s2 * (s2 + 2)))
        n = np.arange(1, n_nodes, dtype=float)
        t2 = 2 * n + A + B
        off2 = np.where(
            n == 1, 4 * (1 + A) * (1 + B) / ((2 + A + B) ** 2 * (3 + A + B)),
            4 * n * (n + A) * (n + B) * (n + A + B)
            / (t2 ** 2 * (t2 + 1) * np.where(n == 1, 1.0, t2 - 1)))
        jac = np.diag(diag) + np.diag(np.sqrt(off2), 1) + np.diag(np.sqrt(off2), -1)
        s, vecs = np.linalg.eigh(jac)
        y = 0.5 * (1 + s)
        x = self.a + self.w * y
        mu0 = self.w ** (self.alpha + self.beta + 1) * beta_fn(self.alpha + 1,
                                                                self.beta + 1)
        return x, mu0 * vecs[0] ** 2 * self.smooth(x)

    def recurrence(self, N: int, n_nodes: int = 40):
        """(a_0..a_{N-1}, b_1..b_{N-1}) of the orthonormal polynomials,
        x P_n = b_{n+1} P_{n+1} + a_n P_n + b_n P_{n-1}, by the Stieltjes
        procedure on the exact Gauss-Jacobi rule."""
        x, w = self.gauss_rule(n_nodes)
        a = np.empty(N)
        b = np.empty(max(N - 1, 0))
        p_prev, p_cur, b_cur = np.zeros_like(x), np.ones_like(x) / math.sqrt(w.sum()), 0.0
        for n in range(N):
            a[n] = w @ (x * p_cur * p_cur)
            if n == N - 1:
                break
            r = (x - a[n]) * p_cur - b_cur * p_prev
            b[n] = math.sqrt(w @ (r * r))
            p_prev, p_cur, b_cur = p_cur, r / b[n], b[n]
        return a, b


def _reflect(q: np.ndarray) -> np.ndarray:
    """Coefficients of q(1 - y) in powers of y."""
    out = np.zeros(len(q))
    for j, c in enumerate(q):
        for i in range(j + 1):
            out[i] += c * math.comb(j, i) * (-1) ** i
    return out


def semicircle(a: float, b: float) -> JacobiDensity:
    """Wigner semicircle on [a, b] (cheb-u when [a, b] = [-1, 1])."""
    return JacobiDensity(a, b, 0.5, 0.5, [1.0])


def semicircle_reducer(a: float, b: float, x):
    """phi(x) = 16 (x - m)/w^2: the cheb-u reducer 4s, with s = 2(x-m)/w."""
    return 16.0 * (np.asarray(x, dtype=float) - 0.5 * (a + b)) / (b - a) ** 2


def semicircle_family(a: float, b: float, t: float, x):
    """rho_t(x) = t rho(x) / (t^2 - 4 (t-1) s^2), s = 2(x-m)/w."""
    s = 2.0 * (np.asarray(x, dtype=float) - 0.5 * (a + b)) / (b - a)
    return t * semicircle(a, b).value(x) / (t * t - 4.0 * (t - 1.0) * s * s)


def semicircle_root(t: float) -> float:
    """Root s > 1 of t + (1-t) s S(s) for cheb-u; exists for t > 2 (s^2 = 9/8 at t = 3)."""
    return math.sqrt(t * t / (4.0 * (t - 1.0)))


def cheb_u_transform(z: complex) -> complex:
    """S(z) = 2(z - sqrt(z^2 - 1)) on the branch that decays at infinity."""
    z = complex(z)
    return 2.0 * (z - z * cmath.sqrt(1.0 - 1.0 / (z * z)))
