"""T and the integral-equation solver against an oracle from the Jacobi
matrix, which runs no quadrature of the package.

The weights are the pure Jacobi densities C x^alpha (1-x)^beta on [0, 1].
Their recurrence is known in closed form (W. Gautschi, *Orthogonal
Polynomials: Computation and Approximation*, Oxford 2004, Table 1.1), and
the eigenpairs of its Jacobi matrix give the Gauss rule (Golub and Welsch,
Math. Comp. 23, 1969).  On that rule:

* T(f) = sum_n <f, P_n> Q_n, since T(P_n) = Q_n, the secondary
  polynomials (Q_0 = 0, Q_1 = 1/b_1, then P's recurrence);
* V(f) = t c_0 + sqrt(t) sum_{n>=1} c_n P_n^t with c_n = <f, P_n>, since
  V(1) = t and V(P_n) = sqrt(t) P_n^t for n >= 1, P^t the orthonormal
  polynomials of J_t, the Jacobi matrix with b_1 scaled by sqrt(t);
* V^{-1}(g) = d_0/t + t^{-1/2} sum_{n>=1} d_n P_n with d_n = <g, P_n^t> on
  the rule of J_t, and the solver's f = t V^{-1}(g).

The points include x within 1e-6 of both ends, where T's difference
quotient falls back to a one-sided derivative next to a singular end."""

import math

import numpy as np
import pytest

from secmeasure import (Density, IntegralEquationProblem, Interval, apply_T,
                        apply_V, apply_V_inverse, make_context,
                        solve_integral_equation)
from secmeasure.quadrature import EndpointExponents

# The rule has ROWS nodes; the series stop after TERMS terms.  Beyond about
# 30 terms, the coefficients of the analytic f and g below sit at rounding
# level (4e-15 at n >= 40), and summing them only adds noise: on x^0 (1-x)^0
# the oracle's T is within 7e-14 of the closed form -ln(1 + 1/0.7)/(x + 0.7)
# with 30 terms, and within 3.2e-12 with 60.
ROWS, TERMS = 60, 30
POINTS = np.array([1e-6, 1e-3, 0.01, 0.3, 0.5, 0.77, 0.999, 1.0 - 1e-6])
# (alpha, beta) with alpha + beta != -1, where the n = 1 row is 0/0.
PAIRS = [(0.5, 0.5), (-0.4, 0.6), (0.3, -0.45), (1.2, 0.1)]


def jacobi_density(alpha, beta):
    c = math.exp(math.lgamma(alpha + beta + 2) - math.lgamma(alpha + 1)
                 - math.lgamma(beta + 1))
    return Density(Interval(0.0, 1.0), lambda x: np.full(np.shape(x), c),
                   EndpointExponents(alpha, beta), f"jacobi({alpha},{beta})")


def jacobi_rows(alpha, beta):
    """a_0..a_{ROWS-1} and b_1..b_{ROWS-1} of x^alpha (1-x)^beta on
    [0, 1]: the rows of (1-u)^beta (1+u)^alpha on [-1, 1], mapped by
    x = (1+u)/2."""
    k = np.arange(ROWS, dtype=float)
    s = 2 * k + alpha + beta
    diag = np.empty(ROWS)
    diag[0] = (alpha - beta) / (alpha + beta + 2)
    diag[1:] = (alpha ** 2 - beta ** 2) / (s[1:] * (s[1:] + 2))
    k, s = k[1:], s[1:]
    off2 = (4 * k * (k + alpha) * (k + beta) * (k + alpha + beta)
            / (s ** 2 * (s + 1) * (s - 1)))
    return (diag + 1) / 2, np.sqrt(off2) / 2


def gauss_rule(a, b):
    nodes, vecs = np.linalg.eigh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))
    return nodes, vecs[0] ** 2


def run_recurrence(a, b, x, first, second):
    """Members 0..len(a)-1 at x, stacked along a new first axis, of the
    recurrence with the given first two members."""
    out = np.empty((len(a),) + np.shape(x))
    out[0], out[1] = first, second
    for n in range(1, len(a) - 1):
        out[n + 1] = ((x - a[n]) * out[n] - b[n - 1] * out[n - 1]) / b[n]
    return out


def orthonormal(a, b, x):
    return run_recurrence(a, b, x, 1.0, (x - a[0]) / b[0])


def coefficients(a, b, g):
    """<g, P_n> for n < TERMS, on the Gauss rule of (a, b)."""
    nodes, weights = gauss_rule(a, b)
    return orthonormal(a[:TERMS], b, nodes) @ (weights * g(nodes))


def oracle_T(a, b, f, x):
    secondary = run_recurrence(a[:TERMS], b, x, 0.0,
                               np.full(np.shape(x), 1 / b[0]))
    return coefficients(a, b, f) @ secondary


def codilated(b, t):
    """b with b_1 scaled by sqrt(t): the rows of J_t."""
    bt = b.copy()
    bt[0] *= math.sqrt(t)
    return bt


def oracle_solution(a, b, t, g, x):
    d = coefficients(a, codilated(b, t), g)
    return d[0] + math.sqrt(t) * (d[1:] @ orthonormal(a[:TERMS], b, x)[1:])


def oracle_V(a, b, t, f, x):
    c = coefficients(a, b, f)
    pt = orthonormal(a[:TERMS], codilated(b, t), x)
    return t * c[0] + math.sqrt(t) * (c[1:] @ pt[1:])


def _pole(x):
    return 1.0 / (x + 0.7)


@pytest.mark.parametrize("alpha, beta", PAIRS)
def test_T_matches_the_jacobi_matrix(alpha, beta):
    a, b = jacobi_rows(alpha, beta)
    expected = oracle_T(a, b, _pole, POINTS)
    got = apply_T(jacobi_density(alpha, beta), _pole, POINTS)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)


@pytest.mark.parametrize("alpha, beta, lam", [
    (0.5, 0.5, 0.7), (0.5, 0.5, 0.1), (0.5, 0.5, -0.2),
    (-0.4, 0.6, 0.7), (-0.4, 0.6, 0.1), (0.3, -0.45, 0.7),
    (0.3, -0.45, 0.1)])
def test_solver_matches_the_jacobi_matrix(alpha, beta, lam):
    a, b = jacobi_rows(alpha, beta)
    problem = IntegralEquationProblem(jacobi_density(alpha, beta), lam, np.exp)
    expected = oracle_solution(a, b, problem.t, np.exp, POINTS)
    got = solve_integral_equation(problem, POINTS)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0)


def test_oracle_against_closed_forms():
    # The oracle's own checks: the Gauss rule of (0.3, -0.45) integrates
    # 1, x and x^2 to the Beta-function moments, and on the uniform weight
    # T(1/(x + c)) = -ln(1 + 1/c) / (x + c).
    alpha, beta = 0.3, -0.45
    nodes, weights = gauss_rule(*jacobi_rows(alpha, beta))
    m1 = (alpha + 1) / (alpha + beta + 2)
    m2 = m1 * (alpha + 2) / (alpha + beta + 3)
    np.testing.assert_allclose([weights.sum(), weights @ nodes,
                                weights @ nodes ** 2], [1.0, m1, m2],
                               rtol=1e-13)
    np.testing.assert_allclose(oracle_T(*jacobi_rows(0.0, 0.0), _pole, POINTS),
                               -math.log(1 + 1 / 0.7) / (POINTS + 0.7),
                               rtol=2e-13, atol=0)


@pytest.mark.parametrize("alpha, beta, t", [
    (alpha, beta, t) for t in (0.5, 0.9) for alpha, beta in PAIRS]
    + [(0.5, 0.5, 1.3)])
@pytest.mark.parametrize("f", [_pole, np.exp], ids=["pole", "exp"])
def test_V_and_its_inverse_match_the_jacobi_matrix(alpha, beta, t, f):
    # At t = 1.3, rho_t of (0.5, 0.5) is a density ("empirical"), so J_t's
    # rule has no node off the support.
    a, b = jacobi_rows(alpha, beta)
    ctx = make_context(jacobi_density(alpha, beta), t)
    assert ctx.validity == ("proven" if t <= 1 else "empirical")
    np.testing.assert_allclose(apply_V(ctx, f, POINTS),
                               oracle_V(a, b, t, f, POINTS),
                               rtol=1e-9, atol=0)
    np.testing.assert_allclose(apply_V_inverse(ctx, f, POINTS),
                               oracle_solution(a, b, t, f, POINTS) / t,
                               rtol=1e-10, atol=0)
