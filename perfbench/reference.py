"""Reference values the benchmark gates on, computed without splinerf.

The spline kernel on the radius-R ball is

    k(x, y) = k_pol(x, y) + c(alpha, d) |x - y|^(2 alpha + 1) / R,
    k_pol   = 1/2 sum_s R^(2 alpha - 2 s) / (2 alpha + 1 - 2 s)
                  sum_(i + j = 2 s) C(alpha, i) C(alpha, j) E_u[(u.x)^i (u.y)^j],

with u uniform on the unit sphere.  The sphere moment is a Gaussian moment
divided by the chi moment E|g|^(i + j); here the Gaussian moment is summed
over Wick pairings in closed form, where the package uses a recursion.

The leverage reference discretizes the integral operator of the alpha = 0,
d = 1 kernel on [-1, 1] with the trapezoid rule and solves (S + lam I) f = g
densely; it shares no code with the closed forms or the grid estimator.
"""

from __future__ import annotations

from math import comb, exp, factorial, lgamma, log, pi, sqrt

import numpy as np


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def _gauss_moment(i: int, j: int, a, b, c):
    """E[U^i V^j] for a centred Gaussian pair with cov [[a, c], [c, b]]."""
    total = 0.0
    for k in range(min(i, j) + 1):
        if (i - k) % 2 or (j - k) % 2:
            continue
        weight = (comb(i, k) * comb(j, k) * factorial(k)
                  * _double_factorial(i - k - 1) * _double_factorial(j - k - 1))
        total = total + weight * c ** k * a ** ((i - k) // 2) * b ** ((j - k) // 2)
    return total


def _chi_moment(d: int, k: int) -> float:
    return exp(0.5 * k * log(2.0) + lgamma((d + k) / 2.0) - lgamma(d / 2.0))


def distance_coefficient(alpha: int, d: int) -> float:
    """c(alpha, d) = (-1)^(alpha+1) alpha!^3 Gamma(d/2) / (4 sqrt(pi) (2 alpha + 1)! Gamma(d/2 + 1/2 + alpha))."""
    lg = (3.0 * lgamma(alpha + 1) + lgamma(d / 2.0)
          - lgamma(2 * alpha + 2) - lgamma(d / 2.0 + 0.5 + alpha))
    return (-1.0) ** (alpha + 1) * exp(lg) / (4.0 * sqrt(pi))


def spline_kernel_terms(X, Y, alpha: int, R: float):
    """Polynomial part and distance term of k(X[p], Y[p]) for each row pair p."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    d = X.shape[1]
    sq_x = np.einsum("ij,ij->i", X, X)
    sq_y = np.einsum("ij,ij->i", Y, Y)
    dot = np.einsum("ij,ij->i", X, Y)
    pol = np.zeros(X.shape[0])
    for s in range(alpha + 1):
        inner = np.zeros(X.shape[0])
        for i in range(max(0, 2 * s - alpha), min(alpha, 2 * s) + 1):
            j = 2 * s - i
            inner += comb(alpha, i) * comb(alpha, j) * _gauss_moment(i, j, sq_x, sq_y, dot)
        pol += R ** (2 * alpha - 2 * s) / (2 * alpha + 1 - 2 * s) * inner / _chi_moment(d, 2 * s)
    pol *= 0.5
    dist = np.sqrt(np.sum((X - Y) ** 2, axis=1))
    return pol, distance_coefficient(alpha, d) * dist ** (2 * alpha + 1) / R


def leverage_operator_scores(features, lam: float, n: int = 4096) -> np.ndarray:
    """<g, (S + lam I)^(-1) g> / 2 for each column g of features(x), x the trapezoid nodes.

    S f(x) = 1/4 int f - 1/8 int |x - y| f(y) dy on [-1, 1]; features maps the
    (n,) node array to an (n, k) matrix of feature values.
    """
    x = np.linspace(-1.0, 1.0, n)
    w = np.full(n, 2.0 / (n - 1))
    w[[0, -1]] *= 0.5
    M = (0.5 - 0.25 * np.abs(x[:, None] - x[None, :])) * (w[None, :] / 2.0)
    M[np.diag_indices(n)] += lam
    G = features(x)
    F = np.linalg.solve(M, G)
    del M
    return 0.5 * np.einsum("i,ij,ij->j", w, G, F)
