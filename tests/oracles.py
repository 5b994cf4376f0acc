"""Independent numerical oracles used by the test suite.

Everything here deliberately avoids the library's closed-form code paths:
adaptive Gauss-Legendre quadrature, chunked Monte Carlo over explicit feature
draws, closed-form moments of a uniform sphere direction (themselves checked
against Monte Carlo), a cumulative-quadrature CDF for the frequency density,
the polynomial kernel part through bivariate Gaussian moments, a dense
discretization of the leverage integral operator, the dense Gram
factorization the structured grid estimator replaced, the symmetric-indefinite
saddle solve the null-space spline solve replaced, and the whole-array
feature and distance-term expressions the in-place feature maps and the
buffered distance term must reproduce bit for bit.
"""

from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg as sla
from scipy.special import gammaln

from splinerf.kernels import (KernelSpec, c_alpha, distance_kernel_matrix, kernel_matrix,
                              monomial_exponents, monomial_matrix)
from splinerf.regression import factor_spd

_GL_LOW = np.polynomial.legendre.leggauss(10)
_GL_HIGH = np.polynomial.legendre.leggauss(20)


def _gl_panel(f, a, b, nodes_weights):
    nodes, weights = nodes_weights
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * float(np.sum(weights * f(mid + half * nodes)))


def adaptive_gauss_legendre(f, a, b, tol=1e-13, max_depth=60, breakpoints=()):
    """Adaptive Gauss-Legendre integral of a vectorized callable on [a, b].

    Known non-smooth abscissae can be passed as breakpoints so they land on
    panel boundaries.  Panels are accepted when the whole-panel rule agrees
    with the sum over its halves at a fixed absolute tolerance, so only panels
    holding kinks or jumps recurse deep.
    """
    def recurse(lo, hi, depth):
        whole = _gl_panel(f, lo, hi, _GL_HIGH)
        mid = 0.5 * (lo + hi)
        split = _gl_panel(f, lo, mid, _GL_HIGH) + _gl_panel(f, mid, hi, _GL_HIGH)
        if abs(whole - split) <= tol or depth >= max_depth:
            return split
        return recurse(lo, mid, depth + 1) + recurse(mid, hi, depth + 1)

    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    return sum(recurse(lo, hi, 0) for lo, hi in zip(cuts[:-1], cuts[1:]))


def nn_kernel_quadrature(x, y, alpha, R, tol=1e-12):
    """Defining integral of the d = 1 kernel, both half-line activation signs."""
    def act(u):
        if alpha == 0:
            return (u > 0).astype(float)
        return np.maximum(u, 0.0) ** alpha

    def plus(b):
        return act(x - b) * act(y - b)

    def minus(b):
        return act(b - x) * act(b - y)

    cuts = (x, y)
    return (adaptive_gauss_legendre(plus, -R, R, tol, breakpoints=cuts)
            + adaptive_gauss_legendre(minus, -R, R, tol, breakpoints=cuts)) / (4.0 * R)


def mc_mean_stderr(sampler, n_total, chunk=1_000_000):
    """Streamed Monte Carlo mean and standard error of sampler(k) -> k values."""
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_total:
        k = min(chunk, n_total - done)
        vals = sampler(k)
        total += float(np.sum(vals))
        total_sq += float(np.sum(vals ** 2))
        done += k
    mean = total / n_total
    var = max(total_sq / n_total - mean ** 2, 0.0)
    return mean, np.sqrt(var / n_total)


def mc_nn_kernel(x, y, alpha, R, n_samples, rng, chunk=1_000_000):
    """Monte Carlo E[(w.x + b)_+^a (w.y + b)_+^a], (w, b) ~ sphere x U[-R, R]."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.size

    def sampler(k):
        g = rng.standard_normal((k, d))
        w = g / np.linalg.norm(g, axis=1, keepdims=True)
        b = rng.uniform(-R, R, k)
        fx = np.maximum(w @ x + b, 0.0)
        fy = np.maximum(w @ y + b, 0.0)
        if alpha == 0:
            return (fx > 0).astype(float) * (fy > 0)
        return fx ** alpha * fy ** alpha

    return mc_mean_stderr(sampler, n_samples, chunk)


def mc_arccos_kernel(x, y, alpha, R, n_samples, rng, chunk=1_000_000):
    """Monte Carlo with (w, b/R) uniform on the sphere in R^(d+1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d = x.size

    def sampler(k):
        g = rng.standard_normal((k, d + 1))
        v = g / np.linalg.norm(g, axis=1, keepdims=True)
        w, b = v[:, :d], R * v[:, d]
        fx = np.maximum(w @ x + b, 0.0)
        fy = np.maximum(w @ y + b, 0.0)
        if alpha == 0:
            return (fx > 0).astype(float) * (fy > 0)
        return fx ** alpha * fy ** alpha

    return mc_mean_stderr(sampler, n_samples, chunk)


def mc_sphere_projection_moment(fn, d, n_samples, rng, chunk=1_000_000):
    """Monte Carlo E[fn(w)] for w uniform on the unit sphere in R^d."""
    def sampler(k):
        g = rng.standard_normal((k, d))
        w = g / np.linalg.norm(g, axis=1, keepdims=True)
        return fn(w)

    return mc_mean_stderr(sampler, n_samples, chunk)


_MOMENT_KINDS = frozenset(
    {"abs_odd", "even_power", "quadratic", "bilinear", "bilinear_squared"}
)


def sphere_moment(kind: str, z, order: int = 0, t=None) -> float:
    """Closed-form moments of w uniform on the unit sphere in R^d (d = len(z)).

    kind:
      - "abs_odd":          E|w.z|^(2*order+1)
      - "even_power":       E[(w.z)^order] for even order
      - "quadratic":        E[(w.z)^2] = |z|^2 / d
      - "bilinear":         E[z.w w.t] = z.t / d
      - "bilinear_squared": E[(z.w w.t)^2] = (2 (z.t)^2 + |z|^2 |t|^2) / (d (d+2))
    """
    if kind not in _MOMENT_KINDS:
        raise ValueError(f"unknown moment kind {kind!r}")
    z = np.asarray(z, dtype=float)
    d = z.size
    if d < 1:
        raise ValueError("z must be a non-empty vector")
    if kind in ("bilinear", "bilinear_squared"):
        if t is None:
            raise ValueError(f"moment kind {kind!r} requires the second vector t")
        t = np.asarray(t, dtype=float)
        if t.size != d:
            raise ValueError("z and t must have the same dimension")
    nz = float(np.linalg.norm(z))
    if kind == "abs_odd":
        alpha = int(order)
        lg = gammaln(1 + alpha) + gammaln(d / 2.0) - gammaln(0.5) - gammaln(d / 2.0 + 0.5 + alpha)
        return nz ** (2 * alpha + 1) * float(np.exp(lg))
    if kind == "even_power":
        power = int(order)
        if power % 2 != 0 or power < 0:
            raise ValueError(f"even_power requires a non-negative even power, got {power}")
        alpha = power // 2
        lg = gammaln(0.5 + alpha) + gammaln(d / 2.0) - gammaln(0.5) - gammaln(d / 2.0 + alpha)
        return nz ** power * float(np.exp(lg))
    if kind == "quadratic":
        return nz ** 2 / d
    if kind == "bilinear":
        return float(z @ t) / d
    # bilinear_squared
    zt = float(z @ t)
    return (2.0 * zt ** 2 + nz ** 2 * float(t @ t)) / (d * (d + 2))


def tau_cdf_by_quadrature(R, tau_max=3000.0, n_grid=600_001):
    """CDF of sin^2(R t)/(pi R t^2) by cumulative Simpson + analytic tail.

    Beyond tau_max the density is integrated as ~1/(2 pi R t); the returned
    callable is accurate to ~1e-7 on the grid and ~1e-6 in the tails.
    """
    t = np.linspace(0.0, tau_max, n_grid)
    p = np.empty_like(t)
    p[0] = R / np.pi
    p[1:] = np.sin(R * t[1:]) ** 2 / (np.pi * R * t[1:] ** 2)
    h = t[1] - t[0]
    # composite Simpson needs an odd grid; n_grid is odd by construction
    half = np.zeros_like(t)
    half[1:] = np.cumsum(h / 6.0 * (p[:-1] + 4.0 * np.sin(R * (t[:-1] + h / 2)) ** 2
                                    / (np.pi * R * np.maximum(t[:-1] + h / 2, 1e-30) ** 2)
                                    + p[1:]))
    tail_mass = 0.5 - half[-1]

    def cdf(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        inside = np.interp(ax, t, half)
        # asymptotic tail: int_T^inf p ~ 1/(2 pi R T) with T = |x|
        outside = 0.5 - 1.0 / (2.0 * np.pi * R * np.maximum(ax, tau_max))
        pos_half = np.where(ax <= tau_max, inside, outside)
        return 0.5 + np.sign(x) * pos_half

    return cdf, tail_mass


def k1_pol(x, y, alpha, R):
    """Polynomial kernel part in dimension one, O(alpha^2) double sum.

    Equals (1/4R) * integral of (x-b)^alpha (y-b)^alpha over b in [-R, R].
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = 0.0
    for s in range(alpha + 1):
        inner = 0.0
        for i in range(max(0, 2 * s - alpha), min(alpha, 2 * s) + 1):
            j = 2 * s - i
            inner = inner + comb(alpha, i) * comb(alpha, j) * x ** i * y ** j
        total = total + R ** (2 * alpha - 2 * s) / (2 * alpha + 1 - 2 * s) * inner
    return 0.5 * total


def _chi_moment(d, k):
    # E |g|^k for g standard Gaussian in R^d.
    return float(np.exp(0.5 * k * np.log(2.0) + gammaln((d + k) / 2.0) - gammaln(d / 2.0)))


def _gauss_mixed_moments(a, b, c, kmax):
    """Raw moments E[U^i V^j] of a centred Gaussian pair, cov [[a, c], [c, b]].

    Isserlis recursion E[U^i V^j] = (i-1) a E[U^(i-2) V^j] + j c E[U^(i-1) V^(j-1)].
    a, b, c may be arrays; the table holds arrays of the same shape.
    """
    one = np.ones_like(np.asarray(a, dtype=float))
    table = [[None] * (kmax + 1) for _ in range(kmax + 1)]
    table[0][0] = one
    for i in range(kmax + 1):
        for j in range(kmax + 1):
            if i == 0 and j == 0:
                continue
            if (i + j) % 2 == 1:
                table[i][j] = np.zeros_like(one)
            elif i == 0:
                table[i][j] = (j - 1) * b * table[0][j - 2]
            else:
                acc = np.zeros_like(one)
                if i >= 2:
                    acc = acc + (i - 1) * a * table[i - 2][j]
                if j >= 1:
                    acc = acc + j * c * table[i - 1][j - 1]
                table[i][j] = acc
    return table


def pol_kernel_gaussian(Xa, Xb, alpha, R):
    """Polynomial kernel part k_pol(Xa[i], Xb[j]) from |x|^2, |y|^2 and x.y.

    The sphere moment E_u[(u.x)^i (u.y)^j] is the Gaussian moment of
    (g.x, g.y), g standard normal, from the Isserlis recursion, divided by the
    chi moment E|g|^(i + j).  Shares no code with the monomial form.
    """
    Xa = np.atleast_2d(np.asarray(Xa, dtype=float))
    Xb = np.atleast_2d(np.asarray(Xb, dtype=float))
    d = Xa.shape[1]
    sq_a = np.einsum("ij,ij->i", Xa, Xa)[:, None]
    sq_b = np.einsum("ij,ij->i", Xb, Xb)[None, :]
    dot = Xa @ Xb.T
    moments = _gauss_mixed_moments(sq_a, sq_b, dot, alpha)
    total = np.zeros_like(dot)
    for s in range(alpha + 1):
        inner = 0.0
        chi = _chi_moment(d, 2 * s)
        for i in range(max(0, 2 * s - alpha), min(alpha, 2 * s) + 1):
            j = 2 * s - i
            inner = inner + comb(alpha, i) * comb(alpha, j) * moments[i][j] / chi
        total = total + R ** (2 * alpha - 2 * s) / (2 * alpha + 1 - 2 * s) * inner
    return 0.5 * total


@dataclass(frozen=True)
class GridFunction:
    """Function sampled on a grid; calling it interpolates linearly."""

    x: np.ndarray
    values: np.ndarray

    def __call__(self, t):
        return np.interp(t, self.x, self.values)


def _trapezoid_weights(n):
    w = np.full(n, 2.0 / (n - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _regularized_operator(lam, n):
    """Grid, trapezoid weights and the dense matrix of S + lam I on [-1, 1]."""
    lam = float(lam)
    if not lam > 0:
        raise ValueError(f"regularization lambda must be positive, got {lam}")
    if n < 16:
        raise ValueError(f"operator grid needs n >= 16 points, got {n}")
    x = np.linspace(-1.0, 1.0, n)
    w = _trapezoid_weights(n)
    K = 0.5 - 0.25 * np.abs(x[:, None] - x[None, :])
    return x, w, K * (w[None, :] / 2.0) + lam * np.eye(n)


def solve_regularized_operator(g, lam, n=4096):
    """Solve (S + lam I) f = g on [-1, 1] by trapezoid discretization of S.

    S f(x) = 1/4 int f - 1/8 int |x - y| f(y) dy is the integral operator of
    the alpha = 0, d = 1 kernel, materialized as the dense matrix K_ij w_j / 2
    and solved directly, independent of the closed forms and the grid estimator.
    """
    x, _, M = _regularized_operator(lam, n)
    gv = np.asarray(g(x), dtype=float)
    f = sla.solve(M, gv, check_finite=False)
    return GridFunction(x=x, values=f)


def oracle_leverage(g, lam, n=4096):
    """Leverage score <g, (S + lam I)^{-1} g> / |measure| via the operator solve."""
    return float(oracle_leverages([g], lam, n)[0])


def oracle_leverages(gs, lam, n=4096):
    """oracle_leverage of each callable in gs, from one multi-right-hand-side solve."""
    x, w, M = _regularized_operator(lam, n)
    G = np.column_stack([np.asarray(g(x), dtype=float) for g in gs])
    F = sla.solve(M, G, check_finite=False)
    return 0.5 * np.sum(w[:, None] * G * F, axis=0)


def dense_grid_leverage(grid, lam, Phi):
    """phi^T (K + n lam I)^{-1} phi for each column of Phi, from the dense Gram.

    The dense path the structured grid estimator is checked against: the
    alpha = 0, d = 1 Gram from kernel_matrix, factored by factor_spd, each
    column solved on its own.
    """
    grid = np.asarray(grid, dtype=float)
    K = kernel_matrix(grid[:, None], grid[:, None], KernelSpec(0, 1, 1.0))
    factor = factor_spd(K, grid.size * lam)
    return np.array([phi @ factor.solve(phi) for phi in np.asarray(Phi, dtype=float).T])


def nn_features_reference(X, directions, biases, alpha):
    """Power-ReLU features as whole-array expressions, one temporary per step."""
    pre = X @ directions.T + biases[None, :]
    if alpha == 0:
        return (pre > 0).astype(float)
    return np.maximum(pre, 0) ** alpha


def fourier_features_reference(X, omegas):
    """cos and sin of the phases, computed apart and concatenated."""
    phase = X @ omegas.T
    return np.concatenate([np.cos(phase), np.sin(phase)], axis=1)


def distance_term_reference(Xa, Xb, spec):
    """c(alpha, d) |a - b|^(2 alpha + 1) / R over all pairs as one whole-block expression."""
    A, B = Xa[:, None, :], Xb[None, :, :]
    dist = np.sqrt(sum((A[..., j] - B[..., j]) ** 2 for j in range(spec.d)))
    return c_alpha(spec) * dist ** (2 * spec.alpha + 1) / spec.R


def saddle_solve(X, y, spec, shift):
    """Constrained spline coefficients from the saddle system, solved as a whole:
    [[K + shift I, Phi], [Phi^T, 0]] [lambda; nu] = [y; 0] with the symmetrized
    distance kernel K, factored by LAPACK's symmetric-indefinite solver."""
    n = X.shape[0]
    Phi = monomial_matrix(X, monomial_exponents(spec.d, spec.alpha))
    r = Phi.shape[1]
    K = distance_kernel_matrix(X, X, spec)
    K = 0.5 * (K + K.T)
    A = np.zeros((n + r, n + r))
    A[:n, :n] = K + shift * np.eye(n)
    A[:n, n:] = Phi
    A[n:, :n] = Phi.T
    sol = sla.solve(A, np.concatenate([y, np.zeros((r,) + y.shape[1:])]), assume_a="sym",
                    check_finite=False)
    return sol[:n], sol[n:]
