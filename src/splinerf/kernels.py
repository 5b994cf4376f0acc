"""Closed-form spline kernels on the Euclidean ball and their building blocks.

The main kernel splits as k = k_pol + c(alpha, d) * |x - y|^(2*alpha + 1) / R.
The polynomial part is evaluated for every (alpha, d) by reducing sphere
moments to bivariate Gaussian moments (Isserlis recursion divided by the
chi moment E|g|^k), which reproduces the displayed alpha <= 2 forms exactly
and needs no sampling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np
from scipy.special import gammaln

__all__ = [
    "UnsupportedOrderError",
    "KernelSpec",
    "GramMatrix",
    "Derivative1DProfile",
    "c_alpha",
    "spline_fourier_constant",
    "k1_pol",
    "kd_pol",
    "kd",
    "arccos_kernel",
    "kernel_matrix",
    "distance_kernel_matrix",
    "gram",
    "make_profile",
    "rkhs_norm_1d",
]

KERNEL_KINDS = ("nn", "arccos", "pol_only")


class UnsupportedOrderError(ValueError):
    """The requested activation power has no closed form in this code path."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family instance: activation power alpha, dimension d, ball radius R."""

    alpha: int
    d: int
    R: float = 1.0

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be a natural number, got {self.alpha}")
        if self.d < 1:
            raise ValueError(f"dimension must be >= 1, got {self.d}")
        if self.R <= 0:
            raise ValueError(f"radius must be positive, got {self.R}")


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric kernel matrix with the jitter added to its diagonal."""

    entries: np.ndarray
    jitter: float = 0.0
    n_outside_ball: int = 0


def c_alpha(spec: KernelSpec) -> float:
    """Distance-term coefficient; sign is (-1)^(alpha + 1).

    Ratios of Gamma functions go through log-Gamma so large alpha + d stay finite.
    """
    a, d = spec.alpha, spec.d
    lg = (3.0 * gammaln(a + 1) + gammaln(d / 2.0)
          - gammaln(2 * a + 2) - gammaln(d / 2.0 + 0.5 + a))
    return (-1.0) ** (a + 1) * float(np.exp(lg)) / (4.0 * np.sqrt(np.pi))


def spline_fourier_constant(spec: KernelSpec) -> float:
    """Positive constant b(alpha, d) scaling the |omega|^-(d+1+2 alpha) transform."""
    a, d = spec.alpha, spec.d
    lg = (3.0 * gammaln(a + 1) + gammaln(d / 2.0)
          - gammaln(2 * a + 2) - gammaln(d / 2.0 + 0.5 + a))
    # |c| * 2^(d+1+2a) * pi^(d/2-1) * Gamma(a+3/2) * Gamma(d/2+1/2+a); signs cancel.
    lg_b = (lg + (d + 1 + 2 * a) * np.log(2.0) + (d / 2.0 - 1.0) * np.log(np.pi)
            + gammaln(a + 1.5) + gammaln(d / 2.0 + 0.5 + a))
    return float(np.exp(lg_b)) / (4.0 * np.sqrt(np.pi))


def k1_pol(x, y, alpha: int, R: float):
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


def _chi_moment(d: int, k: int) -> float:
    # E |g|^k for g standard Gaussian in R^d.
    return float(np.exp(0.5 * k * np.log(2.0) + gammaln((d + k) / 2.0) - gammaln(d / 2.0)))


def _gauss_mixed_moments(a, b, c, kmax: int):
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


def _pol_from_products(sq_x, sq_y, dot_xy, alpha: int, d: int, R: float):
    """Polynomial kernel part from |x|^2, |y|^2 and x.y (arrays allowed)."""
    moments = _gauss_mixed_moments(sq_x, sq_y, dot_xy, alpha)
    total = 0.0
    for s in range(alpha + 1):
        inner = 0.0
        chi = _chi_moment(d, 2 * s)
        for i in range(max(0, 2 * s - alpha), min(alpha, 2 * s) + 1):
            j = 2 * s - i
            inner = inner + comb(alpha, i) * comb(alpha, j) * moments[i][j] / chi
        total = total + R ** (2 * alpha - 2 * s) / (2 * alpha + 1 - 2 * s) * inner
    return 0.5 * total


def _as_points(X, d: int) -> np.ndarray:
    """Points as an (n, d) float array; empty input must still have d columns."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"points have shape {X.shape}, expected (n, {d})")
    return X


def _as_vector(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != d:
        raise ValueError(f"expected vectors of dimension {d}, got {x.size}")
    return x


def kd_pol(x, y, spec: KernelSpec) -> float:
    """Polynomial kernel part on the ball, any alpha and d."""
    x, y = _as_vector(x, spec.d), _as_vector(y, spec.d)
    return float(_pol_from_products(x @ x, y @ y, x @ y, spec.alpha, spec.d, spec.R))


def kd(x, y, spec: KernelSpec) -> float:
    """Full kernel value k_pol(x, y) + c(alpha, d) |x - y|^(2 alpha + 1) / R."""
    x, y = _as_vector(x, spec.d), _as_vector(y, spec.d)
    dist = float(np.linalg.norm(x - y))
    return kd_pol(x, y, spec) + c_alpha(spec) * dist ** (2 * spec.alpha + 1) / spec.R


def _arccos_from_products(sq_x, sq_y, dot_xy, spec: KernelSpec):
    R2 = spec.R ** 2
    s2x = sq_x + R2
    s2y = sq_y + R2
    # joint square root keeps cos(phi) exactly 1 at x = y
    denom = np.sqrt(s2x * s2y)
    cos_phi = np.clip((dot_xy + R2) / denom, -1.0, 1.0)
    phi = np.arccos(cos_phi)
    sin_phi = np.sqrt(np.clip(1.0 - cos_phi ** 2, 0.0, None))
    d = spec.d
    if spec.alpha == 0:
        return (np.pi - phi) / (2.0 * np.pi)
    if spec.alpha == 1:
        return denom / (2.0 * np.pi * (d + 1)) * (sin_phi + (np.pi - phi) * cos_phi)
    if spec.alpha == 2:
        return s2x * s2y / (2.0 * np.pi * (d + 1) * (d + 3)) * (
            3.0 * sin_phi * cos_phi + (np.pi - phi) * (1.0 + 2.0 * cos_phi ** 2)
        )
    raise UnsupportedOrderError(f"arc-cosine kernel implemented for alpha <= 2, got {spec.alpha}")


def arccos_kernel(x, y, spec: KernelSpec) -> float:
    """Rotation-invariant kernel of the fully spherical weight normalization."""
    x, y = _as_vector(x, spec.d), _as_vector(y, spec.d)
    return float(_arccos_from_products(x @ x, y @ y, x @ y, spec))


def kernel_matrix(Xa, Xb, spec: KernelSpec, kind: str = "nn") -> np.ndarray:
    """Cross kernel matrix K[i, j] = k(Xa[i], Xb[j]) for the chosen kernel kind."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {kind!r}")
    Xa = _as_points(Xa, spec.d)
    Xb = _as_points(Xb, spec.d)
    sq_a = np.einsum("ij,ij->i", Xa, Xa)[:, None]
    sq_b = np.einsum("ij,ij->i", Xb, Xb)[None, :]
    dot = Xa @ Xb.T
    if kind == "arccos":
        return np.asarray(_arccos_from_products(sq_a, sq_b, dot, spec))
    pol = np.asarray(_pol_from_products(sq_a, sq_b, dot, spec.alpha, spec.d, spec.R))
    pol = np.broadcast_to(pol, dot.shape).copy()
    if kind == "pol_only":
        return pol
    # Same operations in the same order as the expression
    # pol + c * sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0))^(2 alpha + 1) / R,
    # but in place, so `dist` is the only array allocated after `pol`.
    dist = sq_a + sq_b
    dot *= 2.0
    dist -= dot
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    np.power(dist, 2 * spec.alpha + 1, out=dist)
    dist *= c_alpha(spec)
    dist /= spec.R
    pol += dist
    return pol


def distance_kernel_matrix(Xa, Xb, spec: KernelSpec) -> np.ndarray:
    """Conditionally positive distance kernel c(alpha, d) |x - y|^(2 alpha + 1) / R."""
    Xa = _as_points(Xa, spec.d)
    Xb = _as_points(Xb, spec.d)
    diff = Xa[:, None, :] - Xb[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    return c_alpha(spec) * dist ** (2 * spec.alpha + 1) / spec.R


def gram(points, spec: KernelSpec, kind: str = "nn", jitter: float = 0.0) -> GramMatrix:
    """Symmetric Gram matrix over a point set, jitter added to the diagonal.

    Points outside the closed ball are evaluated formally and counted in
    ``n_outside_ball`` with a warning, not an error.
    """
    X = _as_points(points, spec.d)
    if X.shape[0] == 0:
        raise ValueError("gram requires at least one point")
    if jitter < 0:
        raise ValueError(f"jitter must be non-negative, got {jitter}")
    norms = np.linalg.norm(X, axis=1)
    n_outside = int(np.sum(norms > spec.R * (1.0 + 1e-12)))
    if n_outside:
        warnings.warn(f"{n_outside} point(s) outside the radius-{spec.R} ball; "
                      "kernel evaluated formally", stacklevel=2)
    K = kernel_matrix(X, X, spec, kind=kind)
    K = 0.5 * (K + K.T)
    if jitter:
        K = K + jitter * np.eye(K.shape[0])
    return GramMatrix(entries=K, jitter=float(jitter), n_outside_ball=n_outside)


@dataclass(frozen=True)
class Derivative1DProfile:
    """Boundary derivatives and top-derivative samples of a function on [-R, R].

    boundary_low[i] = f^(i)(-R) and boundary_high[i] = f^(i)(R) for i = 0..alpha;
    top_derivative holds f^(alpha+1) sampled on grid (>= 2 nodes covering [-R, R]).
    """

    boundary_low: np.ndarray
    boundary_high: np.ndarray
    grid: np.ndarray
    top_derivative: np.ndarray

    def __post_init__(self):
        if self.grid.size < 2 or self.grid.size != self.top_derivative.size:
            raise ValueError("profile needs >= 2 quadrature samples matching the grid")
        if self.boundary_low.size != self.boundary_high.size:
            raise ValueError("boundary derivative lists must have equal length")


def make_profile(derivatives, R: float, n: int = 8193) -> Derivative1DProfile:
    """Build a profile from callables [f, f', ..., f^(alpha+1)] on [-R, R]."""
    if len(derivatives) < 2:
        raise ValueError("need at least f and f' to build a profile")
    grid = np.linspace(-R, R, n)
    low = np.array([float(f(-R)) for f in derivatives[:-1]])
    high = np.array([float(f(R)) for f in derivatives[:-1]])
    top = np.asarray(derivatives[-1](grid), dtype=float)
    return Derivative1DProfile(boundary_low=low, boundary_high=high,
                               grid=grid, top_derivative=top)


def rkhs_norm_1d(profile: Derivative1DProfile, alpha: int, R: float) -> float:
    """Squared RKHS norm of a function on [-R, R] for alpha in {0, 1}.

    alpha = 0:  2R int f'^2 + [f(-R) + f(R)]^2
    alpha = 1:  2R int f''^2 + [f'(R) + f'(-R)]^2
                + (3/R^2) [f(-R) + f(R) - R f'(R) + R f'(-R)]^2

    The boundary form is the minimal representation cost over the polynomial
    slack; with these coefficients the squared norm of a kernel section
    k(., y) equals k(y, y).
    """
    if alpha not in (0, 1):
        raise UnsupportedOrderError(
            f"explicit boundary quadratic form only known for alpha <= 1, got {alpha}")
    if profile.boundary_low.size != alpha + 1:
        raise ValueError(f"profile carries {profile.boundary_low.size} boundary orders, "
                         f"alpha={alpha} needs {alpha + 1}")
    bulk = 2.0 * R * float(np.trapezoid(profile.top_derivative ** 2, profile.grid))
    f_lo, f_hi = profile.boundary_low, profile.boundary_high
    if alpha == 0:
        return bulk + (f_lo[0] + f_hi[0]) ** 2
    boundary = (f_hi[1] + f_lo[1]) ** 2
    bracket = f_lo[0] + f_hi[0] - R * f_hi[1] + R * f_lo[1]
    return bulk + boundary + 3.0 / R ** 2 * bracket ** 2
