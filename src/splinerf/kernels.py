"""Closed-form spline kernels on the Euclidean ball and their building blocks.

The main kernel splits as k = k_pol + c(alpha, d) * |x - y|^(2*alpha + 1) / R.
The polynomial part has degree <= alpha in each argument, so on the monomial
basis M of degree <= alpha (C(d + alpha, alpha) columns, the same basis the
constrained spline solve uses) it is exactly k_pol(Xa, Xb) = M(Xa) C M(Xb)^T,
with an r x r coefficient matrix C built once per KernelSpec from exact
sphere moments.  No sampling is involved.  Every evaluator forms |x - y| from
exact coordinate differences in one helper, so the distance term is exactly 0
at x = y, and SciPy's spatial module is never imported.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import numpy as np
from scipy.special import gammaln

__all__ = [
    "UnsupportedOrderError",
    "KernelSpec",
    "Derivative1DProfile",
    "c_alpha",
    "spline_fourier_constant",
    "monomial_exponents",
    "monomial_matrix",
    "kernel_pairs",
    "kd",
    "arccos_kernel",
    "kernel_matrix",
    "distance_kernel_matrix",
    "make_profile",
    "rkhs_norm_1d",
]

KERNEL_KINDS = ("nn", "arccos", "pol_only")
DISTANCE_BLOCK_ENTRIES = 2 ** 15  # distance-term entries per row block: small temporaries


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


def _log_gamma_ratio(a: int, d: int) -> float:
    """log Gamma(a+1)^3 Gamma(d/2) / (Gamma(2a+2) Gamma(d/2+1/2+a)): finite for large a + d."""
    return 3.0 * gammaln(a + 1) + gammaln(d / 2.0) - gammaln(2 * a + 2) - gammaln(d / 2.0 + 0.5 + a)


def c_alpha(spec: KernelSpec) -> float:
    """Distance-term coefficient; sign is (-1)^(alpha + 1)."""
    lg = _log_gamma_ratio(spec.alpha, spec.d)
    return (-1.0) ** (spec.alpha + 1) * float(np.exp(lg)) / (4.0 * np.sqrt(np.pi))


def spline_fourier_constant(spec: KernelSpec) -> float:
    """Positive constant b(alpha, d) scaling the |omega|^-(d+1+2 alpha) transform."""
    a, d = spec.alpha, spec.d
    lg = _log_gamma_ratio(a, d)
    # |c| * 2^(d+1+2a) * pi^(d/2-1) * Gamma(a+3/2) * Gamma(d/2+1/2+a); signs cancel.
    lg_b = (lg + (d + 1 + 2 * a) * np.log(2.0) + (d / 2.0 - 1.0) * np.log(np.pi)
            + gammaln(a + 1.5) + gammaln(d / 2.0 + 0.5 + a))
    return float(np.exp(lg_b)) / (4.0 * np.sqrt(np.pi))


def monomial_exponents(d: int, max_degree: int):
    """Multi-indices of total degree <= max_degree, graded lexicographic order."""
    exps = []
    for degree in range(max_degree + 1):
        for combo in combinations_with_replacement(range(d), degree):
            e = [0] * d
            for idx in combo:
                e[idx] += 1
            exps.append(tuple(e))
    return exps


def monomial_matrix(X, exponents) -> np.ndarray:
    """M[i, k] = prod_j X[i, j] ** exponents[k][j], shape (n, len(exponents))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    E = np.asarray(exponents, dtype=np.int64).reshape(len(exponents), X.shape[1])
    powers = X[:, :, None] ** np.arange(E.max(initial=0) + 1)  # powers[i, j, k] = X[i, j] ** k
    # the gather leaves M transposed in memory, and BLAS rounds M @ C by layout
    return np.ascontiguousarray(np.prod(powers[:, np.arange(X.shape[1]), E], axis=2))


@lru_cache(maxsize=32)
def _pol_coefficients(spec: KernelSpec):
    """Exponents E (r x d) and the r x r matrix C with k_pol(x, y) = M(x) C M(y)^T.

    Expanding (u.x)^i (u.y)^j over monomials in the sphere-moment form
    k_pol = 1/2 sum_(i, j <= alpha) R^(2 alpha - i - j) / (2 alpha + 1 - i - j)
            C(alpha, i) C(alpha, j) E_u[(u.x)^i (u.y)^j]
    gives C[e, f] = 1/2 R^(2 alpha - 2s) / (2 alpha + 1 - 2s) C(alpha, |e|)
    C(alpha, |f|) multinom(e) multinom(f) E_u[u^(e + f)] with 2s = |e| + |f|.
    For u uniform on the unit sphere, E_u[u^k] = prod_j (k_j - 1)!! /
    prod_(t < |k|/2) (d + 2t) when every k_j is even, and 0 otherwise.
    Cached per spec; the arrays are read-only since every caller shares them.
    """
    a, d = spec.alpha, spec.d
    exps = monomial_exponents(d, a)
    E = np.array(exps, dtype=np.int64)
    weight = np.array([comb(a, sum(e)) * factorial(sum(e)) // prod(map(factorial, e))
                       for e in exps], dtype=float)
    # (k - 1)!! at even k, 0 at odd k, for each exponent 0..2 alpha of one coordinate
    even_moment = np.array([prod(range(k - 1, 0, -2)) if k % 2 == 0 else 0
                            for k in range(2 * a + 1)], dtype=float)
    rising = np.cumprod([1.0] + [d + 2.0 * t for t in range(a)])
    K = E[:, None, :] + E[None, :, :]
    s = K.sum(axis=2) // 2
    moment = even_moment[K].prod(axis=2) / rising[s]  # E_u[u^(e + f)]
    C = 0.5 * spec.R ** (2 * a - 2 * s) / (2 * a + 1 - 2 * s) * np.outer(weight, weight) * moment
    E.setflags(write=False)
    C.setflags(write=False)
    return E, C


def _pol_part(Xa, Xb, spec: KernelSpec) -> np.ndarray:
    """k_pol(Xa[i], Xb[j]) as M(Xa) C M(Xb)^T on the shared monomial basis."""
    E, C = _pol_coefficients(spec)
    return monomial_matrix(Xa, E) @ C @ monomial_matrix(Xb, E).T


def _as_points(X, d: int, finite: bool = False) -> np.ndarray:
    """Points as an (n, d) float array; empty input must still have d columns."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"points have shape {X.shape}, expected (n, {d})")
    if finite and not np.isfinite(X).all():
        raise ValueError("points must be finite")
    return X


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


def _distance_term(A, B, spec: KernelSpec, out=None, tmp=None) -> np.ndarray:
    """c(alpha, d) |a - b|^(2 alpha + 1) / R over the broadcast of A and B, shape (..., d),
    computed in out, with tmp for the later squares (buffers of the broadcast shape, or None)."""
    out = np.subtract(A[..., 0], B[..., 0], out=out)
    np.square(out, out=out)
    for j in range(1, spec.d):
        tmp = np.subtract(A[..., j], B[..., j], out=tmp)
        out += np.square(tmp, out=tmp)
    np.sqrt(out, out=out)
    np.power(out, 2 * spec.alpha + 1, out=out)
    out *= c_alpha(spec)
    out /= spec.R
    return out


def _add_distance_term(out, Xa, Xb, spec: KernelSpec) -> np.ndarray:
    """out[i, j] += the distance term of Xa[i] and Xb[j], a block of rows at a time."""
    step = max(1, DISTANCE_BLOCK_ENTRIES // max(1, len(Xb)))
    block, tmp = np.empty((2, min(step, len(Xa)), len(Xb)))
    for i in range(0, len(Xa), step):
        rows = min(step, len(Xa) - i)
        out[i:i + rows] += _distance_term(Xa[i:i + rows, None, :], Xb[None, :, :], spec,
                                          block[:rows], tmp[:rows])
    return out


def _validated(Xa, Xb, spec: KernelSpec, kind: str):
    if kind not in KERNEL_KINDS:
        raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {kind!r}")
    return _as_points(Xa, spec.d), _as_points(Xb, spec.d)


def kernel_pairs(Xa, Xb, spec: KernelSpec, kind: str = "nn") -> np.ndarray:
    """Row-wise kernel values K[i] = k(Xa[i], Xb[i]) for the chosen kernel kind."""
    Xa, Xb = _validated(Xa, Xb, spec, kind)
    if Xa.shape != Xb.shape:
        raise ValueError(f"paired points need equal shapes, got {Xa.shape} and {Xb.shape}")
    if kind == "arccos":
        return _arccos_from_products(np.einsum("ij,ij->i", Xa, Xa), np.einsum("ij,ij->i", Xb, Xb),
                                     np.einsum("ij,ij->i", Xa, Xb), spec)
    E, C = _pol_coefficients(spec)
    pol = np.einsum("ij,ij->i", monomial_matrix(Xa, E) @ C, monomial_matrix(Xb, E))
    if kind == "pol_only":
        return pol
    return pol + _distance_term(Xa, Xb, spec)


def kd(x, y, spec: KernelSpec) -> float:
    """Full kernel value k_pol(x, y) + c(alpha, d) |x - y|^(2 alpha + 1) / R."""
    return float(kernel_pairs(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)), spec)[0])


def arccos_kernel(x, y, spec: KernelSpec) -> float:
    """Rotation-invariant kernel of the fully spherical weight normalization."""
    return float(kernel_pairs(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)), spec, "arccos")[0])


def kernel_matrix(Xa, Xb, spec: KernelSpec, kind: str = "nn") -> np.ndarray:
    """Cross kernel matrix K[i, j] = k(Xa[i], Xb[j]) for the chosen kernel kind."""
    Xa, Xb = _validated(Xa, Xb, spec, kind)
    if kind == "arccos":
        sq_a = np.einsum("ij,ij->i", Xa, Xa)[:, None]
        sq_b = np.einsum("ij,ij->i", Xb, Xb)[None, :]
        return np.asarray(_arccos_from_products(sq_a, sq_b, Xa @ Xb.T, spec))
    pol = _pol_part(Xa, Xb, spec)
    return pol if kind == "pol_only" else _add_distance_term(pol, Xa, Xb, spec)


def distance_kernel_matrix(Xa, Xb, spec: KernelSpec) -> np.ndarray:
    """Conditionally positive distance kernel c(alpha, d) |x - y|^(2 alpha + 1) / R.

    The distance term of kernel_matrix on its own, exactly 0 where Xa[i] = Xb[j].
    """
    Xa, Xb = _as_points(Xa, spec.d), _as_points(Xb, spec.d)
    return _add_distance_term(np.zeros((len(Xa), len(Xb))), Xa, Xb, spec)


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
