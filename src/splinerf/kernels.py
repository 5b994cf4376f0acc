"""Closed-form spline kernels on the Euclidean ball and their building blocks.

The main kernel splits as k = k_pol + c(alpha, d) * |x - y|^(2*alpha + 1) / R.
The polynomial part has degree <= alpha in each argument, so on the monomial
basis M of degree <= alpha (C(d + alpha, alpha) columns, the same basis the
constrained spline solve uses) it is exactly k_pol(Xa, Xb) = M(Xa) C M(Xb)^T,
with an r x r coefficient matrix C built once per KernelSpec from exact
sphere moments, and c(alpha, d) is rounded once from its exact value.  No
sampling is involved.  Every evaluator forms |x - y| from exact coordinate
differences in one helper, so the distance term is exactly 0 at x = y, and
SciPy's spatial and special modules are never imported.  Every cross kernel,
arc-cosine too, is built a row block at a time by one generator, which
regression.predict also streams, so a prediction never holds an (n_test, n)
matrix.  kernel_pairs takes blocks of pairs through the same evaluators, so an
arc-cosine pair equals its matrix entry bit for bit.  A fit's Gram is built on
its triangle i <= j only (_gram).  Every BLAS call here goes through scipy.linalg
(see regression's docstring for why), and _product is the one place that maps a
row-major product onto BLAS.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from numbers import Integral

import numpy as np
from scipy.linalg import blas

__all__ = [
    "UnsupportedOrderError",
    "KernelSpec",
    "Derivative1DProfile",
    "c_alpha",
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
PAIR_BLOCK = 4096  # rows per kernel_pairs block; fewer change M(Xa) C's bits (see there)
# inner lengths OpenBLAS's dgemm sums in registers before it adds C: its K block is longer
DGEMM_ONE_PASS = 256


class UnsupportedOrderError(ValueError):
    """The requested activation power has no closed form in this code path."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family instance: activation power alpha, dimension d, ball radius R."""

    alpha: int
    d: int
    R: float = 1.0

    def __post_init__(self):
        # numpy integers are Integral too; a float, even an integral one, is not
        if not isinstance(self.alpha, Integral) or self.alpha < 0:
            raise ValueError(f"alpha must be a natural number, got {self.alpha}")
        if not isinstance(self.d, Integral) or self.d < 1:
            raise ValueError(f"dimension must be >= 1 and an integer, got {self.d}")
        _check_radius(self.R)


def _check_radius(R: float) -> None:
    # two points of the ball lie up to 2R apart, so 2R must be finite too
    if not 0 < R <= np.finfo(float).max / 2:
        raise ValueError(f"radius must be positive and finite, got {R}, and so must its diameter 2R")


# 1/pi to 64 digits, far below one rounding of c_alpha
_INV_PI = Fraction("0.3183098861837906715377675267450287240689192914809128974953346881")


@lru_cache(maxsize=32)
def c_alpha(spec: KernelSpec) -> float:
    """Distance-term coefficient c = (-1)^(alpha+1) alpha!^3 / (2 alpha + 1)!
    Gamma(d/2) / Gamma(d/2 + 1/2 + alpha) / (4 sqrt(pi)), rounded once from its exact value.

    The Gamma ratio over sqrt(pi) is the rational (2p)! / (4^p p! (p + alpha)!) for odd
    d = 2p + 1, and (p - 1)! 4^q q! / (2q)! / pi with q = p + alpha for even d = 2p.
    """
    a, p = spec.alpha, spec.d // 2
    if spec.d % 2:
        ratio = Fraction(factorial(2 * p), 4 ** p * factorial(p) * factorial(p + a))
    else:
        q = p + a
        ratio = Fraction(factorial(p - 1) * 4 ** q * factorial(q), factorial(2 * q)) * _INV_PI
    c = Fraction(factorial(a) ** 3, factorial(2 * a + 1)) * ratio / 4
    return float(c if a % 2 else -c)


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
    exponents = np.asarray(exponents).reshape(len(exponents), X.shape[1])
    E = exponents.astype(np.int64)
    if (E != exponents).any() or (E < 0).any():
        raise ValueError("monomial exponents must be natural numbers")
    powers = np.empty(X.shape + (int(E.max(initial=0)) + 1,))  # powers[i, j, k] = X[i, j] ** k
    powers[..., 0] = 1.0
    for k in range(1, powers.shape[2]):  # repeated products: no pow, whose negative bases are slow
        np.multiply(powers[..., k - 1], X, out=powers[..., k])
    # coordinates multiplied left to right into one C-ordered M, since BLAS rounds M @ C by layout
    M = np.take(powers[:, 0], E[:, 0], axis=1)
    for j in range(1, X.shape[1]):
        M *= powers[:, j, E[:, j]]
    return M


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


def _as_points(X, d: int) -> np.ndarray:
    """Points as a finite (n, d) float array; empty input must still have d columns."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.ndim != 2 or X.shape[1] != d:
        raise ValueError(f"points have shape {X.shape}, expected (n, {d})")
    if not np.isfinite(X).all():
        raise ValueError("points must be finite")
    return X


def _fortran(A: np.ndarray):
    """A 2-D A as its own Fortran view and whether that view is A's transpose: A.T of a
    C-ordered A, else A, so f2py copies nothing (a copy changes the call, and the bits)."""
    return (A.T, True) if A.flags.c_contiguous else (A, False)


def _gemv(A: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
    a, transposed = _fortran(A)
    blas.dgemv(1.0, a, x, y=out, overwrite_y=True, trans=transposed)


def _product(A: np.ndarray, B: np.ndarray, out=None, accumulate: bool = False) -> np.ndarray:
    """A @ B for a 2-D A and a vector or 2-D B by scipy's BLAS, into out (C-ordered, of
    the product's shape) if given, or added onto out if accumulate.

    It makes ddot for a 1 x 1 product, dgemv when A is one row or B one column, else dgemm
    on (A B)^T = B^T A^T: the column-major call of numpy's row-major matmul, but for X X^T,
    which numpy makes by dsyrk.  So at one thread, and X X^T apart, its bits are matmul's;
    at two, scipy's OpenBLAS may split a dgemm with hundreds of output columns differently.
    An accumulated entry is out + (A @ B) rounded once, as adding the product afterwards
    gives: dgemm adds out (BLAS beta = 1) after it sums an entry's products, at inner
    lengths up to DGEMM_ONE_PASS; dgemv adds out in before its last partial sums, so the
    other products are made apart and added.
    """
    (m, n), p = A.shape, B.shape[1] if B.ndim == 2 else 1
    out = np.empty((m,) + B.shape[1:]) if out is None else out
    if accumulate and (m == 1 or p == 1 or not n or n > DGEMM_ONE_PASS):
        out += _product(A, B)
    elif not out.size or not n:  # BLAS rejects an empty operand
        out[...] = 0.0
    elif m == 1 and p == 1:
        out.reshape(-1)[0] = blas.ddot(A[0], B.reshape(-1))
    elif p == 1:
        _gemv(A, B.reshape(-1), out.reshape(-1))
    elif m == 1:
        _gemv(B.T, A[0], out.reshape(-1))
    else:
        (b, b_transposed), (a, a_transposed) = _fortran(B), _fortran(A)
        blas.dgemm(1.0, b, a, beta=float(accumulate), trans_a=not b_transposed,
                   trans_b=not a_transposed, c=out.T, overwrite_c=True)
    return out


def _arccos(A, B, spec: KernelSpec) -> np.ndarray:
    """Arc-cosine kernel (alpha <= 2, checked by _validated) over the broadcast of A and B,
    shape (..., d): x.y and the squared norms summed over coordinates left to right, the same
    operations for a pair as for a matrix entry and for either memory layout, so all have
    the same bits."""
    dot, sqa, sqb = A[..., 0] * B[..., 0], A[..., 0] * A[..., 0], B[..., 0] * B[..., 0]
    for j in range(1, spec.d):
        dot += A[..., j] * B[..., j]
        sqa += A[..., j] * A[..., j]
        sqb += B[..., j] * B[..., j]
    R2 = spec.R ** 2
    s2x, s2y = sqa + R2, sqb + R2
    # joint square root keeps cos(phi) exactly 1 at x = y
    denom = np.sqrt(s2x * s2y)
    cos_phi = np.clip((dot + R2) / denom, -1.0, 1.0)
    phi = np.arccos(cos_phi)
    sin_phi = np.sqrt(np.clip(1.0 - cos_phi ** 2, 0.0, None))
    if spec.alpha == 0:
        return (np.pi - phi) / (2.0 * np.pi)
    if spec.alpha == 1:
        return denom / (2.0 * np.pi * (spec.d + 1)) * (sin_phi + (np.pi - phi) * cos_phi)
    return s2x * s2y / (2.0 * np.pi * (spec.d + 1) * (spec.d + 3)) * (
        3.0 * sin_phi * cos_phi + (np.pi - phi) * (1.0 + 2.0 * cos_phi ** 2))


def _distance_term(A, B, spec: KernelSpec, out=None, tmp=None, sq=None) -> np.ndarray:
    """c(alpha, d) |a - b|^(2 alpha + 1) / R over the broadcast of A and B, shape (..., d),
    written to out, with tmp and sq (|a - b|^2, default out) as scratch: buffers of the
    broadcast shape, or None; out may overlap sq, since only the last step writes it.

    With s = |a - b|^2 summed over coordinates in sq, the power is r s^alpha for r = sqrt(s),
    by alpha products and no pow: exactly r at alpha = 0, and a few ulps from the rounded
    power at alpha >= 1.  Coincident points give 0, signed as c(alpha, d).
    """
    shape = np.broadcast_shapes(A.shape, B.shape)[:-1]
    out = np.empty(shape) if out is None else out
    tmp = np.empty(shape) if tmp is None else tmp
    sq = out if sq is None else sq
    # b - a is -(a - b) exactly, so its square is the same; a copy and an in-place
    # subtract beat numpy's broadcast subtract of a column from a row
    np.copyto(sq, B[..., 0])
    sq -= A[..., 0]
    np.square(sq, out=sq)
    for j in range(1, spec.d):
        np.copyto(tmp, B[..., j])
        tmp -= A[..., j]
        sq += np.square(tmp, out=tmp)
    r = np.sqrt(sq, out=tmp)
    for _ in range(spec.alpha):
        r *= sq
    if spec.R == 1:  # x / 1 is x
        return np.multiply(r, c_alpha(spec), out=out)
    return np.divide(np.multiply(r, c_alpha(spec), out=r), spec.R, out=out)


def _kernel_rows(Xa, Xb, spec: KernelSpec, kind: str, out=None, upper: bool = False):
    """Yield (i, K[i:i + rows]) for the cross kernel of Xa and Xb, about
    DISTANCE_BLOCK_ENTRIES entries at a time: any kernel_matrix kind, or
    "distance" for distance_kernel_matrix; upper as for _gram.

    A block is out[i:i + rows] when out is given, else one buffer that the next
    block overwrites.  The distance term is written straight into the block, and
    the polynomial part of "nn" added onto it by BLAS, so each entry is written
    once and the one scratch buffer is _distance_term's.  Every matrix and the
    streamed predictions get their rows from these same calls, so a streamed row
    is bit-equal to that row of the assembled matrix; an arc-cosine block is
    _arccos of its rows.
    """
    na, nb = len(Xa), len(Xb)
    step = max(1, DISTANCE_BLOCK_ENTRIES // max(1, nb))
    buf = np.empty((min(step, na), nb)) if out is None else None
    if kind in ("nn", "pol_only"):
        # each block gets (M(Xa) C)[rows] M(Xb)^T
        E, C = _pol_coefficients(spec)
        MaC, MbT = _product(monomial_matrix(Xa, E), C), monomial_matrix(Xb, E).T
    if kind in ("nn", "distance"):
        # coordinate-contiguous copies, so each coordinate difference reads contiguous memory
        A, B = np.ascontiguousarray(Xa.T).T, np.ascontiguousarray(Xb.T).T
        tmp = np.empty(min(step, na) * nb)
    for i in range(0, na, step):
        rows = min(step, na - i)
        block = buf[:rows] if out is None else out[i:i + rows]
        if kind == "arccos":
            block[...] = _arccos(Xa[i:i + rows, None, :], Xb[None, :, :], spec)
        if kind in ("nn", "distance"):
            j = min(i, nb) if upper else 0
            # |a - b|^2 in the block's last rows (nb - j) entries: contiguous, where numpy's
            # loops are faster than on the block's columns j:, which only the term is written to
            sq = block.reshape(-1)[rows * j:].reshape(rows, nb - j)
            _distance_term(A[i:i + rows, None, :], B[None, j:, :], spec, block[:, j:],
                           tmp[:rows * (nb - j)].reshape(rows, nb - j), sq)
            block[:, :j] = 0.0
            if kind == "distance" and c_alpha(spec) < 0:
                block[:, j:] += 0.0  # a coincident pair's -0 becomes the +0 of 0 + the term
        if kind in ("nn", "pol_only"):
            _product(MaC[i:i + rows], MbT, block, accumulate=kind == "nn")
        yield i, block


def _assembled(Xa, Xb, spec: KernelSpec, kind: str, upper: bool = False) -> np.ndarray:
    out = np.empty((len(Xa), len(Xb)))
    for _ in _kernel_rows(Xa, Xb, spec, kind, out, upper):
        pass
    return out


def _gram(X, spec: KernelSpec, kind: str) -> np.ndarray:
    """Gram matrix of validated points X, kind "nn" or "distance": bit-equal to kernel_matrix(X, X)
    or distance_kernel_matrix(X, X) on i <= j, the triangle the fits' factor reads.  The row
    block from row i gets its distance term from column i on only, at half the cost, so an entry
    below the diagonal is a kernel value or the polynomial part alone (0 for "distance")."""
    return _assembled(X, X, spec, kind, upper=True)


def _validated(Xa, Xb, spec: KernelSpec, kind: str):
    if kind not in KERNEL_KINDS:
        raise ValueError(f"kernel kind must be one of {KERNEL_KINDS}, got {kind!r}")
    if kind == "arccos" and spec.alpha > 2:
        raise UnsupportedOrderError(f"arc-cosine kernel implemented for alpha <= 2, got {spec.alpha}")
    return _as_points(Xa, spec.d), _as_points(Xb, spec.d)


def kernel_pairs(Xa, Xb, spec: KernelSpec, kind: str = "nn") -> np.ndarray:
    """Row-wise kernel values K[i] = k(Xa[i], Xb[i]) for the chosen kernel kind.

    Pairs go PAIR_BLOCK rows at a time, so the temporaries are a block's, never the input's
    length; the last block is the last PAIR_BLOCK rows, which may repeat rows of the one
    before it, rather than a short one.  The values are bit-equal to one call over all rows:
    all but M(Xa) C is elementwise, and M(Xa) C over a block of r >= 16 monomials is over
    4096 r^2 > 1e6 multiply-adds, above OpenBLAS's small-matrix dgemm kernel, as one call
    is; at r <= 15 the two kernels give the same bits.
    """
    Xa, Xb = _validated(Xa, Xb, spec, kind)
    if Xa.shape != Xb.shape:
        raise ValueError(f"paired points need equal shapes, got {Xa.shape} and {Xb.shape}")
    n = len(Xa)
    out = np.empty(n)
    for i in range(0, n, PAIR_BLOCK):
        rows = slice(max(0, min(i, n - PAIR_BLOCK)), i + PAIR_BLOCK)
        a, z = Xa[rows], Xb[rows]
        if kind == "arccos":
            out[rows] = _arccos(a, z, spec)
            continue
        E, C = _pol_coefficients(spec)
        out[rows] = np.einsum("ij,ij->i", _product(monomial_matrix(a, E), C), monomial_matrix(z, E))
        if kind == "nn":
            out[rows] += _distance_term(a, z, spec)
    return out


def kd(x, y, spec: KernelSpec) -> float:
    """Full kernel value k_pol(x, y) + c(alpha, d) |x - y|^(2 alpha + 1) / R."""
    return float(kernel_pairs(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)), spec)[0])


def arccos_kernel(x, y, spec: KernelSpec) -> float:
    """Rotation-invariant kernel of the fully spherical weight normalization."""
    return float(kernel_pairs(np.reshape(x, (1, -1)), np.reshape(y, (1, -1)), spec, "arccos")[0])


def kernel_matrix(Xa, Xb, spec: KernelSpec, kind: str = "nn") -> np.ndarray:
    """Cross kernel matrix K[i, j] = k(Xa[i], Xb[j]) for the chosen kernel kind, C-ordered."""
    return _assembled(*_validated(Xa, Xb, spec, kind), spec, kind)


def distance_kernel_matrix(Xa, Xb, spec: KernelSpec) -> np.ndarray:
    """Conditionally positive distance kernel c(alpha, d) |x - y|^(2 alpha + 1) / R: the
    distance term of kernel_matrix on its own, exactly 0 where Xa[i] = Xb[j]."""
    Xa, Xb = _as_points(Xa, spec.d), _as_points(Xb, spec.d)
    return _assembled(Xa, Xb, spec, "distance")


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


def make_profile(derivatives, R: float) -> Derivative1DProfile:
    """Profile of callables [f, f', ..., f^(alpha+1)] on [-R, R], f^(alpha+1) at 8193 nodes."""
    _check_radius(R)
    if len(derivatives) < 2:
        raise ValueError("need at least f and f' to build a profile")
    grid = np.linspace(-R, R, 8193)
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
    _check_radius(R)
    if profile.grid[0] != -R or profile.grid[-1] != R:  # one norm never mixes two radii
        raise ValueError(f"profile grid spans [{profile.grid[0]}, {profile.grid[-1]}], not [{-R}, {R}]")
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
