"""Leverage scores of the two random-feature families for d = 1, alpha = 0, R = 1.

A feature g scores <g, (S + lam I)^{-1} g> in L2 of the uniform measure on
[-1, 1], where S is the integral operator of the step-activation kernel,
S f(x) = 1/4 int f - 1/8 int |x - y| f(y) dy.  Closed forms come from solving
g'' = lam f'' - f/4 with the boundary relations tying f to g.  The grid
estimator scores features against the Gram matrix of the same kernel in O(n);
the tests check both against a dense discretization of S.

General radii are handled by callers rescaling inputs to [-1, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

__all__ = [
    "nn_leverage",
    "fourier_leverage",
    "GridLeverageEstimator",
    "LeverageProfile",
    "nn_profile",
    "fourier_profiles",
]

SCORE_CHUNK_ENTRIES = 2 ** 15  # feature values per scoring chunk: every temporary stays in cache


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0 < lam < np.inf:
        raise ValueError(f"regularization lambda must be positive and finite, got {lam}")
    return lam


def nn_leverage(b, lam: float):
    """Leverage score of the step feature 1_{x > b}, |b| <= 1.

    With c = 1/(2 sqrt(lam)), p = c(1-b)/2 and v = c(1+b)/2 the score is the product
    4c sinh(p) cosh(v) (c cosh(p) sinh(v) + cosh(c)) / (cosh(c) (c sinh(c) + cosh(c))),
    written in q+ = exp(-c(1-b)), q- = exp(-c(1+b)) and exp(-2c), with expm1 for
    each 1 - q: nothing overflows or cancels from lam = 1e-8, where the score
    peaks near 1/(2 sqrt(lam)), to lam = 1e300, where it tends to (1-b)/(2 lam).
    """
    lam = _check_lambda(lam)
    b = np.asarray(b, dtype=float)
    if not np.all(np.abs(b) <= 1 + 1e-12):
        raise ValueError("bias must be finite and lie in [-1, 1] (R = 1 normalization)")
    c = 1.0 / (2.0 * np.sqrt(lam))
    qp, qm, q2 = np.exp(-c * (1.0 - b)), np.exp(-c * (1.0 + b)), np.exp(-2.0 * c)
    score = (-c * np.expm1(-c * (1.0 - b)) * (1.0 + qm)
             * (2.0 * (1.0 + q2) - c * (1.0 + qp) * np.expm1(-c * (1.0 + b)))
             / ((1.0 + q2) * (1.0 + q2 - c * np.expm1(-2.0 * c))))
    return float(score) if score.ndim == 0 else score


def _sinc2(omega):
    # sin(2w) / (2w) with a 4th-order series below the cutoff.
    omega = np.asarray(omega, dtype=float)
    small = np.abs(omega) < 1e-4
    safe = np.where(small, 1.0, omega)
    out = np.where(small,
                   1.0 - (2.0 * omega) ** 2 / 6.0 + (2.0 * omega) ** 4 / 120.0,
                   np.sin(2.0 * safe) / (2.0 * safe))
    return out


def fourier_leverage(omega, lam: float):
    """Leverage scores (cos, sin) of the features cos(omega x), sin(omega x).

    Hyperbolic ratios are folded into tanh(c) so nothing overflows for small
    lam; both scores tend to 1/(2 lam) as omega grows.
    """
    lam = _check_lambda(lam)
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError("frequency omega must be finite")
    c = 1.0 / (2.0 * np.sqrt(lam))
    t = np.tanh(c)
    sl = np.sqrt(lam)
    r = omega ** 2 / (lam * omega ** 2 + 0.25)
    ratio = _sinc2(omega)
    q = 4.0 * lam * omega ** 2 + 1.0
    cos_w, sin_w = np.cos(omega), np.sin(omega)
    a_term = (16.0 * lam * (cos_w - omega * sin_w)
              * (c * cos_w * t + omega * sin_w) / (q ** 2 * (sl * t + 2.0 * lam)))
    b_term = (16.0 * lam * omega * cos_w
              * (c * sin_w - omega * cos_w * t) / (q ** 2 * sl))
    cos_score = 0.5 * (r * (1.0 + ratio) + a_term)
    sin_score = 0.5 * (r * (1.0 - ratio) + b_term)
    if cos_score.ndim == 0:
        return float(cos_score), float(sin_score)
    return cos_score, sin_score


class GridLeverageEstimator:
    """Grid estimator phi^T (K + s I)^{-1} phi, s = n lam, in O(n) per feature.

    With u = x + 1 on the sorted grid, K + sI = A + U S U^T for A = (M + 2sI)/2,
    M_ij = min(u_i, u_j), U = [1, x], S = -[[0, 1], [1, 0]]/4, and
    A^{-1} = 2 D^T T^{-1} D, D the first difference, T = diag(Du) + 2s D D^T SPD
    tridiagonal: LAPACK's LDL^T factor of T (pttrf/pttrs), a 2x2 Woodbury step,
    then one refinement step through the O(n) product (K + sI) z.  Features are
    scored in chunks of c = max(1, SCORE_CHUNK_ENTRIES // n) parameters, each
    chunk's rows built in sorted grid order just before its solve, so memory
    beyond the estimator's n-vectors is O(c n).  Every reduction runs along one
    feature's values, so a score depends neither on the chunk nor on the BLAS
    thread count.  A singular system or a non-finite score raises ValueError.
    """

    def __init__(self, grid, lam: float):
        lam = _check_lambda(lam)
        # a score does not change when the grid is permuted: keep the sorted grid only
        self._x = np.sort(np.asarray(grid, dtype=float).ravel())
        n = self._x.size
        if n < 2:
            raise ValueError("grid estimator needs at least two points")
        if not np.all(np.abs(self._x) <= 1.0):  # outside, 1/2 - |x - y|/4 is not PSD
            raise ValueError("grid points must be finite and lie in [-1, 1]")
        self.lam = lam
        self._singular = f"the grid system is numerically singular at lambda {lam} and n {n}"
        s = self._s = n * lam
        diag = np.diff(self._x, prepend=-1.0) + 4.0 * s
        diag[0] -= 2.0 * s  # D D^T is tridiagonal with diagonal (1, 2, ..., 2) and off-diagonal -1
        self._d, self._e, info = sla.lapack.dpttrf(diag, np.full(n - 1, -2.0 * s))
        if info != 0:
            raise np.linalg.LinAlgError(f"{self._singular}: its tridiagonal factor failed")
        W = self._solve_a(np.stack([np.ones(n), self._x]))
        # Woodbury: (K+sI)^{-1} b = y - P^T U^T y with y = A^{-1} b, P = (S^{-1} + U^T W^T)^{-T} W
        G = np.stack([np.sum(W, axis=1), np.sum(self._x * W, axis=1)]) - [[0.0, 4.0], [4.0, 0.0]]
        try:
            self._P = np.linalg.solve(G.T, W)
        except np.linalg.LinAlgError:
            raise ValueError(self._singular) from None

    def _solve_a(self, B):
        """A^{-1} applied to each row of B."""
        W = B.copy()  # D b, then T^{-1} D b in place: W.T is Fortran-ordered for dpttrs
        W[:, 1:] -= B[:, :-1]
        V = sla.lapack.dpttrs(self._d, self._e, W.T, overwrite_b=True)[0].T
        V[:, :-1] -= V[:, 1:]  # 2 D^T v: numpy buffers the overlapping operands
        V *= 2.0
        return V

    def _solve(self, B):
        """(K + sI)^{-1} applied to each row of B."""
        Y = self._solve_a(B)
        t0, t1 = np.sum(Y, axis=1)[:, None], np.sum(self._x * Y, axis=1)[:, None]
        return Y - t0 * self._P[0] - t1 * self._P[1]

    def _apply(self, Z):
        """(K + sI) z for each row z of Z, by (Mz)_i = sum_{j<=i} u_j z_j + u_i sum_{j>i} z_j."""
        u = self._x + 1.0
        MZ = np.cumsum(u * Z, axis=1)
        MZ[:, :-1] += u[:-1] * np.cumsum(Z[:, :0:-1], axis=1)[:, ::-1]
        t0, t1 = np.sum(Z, axis=1)[:, None], np.sum(self._x * Z, axis=1)[:, None]
        return 0.5 * MZ + self._s * Z - 0.25 * (t0 * self._x + t1)

    @np.errstate(over="ignore", invalid="ignore")  # a score that overflows raises below
    def scores(self, feature, params) -> np.ndarray:
        """Scores of the features feature(x, p), p in params: (c, n) values from the
        sorted grid x as a (1, n) row and a chunk of c parameters as a (c, 1) column."""
        out = np.empty(len(params))
        step = max(1, SCORE_CHUNK_ENTRIES // self._x.size)
        for i in range(0, len(params), step):
            B = np.ascontiguousarray(feature(self._x[None, :], params[i:i + step, None]), dtype=float)
            Z = self._solve(B)
            Z += self._solve(B - self._apply(Z))
            out[i:i + step] = np.sum(B * Z, axis=1)
        if not np.all(np.isfinite(out)):
            raise ValueError(f"{self._singular}: a leverage score is not finite")
        return out


@dataclass(frozen=True)
class LeverageProfile:
    """Analytic and empirical scores over a parameter grid at fixed lambda."""

    method: str
    params: np.ndarray
    analytic: np.ndarray
    empirical: np.ndarray


def _estimator_lambda(lam: float, estimator: GridLeverageEstimator) -> float:
    """The estimator's lambda, which lam must equal: one profile never mixes two lambdas."""
    if float(lam) != estimator.lam:
        raise ValueError(f"profile lambda {lam} differs from the estimator's lambda {estimator.lam}")
    return estimator.lam


def nn_profile(lam: float, estimator: GridLeverageEstimator) -> LeverageProfile:
    """NN leverage profile at 201 equispaced b in [-1, 1]."""
    lam = _estimator_lambda(lam, estimator)
    params = np.linspace(-1.0, 1.0, 201)
    return LeverageProfile("nn", params, nn_leverage(params, lam), estimator.scores(np.greater, params))


def fourier_profiles(lam: float, estimator: GridLeverageEstimator):
    """Fourier cos/sin leverage profiles at 201 equispaced omega in [0, 50]."""
    lam = _estimator_lambda(lam, estimator)
    params = np.linspace(0.0, 50.0, 201)
    cos_scores, sin_scores = fourier_leverage(params, lam)
    return (LeverageProfile("fourier-cos", params, cos_scores,
                            estimator.scores(lambda x, w: np.cos(x * w), params)),
            LeverageProfile("fourier-sin", params, sin_scores,
                            estimator.scores(lambda x, w: np.sin(x * w), params)))
