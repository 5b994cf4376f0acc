"""Interpolation, ridge regression and the constrained polyharmonic spline solve.

Every dense solve goes through one factor path: the constrained spline too, on
its kernel projected onto the null space of the polynomial constraint.  Each fit
hands the n x n matrix it built to that path, which factors it in the matrix's
own memory, so a fit holds one n x n array; factor_spd is the same path on a
copy.  Its layout is this module's alone: the triangle i <= j holds the matrix,
the other its mirror, the diagonal the factor's, and an n-vector the matrix's.
A fit reads K once before its first Cholesky, the mirror checking each band of
the triangle it copies from for finiteness: that triangle only, no n x n mask.

numpy and scipy each load their own OpenBLAS, and a Cholesky factor runs slower
right after a call on numpy's pool.  So every BLAS and LAPACK call of the factor
path, the kernel fits, the dual and spline predictions and kernel-eval goes
through scipy.linalg, the library that factors; the feature space (fit_primal,
the primal predict and the feature maps) keeps numpy's matmul, since moving it
to scipy made it no faster.  CHANGES.md's entries "spline-d3 on one OpenBLAS
pool" and "Kernel paths on scipy's OpenBLAS alone" hold the measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .features import FourierFeatureMap, NNFeatureMap
from .kernels import (KernelSpec, _as_points, _gram, _kernel_rows, _product, monomial_exponents,
                      monomial_matrix)

__all__ = [
    "IllConditionedError",
    "DegenerateDesignError",
    "SPDFactor",
    "factor_spd",
    "FitConfig",
    "RegressionModel",
    "fit_dual",
    "fit_primal",
    "fit_constrained_spline",
    "predict",
]

# Escalation ladder applied on factorization failure, three decades from 1e-12.
JITTER_LADDER = (1e-12, 1e-9, 1e-6)


class IllConditionedError(np.linalg.LinAlgError):
    """The linear system stayed numerically singular after jitter escalation."""


class DegenerateDesignError(ValueError):
    """The polynomial design matrix does not have full column rank."""


@dataclass(frozen=True)
class FitConfig:
    """Solver mode plus regularization knobs.

    mode: "interpolate" (mu must be 0), "ridge" (uses mu) or "constrained_spline".
    jitter is added to the system diagonal before factorization.
    """

    mode: str = "interpolate"
    mu: float = 0.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.mode not in ("interpolate", "ridge", "constrained_spline"):
            raise ValueError(f"unknown fit mode {self.mode!r}")
        if not (0 <= self.mu < np.inf and 0 <= self.jitter < np.inf):
            raise ValueError(f"mu and jitter must be finite and non-negative, got {self.mu}, {self.jitter}")
        if self.mode == "interpolate" and self.mu > 0:
            raise ValueError(f"interpolate mode does not read mu, got mu = {self.mu}; use mode='ridge'")


@dataclass
class RegressionModel:
    """Fitted model; exactly one of the representations is populated.

    kind "dual": f(x) = sum_i dual_coeffs[i] k(x, x_i)
    kind "primal": f(x) = phi(x) . feature_weights (raw feature row)
    kind "constrained_spline": f(x) = sum_i dual_coeffs[i] E(x - x_i)
                               + monomials(x) . poly_coeffs

    A fit to an (n, k) label matrix holds k coefficient columns, and predict
    returns one column per label.  jitter_used is the configured jitter plus
    factor_spd's JITTER_LADDER escalation; residual is max |f(x_i) - y_i| over
    the training points, on the kernel without any shift.
    """

    kind: str
    X: np.ndarray
    spec: KernelSpec | None = None
    ensemble: NNFeatureMap | FourierFeatureMap | None = None
    dual_coeffs: np.ndarray | None = None
    poly_coeffs: np.ndarray = field(default_factory=lambda: np.empty(0))
    feature_weights: np.ndarray | None = None
    jitter_used: float = 0.0
    residual: float = 0.0


@dataclass(frozen=True)
class SPDFactor:
    """Cholesky factor of A + (shift + escalation) I, where A is the symmetric
    matrix with A[i, j] = A[j, i] = K[i, j] for i <= j, held in K's own memory.

    factor[0] is the Fortran view K^T: its lower triangle holds the Cholesky
    factor, its strict upper triangle A's off-diagonal entries (the mirror), and
    diag holds A's unshifted diagonal.  escalation is the JITTER_LADDER rung the
    factorization needed (0 if none).
    """

    factor: tuple
    escalation: float
    diag: np.ndarray

    def solve(self, B) -> np.ndarray:
        """(A + (shift + escalation) I)^{-1} B for a vector or an (n, k) matrix B."""
        return sla.cho_solve(self.factor, B, check_finite=False)

    def product(self, B) -> np.ndarray:
        """A B, without any shift, for a vector or an (n, k) matrix B: the mirror times B,
        which reads the factor's diagonal, plus (A's diagonal - the factor's) times B.
        It writes nothing, so solves alongside it are unchanged."""
        K, B = self.factor[0].T, np.asarray(B, dtype=float)
        AB = _symmetric_product(K, B, upper=False)
        AB += ((self.diag - _diagonal(K)) * B.T).T
        return AB


MIRROR_TILE = 128  # rows per tile of a triangle mirror


def _mirror(K: np.ndarray) -> bool:
    """Copy a square K's strict upper triangle onto its strict lower one (on K.T, the lower one
    back) a tile of MIRROR_TILE rows at a time; True if the triangle it copies from is finite,
    checked a band K[i:j, i:] at a time, since every entry it writes is a copy of one."""
    n, finite = len(K), True
    for i in range(0, n, MIRROR_TILE):
        j = min(i + MIRROR_TILE, n)
        K[i:j, :i] = K[:i, i:j].T
        tile = K[i:j, i:j]
        np.copyto(tile, tile.T, where=np.tri(j - i, k=-1, dtype=bool))  # its strict lower triangle
        finite = finite and bool(np.isfinite(K[i:j, i:]).all())
    return finite


def _diagonal(K: np.ndarray) -> np.ndarray:
    """View of the diagonal of a C-ordered square K, writable if K is."""
    return K.reshape(-1)[::len(K) + 1]


def _factor_in_place(K: np.ndarray, shift: float) -> SPDFactor:
    """factor_spd over a C-ordered float K that the caller hands over: the factor
    overwrites it, and its strict lower triangle becomes the mirror."""
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    if not np.isfinite(shift):
        raise ValueError(f"diagonal shift must be finite, got {shift}")
    if not _mirror(K):
        raise ValueError("matrix has non-finite entries")
    diag = _diagonal(K).copy()
    for extra in (0.0,) + JITTER_LADDER:
        np.add(diag, shift + extra, out=_diagonal(K))
        try:
            return SPDFactor(sla.cho_factor(K.T, lower=True, overwrite_a=True, check_finite=False),
                             extra, diag)
        except sla.LinAlgError:
            _mirror(K.T)  # the failed factor wrote over the triangle i <= j
    top = shift + JITTER_LADDER[-1]
    np.add(diag, top, out=_diagonal(K))
    ev = np.abs(sla.eigvalsh(K.T, check_finite=False))  # the lower triangle, as cho_factor reads
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = ev.max() / ev.min()
    raise IllConditionedError(
        f"system singular after jitter escalation to {top:g} (condition estimate {cond:.3e})")


def factor_spd(K, shift: float = 0.0) -> SPDFactor:
    """Factor K plus shift on the diagonal, once, for many solves.

    Like LAPACK potrf, it reads one triangle of K, the entries K[i, j] with
    i <= j, and never the other.  It factors one copy of K, so K is left
    unmodified; before the first try it mirrors that triangle onto the copy's
    other one, and when Cholesky fails it restores the triangle from the mirror
    and raises the diagonal by the next JITTER_LADDER rung.
    """
    return _factor_in_place(np.array(K, dtype=float, order="C"), shift)


def _symmetric_product(K: np.ndarray, B: np.ndarray, upper: bool = True) -> np.ndarray:
    """A B by BLAS dsymm, for a vector or an (n, k) matrix B and the symmetric A
    with A[i, j] = K[i, j] on i <= j (upper, the triangle factor_spd reads) or
    on i >= j, of a C-ordered K."""
    if not len(B):
        return np.zeros(B.shape)  # BLAS's argument check rejects n = 0
    return sla.blas.dsymm(1.0, K.T, B.reshape(len(B), -1), lower=upper).reshape(B.shape)


def _training_data(X, y, d: int):
    """Points by _as_points, and targets as a finite float (n,) vector or (n, k) label matrix."""
    X = _as_points(X, d)
    y, n = np.asarray(y, dtype=float), len(X)
    if y.ndim not in (1, 2) or y.shape[0] != n:
        raise ValueError(f"targets must have shape ({n},) or ({n}, k), got {y.shape}")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    return X, y


def _shift(cfg: FitConfig, n: int) -> float:
    """Diagonal shift n mu + jitter of the n x n interpolation or ridge system."""
    if cfg.mode == "constrained_spline":
        raise ValueError("constrained_spline configs are solved by fit_constrained_spline")
    return n * cfg.mu + cfg.jitter


def fit_dual(X, y, spec: KernelSpec, cfg: FitConfig = FitConfig()) -> RegressionModel:
    """Kernel-space solve: lambda = (K + (n mu + jitter) I)^{-1} y."""
    X, y = _training_data(X, y, spec.d)
    n = X.shape[0]
    factor = _factor_in_place(_gram(X, spec, "nn"), _shift(cfg, n))
    coeffs = factor.solve(y)
    residual = float(np.max(np.abs(factor.product(coeffs) - y), initial=0.0))
    return RegressionModel(kind="dual", X=X, spec=spec, dual_coeffs=coeffs,
                           jitter_used=cfg.jitter + factor.escalation, residual=residual)


def fit_primal(X, y, ensemble: NNFeatureMap | FourierFeatureMap, cfg: FitConfig = FitConfig()) -> RegressionModel:
    """Feature-space solve returning per-feature weights.

    The weights are eta = scaling * F^T lambda with lambda solving the n x n
    system on K_hat, so predictions coincide with a dual solve on the
    approximate kernel.
    """
    X, y = _training_data(X, y, ensemble.spec.d)
    n = X.shape[0]
    F = ensemble.features(X)
    factor = _factor_in_place(ensemble.scaling * (F @ F.T), _shift(cfg, n))
    eta = ensemble.scaling * (F.T @ factor.solve(y))
    residual = float(np.max(np.abs(F @ eta - y), initial=0.0))
    return RegressionModel(kind="primal", X=X, ensemble=ensemble, feature_weights=eta,
                           jitter_used=cfg.jitter + factor.escalation, residual=residual)


def fit_constrained_spline(X, y, spec: KernelSpec, cfg: FitConfig = FitConfig(mode="constrained_spline")) -> RegressionModel:
    """Distance-kernel spline with the polynomial constraint Phi^T lambda = 0.

    Solves (K + s I) lambda + Phi nu = y, Phi^T lambda = 0 with s = n mu + jitter,
    where K holds only the conditionally positive distance kernel, on the null
    space of Phi^T (Wahba 1990, ch. 1-2).  With Phi = Q1 R and P = I - Q1 Q1^T,
    M = P K P + c Q1 Q1^T (c = max|K|) is positive definite, block-diagonal over
    range(Phi), and it is factored in K's memory; lambda = (M + s I)^{-1} P y and
    R nu = Q1^T (y - K lambda).
    """
    X, y = _training_data(X, y, spec.d)
    n = X.shape[0]
    Phi = monomial_matrix(X, monomial_exponents(spec.d, spec.alpha))
    n_poly = Phi.shape[1]
    if n < n_poly:
        raise DegenerateDesignError(
            f"need at least {n_poly} points to pin the degree-{spec.alpha} polynomial block")
    Q, R = sla.qr(Phi, mode="economic", check_finite=False)
    sv = sla.svdvals(R, check_finite=False)  # the singular values of Phi
    if sv[-1] <= n * np.finfo(float).eps * sv[0]:
        raise DegenerateDesignError("monomial design matrix is rank deficient")
    shift = n * cfg.mu + cfg.jitter
    if shift == 0 and len(np.unique(X, axis=0)) < n:
        raise IllConditionedError("repeated training points make the unshifted system singular")
    # least-squares residual y - Phi nu in extended precision (one step of residual
    # refinement), split into its parts in range(Phi) and in the null space of Phi^T
    nu = sla.solve_triangular(R, _product(Q.T, y))
    resid = np.asarray(y - Phi.astype(np.longdouble) @ nu, dtype=float)
    resid_q = _product(Q.T, resid)
    resid -= _product(Q, resid_q)
    # _gram's K has the kernel's K.max() and K.min(), and M = K - Q1 G^T - G Q1^T with
    # G = K Q1 - Q1 (Q1^T K Q1 + c I) / 2 is one rank-2r dsyr2k update of its triangle
    # i <= j, the lower triangle of its Fortran view K.T, over K's own memory
    K = _gram(X, spec, "distance")
    KQ = _symmetric_product(K, Q)
    S = _product(Q.T, KQ) + (max(K.max(), -K.min()) or 1.0) * np.eye(n_poly)
    G = KQ - 0.5 * _product(Q, S)
    sla.blas.dsyr2k(-1.0, Q, G, beta=1.0, c=K.T, lower=True, overwrite_c=True)
    factor = _factor_in_place(K, shift)
    del K
    lam = factor.solve(resid)
    lam -= _product(Q, _product(Q.T, lam))
    # Phi^T lambda = 0, so the shift term of the first block row drops out of Q1^T
    nu += sla.solve_triangular(R, resid_q - _product(KQ.T, lam))
    model = RegressionModel(kind="constrained_spline", X=X, spec=spec, dual_coeffs=lam,
                            poly_coeffs=nu, jitter_used=cfg.jitter + factor.escalation)
    del factor  # the training misfit against K itself, streamed, without M or its factor alive
    model.residual = float(np.max(np.abs(predict(model, X) - y), initial=0.0))
    return model


def predict(model: RegressionModel, Xtest) -> np.ndarray:
    """Evaluate a fitted model at test points, which must be finite."""
    if model.kind == "primal":
        return model.ensemble.features(Xtest) @ model.feature_weights  # the map validates Xtest
    if model.kind not in ("dual", "constrained_spline"):
        raise ValueError(f"unknown model kind {model.kind!r}")
    Xtest = _as_points(Xtest, model.spec.d)
    # row-streamed: each row block of the cross kernel is multiplied by the
    # coefficients as soon as it is formed, so no (n_test, n) array exists
    out = np.empty((len(Xtest),) + model.dual_coeffs.shape[1:])
    kind = "nn" if model.kind == "dual" else "distance"
    for i, block in _kernel_rows(Xtest, model.X, model.spec, kind):
        _product(block, model.dual_coeffs, out[i:i + len(block)])
    if model.kind == "constrained_spline":
        Phi = monomial_matrix(Xtest, monomial_exponents(model.spec.d, model.spec.alpha))
        out += _product(Phi, model.poly_coeffs)
    return out
