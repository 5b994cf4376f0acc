"""Interpolation, ridge regression and the constrained polyharmonic spline solve."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .features import FourierFeatureMap, NNFeatureMap
from .kernels import (KernelSpec, _as_points, distance_kernel_matrix, kernel_matrix,
                      monomial_exponents, monomial_matrix)

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
        if self.mu < 0 or self.jitter < 0:
            raise ValueError("mu and jitter must be non-negative")
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
    returns one column per label.
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
    """Cholesky factor of 0.5 (K + K^T) + (shift + escalation) I.

    escalation is the JITTER_LADDER rung the factorization needed (0 if none).
    """

    factor: tuple
    escalation: float

    def solve(self, B) -> np.ndarray:
        """(0.5 (K + K^T) + (shift + escalation) I)^{-1} B for a vector or an (n, k) matrix B."""
        return sla.cho_solve(self.factor, B, check_finite=False)


def factor_spd(K, shift: float = 0.0) -> SPDFactor:
    """Factor the symmetric part of K plus shift on the diagonal, once, for many solves.

    When Cholesky fails the diagonal is raised by each JITTER_LADDER rung in
    turn. K is left unmodified: the symmetric part is built in place in one
    Fortran-ordered array, and LAPACK factors it over itself.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {K.shape}")
    if not np.isfinite(K).all():
        raise ValueError("matrix has non-finite entries")
    for extra in (0.0,) + JITTER_LADDER:
        A = np.add(K, K.T, order="F")
        A *= 0.5
        A[np.diag_indices_from(A)] += shift + extra
        try:
            return SPDFactor(sla.cho_factor(A, lower=True, overwrite_a=True,
                                            check_finite=False), extra)
        except np.linalg.LinAlgError:
            continue
    top = shift + JITTER_LADDER[-1]
    cond = float(np.linalg.cond(0.5 * (K + K.T) + top * np.eye(K.shape[0])))
    raise IllConditionedError(
        f"system singular after jitter escalation to {top:g} (condition estimate {cond:.3e})")


def _targets(y, n: int) -> np.ndarray:
    """Targets as a float (n,) vector or (n, k) label matrix; any other shape raises."""
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != n:
        raise ValueError(f"targets must have shape ({n},) or ({n}, k), got {y.shape}")
    return y


def _shift(cfg: FitConfig, n: int) -> float:
    """Diagonal shift n mu + jitter of the n x n interpolation or ridge system."""
    if cfg.mode == "constrained_spline":
        raise ValueError("constrained_spline configs are solved by fit_constrained_spline")
    return n * cfg.mu + cfg.jitter


def fit_dual(X, y, spec: KernelSpec, cfg: FitConfig = FitConfig()) -> RegressionModel:
    """Kernel-space solve: lambda = (K + (n mu + jitter) I)^{-1} y."""
    X = _as_points(X, spec.d)
    n = X.shape[0]
    y = _targets(y, n)
    K = kernel_matrix(X, X, spec)
    factor = factor_spd(K, _shift(cfg, n))
    coeffs = factor.solve(y)
    residual = float(np.max(np.abs(K @ coeffs - y), initial=0.0))
    return RegressionModel(kind="dual", X=X, spec=spec, dual_coeffs=coeffs,
                           jitter_used=cfg.jitter + factor.escalation, residual=residual)


def fit_primal(X, y, ensemble: NNFeatureMap | FourierFeatureMap, cfg: FitConfig = FitConfig()) -> RegressionModel:
    """Feature-space solve returning per-feature weights.

    The weights are eta = scaling * F^T lambda with lambda solving the n x n
    system on K_hat, so predictions coincide with a dual solve on the
    approximate kernel.
    """
    X = _as_points(X, ensemble.spec.d)
    n = X.shape[0]
    y = _targets(y, n)
    F = ensemble.features(X)
    K_hat = ensemble.scaling * (F @ F.T)
    factor = factor_spd(K_hat, _shift(cfg, n))
    eta = ensemble.scaling * (F.T @ factor.solve(y))
    residual = float(np.max(np.abs(F @ eta - y), initial=0.0))
    return RegressionModel(kind="primal", X=X, ensemble=ensemble, feature_weights=eta,
                           jitter_used=cfg.jitter + factor.escalation, residual=residual)


def fit_constrained_spline(X, y, spec: KernelSpec, cfg: FitConfig = FitConfig(mode="constrained_spline")) -> RegressionModel:
    """Distance-kernel spline with the polynomial constraint Phi^T lambda = 0.

    Solves the saddle system [[K + n mu I, Phi], [Phi^T, 0]] [lambda; nu] = [y; 0]
    where K holds only the conditionally positive distance kernel.
    """
    X = _as_points(X, spec.d)
    n = X.shape[0]
    y = _targets(y, n)
    Phi = monomial_matrix(X, monomial_exponents(spec.d, spec.alpha))
    n_poly = Phi.shape[1]
    if n < n_poly:
        raise DegenerateDesignError(
            f"need at least {n_poly} points to pin the degree-{spec.alpha} polynomial block")
    if np.linalg.matrix_rank(Phi) < n_poly:
        raise DegenerateDesignError("monomial design matrix is rank deficient")
    # K is exactly symmetric (exact differences) and stays unshifted for the
    # residual; the saddle matrix is built once, in Fortran order, so LAPACK
    # factors it in place instead of copying it.
    K = distance_kernel_matrix(X, X, spec)
    A = np.zeros((n + n_poly, n + n_poly), order="F")
    A[:n, :n] = K
    A[np.diag_indices(n)] += n * cfg.mu + cfg.jitter
    A[:n, n:] = Phi
    A[n:, :n] = Phi.T
    rhs = np.concatenate([y, np.zeros((n_poly,) + y.shape[1:])])
    try:
        sol = sla.solve(A, rhs, assume_a="sym", overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"saddle system singular: {exc}") from exc
    if not np.all(np.isfinite(sol)):
        raise IllConditionedError("saddle system produced non-finite coefficients")
    lam, nu = sol[:n], sol[n:]
    residual = float(np.max(np.abs(K @ lam + Phi @ nu - y)))
    return RegressionModel(kind="constrained_spline", X=X, spec=spec, dual_coeffs=lam,
                           poly_coeffs=nu, jitter_used=cfg.jitter, residual=residual)


def predict(model: RegressionModel, Xtest) -> np.ndarray:
    """Evaluate a fitted model at test points, which must be finite."""
    if model.kind == "primal":
        return model.ensemble.features(Xtest) @ model.feature_weights  # the map validates Xtest
    if model.kind not in ("dual", "constrained_spline"):
        raise ValueError(f"unknown model kind {model.kind!r}")
    Xtest = _as_points(Xtest, model.spec.d, finite=True)
    if model.kind == "dual":
        return kernel_matrix(Xtest, model.X, model.spec) @ model.dual_coeffs
    E = distance_kernel_matrix(Xtest, model.X, model.spec)
    Phi = monomial_matrix(Xtest, monomial_exponents(model.spec.d, model.spec.alpha))
    return E @ model.dual_coeffs + Phi @ model.poly_coeffs
