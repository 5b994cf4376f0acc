"""Finite random-feature maps and the approximate kernels they induce."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, UnsupportedOrderError, _as_points
from .sampling import (
    FourierFrequencies,
    NNParams,
    RngStream,
    sample_fourier_frequencies,
    sample_nn_params,
)

__all__ = [
    "FeatureEnsemble",
    "FeatureMatrix",
    "sample_nn_ensemble",
    "sample_fourier_ensemble",
    "nn_features",
    "fourier_features",
    "features",
    "approx_kernel",
]


@dataclass(frozen=True)
class FeatureEnsemble:
    """Sampled parameters defining a finite feature map for a kernel spec."""

    kind: str  # "nn" | "fourier"
    spec: KernelSpec
    nn_params: NNParams | None = None
    frequencies: FourierFrequencies | None = None

    def __post_init__(self):
        if self.kind == "nn":
            if self.nn_params is None or len(self.nn_params) < 1:
                raise ValueError("nn ensemble requires at least one parameter pair")
        elif self.kind == "fourier":
            if self.frequencies is None or len(self.frequencies) < 1:
                raise ValueError("fourier ensemble requires at least one frequency")
        else:
            raise ValueError(f"ensemble kind must be 'nn' or 'fourier', got {self.kind!r}")

    @property
    def m(self) -> int:
        if self.kind == "nn":
            return len(self.nn_params)
        return len(self.frequencies)


def sample_nn_ensemble(spec: KernelSpec, m: int, stream: RngStream) -> FeatureEnsemble:
    params = sample_nn_params(spec.d, spec.R, m, stream)
    return FeatureEnsemble(kind="nn", spec=spec, nn_params=params)


def sample_fourier_ensemble(spec: KernelSpec, m: int, stream: RngStream) -> FeatureEnsemble:
    """Fourier ensemble; the spectral expansion exists only for alpha = 0."""
    if spec.alpha != 0:
        raise UnsupportedOrderError(
            f"fourier features are derived for alpha = 0 only, got alpha = {spec.alpha}")
    freqs = sample_fourier_frequencies(spec.d, spec.R, m, stream)
    return FeatureEnsemble(kind="fourier", spec=spec, frequencies=freqs)


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature values per point, with the scaling making values @ values.T a kernel.

    k_hat(x, y) = scaling * <row_x, row_y>; scaling is 1/m for the nn map and
    1/(2m) for the fourier map (cos and sin column per frequency).
    """

    values: np.ndarray
    scaling: float


def nn_features(X, ensemble: FeatureEnsemble) -> FeatureMatrix:
    """Entries (w_j . x_i + b_j)_+^alpha; for alpha = 0 a strict step (0 at 0)."""
    if ensemble.kind != "nn":
        raise ValueError(f"expected an nn ensemble, got {ensemble.kind!r}")
    spec = ensemble.spec
    X = _as_points(X, spec.d)
    pre = X @ ensemble.nn_params.directions.T + ensemble.nn_params.biases[None, :]
    if spec.alpha == 0:
        vals = (pre > 0).astype(float)
    else:
        vals = np.maximum(pre, 0.0) ** spec.alpha
    return FeatureMatrix(values=vals, scaling=1.0 / ensemble.m)


def fourier_features(X, ensemble: FeatureEnsemble) -> FeatureMatrix:
    """Columns cos(omega_j . x) and sin(omega_j . x) per frequency."""
    if ensemble.kind != "fourier":
        raise ValueError(f"expected a fourier ensemble, got {ensemble.kind!r}")
    spec = ensemble.spec
    if spec.alpha != 0:
        raise UnsupportedOrderError(
            f"fourier features are derived for alpha = 0 only, got alpha = {spec.alpha}")
    X = _as_points(X, spec.d)
    phase = X @ ensemble.frequencies.omegas.T
    vals = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
    return FeatureMatrix(values=vals, scaling=1.0 / (2.0 * ensemble.m))


def features(X, ensemble: FeatureEnsemble) -> FeatureMatrix:
    if ensemble.kind == "nn":
        return nn_features(X, ensemble)
    return fourier_features(X, ensemble)


def approx_kernel(Xa, Xb, ensemble: FeatureEnsemble) -> np.ndarray:
    """Monte Carlo kernel K_hat[a, b] = scaling * <phi(x_a), phi(x_b)>."""
    Fa = features(Xa, ensemble)
    Fb = features(Xb, ensemble)
    return Fa.scaling * (Fa.values @ Fb.values.T)
