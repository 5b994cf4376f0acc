"""Finite random-feature maps and the approximate kernels they induce.

Each map holds its sampled parameters and gives a feature matrix phi(X) with
one row per point; k_hat(x, y) = scaling * <phi(x), phi(y)>.
"""

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
    "NNFeatureMap",
    "FourierFeatureMap",
    "sample_nn_ensemble",
    "sample_fourier_ensemble",
    "approx_kernel",
]


@dataclass(frozen=True)
class NNFeatureMap:
    """Power-ReLU network features (w_j . x + b_j)_+^alpha, scaling 1/m."""

    spec: KernelSpec
    params: NNParams

    def __post_init__(self):
        if len(self.params) < 1:
            raise ValueError("nn feature map requires at least one parameter pair")

    @property
    def m(self) -> int:
        return len(self.params)

    @property
    def scaling(self) -> float:
        return 1.0 / self.m

    def features(self, X) -> np.ndarray:
        """Entries (w_j . x_i + b_j)_+^alpha; for alpha = 0 a strict step (0 at 0)."""
        pre = _as_points(X, self.spec.d, finite=True) @ self.params.directions.T
        pre += self.params.biases
        if self.spec.alpha == 0:
            return np.greater(pre, 0.0, out=pre)
        np.maximum(pre, 0.0, out=pre)
        return np.power(pre, self.spec.alpha, out=pre)


@dataclass(frozen=True)
class FourierFeatureMap:
    """Random Fourier features, a cos and a sin column per frequency, scaling 1/(2m).

    The spectral expansion of the spline kernel exists only for alpha = 0.
    """

    spec: KernelSpec
    frequencies: FourierFrequencies

    def __post_init__(self):
        if self.spec.alpha != 0:
            raise UnsupportedOrderError(
                f"fourier features are derived for alpha = 0 only, got alpha = {self.spec.alpha}")
        if len(self.frequencies) < 1:
            raise ValueError("fourier feature map requires at least one frequency")

    @property
    def m(self) -> int:
        return len(self.frequencies)

    @property
    def scaling(self) -> float:
        return 1.0 / (2.0 * self.m)

    def features(self, X) -> np.ndarray:
        """Columns cos(omega_j . x), then sin(omega_j . x), one per frequency."""
        X = _as_points(X, self.spec.d, finite=True)
        out = np.empty((len(X), 2 * self.m))
        phase = np.matmul(X, self.frequencies.omegas.T, out=out[:, self.m:])
        np.cos(phase, out=out[:, :self.m])
        np.sin(phase, out=phase)
        return out


def sample_nn_ensemble(spec: KernelSpec, m: int, stream: RngStream) -> NNFeatureMap:
    return NNFeatureMap(spec, sample_nn_params(spec.d, spec.R, m, stream))


def sample_fourier_ensemble(spec: KernelSpec, m: int, stream: RngStream) -> FourierFeatureMap:
    return FourierFeatureMap(spec, sample_fourier_frequencies(spec.d, spec.R, m, stream))


def approx_kernel(Xa, Xb, ensemble: NNFeatureMap | FourierFeatureMap) -> np.ndarray:
    """Monte Carlo kernel K_hat[a, b] = scaling * <phi(x_a), phi(x_b)>."""
    return ensemble.scaling * (ensemble.features(Xa) @ ensemble.features(Xb).T)
