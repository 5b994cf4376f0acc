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
        pre = _as_points(X, self.spec.d) @ self.params.directions.T
        pre += self.params.biases
        if self.spec.alpha == 0:
            return np.greater(pre, 0.0, out=pre)
        np.maximum(pre, 0.0, out=pre)
        return np.power(pre, self.spec.alpha, out=pre)

    def grid_apply(self, weights, start: float, step: float, n: int) -> np.ndarray:
        """features(start + step * k for k < n) @ weights, for d = 1 and alpha = 0 only.

        With w_j = +-1 exactly, fl(w_j t + b_j) > 0 exactly when -b_j < w_j t, so the
        features of one sign on at t are a prefix of them in -b order (searchsorted):
        f(t) is two prefix sums of the weights, O(m log m + (n + m) k), no (n, m) array.
        """
        weights = _check_grid(self.spec, self.m, weights, start, step, n)
        w, b = self.params.directions[:, 0], self.params.biases
        if not np.all(np.abs(w) == 1.0):
            raise ValueError("grid_apply needs every direction to be exactly +1 or -1")
        order = np.argsort(-b, kind="stable")  # every feature, in threshold order
        t, out = start + step * np.arange(n), np.zeros((n,) + weights.shape[1:])
        for sign in (1.0, -1.0):
            on = order[w[order] == sign]
            sums = np.cumsum(np.insert(weights[on], 0, 0.0, axis=0), axis=0)
            out += sums[np.searchsorted(-b[on], sign * t, side="left")]
        return out


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
        X = _as_points(X, self.spec.d)
        out = np.empty((len(X), 2 * self.m))
        phase = np.matmul(X, self.frequencies.omegas.T, out=out[:, self.m:])
        np.cos(phase, out=out[:, :self.m])
        np.sin(phase, out=phase)
        return out

    def grid_apply(self, weights, start: float, step: float, n: int) -> np.ndarray:
        """features(start + step * k for k < n) @ weights on a uniform grid, for d = 1 only.

        The grid is cut into blocks of b rows, b the power of two at or above
        sqrt(n).  Row j of the block that starts at s has phase omega s + omega j step,
        so its cos and sin are those of e^{i omega s} e^{i omega j step}, one
        complex product of a block-start and an offset phasor (angle addition):
        O(sqrt(n) m) cos/sin calls instead of n m.  A complex block read as
        floats holds each frequency's cos and sin side by side, so the weights
        are interleaved to match.  Each block is multiplied by them as it is
        built: no (n, 2m) array exists and the temporaries are O(sqrt(n) m).
        """
        weights = _check_grid(self.spec, 2 * self.m, weights, start, step, n)
        b = 1
        while b * b < n:
            b *= 2
        omegas, m = self.frequencies.omegas[:, 0], self.m
        starts = _phasors(np.multiply.outer(start + np.arange(0, n, b) * step, omegas))
        offsets = _phasors(np.multiply.outer(np.arange(b) * step, omegas))
        interleaved = np.empty_like(weights)
        interleaved[0::2], interleaved[1::2] = weights[:m], weights[m:]
        out = np.empty((n,) + weights.shape[1:])
        block = np.empty_like(offsets)
        for i, z in enumerate(starts):
            rows = slice(i * b, min(n, (i + 1) * b))
            k = rows.stop - rows.start
            np.multiply(offsets[:k], z, out=block[:k])
            np.matmul(block[:k].view(float), interleaved, out=out[rows])
        return out


def _check_grid(spec: KernelSpec, columns: int, weights, start: float, step: float, n: int) -> np.ndarray:
    """The checks of both maps' grid_apply; returns the weights as a float array."""
    if spec.d != 1 or spec.alpha != 0:
        raise ValueError(f"grid_apply needs d = 1 and alpha = 0, got d = {spec.d}, alpha = {spec.alpha}")
    if n < 1:
        raise ValueError(f"grid_apply needs at least one point, got n = {n}")
    if not (np.isfinite(start) and np.isfinite(step)):
        raise ValueError("points must be finite")
    weights = np.asarray(weights, dtype=float)
    if weights.ndim not in (1, 2) or len(weights) != columns:
        raise ValueError(f"weights must have shape ({columns},) or ({columns}, k), got {weights.shape}")
    return weights


def _phasors(phase: np.ndarray) -> np.ndarray:
    """e^{i phase}, built from cos(phase) and sin(phase)."""
    z = np.empty(phase.shape, dtype=complex)
    z.real, z.imag = np.cos(phase), np.sin(phase)
    return z


def sample_nn_ensemble(spec: KernelSpec, m: int, stream: RngStream) -> NNFeatureMap:
    return NNFeatureMap(spec, sample_nn_params(spec.d, spec.R, m, stream))


def sample_fourier_ensemble(spec: KernelSpec, m: int, stream: RngStream) -> FourierFeatureMap:
    return FourierFeatureMap(spec, sample_fourier_frequencies(spec.d, spec.R, m, stream))


def approx_kernel(Xa, Xb, ensemble: NNFeatureMap | FourierFeatureMap) -> np.ndarray:
    """Monte Carlo kernel K_hat[a, b] = scaling * <phi(x_a), phi(x_b)>."""
    return ensemble.scaling * (ensemble.features(Xa) @ ensemble.features(Xb).T)
