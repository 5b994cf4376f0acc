"""Finite random-feature maps and the approximate kernels they induce.

Each map holds its sampled parameters and gives a feature matrix phi(X) with
one row per point; k_hat(x, y) = scaling * <phi(x), phi(y)>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, UnsupportedOrderError, _as_points
from .sampling import RngStream, _taus, _unit_rows

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
    directions: np.ndarray  # (m, d), unit rows w_j
    biases: np.ndarray      # (m,), b_j in [-R, R]

    def __post_init__(self):
        _check_parameters(self.spec, self.biases, self.directions)

    @property
    def m(self) -> int:
        return len(self.biases)

    @property
    def scaling(self) -> float:
        return 1.0 / self.m

    def features(self, X) -> np.ndarray:
        """Entries (w_j . x_i + b_j)_+^alpha; for alpha = 0 a strict step (0 at 0)."""
        pre = _as_points(X, self.spec.d) @ self.directions.T
        pre += self.biases
        if self.spec.alpha == 0:
            return np.greater(pre, 0.0, out=pre)
        np.maximum(pre, 0.0, out=pre)
        return np.power(pre, self.spec.alpha, out=pre)

    def grid_apply(self, weights, n: int) -> np.ndarray:
        """features(-R + k step for k < n) @ weights, step = 2R / (n - 1), for d = 1 and alpha = 0 only.

        With w_j = +-1 exactly, fl(w_j t + b_j) > 0 exactly when -b_j < w_j t, so the
        features of one sign on at t are a prefix of them in -b order (searchsorted):
        f(t) is two prefix sums of the weights, O(m log m + (n + m) k), no (n, m) array.
        """
        weights, start, step = _check_grid(self.spec, self.m, weights, n)
        w, b = self.directions[:, 0], self.biases
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
    taus: np.ndarray        # (m,), frequency magnitudes
    directions: np.ndarray  # (m, d), unit rows w_j

    def __post_init__(self):
        if self.spec.alpha != 0:
            raise UnsupportedOrderError(
                f"fourier features are derived for alpha = 0 only, got alpha = {self.spec.alpha}")
        _check_parameters(self.spec, self.taus, self.directions)

    @property
    def m(self) -> int:
        return len(self.taus)

    @property
    def omegas(self) -> np.ndarray:
        """The frequencies omega_j = tau_j w_j, one row each."""
        return self.taus[:, None] * self.directions

    @property
    def scaling(self) -> float:
        return 1.0 / (2.0 * self.m)

    def features(self, X) -> np.ndarray:
        """Columns cos(omega_j . x), then sin(omega_j . x), one per frequency."""
        X = _as_points(X, self.spec.d)
        out = np.empty((len(X), 2 * self.m))
        phase = np.matmul(X, self.omegas.T, out=out[:, self.m:])
        np.cos(phase, out=out[:, :self.m])
        np.sin(phase, out=phase)
        return out

    def grid_apply(self, weights, n: int) -> np.ndarray:
        """features(-R + k step for k < n) @ weights, step = 2R / (n - 1), for d = 1 only.

        The grid is cut into blocks of b rows, b the power of two at or above
        sqrt(n).  Row j of the block that starts at s has phase omega s + omega j step,
        so its cos and sin are those of e^{i omega s} e^{i omega j step}, one
        complex product of a block-start and an offset phasor (angle addition):
        O(sqrt(n) m) cos/sin calls instead of n m.  A complex block read as
        floats holds each frequency's cos and sin side by side, so the weights
        are interleaved to match.  Each block is multiplied by them as it is
        built: no (n, 2m) array exists and the temporaries are O(sqrt(n) m).
        """
        weights, start, step = _check_grid(self.spec, 2 * self.m, weights, n)
        b = 1
        while b * b < n:
            b *= 2
        omegas, m = self.omegas[:, 0], self.m
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


def _check_parameters(spec: KernelSpec, values, directions) -> None:
    """The check of both maps: m >= 1 values of shape (m,) and directions of shape (m, d)."""
    if np.ndim(values) != 1 or len(values) < 1 or np.shape(directions) != (len(values), spec.d):
        raise ValueError(f"a feature map needs m >= 1 values of shape (m,) and directions of shape "
                         f"(m, {spec.d}), got {np.shape(values)} and {np.shape(directions)}")


def _check_grid(spec: KernelSpec, columns: int, weights, n: int):
    """The checks of both maps' grid_apply; returns float weights and the grid's start and step."""
    if spec.d != 1 or spec.alpha != 0:
        raise ValueError(f"grid_apply needs d = 1 and alpha = 0, got d = {spec.d}, alpha = {spec.alpha}")
    if n < 1:
        raise ValueError(f"grid_apply needs at least one point, got n = {n}")
    weights = np.asarray(weights, dtype=float)
    if weights.ndim not in (1, 2) or len(weights) != columns:
        raise ValueError(f"weights must have shape ({columns},) or ({columns}, k), got {weights.shape}")
    return weights, -spec.R, 2 * spec.R / max(n - 1, 1)


def _phasors(phase: np.ndarray) -> np.ndarray:
    """e^{i phase}, built from cos(phase) and sin(phase)."""
    z = np.empty(phase.shape, dtype=complex)
    z.real, z.imag = np.cos(phase), np.sin(phase)
    return z


def sample_nn_ensemble(spec: KernelSpec, m: int, stream: RngStream) -> NNFeatureMap:
    """m i.i.d. pairs: direction uniform on the sphere, then bias uniform on [-R, R]."""
    rng = stream.generator()
    directions = _unit_rows(rng, m, spec.d)
    return NNFeatureMap(spec, directions, rng.uniform(-spec.R, spec.R, size=m))


def sample_fourier_ensemble(spec: KernelSpec, m: int, stream: RngStream) -> FourierFeatureMap:
    """m frequencies omega = tau w: tau from the sin^2 density, then w uniform on the sphere."""
    rng = stream.generator()
    taus = _taus(spec.R, m, rng)
    return FourierFeatureMap(spec, taus, _unit_rows(rng, m, spec.d))


def approx_kernel(Xa, Xb, ensemble: NNFeatureMap | FourierFeatureMap) -> np.ndarray:
    """Monte Carlo kernel K_hat[a, b] = scaling * <phi(x_a), phi(x_b)>."""
    return ensemble.scaling * (ensemble.features(Xa) @ ensemble.features(Xb).T)
