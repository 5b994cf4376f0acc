"""Finite random-feature maps and the approximate kernels they induce.

Each map holds its sampled parameters and gives a feature matrix phi(X) with
one row per point; k_hat(x, y) = scaling * <phi(x), phi(y)>.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .kernels import KernelSpec, UnsupportedOrderError, _as_points
from .sampling import RngStream, _check_integer, _taus, _unit_rows

__all__ = [
    "NNFeatureMap",
    "FourierFeatureMap",
    "sample_nn_ensemble",
    "sample_fourier_ensemble",
    "approx_kernel",
]

GRID_CHUNK = 256  # frequencies per FourierFeatureMap.grid_apply GEMM: temporaries independent of m


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
        weights, n, start, step = _check_grid(self.spec, self.m, weights, n)
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
        """features(-R + r h for r < n) @ weights, h = 2R / (n - 1), for d = 1 only.

        Row r = p b + q (b a power of two near sqrt(n k), k labels) has phasor S_p O_q,
        S_p = e^{i omega (-R + p b h)}, O_q = e^{i omega q h}, and value Re(O_q D_p), D_p =
        S_p (a - i c) for cos and sin weights a, c.  Per frequency: about log2(n) + 1 cos/sin,
        b + P - 2 complex products by doubling (P = ceil(n / b)), P k for D, and 4 n k flops
        in one GEMM per GRID_CHUNK frequencies; temporaries O(GRID_CHUNK (b + P k))."""
        weights, n, start, step = _check_grid(self.spec, 2 * self.m, weights, n)
        W, omegas, m = weights.reshape(2 * self.m, -1), self.omegas[:, 0], self.m
        k, b = W.shape[1], 1
        while b < n and b * b < n * max(k, 1):
            b *= 2
        P, log_b = -(-n // b), (b - 1).bit_length()
        spacings = np.append(start, step * 2.0 ** np.arange(log_b + (P - 1).bit_length()))
        acc = np.zeros((b, P * k))
        for lo in range(0, m, GRID_CHUNK):
            w, hi = omegas[lo:lo + GRID_CHUNK], min(m, lo + GRID_CHUNK)
            direct = np.exp(1j * np.multiply.outer(spacings, w))  # at -R, then h, 2h, 4h, ...
            offsets = _doubled(np.ones_like(direct[0]), direct[1:log_b + 1], b)
            conj_d = np.empty((k, hi - lo), dtype=complex)  # conj(D) = conj(S) (a + i c)
            conj_d.real, conj_d.imag = W[lo:hi].T, W[m + lo:m + hi].T
            conj_d = np.conj(_doubled(direct[0], direct[log_b + 1:], P))[:, None, :] * conj_d
            acc += offsets.view(float) @ conj_d.view(float).reshape(P * k, 2 * (hi - lo)).T  # Re(O D)
        return acc.reshape(b, P, k).transpose(1, 0, 2).reshape(b * P, k)[:n].reshape((n,) + weights.shape[1:])


def _check_parameters(spec: KernelSpec, values, directions) -> None:
    """The check of both maps: m >= 1 values of shape (m,) and directions of shape (m, d), all finite."""
    if np.ndim(values) != 1 or len(values) < 1 or np.shape(directions) != (len(values), spec.d):
        raise ValueError(f"a feature map needs m >= 1 values of shape (m,) and directions of shape "
                         f"(m, {spec.d}), got {np.shape(values)} and {np.shape(directions)}")
    if not (np.isfinite(values).all() and np.isfinite(directions).all()):
        raise ValueError("feature map values and directions must be finite")


def _check_grid(spec: KernelSpec, columns: int, weights, n: int):
    """The checks of both maps' grid_apply; returns float weights, int n and the grid's start and step."""
    if spec.d != 1 or spec.alpha != 0:
        raise ValueError(f"grid_apply needs d = 1 and alpha = 0, got d = {spec.d}, alpha = {spec.alpha}")
    if not isinstance(n, Integral) or n < 1:  # numpy integers are Integral too; a float is not
        raise ValueError(f"grid_apply needs an integer n, at least one point, got n = {n!r}")
    weights = np.asarray(weights, dtype=float)
    if weights.ndim not in (1, 2) or len(weights) != columns:
        raise ValueError(f"weights must have shape ({columns},) or ({columns}, k), got {weights.shape}")
    return weights, int(n), -spec.R, 2 * spec.R / max(n - 1, 1)


def _doubled(first, factors, rows: int) -> np.ndarray:
    """Rows first prod_{2^j in r} factors[j], r < rows: row 2^j + r is row r times factors[j]."""
    out = np.empty((rows, len(first)), dtype=complex)
    out[0] = first
    for j, factor in enumerate(factors):
        np.multiply(out[:min(2 ** j, rows - 2 ** j)], factor, out=out[2 ** j:2 ** (j + 1)])
    return out


def sample_nn_ensemble(spec: KernelSpec, m: int, stream: RngStream) -> NNFeatureMap:
    """m i.i.d. pairs: direction uniform on the sphere, then bias uniform on [-R, R]."""
    m, rng = _check_integer("sample count", m, 0, 2 ** 63), stream.generator()
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
