"""Seeded sampling of sphere directions and Fourier frequency magnitudes.

All samplers are pure functions of their parameters and an :class:`RngStream`,
and each call draws from the one generator of its stream: identical seeds
reproduce identical output regardless of call order.  The feature maps in
:mod:`splinerf.features` draw their parameters with the helpers here.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .kernels import _check_radius

__all__ = [
    "SamplerError",
    "RngStream",
    "derive_seed",
    "tau_density",
    "sample_fourier_taus",
    "tau_rejection_stats",
]

# Cauchy-envelope rejection bound: p/q = sin^2(Rt) + sin^2(Rt)/(Rt)^2 <= 2.
REJECTION_ENVELOPE = 2.0
_MAX_PROPOSALS = 1_000_000


class SamplerError(RuntimeError):
    """A rejection loop exceeded its proposal budget."""


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: a Philox generator keyed by a 64-bit seed.

    Distinct keys give independent streams; :func:`derive_seed` makes one
    key per experiment cell.
    """

    seed: int

    def __post_init__(self):
        _check_integer("seed", self.seed, 0, 2 ** 64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=int(self.seed)))


def _check_integer(name: str, value, low: int, high: int) -> int:
    """value as an int in [low, high), so no two keys are read as one; a float is not Integral."""
    if not isinstance(value, Integral) or not low <= int(value) < high:
        raise ValueError(f"{name} must be an integer in [{low}, {high}), got {value!r}")
    return int(value)


def derive_seed(seed: int, *parts) -> int:
    """Derive a deterministic 64-bit sub-seed from a seed and a label tuple.

    Used to give every experiment cell (method, m, rep, ...) its own stream.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", _check_integer("seed", seed, 0, 2 ** 64)))
    for part in parts:
        if isinstance(part, str):
            h.update(b"s"); h.update(part.encode())
        else:
            h.update(b"i"); h.update(struct.pack("<q", _check_integer("label", part, -2 ** 63, 2 ** 63)))
    return int.from_bytes(h.digest(), "little")


def _unit_rows(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    g = rng.standard_normal((m, d))
    norms = np.linalg.norm(g, axis=1)
    # A zero Gaussian vector has probability zero; redraw defensively anyway.
    while np.any(norms < 1e-300):
        bad = norms < 1e-300
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1)
    return g / norms[:, None]


def tau_density(tau, R: float):
    """Frequency magnitude density sin^2(R tau) / (pi R tau^2) = R/pi (sin u / u)^2, u = R tau."""
    _check_radius(R)
    u = R * np.asarray(tau, dtype=float)
    out = np.array(np.abs(u) < 1e-8, dtype=float)  # the limits: 1 near u = 0, 0 at u = +-inf
    rest = ~((np.abs(u) < 1e-8) | np.isinf(u))  # NaN too: sin(NaN) / NaN is NaN
    out[rest] = (np.sin(u[rest]) / u[rest]) ** 2
    return R / np.pi * out


def _cauchy_density(tau: np.ndarray, R: float) -> np.ndarray:
    # Cauchy proposal with location 0 and scale 1/R.
    return (R / np.pi) / (1.0 + (R * tau) ** 2)


def _rejection_round(R: float, k: int, rng: np.random.Generator):
    proposals = rng.standard_cauchy(k) / R
    accept_prob = tau_density(proposals, R) / (REJECTION_ENVELOPE * _cauchy_density(proposals, R))
    accepted = rng.uniform(size=k) < accept_prob
    return proposals[accepted]


def _taus(R: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """m frequency magnitudes from rng by vectorised rejection rounds."""
    _check_radius(R)
    m = _check_integer("sample count", m, 0, 2 ** 63)
    chunks = []
    have = 0
    proposals_used = 0
    budget = _MAX_PROPOSALS + 8 * m
    while have < m:
        if proposals_used >= budget:
            raise SamplerError(f"rejection sampler exhausted {budget} proposals")
        k = max(int(2.2 * (m - have)), 256)
        k = min(k, budget - proposals_used)
        got = _rejection_round(R, k, rng)
        proposals_used += k
        chunks.append(got)
        have += got.size
    return np.concatenate(chunks)[:m] if chunks else np.empty(0)


def sample_fourier_taus(R: float, m: int, stream: RngStream) -> np.ndarray:
    """Draw m frequency magnitudes."""
    return _taus(R, m, stream.generator())


def tau_rejection_stats(R: float, n_proposals: int, stream: RngStream):
    """Run exactly n_proposals through the accept/reject step.

    Returns (accepted_samples, n_accepted); the expected acceptance rate is
    1 / REJECTION_ENVELOPE = 0.5.
    """
    _check_radius(R)
    rng = stream.generator()
    accepted = _rejection_round(R, _check_integer("proposal count", n_proposals, 0, 2 ** 63), rng)
    return accepted, accepted.size

