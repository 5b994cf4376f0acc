"""Property tests of the polynomial kernel part over random alpha, d and points.

Derandomized, so every run draws the same examples and a failure reproduces.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from splinerf.kernels import KernelSpec, kernel_matrix, kernel_pairs

PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def spec_and_points(draw, max_points=8):
    """A KernelSpec with alpha <= 6, d <= 4 and up to max_points points in its ball."""
    alpha = draw(st.integers(0, 6))
    d = draw(st.integers(1, 4))
    R = draw(st.sampled_from([0.5, 1.0, 2.0]))
    n = draw(st.integers(1, max_points))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    X *= (R * rng.uniform(0, 1, n) / np.linalg.norm(X, axis=1))[:, None]
    return KernelSpec(alpha, d, R), X


def _pol(X, spec):
    return kernel_matrix(X, X, spec, kind="pol_only")


@PROPERTY_SETTINGS
@given(spec_and_points())
def test_pol_part_symmetric(case):
    spec, X = case
    K = _pol(X, spec)
    assert np.abs(K - K.T).max() <= 1e-13 * np.abs(K).max()


@PROPERTY_SETTINGS
@given(spec_and_points(max_points=5))
def test_pol_part_batch_matches_scalar(case):
    spec, X = case
    K = _pol(X, spec)
    n = X.shape[0]
    pairs = kernel_pairs(np.repeat(X, n, axis=0), np.tile(X, (n, 1)), spec, "pol_only")
    assert np.abs(K - pairs.reshape(n, n)).max() <= 1e-13 * np.abs(K).max()


@PROPERTY_SETTINGS
@given(spec_and_points(max_points=30))
def test_pol_only_gram_psd(case):
    spec, X = case
    K = _pol(X, spec)
    eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
    assert eigs.min() >= -1e-12 * eigs.max()
