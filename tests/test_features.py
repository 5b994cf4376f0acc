import math
import tracemalloc
import types

import numpy as np
import pytest

from oracles import fourier_features_reference, nn_features_reference
from splinerf.features import (
    FourierFeatureMap,
    NNFeatureMap,
    approx_kernel,
    sample_fourier_ensemble,
    sample_nn_ensemble,
)
from splinerf.kernels import KernelSpec, UnsupportedOrderError, kd
from splinerf.regression import FitConfig, fit_primal, predict
from splinerf.sampling import RngStream, derive_seed


def _manual_nn_ensemble(w, b, spec):
    w = np.atleast_2d(np.asarray(w, dtype=float))
    return NNFeatureMap(spec, w, np.atleast_1d(np.asarray(b, dtype=float)))


def test_nn_feature_values():
    spec1 = KernelSpec(1, 1, 1.0)
    ens = _manual_nn_ensemble([[1.0]], [0.3], spec1)
    F = ens.features(np.array([[0.5]]))
    assert abs(F[0, 0] - 0.8) < 1e-15

    spec0 = KernelSpec(0, 1, 1.0)
    ens0 = _manual_nn_ensemble([[1.0]], [0.3], spec0)
    assert ens0.features(np.array([[0.5]]))[0, 0] == 1.0
    # activation power zero is a strict step: value 0 at exactly zero argument
    assert ens0.features(np.array([[-0.3]]))[0, 0] == 0.0


def test_nn_feature_alpha2():
    ens = _manual_nn_ensemble([[1.0]], [0.25], KernelSpec(2, 1, 1.0))
    F = ens.features(np.array([[0.5]]))
    assert abs(F[0, 0] - 0.75 ** 2) < 1e-15


def test_fourier_diag_exact_half():
    spec = KernelSpec(0, 2, 1.0)
    ens = sample_fourier_ensemble(spec, 64, RngStream(3))
    X = np.random.default_rng(1).uniform(-0.7, 0.7, (20, 2))
    K = approx_kernel(X, X, ens)
    assert np.all(np.diag(K) == 0.5)


def test_fourier_zero_frequency_constant():
    spec = KernelSpec(0, 1, 1.0)
    ens = FourierFeatureMap(spec, np.array([0.0]), np.array([[1.0]]))
    X = np.linspace(-1, 1, 9)[:, None]
    K = approx_kernel(X, X, ens)
    assert np.all(K == 0.5)


def test_fourier_requires_alpha0():
    with pytest.raises(UnsupportedOrderError):
        sample_fourier_ensemble(KernelSpec(1, 1, 1.0), 8, RngStream(0))
    with pytest.raises(UnsupportedOrderError):
        FourierFeatureMap(KernelSpec(1, 1, 1.0), np.array([1.0]), np.array([[1.0]]))


def test_fourier_kernel_value_d1():
    spec = KernelSpec(0, 1, 1.0)
    ens = sample_fourier_ensemble(spec, 1_000_000, RngStream(23))
    x = np.array([[0.3]])
    y = np.array([[-0.4]])
    khat = approx_kernel(x, y, ens)[0, 0]
    # per-frequency terms are cos(omega * 0.7) / 2; estimate their spread
    per_freq = 0.5 * np.cos(ens.omegas.ravel() * 0.7)
    se = per_freq.std(ddof=1) / np.sqrt(ens.m)
    expected = 0.5 - 0.7 / 4.0
    assert abs(khat - expected) < 4 * se


def test_fourier_kernel_value_d2():
    spec = KernelSpec(0, 2, 1.0)
    ens = sample_fourier_ensemble(spec, 200_000, RngStream(24))
    x = np.array([[0.3, 0.0]])
    y = np.array([[0.0, -0.4]])
    khat = approx_kernel(x, y, ens)[0, 0]
    delta = (x - y).ravel()
    per_freq = 0.5 * np.cos(ens.omegas @ delta)
    se = per_freq.std(ddof=1) / np.sqrt(ens.m)
    assert abs(khat - kd(x.ravel(), y.ravel(), spec)) < 5 * se


def test_nn_approx_kernel_matches_closed_form():
    spec = KernelSpec(1, 2, 1.0)
    ens = sample_nn_ensemble(spec, 1_000_000, RngStream(25))
    rng = np.random.default_rng(2)
    x = rng.uniform(-0.6, 0.6, 2)
    y = rng.uniform(-0.6, 0.6, 2)
    F = ens.features(np.stack([x, y]))
    prods = F[0] * F[1]
    se = prods.std(ddof=1) / np.sqrt(ens.m)
    khat = approx_kernel(x[None, :], y[None, :], ens)[0, 0]
    assert abs(khat - kd(x, y, spec)) < 4 * se


def test_nn_single_point_nonnegative():
    spec = KernelSpec(0, 2, 1.0)
    for seed in range(5):
        ens = sample_nn_ensemble(spec, 3, RngStream(seed))
        x = np.random.default_rng(seed).uniform(-0.5, 0.5, (1, 2))
        assert approx_kernel(x, x, ens)[0, 0] >= 0.0


def test_approx_kernel_psd():
    rng = np.random.default_rng(26)
    X = rng.uniform(-0.7, 0.7, (30, 2))
    for kind, ens in (
        ("nn", sample_nn_ensemble(KernelSpec(1, 2, 1.0), 128, RngStream(27))),
        ("fourier", sample_fourier_ensemble(KernelSpec(0, 2, 1.0), 128, RngStream(28))),
    ):
        K = approx_kernel(X, X, ens)
        eigs = np.linalg.eigvalsh(0.5 * (K + K.T))
        assert eigs.min() >= -1e-10 * np.trace(K), kind


def test_nn_feature_magnitude_bound():
    rng = np.random.default_rng(29)
    for alpha in (0, 1, 2, 3):
        for R in (0.5, 1.0, 2.0):
            spec = KernelSpec(alpha, 3, R)
            ens = sample_nn_ensemble(spec, 256, RngStream(30 + alpha))
            X = rng.normal(size=(50, 3))
            X *= rng.uniform(0, R, size=(50, 1)) / np.linalg.norm(X, axis=1, keepdims=True)
            F = ens.features(X)
            assert np.max(np.abs(F)) <= (2 * R) ** alpha + 1e-12


def test_law_of_large_numbers_rate():
    # |k_hat - k| decays like m^(-1/2): fit the log-log slope over m = 1e2..1e5
    spec = KernelSpec(0, 1, 1.0)
    x = np.array([[0.3]])
    y = np.array([[-0.45]])
    exact = kd(x.ravel(), y.ravel(), spec)
    m_grid = [100, 1000, 10_000, 100_000]
    for family, sampler in (
        ("nn", sample_nn_ensemble),
        ("fourier", sample_fourier_ensemble),
    ):
        errors = np.zeros(len(m_grid))
        for seed in range(100):
            for i, m in enumerate(m_grid):
                ens = sampler(spec, m, RngStream(derive_seed(1000 + seed, i)))
                errors[i] += abs(approx_kernel(x, y, ens)[0, 0] - exact)
        errors /= 100
        slope = np.polyfit(np.log10(m_grid), np.log10(errors), 1)[0]
        assert abs(slope + 0.5) < 0.1, (family, slope, errors)


def test_feature_matrix_dimension_mismatch():
    spec = KernelSpec(0, 2, 1.0)
    for ens in (sample_nn_ensemble(spec, 4, RngStream(31)),
                sample_fourier_ensemble(spec, 4, RngStream(31))):
        with pytest.raises(ValueError):
            ens.features(np.zeros((3, 5)))


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 3])
def test_nn_features_match_reference_bit_for_bit(d, alpha):
    spec = KernelSpec(alpha, d, 1.0)
    ens = sample_nn_ensemble(spec, 300, RngStream(derive_seed(35, d)))
    W, b = ens.directions.copy(), ens.biases.copy()
    X = np.random.default_rng(36).uniform(-0.7, 0.7, (40, d))
    # the first point lies on the first feature's hyperplane: w . x + b is exactly 0
    W[0], b[0], X[0, 0] = np.eye(d)[0], -0.25, 0.25
    ref = nn_features_reference(X, W, b, alpha)
    assert (X[:1] @ W[:1].T + b[0])[0, 0] == 0.0 and ref[0, 0] == 0.0
    assert np.array_equal(NNFeatureMap(spec, W, b).features(X), ref)


@pytest.mark.parametrize("d", [1, 3])
def test_fourier_features_match_reference_bit_for_bit(d):
    ens = sample_fourier_ensemble(KernelSpec(0, d, 1.0), 300, RngStream(derive_seed(37, d)))
    X = np.random.default_rng(38).uniform(-0.7, 0.7, (40, d))
    assert np.array_equal(ens.features(X), fourier_features_reference(X, ens.omegas))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_features_of_non_finite_points_rejected(bad):
    spec = KernelSpec(0, 2, 1.0)
    X = np.zeros((3, 2))
    X[1, 1] = bad
    for ens in (sample_nn_ensemble(spec, 4, RngStream(39)),
                sample_fourier_ensemble(spec, 4, RngStream(39))):
        with pytest.raises(ValueError, match="finite"):
            ens.features(X)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_primal_predict_at_non_finite_point_rejected(bad):
    spec = KernelSpec(0, 1, 1.0)
    X = np.linspace(-0.5, 0.5, 6)[:, None]
    model = fit_primal(X, X[:, 0] ** 2, sample_nn_ensemble(spec, 50, RngStream(40)),
                       FitConfig(mode="ridge", mu=1e-6))
    with pytest.raises(ValueError, match="finite"):
        predict(model, np.array([[0.1], [bad]]))


@pytest.fixture(scope="module")
def heavy_tailed_fourier_map():
    # this draw reaches |omega| = 2.8e5, as fig2's own draws do at seeds 2 and 3 (3.2e4 at seed 0)
    ens = sample_fourier_ensemble(KernelSpec(0, 1, 1.0), 2048, RngStream(7))
    assert np.abs(ens.omegas).max() > 2.5e5
    return ens


# k = 20 (fig2's labels) cuts the grid into larger blocks than a vector does, and
# n = 1000 and 4097 leave the last block short.
@pytest.mark.parametrize("k", [None, 1, 3, 20])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 511, 512, 513, 1000, 4097])
def test_grid_apply_matches_features(heavy_tailed_fourier_map, n, k):
    ens, R = heavy_tailed_fourier_map, 1.0
    W = np.random.default_rng(n).standard_normal((2 * ens.m,) if k is None else (2 * ens.m, k))
    t = -R + 2 * R / max(n - 1, 1) * np.arange(n)[:, None]
    got = ens.grid_apply(W, n)
    ref = np.concatenate([ens.features(t[i:i + 512]) @ W for i in range(0, n, 512)])
    assert got.shape == ref.shape
    # Both phases round omega * t, |t| <= R, to within a few ulp of max|omega| R, so each
    # feature entry differs by that much and each output row by that times sum |W|.
    bound = 4 * np.finfo(float).eps * (1 + np.abs(ens.omegas).max() * R)
    np.testing.assert_array_less(np.abs(got - ref), np.broadcast_to(bound * np.abs(W).sum(axis=0), got.shape))


def test_grid_apply_of_no_labels(heavy_tailed_fourier_map, step_map):
    for ens, columns in ((heavy_tailed_fourier_map, 2 * heavy_tailed_fourier_map.m), (step_map, step_map.m)):
        for n in (1, 512, 1000):
            assert ens.grid_apply(np.zeros((columns, 0)), n).shape == (n, 0)


@pytest.mark.parametrize("n", [1, 33, 512])
def test_grid_apply_takes_numpy_integers(heavy_tailed_fourier_map, step_map, n):
    # n is any integer, as KernelSpec's alpha and d are: np.int64(n) gives n's bytes
    for ens, columns in ((heavy_tailed_fourier_map, 2 * heavy_tailed_fourier_map.m), (step_map, step_map.m)):
        for W in (np.linspace(-1.0, 1.0, columns), np.random.default_rng(n).standard_normal((columns, 3))):
            want, got = ens.grid_apply(W, n), ens.grid_apply(W, np.int64(n))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [2048, 8192])
def test_fourier_grid_apply_peak_memory_does_not_grow_with_m(m):
    # fig2's call: 512 grid points, 20 labels.  The temporaries hold one chunk of
    # frequencies at a time, about 1.6 MiB at both m.
    ens = sample_fourier_ensemble(KernelSpec(0, 1, 1.0), m, RngStream(9))
    W = np.random.default_rng(10).standard_normal((2 * m, 20))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        ens.grid_apply(W, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


def test_grid_apply_rejects_bad_grids(heavy_tailed_fourier_map):
    W = np.ones(2 * heavy_tailed_fourier_map.m)
    with pytest.raises(ValueError, match="at least one point"):
        heavy_tailed_fourier_map.grid_apply(W, 0)
    for n in (2.5, 4.0, "4", None):
        with pytest.raises(ValueError, match="integer n"):
            heavy_tailed_fourier_map.grid_apply(W, n)
    with pytest.raises(ValueError, match="weights must have shape"):
        heavy_tailed_fourier_map.grid_apply(W[1:], 4)
    ens2 = sample_fourier_ensemble(KernelSpec(0, 2, 1.0), 8, RngStream(7))
    with pytest.raises(ValueError, match="d = 1"):
        ens2.grid_apply(np.ones(16), 4)


@pytest.fixture(scope="module")
def step_map():
    return sample_nn_ensemble(KernelSpec(0, 1, 1.0), 2048, RngStream(7))


@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 511, 512, 513])
def test_nn_grid_apply_matches_features(step_map, n, k):
    W = np.random.default_rng(n).standard_normal((step_map.m,) if k is None else (step_map.m, k))
    start, step = -1.0, 2.0 / max(n - 1, 1)
    got = step_map.grid_apply(W, n)
    ref = step_map.features(start + step * np.arange(n)[:, None]) @ W
    assert got.shape == ref.shape
    # Both sides add the same on-weights, in threshold and in index order.  A sum of
    # k terms is off by at most k eps/2 sum|W|, and in practice by far less: this
    # draw stays under 0.5 eps sum|W|, so c = 4 leaves a wide margin.
    bound = 4 * np.finfo(float).eps * np.abs(W).sum(axis=0)
    np.testing.assert_array_less(np.abs(got - ref), np.broadcast_to(bound, got.shape))


def test_nn_grid_apply_ties_are_inactive():
    # w = +1 is on at t > -b and w = -1 at t < b: on a grid of step 1/4 the
    # thresholds -0.5, 0 (w = +1) and 0.25, -0.75 (w = -1) are grid points.
    ens = _manual_nn_ensemble([[1.0], [1.0], [-1.0], [-1.0]], [0.5, 0.0, 0.25, -0.75],
                              KernelSpec(0, 1, 1.0))
    W = np.array([1.0, 2.0, 4.0, 8.0])  # every partial sum is exact
    t = -1.0 + 0.25 * np.arange(9)
    F = ens.features(t[:, None])
    assert F[t == -0.5, 0] == 0 and F[t == 0.0, 1] == 0 and F[t == 0.25, 2] == 0
    assert F[t == -0.75, 3] == 0
    np.testing.assert_array_equal(ens.grid_apply(W, 9), F @ W)


def test_nn_grid_apply_cancellation(step_map):
    # Entries of 1e12 whose signs alternate in threshold order and in index order,
    # each plus a unit normal: the output is far smaller than sum|W|.
    m, rng = step_map.m, np.random.default_rng(5)
    by_threshold = np.empty(m)
    by_threshold[np.argsort(-step_map.biases)] = (-1.0) ** np.arange(m)
    W = 1e12 * np.stack([by_threshold, (-1.0) ** np.arange(m)], axis=1) + rng.standard_normal((m, 2))
    t = -1.0 + 2.0 / 511 * np.arange(512)
    F = step_map.features(t[:, None]).astype(bool)
    exact = np.array([[math.fsum(W[on, c]) for c in range(2)] for on in F])
    # c = 1 against the correctly rounded sums: each prefix-sum step rounds by at
    # most eps/2 of a partial sum, and for this W they add up to about 0.1 eps sum|W|.
    bound = np.finfo(float).eps * np.abs(W).sum(axis=0)
    np.testing.assert_array_less(np.abs(step_map.grid_apply(W, 512) - exact),
                                 np.broadcast_to(bound, (512, 2)))


def test_nn_grid_apply_rejects(step_map):
    W = np.ones(step_map.m)
    with pytest.raises(ValueError, match="d = 1"):
        sample_nn_ensemble(KernelSpec(0, 2, 1.0), 8, RngStream(7)).grid_apply(np.ones(8), 4)
    with pytest.raises(ValueError, match="alpha = 0"):
        sample_nn_ensemble(KernelSpec(1, 1, 1.0), 8, RngStream(7)).grid_apply(np.ones(8), 4)
    with pytest.raises(ValueError, match="at least one point"):
        step_map.grid_apply(W, 0)
    for n in (2.5, 4.0, "4", None):
        with pytest.raises(ValueError, match="integer n"):
            step_map.grid_apply(W, n)
    with pytest.raises(ValueError, match="weights must have shape"):
        step_map.grid_apply(np.ones((step_map.m + 1, 2)), 4)
    half = _manual_nn_ensemble([[1.0], [0.5]], [0.0, 0.1], KernelSpec(0, 1, 1.0))
    with pytest.raises(ValueError, match="exactly"):
        half.grid_apply(np.ones(2), 4)


def test_ensemble_validation():
    spec = KernelSpec(0, 1, 1.0)
    with pytest.raises(ValueError):
        NNFeatureMap(spec, np.empty((0, 1)), np.empty(0))
    with pytest.raises(ValueError):
        FourierFeatureMap(spec, np.empty(0), np.empty((0, 1)))


@pytest.mark.parametrize("values, directions", [
    (np.zeros(1), np.ones((3, 1))),       # three directions, one value
    (np.zeros(3), np.ones((1, 1))),       # one direction, three values
    (np.zeros((3, 1)), np.ones((3, 1))),  # values not of shape (m,)
    (np.zeros(3), np.ones((3, 2))),       # directions of another dimension than the spec's
    (np.zeros(3), np.ones(3)),            # directions not of shape (m, d)
])
def test_feature_maps_check_parameter_shapes(values, directions):
    spec = KernelSpec(0, 1, 1.0)
    for make in (lambda: NNFeatureMap(spec, directions, values),
                 lambda: FourierFeatureMap(spec, values, directions)):
        with pytest.raises(ValueError, match="m >= 1 values of shape"):
            make()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_maps_reject_non_finite_parameters(bad):
    # a NaN direction and an infinite bias gave finite but wrong step features
    spec = KernelSpec(0, 1, 1.0)
    with pytest.raises(ValueError, match="finite"):
        NNFeatureMap(spec, [[np.nan], [1.0]], [0.0, np.inf])
    for values, directions in (([0.5, bad], [[1.0], [-1.0]]), ([0.5, 0.25], [[1.0], [bad]])):
        for make in (lambda: NNFeatureMap(spec, directions, values),
                     lambda: FourierFeatureMap(spec, values, directions)):
            with pytest.raises(ValueError, match="finite"):
                make()


@pytest.mark.parametrize("R", [0.25, 3.0])
def test_grid_apply_reads_its_radius(R):
    # both maps apply their weights on the grid of their own ball, -R + k 2R / (n - 1)
    n, rng = 33, np.random.default_rng(6)
    t = -R + 2 * R / (n - 1) * np.arange(n)[:, None]
    nn = sample_nn_ensemble(KernelSpec(0, 1, R), 64, RngStream(8))
    fourier = sample_fourier_ensemble(KernelSpec(0, 1, R), 64, RngStream(8))
    # the rounding bounds of the two grid_apply tests above
    for ens, phase in ((nn, 0.0), (fourier, np.abs(fourier.omegas).max() * R)):
        W = rng.standard_normal(ens.features(t).shape[1])
        bound = 4 * np.finfo(float).eps * (1 + phase) * np.abs(W).sum()
        assert np.abs(ens.grid_apply(W, n) - ens.features(t) @ W).max() <= bound


def test_feature_maps_shape_and_scaling():
    spec = KernelSpec(0, 2, 1.0)
    X = np.random.default_rng(32).uniform(-0.7, 0.7, (5, 2))
    nn = sample_nn_ensemble(spec, 6, RngStream(33))
    fourier = sample_fourier_ensemble(spec, 6, RngStream(34))
    assert (nn.m, nn.scaling, nn.features(X).shape) == (6, 1.0 / 6, (5, 6))
    assert (fourier.m, fourier.scaling, fourier.features(X).shape) == (6, 1.0 / 12, (5, 12))


def test_features_submodule_not_shadowed():
    import splinerf.features

    assert isinstance(splinerf.features, types.ModuleType)
