import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from oracles import (distance_term_reference, k1_pol, mc_arccos_kernel, mc_nn_kernel,
                     nn_kernel_quadrature, pol_kernel_gaussian)
from splinerf.features import sample_fourier_ensemble, sample_nn_ensemble
from splinerf.kernels import (
    DISTANCE_BLOCK_ENTRIES,
    Derivative1DProfile,
    KernelSpec,
    UnsupportedOrderError,
    arccos_kernel,
    c_alpha,
    distance_kernel_matrix,
    kd,
    kernel_matrix,
    kernel_pairs,
    make_profile,
    monomial_exponents,
    monomial_matrix,
    rkhs_norm_1d,
    spline_fourier_constant,
    _distance_term,
)
from splinerf.sampling import RngStream


def test_c_alpha_d1_values():
    assert abs(c_alpha(KernelSpec(0, 1)) + 0.25) < 1e-15
    assert abs(c_alpha(KernelSpec(1, 1)) - 1.0 / 24.0) < 1e-15


def test_c_alpha_d1_factorial_consistency():
    for alpha in range(7):
        expected = (-1.0) ** (alpha + 1) * math.factorial(alpha) ** 2 \
            / (4.0 * math.factorial(2 * alpha + 1))
        assert abs(c_alpha(KernelSpec(alpha, 1)) - expected) < 1e-14


def test_c_alpha_d3():
    assert abs(c_alpha(KernelSpec(0, 3)) + 0.125) < 1e-15
    # same value through the sphere-moment route: -(1/4) E|w . e1|
    from oracles import sphere_moment

    e1 = np.array([1.0, 0.0, 0.0])
    assert abs(c_alpha(KernelSpec(0, 3)) + 0.25 * sphere_moment("abs_odd", e1, 0)) < 1e-15


def test_spline_fourier_constant_values():
    assert abs(spline_fourier_constant(KernelSpec(0, 1)) - 0.5) < 1e-14
    assert abs(spline_fourier_constant(KernelSpec(1, 1)) - 0.5) < 1e-14


def test_spline_fourier_constant_positive():
    for alpha in range(5):
        for d in (1, 2, 3, 7, 20):
            assert spline_fourier_constant(KernelSpec(alpha, d)) > 0.0


def test_spline_fourier_constant_independent_gamma():
    # cross-check the log-gamma evaluation against math.lgamma, term by term
    for alpha, d in [(1, 1), (2, 3), (0, 5), (3, 2)]:
        c = c_alpha(KernelSpec(alpha, d))
        direct = abs(c) * 2.0 ** (d + 1 + 2 * alpha) * math.pi ** (d / 2.0 - 1.0) \
            * math.exp(math.lgamma(alpha + 1.5)) * math.exp(math.lgamma(d / 2.0 + 0.5 + alpha))
        assert abs(spline_fourier_constant(KernelSpec(alpha, d)) - direct) < 1e-12 * direct


def test_k1_pol_alpha1_formula():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.uniform(-1, 1, 2)
        for R in (0.5, 1.0, 2.0):
            assert abs(k1_pol(x, y, 1, R) - (R ** 2 / 6.0 + x * y / 2.0)) < 1e-14


def test_k1_pol_alpha2_origin():
    assert abs(k1_pol(0.0, 0.0, 2, 1.0) - 0.1) < 1e-15


def test_k1_pol_alpha4_quadrature():
    x, y = 0.7, -0.2
    from oracles import adaptive_gauss_legendre

    direct = adaptive_gauss_legendre(
        lambda b: (x - b) ** 4 * (y - b) ** 4, -1.0, 1.0, tol=1e-13) / 4.0
    assert abs(k1_pol(x, y, 4, 1.0) - direct) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_kd_pol_small_alpha_closed_forms(d):
    rng = np.random.default_rng(d)
    R = 1.3
    xs, ys = [], []
    for _ in range(5):
        x = rng.normal(size=d); x *= rng.uniform(0, R) / np.linalg.norm(x)
        y = rng.normal(size=d); y *= rng.uniform(0, R) / np.linalg.norm(y)
        xs.append(x); ys.append(y)
    X, Y = np.array(xs), np.array(ys)
    xx, yy, xy = (X * X).sum(axis=1), (Y * Y).sum(axis=1), (X * Y).sum(axis=1)
    assert np.abs(kernel_pairs(X, Y, KernelSpec(0, d, R), "pol_only") - 0.5).max() < 1e-14
    k1 = R ** 2 / 6.0 + xy / (2.0 * d)
    assert np.abs(kernel_pairs(X, Y, KernelSpec(1, d, R), "pol_only") - k1).max() < 1e-14
    # alpha = 2: the x.y term carries 2R^2/(3d), consistent with the d = 1 kernel
    k2 = (R ** 4 / 10.0 + 2.0 * R ** 2 * xy / (3.0 * d)
          + R ** 2 * (xx + yy) / (6.0 * d)
          + (2.0 * xy ** 2 + xx * yy) / (2.0 * d * (d + 2)))
    assert np.abs(kernel_pairs(X, Y, KernelSpec(2, d, R), "pol_only") - k2).max() < 1e-13


def test_kd_pol_reduces_to_k1_pol():
    rng = np.random.default_rng(5)
    for alpha in (0, 1, 3, 5):
        x, y = rng.uniform(-0.9, 0.9, 2)
        got = kernel_pairs([[x]], [[y]], KernelSpec(alpha, 1), "pol_only")[0]
        assert abs(got - k1_pol(x, y, alpha, 1.0)) < 1e-13


def test_kd_pol_alpha3_monte_carlo():
    rng = np.random.default_rng(7)
    x = np.array([0.3, -0.5])
    y = np.array([-0.2, 0.6])
    spec = KernelSpec(3, 2, 1.0)

    def sampler(k):
        g = rng.standard_normal((k, 2))
        w = g / np.linalg.norm(g, axis=1, keepdims=True)
        return k1_pol(w @ x, w @ y, 3, 1.0)

    from oracles import mc_mean_stderr

    mean, se = mc_mean_stderr(sampler, 10_000_000)
    assert abs(kernel_pairs(x[None], y[None], spec, "pol_only")[0] - mean) < 4 * se


def test_kd_trivial_and_arithmetic():
    assert abs(kd(np.zeros(3), np.zeros(3), KernelSpec(0, 3)) - 0.5) < 1e-15
    # 1/6 - 1/8 + 1/24 = 1/12
    got = kd(np.array([0.5]), np.array([-0.5]), KernelSpec(1, 1, 1.0))
    assert abs(got - 1.0 / 12.0) < 1e-14
    assert abs(got - nn_kernel_quadrature(0.5, -0.5, 1, 1.0)) < 1e-12


def test_kd_monte_carlo_d3():
    rng = np.random.default_rng(21)
    x = rng.normal(size=3); x *= 0.7 / np.linalg.norm(x)
    y = rng.normal(size=3); y *= 0.4 / np.linalg.norm(y)
    mean, se = mc_nn_kernel(x, y, 1, 1.0, 10_000_000, rng)
    assert abs(kd(x, y, KernelSpec(1, 3)) - mean) < 4 * se


def test_kd_quadrature_equivalence_d1():
    rng = np.random.default_rng(31)
    for _ in range(30):
        alpha = int(rng.integers(0, 6))
        R = float(rng.choice([0.5, 1.0, 2.0]))
        x, y = rng.uniform(-R, R, 2)
        closed = kd(np.array([x]), np.array([y]), KernelSpec(alpha, 1, R))
        assert abs(closed - nn_kernel_quadrature(x, y, alpha, R)) < 1e-10


def test_kd_dimension_mismatch():
    with pytest.raises(ValueError):
        kd(np.zeros(2), np.zeros(3), KernelSpec(0, 2))
    with pytest.raises(ValueError):
        kernel_pairs(np.zeros((1, 3)), np.zeros((1, 3)), KernelSpec(0, 2), "pol_only")


def test_diagonal_bound():
    rng = np.random.default_rng(41)
    for alpha in range(4):
        for d in (1, 3, 5):
            for R in (0.5, 1.0, 2.0):
                spec = KernelSpec(alpha, d, R)
                bound = 0.5 * (2.0 * R) ** (2 * alpha)
                for _ in range(20):
                    x = rng.normal(size=d)
                    x *= rng.uniform(0, R) / np.linalg.norm(x)
                    assert kd(x, x, spec) <= bound + 1e-12 * bound


def test_arccos_trivial():
    x = np.array([0.2, -0.1])
    assert arccos_kernel(x, x, KernelSpec(0, 2)) == 0.5
    for d in (1, 2, 5):
        for R in (0.5, 1.0, 2.0):
            got = arccos_kernel(np.zeros(d), np.zeros(d), KernelSpec(1, d, R))
            assert abs(got - R ** 2 / (2.0 * (d + 1))) < 1e-14


def test_arccos_alpha2_monte_carlo():
    rng = np.random.default_rng(51)
    x = rng.normal(size=2); x *= 0.8 / np.linalg.norm(x)
    y = rng.normal(size=2); y *= 0.5 / np.linalg.norm(y)
    mean, se = mc_arccos_kernel(x, y, 2, 1.0, 10_000_000, rng)
    assert abs(arccos_kernel(x, y, KernelSpec(2, 2)) - mean) < 4 * se


def test_arccos_unsupported_order():
    with pytest.raises(UnsupportedOrderError):
        arccos_kernel(np.zeros(2), np.zeros(2), KernelSpec(3, 2))


def test_gram_single_point():
    K = kernel_matrix(np.zeros((1, 2)), np.zeros((1, 2)), KernelSpec(0, 2))
    assert abs(K[0, 0] - 0.5) < 1e-15


def test_gram_psd_and_symmetric():
    rng = np.random.default_rng(61)
    X = rng.uniform(-0.7, 0.7, (50, 2))
    K = kernel_matrix(X, X, KernelSpec(1, 2))
    # M C M^T rounds differently on the two sides at alpha >= 1
    assert np.max(np.abs(K - K.T)) <= 1e-15 * np.max(np.abs(K))
    eigs = np.linalg.eigvalsh(K)
    assert eigs.min() >= -1e-8 * K.diagonal().max()


@pytest.mark.parametrize("alpha,d", [(1, 2), (0, 3), (2, 1), (2, 3), (3, 2), (4, 3)])
def test_gram_pol_only_rank(alpha, d):
    rng = np.random.default_rng(62)
    X = rng.uniform(-0.7, 0.7, (50, d)) * min(1.0, np.sqrt(2.0 / d))  # inside the unit ball
    svals = np.linalg.svdvals(kernel_matrix(X, X, KernelSpec(alpha, d), kind="pol_only"))
    rank = int(np.sum(svals > 1e-8 * svals[0]))
    assert rank <= math.comb(d + alpha, alpha)  # polynomials of degree <= alpha in d variables


def test_conditional_positivity_of_distance_kernel():
    rng = np.random.default_rng(63)
    spec = KernelSpec(1, 2, 1.0)
    X = rng.uniform(-0.7, 0.7, (30, 2))
    E = distance_kernel_matrix(X, X, spec)
    Phi = monomial_matrix(X, monomial_exponents(2, 1))
    q, _ = np.linalg.qr(Phi)
    for _ in range(20):
        lam = rng.standard_normal(30)
        lam -= q @ (q.T @ lam)  # project onto Phi^T lam = 0
        quad = lam @ E @ lam
        assert quad >= -1e-8 * (lam @ lam) * np.abs(E).max()


def test_rkhs_norm_constant_alpha0():
    prof = make_profile([lambda t: 0.5 + 0.0 * np.asarray(t),
                         lambda t: 0.0 * np.asarray(t)], 1.0)
    assert abs(rkhs_norm_1d(prof, 0, 1.0) - 1.0) < 1e-12


def test_rkhs_norm_linear_alpha1():
    prof = make_profile([lambda t: np.asarray(t, dtype=float),
                         lambda t: np.ones_like(np.asarray(t, dtype=float)),
                         lambda t: np.zeros_like(np.asarray(t, dtype=float))], 1.0)
    assert abs(rkhs_norm_1d(prof, 1, 1.0) - 4.0) < 1e-12


@pytest.mark.parametrize("R", [0.5, 1.0, 2.0])
def test_rkhs_reproducing_property(R):
    # squared norm of the kernel section k(., y) equals k(y, y)
    rng = np.random.default_rng(71)
    for y in rng.uniform(-R, R, 6):
        f0 = lambda t: 0.5 - np.abs(np.asarray(t) - y) / (4 * R)
        f1 = lambda t: -np.sign(np.asarray(t) - y) / (4 * R)
        prof = make_profile([f0, f1], R)
        target = kd(np.array([y]), np.array([y]), KernelSpec(0, 1, R))
        assert abs(rkhs_norm_1d(prof, 0, R) - target) < 1e-6

        g0 = lambda t: R ** 2 / 6 + np.asarray(t) * y / 2 + np.abs(np.asarray(t) - y) ** 3 / (24 * R)
        g1 = lambda t: y / 2 + np.sign(np.asarray(t) - y) * (np.asarray(t) - y) ** 2 / (8 * R)
        g2 = lambda t: np.abs(np.asarray(t) - y) / (4 * R)
        prof = make_profile([g0, g1, g2], R)
        target = kd(np.array([y]), np.array([y]), KernelSpec(1, 1, R))
        assert abs(rkhs_norm_1d(prof, 1, R) - target) < 1e-6


def test_rkhs_norm_unsupported_order():
    prof = make_profile([lambda t: 0 * np.asarray(t)] * 4, 1.0)
    with pytest.raises(UnsupportedOrderError):
        rkhs_norm_1d(prof, 2, 1.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        Derivative1DProfile(boundary_low=np.zeros(1), boundary_high=np.zeros(1),
                            grid=np.array([0.0]), top_derivative=np.array([0.0]))
    prof = make_profile([lambda t: 0 * np.asarray(t), lambda t: 0 * np.asarray(t)], 1.0)
    with pytest.raises(ValueError):
        rkhs_norm_1d(prof, 1, 1.0)  # alpha = 1 needs two boundary orders


def test_kernel_matrix_cross():
    rng = np.random.default_rng(81)
    spec = KernelSpec(1, 3, 1.0)
    Xa = rng.uniform(-0.5, 0.5, (4, 3))
    Xb = rng.uniform(-0.5, 0.5, (6, 3))
    K = kernel_matrix(Xa, Xb, spec)
    assert K.shape == (4, 6)
    for i in range(4):
        for j in range(6):
            assert abs(K[i, j] - kd(Xa[i], Xb[j], spec)) < 1e-13


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(-1, 2, 1.0)
    with pytest.raises(ValueError):
        KernelSpec(0, 0, 1.0)
    with pytest.raises(ValueError):
        KernelSpec(0, 2, 0.0)


@pytest.mark.parametrize("alpha", [0, 1, 3])
@pytest.mark.parametrize("d", [1, 3])
def test_kernel_matrix_is_pol_part_plus_distance_term(alpha, d):
    from scipy.spatial.distance import cdist  # an independent distance for the check only

    rng = np.random.default_rng(90 + 10 * alpha + d)
    spec = KernelSpec(alpha, d, 1.3)
    Xa = rng.uniform(-0.7, 0.7, (37, d))
    Xb = np.vstack([Xa[:5], rng.uniform(-0.7, 0.7, (24, d))])  # include zero distances
    rows_per_block = DISTANCE_BLOCK_ENTRIES // len(Xb)
    Xa_blocks = np.vstack([Xb, rng.uniform(-0.7, 0.7, (3 * rows_per_block - 17, d))])
    assert len(Xa_blocks) % rows_per_block  # several row blocks, the last one ragged
    for A, B in [(Xa, Xb), (Xa_blocks, Xb), (Xa[:0], Xb), (Xa, Xb[:0])]:
        A_in, B_in = A.copy(), B.copy()
        K = kernel_matrix(A, B, spec)
        D = distance_kernel_matrix(A, B, spec)
        assert np.array_equal(A, A_in) and np.array_equal(B, B_in)
        assert K.shape == D.shape == (len(A), len(B))
        assert np.array_equal(K, kernel_matrix(A, B, spec, kind="pol_only") + D)
        assert np.array_equal(D, c_alpha(spec) * cdist(A, B) ** (2 * alpha + 1) / spec.R)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_distance_term_matches_whole_block_reference(alpha, d):
    rng = np.random.default_rng(140 + 10 * alpha + d)
    spec = KernelSpec(alpha, d, 1.3)
    Xb = rng.uniform(-0.7, 0.7, (24, d))
    rows_per_block = DISTANCE_BLOCK_ENTRIES // len(Xb)
    # coincident points, where c(alpha, d) < 0 at even alpha gives -0.0, and a ragged last row block
    Xa = np.vstack([Xb[:5], rng.uniform(-0.7, 0.7, (2 * rows_per_block + 7, d))])
    ref = distance_term_reference(Xa, Xb, spec)
    assert np.count_nonzero(ref == 0) == 5 and np.signbit(ref[0, 0]) == (alpha % 2 == 0)
    term = _distance_term(Xa[:, None, :], Xb[None, :, :], spec)
    assert np.array_equal(term, ref) and np.array_equal(np.signbit(term), np.signbit(ref))
    D = distance_kernel_matrix(Xa, Xb, spec)
    assert np.array_equal(D, ref) and np.array_equal(np.signbit(D), np.signbit(0.0 + ref))
    assert np.array_equal(kernel_pairs(Xa[:24], Xb, spec),
                          kernel_pairs(Xa[:24], Xb, spec, "pol_only") + np.diag(ref[:24]))


@pytest.fixture(scope="module")
def ball_points_d3():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((2000, 3))
    return g / np.linalg.norm(g, axis=1)[:, None] * rng.uniform(0, 1, 2000)[:, None] ** (1 / 3)


def test_kernel_matrix_matches_longdouble_reference(ball_points_d3):
    # alpha = 0: the polynomial part is exactly 1/2, so only |x - y| can go wrong
    X, spec = ball_points_d3, KernelSpec(0, 3)
    K = kernel_matrix(X, X, spec)
    Xl = X.astype(np.longdouble)
    for i in range(0, len(X), 250):
        dist = np.sqrt(((Xl[i:i + 250, None, :] - Xl[None, :, :]) ** 2).sum(axis=2))
        want = 0.5 + np.longdouble(c_alpha(spec)) * dist / np.longdouble(spec.R)
        assert np.abs(K[i:i + 250] - want).max() <= 1e-15


def test_distance_term_vanishes_on_the_diagonal(ball_points_d3):
    X, spec = ball_points_d3, KernelSpec(0, 3)
    diag = np.diag(kernel_matrix(X, X, spec)) - np.diag(kernel_matrix(X, X, spec, kind="pol_only"))
    assert np.count_nonzero(diag) == 0


def test_scipy_spatial_is_never_imported(tmp_path):
    script = f"""
import sys
import numpy as np
from splinerf.cli import main
from splinerf.kernels import KernelSpec, distance_kernel_matrix, kernel_matrix, kernel_pairs
X = np.random.default_rng(0).uniform(-0.5, 0.5, (20, 3))
spec = KernelSpec(1, 3)
kernel_matrix(X, X, spec), kernel_pairs(X, X, spec), distance_kernel_matrix(X, X, spec)
assert main(["--experiment", "fig3", "--n", "64", "--out", {str(tmp_path / "fig3.csv")!r}]) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy.spatial")))
"""
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("alpha", range(7))
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_monomial_matrix_matches_broadcast_powers(alpha, d):
    X = np.random.default_rng(130 + 10 * alpha + d).uniform(-1.0, 1.0, (41, d))
    X[3] = 0.0  # 0 ** 0 is 1
    E = np.array(monomial_exponents(d, alpha))
    M = monomial_matrix(X, E)
    assert np.array_equal(M, np.prod(X[:, None, :] ** E[None], axis=2))
    assert M.flags.c_contiguous  # M @ C rounds by memory layout


@pytest.mark.parametrize("alpha", range(7))
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_pol_part_matches_gaussian_moment_oracle(alpha, d):
    rng = np.random.default_rng(100 + 10 * alpha + d)
    spec = KernelSpec(alpha, d, 1.3)
    Xa = rng.normal(size=(23, d))
    Xa *= (spec.R * rng.uniform(0, 1, 23) / np.linalg.norm(Xa, axis=1))[:, None]
    Xb = np.vstack([Xa[:4], -0.5 * Xa[4:15]])
    want = pol_kernel_gaussian(Xa, Xb, alpha, spec.R)
    tol = 1e-13 * np.abs(want).max()
    K = kernel_matrix(Xa, Xb, spec, kind="pol_only")
    assert K.shape == want.shape
    assert np.abs(K - want).max() <= tol
    rows, cols = [0, 3, 22], [0, 7, 14]
    pairs = kernel_pairs(Xa[rows], Xb[cols], spec, "pol_only")
    assert np.abs(pairs - want[rows, cols]).max() <= tol


def test_pol_part_alpha0_is_exactly_one_half():
    X = np.random.default_rng(3).uniform(-0.5, 0.5, (17, 3))
    assert np.array_equal(kernel_matrix(X, X[:5], KernelSpec(0, 3), kind="pol_only"),
                          np.full((17, 5), 0.5))


def test_kernel_matrix_peak_memory_below_four_outputs():
    rng = np.random.default_rng(111)
    # the second case is fig3's kernel, whose distance term is added a row block at a time
    for X, spec, bound in [(rng.uniform(-0.5, 0.5, (1000, 3)), KernelSpec(6, 3), 4),
                           (np.linspace(-1.0, 1.0, 1000)[:, None], KernelSpec(0, 1), 2)]:
        kernel_matrix(X[:10], X[:10], spec)  # build the cached coefficients outside the window
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            K = kernel_matrix(X, X, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * K.nbytes, spec


@pytest.mark.parametrize("sampler, alpha", [(sample_fourier_ensemble, 0), (sample_nn_ensemble, 0),
                                            (sample_nn_ensemble, 2)])
def test_features_peak_memory_is_about_one_output(sampler, alpha):
    ens = sampler(KernelSpec(alpha, 3), 2048, RngStream(112))
    X = np.random.default_rng(113).uniform(-0.5, 0.5, (512, 3))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        F = ens.features(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * F.nbytes


@pytest.mark.parametrize("alpha", [0, 1, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_distance_kernel_matches_difference_array(alpha, d):
    rng = np.random.default_rng(120 + 10 * alpha + d)
    spec = KernelSpec(alpha, d, 1.3)
    Xa = rng.uniform(-0.7, 0.7, (31, d))
    Xb = np.vstack([Xa[:5], rng.uniform(-0.7, 0.7, (12, d))])
    dist = np.linalg.norm(Xa[:, None, :] - Xb[None, :, :], axis=2)
    expected = c_alpha(spec) * dist ** (2 * alpha + 1) / spec.R
    assert np.array_equal(distance_kernel_matrix(Xa, Xb, spec), expected)
    # the constrained spline solve relies on the square matrix being exactly symmetric
    K = distance_kernel_matrix(Xa, Xa, spec)
    assert np.array_equal(K, K.T)


def _ball_pairs(rng, n, d, R):
    Xa = rng.normal(size=(n, d))
    Xa *= (R * rng.uniform(0, 1, n) / np.linalg.norm(Xa, axis=1))[:, None]
    Xb = np.vstack([Xa[:4], -0.5 * Xa[4:]])  # four zero distances
    return Xa, Xb


@pytest.mark.parametrize("alpha", range(7))
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_kernel_pairs_match_oracle(alpha, d):
    rng = np.random.default_rng(200 + 10 * alpha + d)
    spec = KernelSpec(alpha, d, 1.3)
    Xa, Xb = _ball_pairs(rng, 23, d, spec.R)
    pol = np.diag(pol_kernel_gaussian(Xa, Xb, alpha, spec.R))
    dist = np.sqrt(((Xa - Xb) ** 2).sum(axis=1))
    want = pol + c_alpha(spec) * dist ** (2 * alpha + 1) / spec.R
    for kind, expected in (("nn", want), ("pol_only", pol)):
        got = kernel_pairs(Xa, Xb, spec, kind)
        assert got.shape == (23,)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max(), kind


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_kernel_pairs_arccos_match_kernel_matrix(alpha, d):
    rng = np.random.default_rng(300 + 10 * alpha + d)
    spec = KernelSpec(alpha, d, 1.3)
    Xa, Xb = _ball_pairs(rng, 23, d, spec.R)
    want = np.diag(kernel_matrix(Xa, Xb, spec, kind="arccos"))
    got = kernel_pairs(Xa, Xb, spec, "arccos")
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("kind", ["nn", "arccos", "pol_only"])
def test_kernel_pairs_shapes(kind):
    spec = KernelSpec(1, 2)
    with pytest.raises(ValueError):
        kernel_pairs(np.zeros((3, 2)), np.zeros((4, 2)), spec, kind)
    with pytest.raises(ValueError):
        kernel_pairs(np.zeros((3, 2)), np.zeros((3, 3)), spec, kind)
    assert kernel_pairs(np.zeros((0, 2)), np.zeros((0, 2)), spec, kind).shape == (0,)


def test_kernel_pairs_unknown_kind():
    with pytest.raises(ValueError):
        kernel_pairs(np.zeros((1, 2)), np.zeros((1, 2)), KernelSpec(1, 2), "maple")


def test_scalar_kernels_are_kernel_pairs_rows():
    # equal to a one-row call; to a row of a batched call up to the BLAS summation order
    rng = np.random.default_rng(400)
    for alpha, d in [(0, 1), (1, 3), (2, 2), (3, 3)]:
        spec = KernelSpec(alpha, d)
        Xa, Xb = _ball_pairs(rng, 6, d, spec.R)
        scalars = [("nn", kd)] + ([("arccos", arccos_kernel)] if alpha <= 2 else [])
        for kind, scalar in scalars:
            batch = kernel_pairs(Xa, Xb, spec, kind)
            for i in range(6):
                got = scalar(Xa[i], Xb[i], spec)
                assert got == kernel_pairs(Xa[i:i + 1], Xb[i:i + 1], spec, kind)[0]
                assert abs(got - batch[i]) <= 1e-13 * np.abs(batch).max()
