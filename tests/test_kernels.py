import ast
import functools
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla

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
    _distance_term,
    _gram,
    _product,
)
import splinerf.kernels
import splinerf.regression
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


@pytest.mark.parametrize("d", range(1, 7))
def test_c_alpha_is_correctly_rounded_against_mpmath(d):
    # c = (-1)^(alpha + 1) alpha!^3 / (2 alpha + 1)! Gamma(d/2) / Gamma(d/2 + 1/2 + alpha)
    # / (4 sqrt(pi)) at 200 bits, within one unit of 2^-53 relative
    with mpmath.workprec(200):
        half = mpmath.mpf(d) / 2
        for alpha in range(31):
            want = ((-1) ** (alpha + 1) * mpmath.factorial(alpha) ** 3 / mpmath.factorial(2 * alpha + 1)
                    * mpmath.gamma(half) / mpmath.gamma(half + 0.5 + alpha) / (4 * mpmath.sqrt(mpmath.pi)))
            got = c_alpha(KernelSpec(alpha, d))
            assert abs((mpmath.mpf(got) - want) / want) <= mpmath.mpf(2) ** -53, alpha


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


@pytest.mark.parametrize("builder, na, nb", [(kernel_matrix, 0, 0), (kernel_matrix, 0, 2),
                                             (kernel_matrix, 2, 0), (kernel_pairs, 0, 0)])
def test_arccos_unsupported_order_on_empty_points(builder, na, nb):
    # the order is checked before any block, so an input with no block raises too
    with pytest.raises(UnsupportedOrderError, match="alpha <= 2"):
        builder(np.zeros((na, 2)), np.zeros((nb, 2)), KernelSpec(3, 2), kind="arccos")


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


def test_rkhs_norm_rejects_a_profile_of_another_radius():
    # f(t) = t has squared norm 4R^2: 4 on [-1, 1] and 36 on [-3, 3], never a mix of the two (12)
    line = [lambda t: np.asarray(t, dtype=float), lambda t: np.ones_like(np.asarray(t, dtype=float))]
    assert rkhs_norm_1d(make_profile(line, 1.0), 0, 1.0) == pytest.approx(4.0, rel=1e-12)
    assert rkhs_norm_1d(make_profile(line, 3.0), 0, 3.0) == pytest.approx(36.0, rel=1e-12)
    short = Derivative1DProfile(boundary_low=np.zeros(1), boundary_high=np.zeros(1),
                                grid=np.linspace(-1.0, 0.5, 5), top_derivative=np.zeros(5))
    for prof, R in ((make_profile(line, 1.0), 3.0), (make_profile(line, 3.0), 1.0), (short, 1.0)):
        with pytest.raises(ValueError, match="profile grid spans"):
            rkhs_norm_1d(prof, 0, R)


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


@pytest.mark.parametrize("alpha, d", [(2.5, 3), (1.0, 2), (1, 2.0), (1, 2.5), (np.float64(1), 2)])
def test_kernel_spec_rejects_non_integral_orders(alpha, d):
    with pytest.raises(ValueError, match="alpha must be a natural number|dimension must be >= 1"):
        KernelSpec(alpha, d)


def test_kernel_spec_accepts_numpy_integers():
    spec = KernelSpec(np.int64(1), np.int64(2))
    X = np.array([[0.1, 0.2], [-0.3, 0.4]])
    assert np.array_equal(kernel_matrix(X, X, spec), kernel_matrix(X, X, KernelSpec(1, 2)))


@pytest.mark.parametrize("exponents", [[(0, -1)], [(0.5, 1)], [(1, 0), (2, -3)]])
def test_monomial_matrix_rejects_exponents_that_are_not_natural(exponents):
    with pytest.raises(ValueError, match="natural numbers"):
        monomial_matrix([[2.0, 3.0]], exponents)


def test_monomial_matrix_accepts_integral_exponents_of_any_dtype():
    want = np.array([[2.0 * 9.0, 1.0]])
    for exponents in ([(1, 2), (0, 0)], np.array([(1, 2), (0, 0)], dtype=np.uint8),
                      [(1.0, 2.0), (0.0, 0.0)]):
        assert np.array_equal(monomial_matrix([[2.0, 3.0]], exponents), want)


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
        sq = cdist(A, B, "sqeuclidean")
        # |a - b|^(2 alpha + 1) as |a - b| times alpha factors |a - b|^2, left to right
        power = functools.reduce(np.multiply, [sq] * alpha, cdist(A, B))
        assert np.array_equal(D, c_alpha(spec) * power / spec.R)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_distance_term_matches_whole_block_reference(alpha, d):
    rng = np.random.default_rng(140 + 10 * alpha + d)
    spec = KernelSpec(alpha, d, 1.3)
    Xb = rng.uniform(-0.7, 0.7, (24, d))
    rows_per_block = DISTANCE_BLOCK_ENTRIES // len(Xb)
    # coincident points, where c(alpha, d) < 0 at even alpha gives -0.0, and a ragged last row block
    Xa = np.vstack([Xb[:5], rng.uniform(-0.7, 0.7, (2 * rows_per_block + 7, d))])
    ref = distance_term_reference(Xa[:, None, :], Xb[None, :, :], spec)
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
    # nor scipy.special: c_alpha needs no Gamma function, and the import costs RSS and time
    script = f"""
import sys
import numpy as np
from splinerf.cli import main
from splinerf.kernels import KernelSpec, distance_kernel_matrix, kernel_matrix, kernel_pairs
from splinerf.regression import fit_constrained_spline, fit_dual
X = np.random.default_rng(0).uniform(-0.5, 0.5, (20, 3))
spec = KernelSpec(1, 3)
kernel_matrix(X, X, spec), kernel_pairs(X, X, spec), distance_kernel_matrix(X, X, spec)
fit_dual(X, X[:, 0], spec), fit_constrained_spline(X, X[:, 0], spec)
assert main(["--experiment", "fig3", "--n", "64", "--out", {str(tmp_path / "fig3.csv")!r}]) == 0
print(sorted(name for name in sys.modules if name.startswith(("scipy.spatial", "scipy.special"))))
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
    # x^k as the k-th left-to-right product x x ... x, with x^0 = 1
    table = np.concatenate([np.ones((41, d, 1)),
                            np.cumprod(np.repeat(X[:, :, None], alpha, axis=2), axis=2)], axis=2)
    assert np.array_equal(M, np.prod([table[:, j, E[:, j]] for j in range(d)], axis=0))
    assert M.flags.c_contiguous  # M @ C rounds by memory layout


def test_monomial_matrix_peak_memory_below_three_outputs():
    # the coordinates' powers are gathered one coordinate at a time, never as an (n, r, d) array
    X = np.random.default_rng(132).uniform(-1.0, 1.0, (4096, 3))
    E = np.array(monomial_exponents(3, 3))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        M = monomial_matrix(X, E)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * M.nbytes


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
    # the arccos Gram is built a row block at a time too
    for X, spec, kind, bound in [(rng.uniform(-0.5, 0.5, (1000, 3)), KernelSpec(6, 3), "nn", 4),
                                 (np.linspace(-1.0, 1.0, 1000)[:, None], KernelSpec(0, 1), "nn", 2),
                                 (rng.uniform(-0.5, 0.5, (2000, 3)), KernelSpec(1, 3), "arccos", 2)]:
        kernel_matrix(X[:10], X[:10], spec, kind)  # build the cached coefficients outside the window
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            K = kernel_matrix(X, X, spec, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * K.nbytes, spec


def test_kernel_blocks_peak_memory_is_the_output_and_one_buffer():
    # the distance term is written straight into the output's row blocks, so the one scratch
    # buffer is _distance_term's, next to M(Xa) C, M(Xb) and the coordinate-contiguous copies
    rng = np.random.default_rng(114)
    Xa, Xb = rng.uniform(-0.5, 0.5, (2000, 3)), rng.uniform(-0.5, 0.5, (1000, 3))
    spec = KernelSpec(3, 3)
    monomials = 8 * len(monomial_exponents(3, 3)) * (len(Xa) + len(Xb))
    kernel_matrix(Xa[:10], Xb[:10], spec)  # build the cached coefficients outside the window
    for build, extra in ((kernel_matrix, monomials), (distance_kernel_matrix, 0)):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            K = build(Xa, Xb, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # plus 2 ** 17 bytes for numpy's iteration buffers (8192 entries) and small objects
        bound = K.nbytes + 8 * DISTANCE_BLOCK_ENTRIES + extra + Xa.nbytes + Xb.nbytes + 2 ** 17
        assert peak < bound, (build.__name__, peak - K.nbytes)


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
    sq = np.sum((Xa[:, None, :] - Xb[None, :, :]) ** 2, axis=2)
    expected = c_alpha(spec) * functools.reduce(np.multiply, [sq] * alpha, np.sqrt(sq)) / spec.R
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
    assert np.array_equal(kernel_pairs(Xa, Xb, spec, "arccos"), want)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12, 17])
def test_arccos_bits_do_not_depend_on_memory_layout(d):
    # the squared norms are summed over coordinates left to right, as x.y is; an einsum
    # rounded them by the points' memory layout
    rng = np.random.default_rng(310 + d)
    Xa, Xb = rng.uniform(-0.5, 0.5, (2, 300, d)) / np.sqrt(d)
    for alpha in (0, 1, 2):
        spec = KernelSpec(alpha, d, 1.3)
        for build in (kernel_matrix, kernel_pairs):
            want = build(Xa, Xb, spec, "arccos")
            assert np.array_equal(build(np.asfortranarray(Xa), np.asfortranarray(Xb), spec, "arccos"),
                                  want), (alpha, build.__name__)


_SPEC_1_2 = KernelSpec(1, 2)
_BUILDERS = {
    "distance_kernel_matrix": lambda A, B: distance_kernel_matrix(A, B, _SPEC_1_2),
    "kd": lambda A, B: kd(A[1], B[1], _SPEC_1_2),
    "arccos_kernel": lambda A, B: arccos_kernel(A[1], B[1], _SPEC_1_2),
    **{f"kernel_matrix-{kind}": lambda A, B, kind=kind: kernel_matrix(A, B, _SPEC_1_2, kind)
       for kind in ("nn", "arccos", "pol_only")},
    **{f"kernel_pairs-{kind}": lambda A, B, kind=kind: kernel_pairs(A, B, _SPEC_1_2, kind)
       for kind in ("nn", "arccos", "pol_only")},
}


@pytest.mark.parametrize("builder", _BUILDERS)
@pytest.mark.parametrize("side", [0, 1])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernel_builders_reject_non_finite_points(bad, side, builder):
    # raise, rather than return NaN or inf entries with only a RuntimeWarning
    A, B = np.random.default_rng(131).uniform(-0.5, 0.5, (2, 3, 2))
    (A, B)[side][1, 0] = bad
    with pytest.raises(ValueError, match="points must be finite"):
        _BUILDERS[builder](A, B)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("kind, alpha", [("nn", 0), ("nn", 3), ("distance", 0), ("distance", 3)])
def test_gram_triangle_is_the_full_matrix(kind, alpha, d):
    # n = 300 makes three row blocks, the last one ragged; fit_dual and
    # fit_constrained_spline factor the triangle i <= j and take max|K| of the distance Gram
    spec = KernelSpec(alpha, d, 1.0)
    X = np.random.default_rng(140 + d).uniform(-0.7, 0.7, (300, d))
    G = _gram(X, spec, kind)
    if kind == "nn":
        full, partial = kernel_matrix(X, X, spec), kernel_matrix(X, X, spec, kind="pol_only")
    else:
        full, partial = distance_kernel_matrix(X, X, spec), np.zeros((300, 300))
    upper, lower = np.triu_indices(300), np.tril_indices(300, -1)
    assert np.array_equal(G[upper], full[upper])
    assert np.all((G[lower] == full[lower]) | (G[lower] == partial[lower]))


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


_PAIRS_AT_THREADS = """
import numpy as np
from oracles import kernel_pairs_reference
from splinerf.kernels import KernelSpec, kernel_pairs
P = np.random.default_rng(410).uniform(-0.57, 0.57, (20000, 6))
for alpha, kind in [(0, "nn"), (1, "nn"), (3, "nn"), (3, "pol_only")]:
    spec = KernelSpec(alpha, 3)
    print(np.array_equal(kernel_pairs(P[:, :3], P[:, 3:], spec, kind),
                         kernel_pairs_reference(P[:, :3], P[:, 3:], spec, kind)))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_kernel_pairs_blocks_keep_the_one_call_bits(threads):
    # 20 000 pairs are five PAIR_BLOCK blocks, the last one overlapping the fourth; at
    # alpha = 3, d = 3, M(Xa) C has 20 columns, and blocks of 2048 rows take OpenBLAS's
    # small-matrix dgemm kernel, which moves the last bit of about a hundred values
    tests = pathlib.Path(__file__).parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-c", _PAIRS_AT_THREADS], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout.split() == ["True"] * 4


_ARCCOS_AT_THREADS = """
import hashlib
import numpy as np
from splinerf.kernels import KernelSpec, kernel_matrix
rng = np.random.default_rng(420)
for alpha in (1, 2):
    for d in (3, 5):
        spec = KernelSpec(alpha, d)
        X, Xa, Xb = (rng.uniform(-0.57, 0.57, (n, d)) for n in (300, 1000, 700))
        K = kernel_matrix(X, X, spec, kind="arccos")
        cross = kernel_matrix(Xa, Xb, spec, kind="arccos")
        print(alpha, d, np.array_equal(K, K.T), hashlib.sha256(cross.tobytes()).hexdigest())
"""


@functools.lru_cache(maxsize=2)
def _arccos_at_threads(threads):
    """{(alpha, d): (Gram exactly symmetric, digest of a 1000 x 700 cross matrix)} from a
    fresh interpreter at the given OpenBLAS thread count."""
    path = [str(pathlib.Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run([sys.executable, "-c", _ARCCOS_AT_THREADS], capture_output=True, text=True,
                            env=env, check=True)
    return {(int(a), int(d)): (symmetric == "True", digest)
            for a, d, symmetric, digest in map(str.split, result.stdout.splitlines())}


@pytest.mark.parametrize("alpha, d", [(1, 3), (1, 5), (2, 3), (2, 5)])
def test_arccos_kernel_matrix_is_symmetric_and_has_the_same_bits_at_one_and_two_threads(alpha, d):
    # x.y is summed over coordinates elementwise, as |x - y| is: no BLAS call, whose split of
    # a cross product with hundreds of columns may change at 2 threads, and no dsyrk Gram
    one, two = _arccos_at_threads(1)[alpha, d], _arccos_at_threads(2)[alpha, d]
    assert one[0] and two[0]
    assert one[1] == two[1]


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


def _exact_distance_term(a, b, spec):
    """c |a - b|^(2 alpha + 1) / R in mpmath, for c = c_alpha(spec) as rounded: the check is
    on the arithmetic of the power, not on the Gamma function values behind c."""
    sq = mpmath.fsum((mpmath.mpf(u) - mpmath.mpf(v)) ** 2 for u, v in zip(a, b))
    return mpmath.mpf(c_alpha(spec)) * sq ** spec.alpha * mpmath.sqrt(sq) / mpmath.mpf(spec.R)


@pytest.mark.parametrize("alpha", [0, 1, 2, 3, 5, 10, 20])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_distance_term_is_accurate_against_mpmath(alpha, d):
    rng = np.random.default_rng(600 + 10 * alpha + d)
    spec = KernelSpec(alpha, d, 1.3)
    Xa, Xb = _ball_pairs(rng, 24, d, spec.R)  # rows 0-3 coincide
    Xb[4:12] = Xa[4:12] + rng.uniform(-1e-3, 1e-3, (8, d))  # pairs about 1e-3 apart
    got = _distance_term(Xa, Xb, spec)
    bound = (alpha + 1) * (d + 2) * np.finfo(float).eps
    assert np.array_equal(got[:4], np.zeros(4)) and np.all(np.signbit(got[:4]) == (alpha % 2 == 0))
    with mpmath.workprec(200):
        for i in range(4, 24):
            want = _exact_distance_term(Xa[i], Xb[i], spec)
            assert abs((mpmath.mpf(got[i]) - want) / want) <= bound, i


@pytest.mark.parametrize("d", [1, 3, 5])
def test_monomial_matrix_is_accurate_against_mpmath(d):
    rng = np.random.default_rng(700 + d)
    X = rng.uniform(-1.0, 1.0, (30, d))
    X[0] = 0.0
    exps = monomial_exponents(d, 6)
    M = monomial_matrix(X, exps)
    with mpmath.workprec(200):
        for i, x in enumerate(X):
            for k, e in enumerate(exps):
                want = mpmath.fprod(mpmath.mpf(v) ** p for v, p in zip(x, e))
                assert abs(mpmath.mpf(M[i, k]) - want) <= sum(e) * np.finfo(float).eps * abs(want)


@pytest.mark.parametrize("rows", [0, 1, 3, 4, 5, 16, 17, 2000])
@pytest.mark.parametrize("k", [None, 1, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_product_is_numpy_matmul_bit_for_bit(rows, k, order):
    # OpenBLAS's dgemv takes rows 4 at a time and its dgemm has a small-matrix kernel, and
    # the product goes through scipy's OpenBLAS, not numpy's; it makes numpy's calls, so the
    # bits are numpy's for either layout of either operand.  (With hundreds of output
    # columns, the two builds may split a dgemm differently at 2 threads, and round apart.)
    rng = np.random.default_rng(150 + rows)
    A = np.asarray(rng.standard_normal((rows, 300)), order=order)
    B = rng.standard_normal(300) if k is None else rng.standard_normal((300, k))
    for b in (B, np.asfortranarray(B)) if k else (B,):
        want = A @ b
        got = _product(A, b)
        assert got.shape == want.shape and np.array_equal(got, want)
        out = np.full_like(want, np.nan)  # written through, never read
        assert _product(A, b, out) is out and np.array_equal(out, want)


@pytest.mark.parametrize("m, n, k", [(16, 20, 2000), (300, 20, 300), (16, 455, 2000), (1, 20, 3000),
                                     (300, 20, 1), (300, 20, None), (1, 20, None), (4, 0, 3), (0, 20, 5)])
def test_product_accumulate_adds_the_product_rounded_once(m, n, k):
    # dgemm with beta = 1 adds out after summing an entry's products; dgemv adds it in
    # before its last partial sums, and so does dgemm past its inner block, so those go apart
    rng = np.random.default_rng(170 + m + n)
    A = rng.standard_normal((m, n))
    B = rng.standard_normal(n) if k is None else rng.standard_normal((n, k))
    start = rng.standard_normal((m,) + B.shape[1:])
    out = start.copy()
    assert _product(A, B, out, accumulate=True) is out
    assert np.array_equal(out, start + _product(A, B))


@pytest.mark.parametrize("k", [None, 3])
def test_product_of_a_symmetric_product_is_numpy_matmul_bit_for_bit(k):
    # fit_constrained_spline's K Q comes out of dsymm F-ordered, and its transpose is C-ordered
    rng = np.random.default_rng(160)
    S = rng.standard_normal((300, 300))
    KQ = sla.blas.dsymm(1.0, S + S.T, rng.standard_normal((300, 20)))
    assert KQ.flags.f_contiguous
    x = rng.standard_normal(20) if k is None else rng.standard_normal((20, k))
    lam = rng.standard_normal(300) if k is None else rng.standard_normal((300, k))
    assert np.array_equal(_product(KQ, x), KQ @ x)
    assert np.array_equal(_product(KQ.T, lam), KQ.T @ lam)


_NUMPY_BLAS_METHODS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def _numpy_blas_lines(node):
    """Lines under node that reach numpy's BLAS or LAPACK: @, np.matmul, np.dot or any
    np.linalg call; not @ on long doubles, which numpy multiplies in its own loop, and not
    predict's primal branch, which is feature space."""
    if isinstance(node, ast.If) and ast.unparse(node.test) == "model.kind == 'primal'":
        children = [node.test, *node.orelse]
    else:
        children = list(ast.iter_child_nodes(node))
    lines = [line for child in children for line in _numpy_blas_lines(child)]
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        if "longdouble" not in ast.unparse(node.left if isinstance(node, ast.BinOp) else node.target):
            lines.append(node.lineno)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr in _NUMPY_BLAS_METHODS
            or ast.unparse(node.func).startswith(("np.linalg.", "numpy.linalg."))):
        lines.append(node.lineno)
    return lines


def _kernel_space_functions():
    """Every function and method of kernels.py, and of regression.py but fit_primal."""
    for module in (splinerf.kernels, splinerf.regression):
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name != "fit_primal":
                yield f"{module.__name__}.{node.name}", node


def test_kernel_paths_make_no_numpy_blas_call():
    # the kernel paths run on scipy's OpenBLAS alone (kernels._product for a product):
    # a call on numpy's starts its thread pool and allocates its buffers
    assert _numpy_blas_lines(ast.parse("a @ b\nx @= y\nnp.linalg.eigvalsh(a)\nnp.dot(a, b)\n"
                                       "a.dot(b)\np.astype(np.longdouble) @ q")) == [1, 2, 3, 4, 5]
    functions = dict(_kernel_space_functions())
    for name in ("kernel_pairs", "kernel_matrix", "_kernel_rows"):
        assert f"splinerf.kernels.{name}" in functions
    for name in ("_factor_in_place", "fit_dual", "fit_constrained_spline", "predict", "product"):
        assert f"splinerf.regression.{name}" in functions
    found = {name: lines for name, node in functions.items() if (lines := _numpy_blas_lines(node))}
    assert found == {}


_BLAS_PRODUCTS = {"dgemm", "dgemv", "ddot", "dsyrk"}


def _blas_product_lines(node, exempt=()):
    """Lines under node that call a BLAS routine named in _BLAS_PRODUCTS, outside the
    functions named in exempt."""
    if isinstance(node, ast.FunctionDef) and node.name in exempt:
        return []
    lines = [line for child in ast.iter_child_nodes(node) for line in _blas_product_lines(child, exempt)]
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _BLAS_PRODUCTS:
        lines.append(node.lineno)
    return lines


def test_kernel_paths_map_products_onto_blas_in_product_alone():
    # kernels._product and its _gemv are the one place that maps a row-major product onto
    # column-major BLAS: a hand-written product call elsewhere would encode that layout twice
    sample = ast.parse("blas.dgemm(1.0, a, b)\nsla.blas.dgemv(1.0, a, x)\nf(blas.ddot(x, y))\n"
                       "blas.dsyrk(1.0, a)\nblas.dsymm(1.0, a, b)\ndef g():\n    blas.dgemm(1.0, a, b)")
    assert _blas_product_lines(sample) == [1, 2, 3, 4, 7]
    assert _blas_product_lines(sample, exempt={"g"}) == [1, 2, 3, 4]
    found = {}
    for module, exempt in ((splinerf.kernels, {"_product", "_gemv"}), (splinerf.regression, ())):
        tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
        if lines := _blas_product_lines(tree, exempt):
            found[module.__name__] = lines
    assert found == {}
    # the exemption does not hide the product layout's own calls: ddot, dgemv and dgemm
    tree = ast.parse(pathlib.Path(splinerf.kernels.__file__).read_text(encoding="utf-8"))
    assert len(_blas_product_lines(tree)) == 3
    # and neither module names dsyrk: a Gram is built on its triangle and mirrored by
    # regression alone, and _product makes dgemm's call for X X^T, where numpy takes dsyrk
    for module in (splinerf.kernels, splinerf.regression):
        source = pathlib.Path(module.__file__).read_text(encoding="utf-8")
        assert "dsyrk" not in {node.attr for node in ast.walk(ast.parse(source))
                               if isinstance(node, ast.Attribute)}, module.__name__
