import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from oracles import dense_grid_leverage, oracle_leverage, oracle_leverages, solve_regularized_operator
from splinerf.leverage import (
    SCORE_CHUNK_ENTRIES,
    GridLeverageEstimator,
    fourier_leverage,
    fourier_profiles,
    nn_leverage,
    nn_profile,
)


def _naive_nn_score(b, lam):
    """Direct transcription of the closed form, valid while cosh stays small.

    Used to pin the production evaluation against the raw algebra
    in a regime free of overflow and catastrophic cancellation.
    """
    c = 1.0 / (2.0 * np.sqrt(lam))
    u = c * (1.0 - b)
    sh, ch = np.sinh, np.cosh
    d_a = c * sh(c) + ch(c)
    total = (4.0 * c * sh(u)
             + 2.0 * c * (1.0 - c * sh(u) - ch(u)) * (sh(c) - sh(c * b)) / d_a
             - 2.0 * c * sh(u) * (ch(c) - ch(c * b)) / ch(c))
    return 0.5 * total


def test_nn_matches_raw_transcription():
    for lam in (0.5, 0.1, 0.01):
        for b in np.linspace(-1, 1, 41):
            stable = nn_leverage(b, lam)
            naive = _naive_nn_score(b, lam)
            assert abs(stable - naive) <= 1e-9 * max(abs(naive), 1.0), (b, lam)


def _mp_nn_score(b, lam):
    """The raw transcription above in mpmath, with enough digits to absorb its
    cancellation of terms ~ exp(2c) down to a score ~ c or ~ c^2."""
    c = 1 / (2 * mpmath.sqrt(mpmath.mpf(lam)))
    with mpmath.workdps(60 + int(c)):
        b = mpmath.mpf(b)
        u = c * (1 - b)
        sh, ch = mpmath.sinh, mpmath.cosh
        total = (4 * c * sh(u)
                 + 2 * c * (1 - c * sh(u) - ch(u)) * (sh(c) - sh(c * b)) / (c * sh(c) + ch(c))
                 - 2 * c * sh(u) * (ch(c) - ch(c * b)) / ch(c))
        return float(total / 2)


@pytest.mark.parametrize("lam", [1e-6, 1e-4, 1e-2, 0.25, 1.0, 1e4, 1e8, 1e16, 1e28, 1e32,
                                 1e100, 1e300])
def test_nn_matches_high_precision_evaluation(lam):
    # a sum of O(c) exp-scaled parts cancels to the O(c^2) score: one was 1.2e-12 off at
    # b = 0.999999 and lam = 1e-4, 6e-11 at 0.25, 3e-7 at 1e8, negative at 1e32, 0 from 1e34
    b = np.concatenate([np.linspace(-1.0, 0.95, 40), [-0.999999, 0.99, 0.999999]])
    want = np.array([_mp_nn_score(bj, lam) for bj in b])
    np.testing.assert_allclose(nn_leverage(b, lam), want, rtol=1e-12, atol=0)
    assert nn_leverage(1.0, lam) == 0.0


def test_nn_edge_cases():
    assert nn_leverage(1.0, 1e-3) == 0.0
    assert nn_leverage(0.0, 1e-3) > 0.0
    with pytest.raises(ValueError):
        nn_leverage(0.0, 0.0)
    with pytest.raises(ValueError):
        nn_leverage(1.5, 1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_closed_forms_reject_non_finite_inputs(bad):
    for call in (lambda: nn_leverage(bad, 1e-3), lambda: nn_leverage([0.0, bad], 1e-3),
                 lambda: fourier_leverage(bad, 1e-3), lambda: fourier_leverage([1.0, bad], 1e-3),
                 lambda: nn_leverage(0.0, abs(bad)), lambda: fourier_leverage(1.0, abs(bad)),
                 lambda: GridLeverageEstimator(np.linspace(-1, 1, 8), abs(bad))):
        with pytest.raises(ValueError):
            call()


def test_nn_small_lambda_rate():
    # score(0) ~ 1/(2 sqrt(lam)): the scaled value sits within 5% at lam = 1e-8
    for lam in (1e-8, 1e-10):
        ratio = 2.0 * np.sqrt(lam) * nn_leverage(0.0, lam)
        assert 0.95 < ratio < 1.05
    assert np.isfinite(nn_leverage(np.linspace(-1, 1, 11), 1e-12)).all()


def test_fourier_limits():
    cos_s, sin_s = fourier_leverage(1e4, 1e-3)
    assert abs(cos_s - 500.0) < 5.0
    assert abs(sin_s - 500.0) < 5.0
    assert fourier_leverage(0.0, 1e-3)[1] == 0.0
    with pytest.raises(ValueError):
        fourier_leverage(1.0, -1e-3)


def test_fourier_series_continuity_at_origin():
    lam = 1e-3
    left = fourier_leverage(9e-5, lam)
    right = fourier_leverage(1.1e-4, lam)
    assert abs(left[0] - right[0]) < 1e-4
    assert abs(left[1] - right[1]) < 1e-4


def test_scores_nonnegative_and_monotone_in_lambda():
    lams = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    for b in (-0.8, -0.3, 0.0, 0.4, 0.95):
        vals = [nn_leverage(b, lam) for lam in lams]
        assert all(v >= 0 for v in vals)
        assert all(a <= b_ + 1e-12 for a, b_ in zip(vals, vals[1:]))  # lam down, score up
    for om in (0.0, 1.0, 7.5, 30.0):
        for idx in (0, 1):
            vals = [fourier_leverage(om, lam)[idx] for lam in lams]
            assert all(v >= -1e-12 for v in vals)
            assert all(a <= b_ + 1e-9 for a, b_ in zip(vals, vals[1:]))


def test_operator_solve_large_lambda_limit():
    lam = 1e6
    g = lambda x: np.cos(3.0 * x)
    score = oracle_leverage(g, lam, n=2048)
    norm_sq = 0.5 * (1.0 + np.sin(6.0) / 6.0)  # <g, g> under the uniform measure
    assert abs(score - norm_sq / lam) <= 1e-4 * norm_sq / lam


def test_operator_solve_validation():
    with pytest.raises(ValueError):
        solve_regularized_operator(np.cos, 1e-3, n=8)
    with pytest.raises(ValueError):
        solve_regularized_operator(np.cos, 0.0, n=64)


def test_oracle_matches_fourier_closed_form():
    lam = 1e-3
    omegas = (1.0, 5.0, 12.0)
    got = oracle_leverages([lambda x, om=om: np.cos(om * x) for om in omegas]
                           + [lambda x, om=om: np.sin(om * x) for om in omegas], lam, n=4096)
    for om, got_c, got_s in zip(omegas, got[:3], got[3:]):
        want, want_s = fourier_leverage(om, lam)
        assert abs(got_c - want) <= 0.01 * want
        assert abs(got_s - want_s) <= 0.01 * want_s


def test_oracle_matches_nn_closed_form():
    lam = 1e-3
    biases = (-0.6, 0.0, 0.5, 0.9)
    scores = oracle_leverages([lambda x, b=b: (x > b).astype(float) for b in biases], lam, n=4096)
    for b, got in zip(biases, scores):
        want = nn_leverage(b, lam)
        assert abs(got - want) <= 0.01 * want


def _cos(x, w):
    return np.cos(x * w)


def _sin(x, w):
    return np.sin(x * w)


def _families(k=7):
    """Step, cos and sin features at k parameters each; the step at b = 1 is the zero feature."""
    b, omega = np.linspace(-1.0, 1.0, k), np.linspace(0.0, 50.0, k)
    return [(np.greater, b), (_cos, omega), (_sin, omega)]


def test_triple_agreement():
    # closed form, grid estimator and operator oracle agree within 5%
    lam = 1e-3
    n = 2048
    estimator = GridLeverageEstimator(np.linspace(-1, 1, n), lam)
    b_grid = np.linspace(-0.9, 0.9, 10)
    nn_closed = nn_leverage(b_grid, lam)
    scale = nn_closed.max()
    nn_oracle = oracle_leverages([lambda x, b=b: (x > b).astype(float) for b in b_grid], lam, n=2049)
    for closed, orc, emp in zip(nn_closed, nn_oracle, estimator.scores(np.greater, b_grid)):
        assert abs(emp - closed) <= 0.05 * scale
        assert abs(orc - closed) <= 0.05 * scale
    om_grid = np.linspace(0.0, 30.0, 10)
    cos_closed, sin_closed = fourier_leverage(om_grid, lam)
    scale = cos_closed.max()
    emp_c, emp_s = estimator.scores(_cos, om_grid), estimator.scores(_sin, om_grid)
    np.testing.assert_array_less(np.abs(emp_c - cos_closed), 0.05 * scale)
    np.testing.assert_array_less(np.abs(emp_s - sin_closed), 0.05 * scale)


def test_empirical_edge_cases():
    est = GridLeverageEstimator(np.linspace(-1, 1, 64), 1e-3)
    assert est.scores(np.greater, np.array([1.0]))[0] == 0.0  # x > 1 is the zero feature
    assert est.scores(np.greater, np.empty(0)).shape == (0,)
    with pytest.raises(ValueError):
        GridLeverageEstimator(np.array([0.0]), 1e-3)


def test_batched_scores_match_single_column_solves():
    est = GridLeverageEstimator(np.linspace(-1, 1, 512), 1e-3)
    for feature, params in _families(k=23):
        batched = est.scores(feature, params)
        looped = np.array([est.scores(feature, params[j:j + 1])[0] for j in range(params.size)])
        assert np.array_equal(batched, looped)
        assert np.array_equal(est.scores(feature, params[::-1]), looped[::-1])


@pytest.mark.parametrize("sort", [True, False], ids=["sorted", "unsorted-repeated"])
def test_chunked_scores_match_single_column_scores(sort):
    n = 512
    c = SCORE_CHUNK_ENTRIES // n
    assert 1 < c < 201 and 201 % c  # several chunks, the last one ragged
    grid = np.linspace(-1, 1, n)
    if not sort:
        grid = np.random.default_rng(9).permutation(grid)
        grid[-1] = grid[0]
    est = GridLeverageEstimator(grid, 1e-3)
    sorted_est = GridLeverageEstimator(np.sort(grid), 1e-3)
    for feature, params in _families(k=201):
        single = np.array([est.scores(feature, params[j:j + 1])[0] for j in range(201)])
        for k in (1, c - 1, c, c + 1, 201):
            assert np.array_equal(est.scores(feature, params[:k]), single[:k]), k
        assert np.array_equal(sorted_est.scores(feature, params), single)  # the grid's order is moot


def test_profiles_peak_memory_is_far_below_one_feature_array():
    # fig3's three profiles at n = 2^16 would hold (n, 201) arrays of 100.5 MiB if built whole
    lam, n = 1e-3, 2 ** 16
    est = GridLeverageEstimator(np.linspace(-1, 1, n), lam)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        nn_profile(lam, estimator=est)
        fourier_profiles(lam, estimator=est)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * n * 201 * 8


@pytest.mark.parametrize("n", [2, 3, 64, 512, 4096])
def test_grid_estimator_matches_dense_oracle(n):
    rng = np.random.default_rng(n)
    shuffled = rng.permutation(np.linspace(-1, 1, n))
    shuffled[-1] = shuffled[0]
    grids = {"sorted": np.linspace(-1, 1, n), "unsorted, one point repeated": shuffled}
    for name, grid in grids.items():
        for lam in (1e-1, 1e-3, 1e-5) if n < 4096 else (1e-3,):
            est = GridLeverageEstimator(grid, lam)
            got = np.concatenate([est.scores(f, params) for f, params in _families()])
            Phi = np.hstack([f(grid[:, None], params[None, :]) for f, params in _families()])
            want = dense_grid_leverage(grid, lam, Phi)
            assert got[6] == 0.0  # the step at b = 1
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"{name}, lam={lam}")


def _repeated_grid(n, seed):
    """Random points in [-1, 1] with both ends and one point repeated."""
    grid = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    grid[:2] = -1.0, 1.0
    grid[-1] = grid[n // 2]
    return grid


def test_ldlt_factor_rebuilds_the_tridiagonal_system():
    n, lam = 40, 1e-3
    grid = _repeated_grid(n, 5)
    est = GridLeverageEstimator(grid, lam)
    x, s = np.sort(grid), n * lam
    D = np.eye(n) - np.eye(n, k=-1)  # (D b)_0 = b_0, (D b)_i = b_i - b_(i-1)
    T = np.diag(D @ (x + 1.0)) + 2.0 * s * D @ D.T
    L = np.eye(n) + np.diag(est._e, k=-1)
    assert np.all(est._d > 0)
    np.testing.assert_allclose(L @ np.diag(est._d) @ L.T, T, rtol=0, atol=1e-15 * np.abs(T).max())


@pytest.mark.parametrize("n", [2, 3, 97])
def test_grid_estimator_matches_dense_solve(n):
    grid = _repeated_grid(n, n) if n > 2 else np.array([-0.3, -0.3])
    K = 0.5 - 0.25 * np.abs(grid[:, None] - grid[None, :])
    for lam in (1e-1, 1e-3, 1e-5, 1e4):
        est = GridLeverageEstimator(grid, lam)
        for f, params in _families():
            Phi = f(grid[:, None], params[None, :])
            want = np.sum(Phi * np.linalg.solve(K + n * lam * np.eye(n), Phi), axis=0)
            np.testing.assert_allclose(est.scores(f, params), want, rtol=1e-12, atol=0,
                                       err_msg=f"lam={lam}")


@pytest.mark.parametrize("n, lam, feature", [(3, 1e-20, np.greater), (64, 1e-300, _cos)],
                         ids=["singular-woodbury", "non-finite-score"])
def test_grid_estimator_raises_instead_of_returning_non_finite_scores(n, lam, feature):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no floating-point warning escapes either
        with pytest.raises(ValueError, match=rf"lambda {lam} and n {n}"):
            GridLeverageEstimator(np.linspace(-1, 1, n), lam).scores(feature, np.array([0.0, 3.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0 + 1e-12, -1.5])
def test_grid_estimator_rejects_points_outside_the_ball(bad):
    # outside [-1, 1] the kernel 1/2 - |x - y|/4 is not PSD: raise, no quiet number
    grid = np.linspace(-1, 1, 16)
    grid[5] = bad
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        GridLeverageEstimator(grid, 1e-3)


@pytest.mark.parametrize("lam", [1e-5, 1e-6])
def test_grid_estimator_matches_closed_forms_at_small_lambda(lam):
    # the boundary layer has width ~ sqrt(lam): a 2^16 grid resolves it, a dense Gram would be 32 GiB
    grid = np.linspace(-1, 1, 2 ** 16)
    est = GridLeverageEstimator(grid, lam)
    got = np.concatenate([est.scores(np.greater, np.array([0.0, -0.9])),
                          est.scores(_cos, np.array([20.0]))])
    want = [nn_leverage(0.0, lam), nn_leverage(-0.9, lam), fourier_leverage(20.0, lam)[0]]
    np.testing.assert_allclose(got, want, rtol=1e-4, atol=0)


def test_profiles_match_per_parameter_scores():
    lam = 1e-3
    est = GridLeverageEstimator(np.linspace(-1, 1, 512), lam)
    prof = nn_profile(lam, estimator=est)
    assert np.array_equal(prof.empirical, [est.scores(np.greater, prof.params[j:j + 1])[0]
                                           for j in range(201)])
    cos_prof, sin_prof = fourier_profiles(lam, estimator=est)
    assert np.array_equal(cos_prof.empirical, [est.scores(_cos, cos_prof.params[j:j + 1])[0]
                                               for j in range(201)])
    assert np.array_equal(sin_prof.empirical, [est.scores(_sin, sin_prof.params[j:j + 1])[0]
                                               for j in range(201)])


def test_profiles_reject_a_different_lambda():
    # the analytic column would use lam and the empirical one the estimator's lambda
    est = GridLeverageEstimator(np.linspace(-1, 1, 64), 1e-3)
    with pytest.raises(ValueError):
        nn_profile(1e-2, estimator=est)
    with pytest.raises(ValueError):
        fourier_profiles(1e-2, estimator=est)


def test_profile_shapes_and_positivity():
    est = GridLeverageEstimator(np.linspace(-1, 1, 256), 1e-2)
    prof = nn_profile(1e-2, estimator=est)
    assert prof.params.size == prof.analytic.size == prof.empirical.size == 201
    assert prof.params[0] == -1.0 and prof.params[-1] == 1.0
    assert np.all(prof.analytic >= 0) and np.all(prof.empirical >= -1e-12)
    cos_prof, sin_prof = fourier_profiles(1e-2, estimator=est)
    assert cos_prof.params.size == sin_prof.params.size == 201
    assert cos_prof.params[0] == 0.0 and cos_prof.params[-1] == 50.0
    assert cos_prof.method == "fourier-cos" and sin_prof.method == "fourier-sin"
    assert np.all(cos_prof.analytic >= 0) and np.all(sin_prof.analytic >= 0)


def test_nn_profile_peak_is_essentially_at_zero():
    # The profile is flat near its top: the b = 0 value sits within half a
    # percent of the grid maximum at lam = 1e-3 (the strict argmax drifts
    # toward the boundary layer near b = -1; see the operator oracle).
    b_grid = np.linspace(-1, 1, 201)
    vals = nn_leverage(b_grid, 1e-3)
    assert vals[100] >= 0.99 * vals.max()


def test_separation_between_families():
    lam = 1e-4
    nn_max = nn_leverage(np.linspace(-1, 1, 801), lam).max()
    om = np.linspace(0.0, 1000.0, 2001)
    cos_s, sin_s = fourier_leverage(om, lam)
    fourier_max = max(cos_s.max(), sin_s.max())
    assert fourier_max / nn_max > 10.0


def test_fourier_sup_rate():
    # lam * sup over omega tends to 1/2
    lam = 1e-6
    om = np.geomspace(1.0, 1e6, 4001)
    cos_s, sin_s = fourier_leverage(om, lam)
    sup = max(cos_s.max(), sin_s.max())
    assert abs(lam * sup - 0.5) < 0.02 * 0.5
