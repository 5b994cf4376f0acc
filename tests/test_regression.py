import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from oracles import saddle_solve
from splinerf.features import approx_kernel, sample_fourier_ensemble, sample_nn_ensemble
from splinerf.kernels import (KernelSpec, distance_kernel_matrix, kernel_matrix, monomial_exponents,
                              monomial_matrix)
from splinerf.regression import (
    JITTER_LADDER,
    DegenerateDesignError,
    FitConfig,
    IllConditionedError,
    factor_spd,
    fit_constrained_spline,
    fit_dual,
    fit_primal,
    predict,
)
from splinerf.sampling import RngStream


def test_single_point_interpolation():
    spec = KernelSpec(0, 1, 1.0)
    model = fit_dual(np.array([[0.0]]), np.array([1.0]), spec)
    assert abs(model.dual_coeffs[0] - 2.0) < 1e-9
    assert abs(predict(model, np.array([[0.0]]))[0] - 1.0) < 1e-9


def test_interpolation_residual_contract():
    rng = np.random.default_rng(0)
    spec = KernelSpec(0, 1, 1.0)
    X = np.linspace(-1, 1, 20)[:, None]
    y = rng.standard_normal(20)
    model = fit_dual(X, y, spec)
    assert np.max(np.abs(predict(model, X) - y)) <= 1e-8 * np.max(np.abs(y))
    assert model.residual <= 1e-8 * np.max(np.abs(y))


def test_ridge_large_mu_shrinks_to_zero():
    rng = np.random.default_rng(1)
    spec = KernelSpec(1, 1, 1.0)
    X = rng.uniform(-1, 1, (15, 1))
    y = rng.standard_normal(15)
    model = fit_dual(X, y, spec, FitConfig(mode="ridge", mu=1e12))
    assert np.linalg.norm(model.dual_coeffs) < 1e-10
    assert np.max(np.abs(predict(model, X))) < 1e-9


@pytest.mark.parametrize("family,alpha,cfg", [
    ("nn", 1, FitConfig(jitter=1e-10)),
    ("fourier", 0, FitConfig(jitter=1e-10)),
    # step features can coincide on two points, so the alpha = 0 nn map is
    # exercised in ridge mode where the system is uniformly well posed
    ("nn", 0, FitConfig(mode="ridge", mu=1e-6)),
    ("fourier", 0, FitConfig(mode="ridge", mu=1e-4)),
])
def test_primal_matches_dual_on_approx_kernel(family, alpha, cfg):
    spec = KernelSpec(alpha, 1, 1.0)
    sampler = sample_nn_ensemble if family == "nn" else sample_fourier_ensemble
    ens = sampler(spec, 64, RngStream(7))
    rng = np.random.default_rng(2)
    n = 12
    X = rng.uniform(-1, 1, (n, 1))
    y = rng.standard_normal(n)
    model = fit_primal(X, y, ens, cfg)
    # oracle: dual Cholesky solve on the approximate kernel with the same terms
    ridge = n * cfg.mu if cfg.mode == "ridge" else 0.0
    K_hat = approx_kernel(X, X, ens)
    K_hat = 0.5 * (K_hat + K_hat.T) + (ridge + model.jitter_used) * np.eye(n)
    lam = sla.cho_solve(sla.cho_factor(K_hat, lower=True), y)
    Xt = rng.uniform(-1, 1, (40, 1))
    dual_preds = approx_kernel(Xt, X, ens) @ lam
    primal_preds = predict(model, Xt)
    scale = np.max(np.abs(dual_preds))
    assert np.max(np.abs(primal_preds - dual_preds)) <= 1e-8 * scale


def test_primal_single_feature():
    spec = KernelSpec(1, 1, 1.0)
    ens = sample_nn_ensemble(spec, 1, RngStream(9))
    X = np.array([[0.6]])
    y = np.array([2.0])
    phi = ens.features(X)[0, 0]
    if phi != 0.0:
        model = fit_primal(X, y, ens)
        assert abs(model.feature_weights[0] - y[0] / phi) < 1e-6


def test_primal_zero_targets():
    spec = KernelSpec(0, 1, 1.0)
    ens = sample_nn_ensemble(spec, 16, RngStream(10))
    X = np.linspace(-0.9, 0.9, 8)[:, None]
    model = fit_primal(X, np.zeros(8), ens)
    assert np.all(model.feature_weights == 0.0)


# coefficient arrays each fit fills, one column per label in a label-matrix fit
COEFFICIENTS = {"fit_dual": ("dual_coeffs",), "fit_primal": ("feature_weights",),
                "fit_constrained_spline": ("dual_coeffs", "poly_coeffs")}


def _label_matrix_fits():
    spec = KernelSpec(1, 2, 1.0)
    X = np.random.default_rng(11).uniform(-0.7, 0.7, (12, 2))
    ens = sample_nn_ensemble(spec, 64, RngStream(12))
    ridge = FitConfig(mode="ridge", mu=1e-3)
    return X, {
        "fit_dual": lambda y: fit_dual(X, y, spec, ridge),
        "fit_primal": lambda y: fit_primal(X, y, ens, ridge),
        "fit_constrained_spline": lambda y: fit_constrained_spline(X, y, spec),
    }


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_label_matrix_matches_column_fits(name):
    X, fits = _label_matrix_fits()
    Y = np.random.default_rng(13).standard_normal((X.shape[0], 3))
    Xt = np.random.default_rng(14).uniform(-0.7, 0.7, (30, 2))
    model = fits[name](Y)
    preds = predict(model, Xt)
    assert preds.shape == (30, 3)
    for j in range(3):
        column = fits[name](Y[:, j])
        pairs = [(preds[:, j], predict(column, Xt))]
        pairs += [(getattr(model, attr)[:, j], getattr(column, attr)) for attr in COEFFICIENTS[name]]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_targets_of_wrong_shape_rejected(name):
    X, fits = _label_matrix_fits()
    n = X.shape[0]
    for shape in [(n + 1,), (n, 3, 1)]:
        with pytest.raises(ValueError):
            fits[name](np.ones(shape))


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_targets_rejected(name, bad):
    # fit_dual and fit_primal returned NaN coefficients with residual NaN here
    X, fits = _label_matrix_fits()
    y = np.ones(X.shape[0])
    y[3] = bad
    with pytest.raises(ValueError, match="finite"):
        fits[name](y)


def test_constrained_polynomial_reproduction():
    rng = np.random.default_rng(3)
    for d, alpha in [(1, 0), (1, 2), (2, 1), (3, 1)]:
        spec = KernelSpec(alpha, d, 1.0)
        exps = monomial_exponents(d, alpha)
        X = rng.uniform(-0.7, 0.7, (25, d))
        coef = rng.standard_normal(len(exps))
        y = monomial_matrix(X, exps) @ coef
        model = fit_constrained_spline(X, y, spec)
        assert model.residual <= 1e-8 * max(np.max(np.abs(y)), 1.0)
        # lambda vanishes up to saddle-system conditioning
        assert np.max(np.abs(model.dual_coeffs)) < 1e-5
        Xfar = rng.uniform(-2.0, 2.0, (5, d))
        assert np.allclose(predict(model, Xfar), monomial_matrix(Xfar, exps) @ coef,
                           atol=1e-7)


def test_constrained_two_points_piecewise_linear():
    spec = KernelSpec(0, 1, 1.0)
    X = np.array([[-0.5], [0.7]])
    y = np.array([1.0, -2.0])
    model = fit_constrained_spline(X, y, spec)
    # explicit 2x2 solve: f linear between the nodes
    for t in np.linspace(-0.5, 0.7, 7):
        frac = (t + 0.5) / 1.2
        expected = (1 - frac) * 1.0 + frac * (-2.0)
        assert abs(predict(model, np.array([[t]]))[0] - expected) < 1e-10


def test_constrained_constraint_satisfied():
    rng = np.random.default_rng(4)
    spec = KernelSpec(1, 2, 1.0)
    X = rng.uniform(-0.7, 0.7, (30, 2))
    y = rng.standard_normal(30)
    model = fit_constrained_spline(X, y, spec)
    Phi = monomial_matrix(X, monomial_exponents(2, 1))
    lam = model.dual_coeffs
    assert np.linalg.norm(Phi.T @ lam) <= 1e-8 * np.linalg.norm(lam) * np.linalg.norm(Phi)


@pytest.mark.filterwarnings("error::scipy.linalg.LinAlgWarning")
def test_constrained_large_mu_is_polynomial_least_squares():
    rng = np.random.default_rng(5)
    spec = KernelSpec(1, 1, 1.0)
    X = rng.uniform(-1, 1, (40, 1))
    y = rng.standard_normal(40)
    model = fit_constrained_spline(X, y, spec, FitConfig(mode="constrained_spline", mu=1e8))
    exps = monomial_exponents(1, 1)
    Phi = monomial_matrix(X, exps)
    ls_coef, *_ = np.linalg.lstsq(Phi, y, rcond=None)
    preds = predict(model, X)
    assert np.max(np.abs(preds - Phi @ ls_coef)) < 1e-5


def test_constrained_pol_part_irrelevant_under_constraint():
    # adding the kernel's polynomial block to K leaves predictions unchanged
    rng = np.random.default_rng(6)
    spec = KernelSpec(1, 2, 1.0)
    n = 25
    X = rng.uniform(-0.7, 0.7, (n, 2))
    y = rng.standard_normal(n)
    base = fit_constrained_spline(X, y, spec)
    exps = monomial_exponents(2, 1)
    Phi = monomial_matrix(X, exps)
    K = distance_kernel_matrix(X, X, spec) + kernel_matrix(X, X, spec, kind="pol_only")
    A = np.zeros((n + len(exps), n + len(exps)))
    A[:n, :n] = K
    A[:n, n:] = Phi
    A[n:, :n] = Phi.T
    sol = sla.solve(A, np.concatenate([y, np.zeros(len(exps))]), assume_a="sym")
    Xt = rng.uniform(-0.7, 0.7, (10, 2))
    Kt = distance_kernel_matrix(Xt, X, spec) + kernel_matrix(Xt, X, spec, kind="pol_only")
    alt_preds = Kt @ sol[:n] + monomial_matrix(Xt, exps) @ sol[n:]
    scale = max(np.max(np.abs(alt_preds)), 1.0)
    assert np.max(np.abs(predict(base, Xt) - alt_preds)) <= 1e-8 * scale


SADDLE_CASES = [(d, alpha, 1, mu, 0.0) for d, alpha in [(1, 0), (1, 2), (2, 1), (3, 1), (3, 3)]
                for mu in (0.0, 1e-3)] + [(2, 1, 1, 1e-3, 1e-6), (3, 1, 3, 0.0, 0.0)]


@pytest.mark.parametrize("d, alpha, k, mu, jitter", SADDLE_CASES)
def test_constrained_matches_inline_saddle_solve(d, alpha, k, mu, jitter):
    # measured worst max-norm disagreements: 1.2e-14 with a shift, 4.5e-12 without
    # one; the unshifted (d, alpha) = (1, 2) saddle is itself ill-conditioned
    # (lambda 2.8e-6, nu 1.1e-5), and test_constrained_polynomial_reproduction
    # covers its accuracy
    rng = np.random.default_rng(70 + 10 * d + alpha)
    spec = KernelSpec(alpha, d, 1.0)
    n = 40
    X = rng.uniform(-0.7, 0.7, (n, d))
    y = rng.standard_normal(n) if k == 1 else rng.standard_normal((n, k))
    model = fit_constrained_spline(X, y, spec,
                                   FitConfig(mode="constrained_spline", mu=mu, jitter=jitter))
    lam, nu = saddle_solve(X, y, spec, n * mu + jitter)
    rtol = 1e-13 if mu > 0 else 1e-4 if (d, alpha) == (1, 2) else 1e-10
    for got, want in [(model.dual_coeffs, lam), (model.poly_coeffs, nu)]:
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def test_constrained_ill_conditioned_saddle_case():
    # alpha = 3, d = 3, n = 2000, mu = 0: the saddle solve warns rcond = 6.0e-17
    # and misfits its own training data by 2.7e-4
    rng = np.random.default_rng(83)
    spec = KernelSpec(3, 3, 1.0)
    X = rng.uniform(-0.7, 0.7, (2000, 3))
    y = rng.standard_normal(2000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        model = fit_constrained_spline(X, y, spec)
    assert model.jitter_used == 0.0
    Phi = monomial_matrix(X, monomial_exponents(3, 3))
    K = distance_kernel_matrix(X, X, spec)
    misfit = np.max(np.abs(K @ model.dual_coeffs + Phi @ model.poly_coeffs - y))
    assert model.residual == misfit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lam, nu = saddle_solve(X, y, spec, 0.0)
    assert misfit <= np.max(np.abs(K @ lam + Phi @ nu - y))


@pytest.mark.parametrize("first, second", [(0, 1), (2, 5)])
def test_constrained_repeated_point_without_shift_raises(first, second):
    # two equal rows make the unshifted system exactly singular; a shift makes it regular.
    # The saddle solve raised for rows (0, 1) but returned a fit with residual 1.3e14 for (2, 5)
    spec = KernelSpec(1, 2, 1.0)
    X = np.random.default_rng(84).uniform(-0.7, 0.7, (40, 2))
    X[second] = X[first]
    y = np.random.default_rng(85).standard_normal(40)
    with pytest.raises(IllConditionedError):
        fit_constrained_spline(X, y, spec)
    model = fit_constrained_spline(X, y, spec, FitConfig(mode="constrained_spline", mu=1e-3))
    assert model.jitter_used == 0.0 and np.isfinite(model.residual)


@pytest.mark.parametrize("d, alpha, n", [(3, 3, 600), (2, 1, 400), (1, 0, 500)])
def test_constrained_peak_memory_is_about_two_kernel_matrices(d, alpha, n):
    # the projected kernel, built over K, and factor_spd's factor are the only n^2 arrays alive
    rng = np.random.default_rng(80 + d)
    spec = KernelSpec(alpha, d, 1.0)
    X = rng.uniform(-0.7, 0.7, (n, d))
    y = rng.standard_normal(n)
    fit_constrained_spline(X[:40], y[:40], spec)  # warm every cache outside the window
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fit_constrained_spline(X, y, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * n ** 2


def test_constrained_degenerate_design():
    spec = KernelSpec(1, 2, 1.0)
    with pytest.raises(DegenerateDesignError):
        fit_constrained_spline(np.zeros((2, 2)), np.zeros(2), spec)  # n < poly dim
    X = np.array([[0.1, 0.2]] * 5)  # repeated point: monomials rank deficient
    with pytest.raises(DegenerateDesignError):
        fit_constrained_spline(X, np.zeros(5), spec)


def test_predict_trivial_cases():
    spec = KernelSpec(0, 1, 1.0)
    rng = np.random.default_rng(8)
    X = rng.uniform(-1, 1, (6, 1))
    y = rng.standard_normal(6)
    model = fit_dual(X, y, spec)
    assert np.max(np.abs(predict(model, X) - y)) <= 1e-8 * np.max(np.abs(y))
    assert predict(model, np.empty((0, 1))).size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dual_and_spline_predict_at_non_finite_point_rejected(bad):
    # a primal model's feature map raises here; the kernel models must not return a quiet NaN
    spec = KernelSpec(1, 1, 1.0)
    X = np.linspace(-0.5, 0.5, 6)[:, None]
    for model in (fit_dual(X, X[:, 0] ** 2, spec, FitConfig(mode="ridge", mu=1e-6)),
                  fit_constrained_spline(X, X[:, 0] ** 2, spec)):
        with pytest.raises(ValueError, match="finite"):
            predict(model, np.array([[0.1], [bad]]))


def test_monomial_basis():
    exps = monomial_exponents(2, 2)
    assert len(exps) == 6
    assert exps[0] == (0, 0)
    M = monomial_matrix(np.array([[2.0, 3.0]]), exps)
    assert set(np.round(M.ravel(), 9)) == {1.0, 2.0, 3.0, 4.0, 6.0, 9.0}


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(mode="banana")
    with pytest.raises(ValueError):
        FitConfig(mu=-1.0)


def test_interpolate_mode_rejects_mu():
    with pytest.raises(ValueError):
        FitConfig(mu=1e-3)
    assert FitConfig(mode="ridge", mu=1e-3).mu == 1e-3


def test_dual_and_primal_reject_constrained_spline_config():
    spec = KernelSpec(1, 1, 1.0)
    X = np.linspace(-0.8, 0.8, 6)[:, None]
    ens = sample_nn_ensemble(spec, 16, RngStream(5))
    cfg = FitConfig(mode="constrained_spline", mu=1e-3)
    with pytest.raises(ValueError):
        fit_dual(X, np.ones(6), spec, cfg)
    with pytest.raises(ValueError):
        fit_primal(X, np.ones(6), ens, cfg)


def _inline_cholesky_solve(K, shift, B):
    # the symmetrize-shift-factor sequence factor_spd replaced, written out
    n = K.shape[0]
    cf = sla.cho_factor(0.5 * (K + K.T) + shift * np.eye(n), lower=True)
    return sla.cho_solve(cf, B)


def test_factor_spd_matches_inline_cholesky():
    rng = np.random.default_rng(11)
    # fig2-sized d = 1 Gram, with fig2's jitter and its 512 test-point columns
    spec1 = KernelSpec(0, 1, 1.0)
    X1 = rng.uniform(-1, 1, (20, 1))
    B1 = kernel_matrix(np.linspace(-1, 1, 512)[:, None], X1, spec1).T
    # alpha = 3, d = 3: the assembled Gram is symmetric only up to rounding
    spec3 = KernelSpec(3, 3, 1.0)
    X3 = rng.uniform(-0.5, 0.5, (60, 3))
    K3 = kernel_matrix(X3, X3, spec3)
    assert not np.array_equal(K3, K3.T)
    cases = [(kernel_matrix(X1, X1, spec1), 1e-10, B1),
             (K3, 1e-6, rng.standard_normal((60, 4))),
             (K3, 1e-6, rng.standard_normal(60))]
    for K, shift, B in cases:
        before = K.copy()
        factor = factor_spd(K, shift)
        assert factor.escalation == 0.0
        assert np.array_equal(factor.solve(B), _inline_cholesky_solve(K, shift, B))
        assert np.array_equal(K, before)


def test_factor_spd_escalates_and_fit_reports_the_rung():
    assert factor_spd(np.eye(4)).escalation == 0.0
    rung = factor_spd(np.ones((5, 5))).escalation
    assert rung in JITTER_LADDER
    # five copies of one point: K = k(0, 0) * ones = 0.5 * ones, singular
    spec = KernelSpec(0, 1, 1.0)
    X = np.zeros((5, 1))
    rung_half = factor_spd(kernel_matrix(X, X, spec)).escalation
    assert rung_half in JITTER_LADDER
    assert fit_dual(X, np.ones(5), spec).jitter_used == rung_half
    model = fit_dual(X, np.ones(5), spec, FitConfig(jitter=1e-13))
    assert model.jitter_used == 1e-13 + factor_spd(kernel_matrix(X, X, spec), 1e-13).escalation


def test_factor_spd_rejects_bad_matrices():
    with pytest.raises(IllConditionedError):
        factor_spd(-np.eye(3))
    K = np.eye(3)
    K[0, 2] = np.nan
    with pytest.raises(ValueError) as exc:
        factor_spd(K)
    assert not isinstance(exc.value, IllConditionedError)
    with pytest.raises(ValueError):
        factor_spd(np.ones((1, 5)))


D = 2


def _points_consumers():
    spec = KernelSpec(1, D, 1.0)
    ens = sample_nn_ensemble(spec, 8, RngStream(3))
    X = np.random.default_rng(4).uniform(-0.6, 0.6, (8, D))
    y = X[:, 0] - X[:, 1]
    models = {
        "dual": fit_dual(X, y, spec),
        "primal": fit_primal(X, y, ens, FitConfig(mode="ridge", mu=1e-6)),
        "constrained_spline": fit_constrained_spline(X, y, spec),
    }
    consumers = {
        "kernel_matrix": lambda P: kernel_matrix(P, P, spec),
        "nn_features": lambda P: ens.features(P),
        "fit_dual": lambda P: fit_dual(P, np.zeros(P.shape[0]), spec).dual_coeffs,
    }
    for kind, model in models.items():
        consumers[f"predict_{kind}"] = lambda P, model=model: predict(model, P)
    return consumers


CONSUMERS = sorted(_points_consumers())


@pytest.mark.parametrize("shape", [(3, D + 1), (0, D + 1)])
@pytest.mark.parametrize("name", CONSUMERS)
def test_points_of_wrong_dimension_rejected(name, shape):
    with pytest.raises(ValueError):
        _points_consumers()[name](np.zeros(shape))


@pytest.mark.parametrize("name", CONSUMERS)
def test_empty_points_give_empty_result(name):
    assert _points_consumers()[name](np.zeros((0, D))).size == 0
