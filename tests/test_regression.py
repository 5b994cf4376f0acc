import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from oracles import saddle_solve
import splinerf.regression
from splinerf.features import approx_kernel, sample_fourier_ensemble, sample_nn_ensemble
from splinerf.kernels import (DISTANCE_BLOCK_ENTRIES, KernelSpec, _kernel_rows, distance_kernel_matrix,
                              kernel_matrix, monomial_exponents, monomial_matrix)
from splinerf.regression import (
    JITTER_LADDER,
    DegenerateDesignError,
    FitConfig,
    IllConditionedError,
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
def test_fits_take_an_empty_label_matrix(name):
    # fit_constrained_spline's residual was a max over no entries, which numpy rejects
    X, fits = _label_matrix_fits()
    model = fits[name](np.zeros((X.shape[0], 0)))
    assert model.residual == 0.0
    for attr in COEFFICIENTS[name]:
        assert getattr(model, attr).shape[1:] == (0,)
    assert predict(model, X[:5]).shape == (5, 0)


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
@pytest.mark.parametrize("labels", [(), (3,), (0,)])
def test_residual_is_the_training_misfit_of_predict(name, labels):
    X, fits = _label_matrix_fits()
    y = np.random.default_rng(15).standard_normal(X.shape[:1] + labels)
    model = fits[name](y)
    assert model.residual == float(np.max(np.abs(predict(model, X) - y), initial=0.0))


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_fits_own_their_training_data(name):
    # a fit kept the caller's float64 points as model.X, so a later write to them
    # moved predict's output
    X, fits = _label_matrix_fits()
    y = np.random.default_rng(16).standard_normal(X.shape[0])
    Xt = np.random.default_rng(17).uniform(-0.7, 0.7, (30, 2))
    model = fits[name](y)
    want = predict(model, Xt), model.residual
    X += 0.25
    y[:] = 7.0
    assert np.array_equal(predict(model, Xt), want[0])
    assert model.residual == want[1]
    assert not np.shares_memory(model.X, X) and not np.shares_memory(model.y, y)


@pytest.mark.parametrize("name", ["fit_dual", "fit_constrained_spline"])
def test_kernel_fits_stream_kernel_rows_only_when_residual_is_read(name, monkeypatch):
    # fit_constrained_spline streamed the distance kernel a second time, through predict,
    # for a residual formed during the fit
    X, fits = _label_matrix_fits()
    y = np.random.default_rng(18).standard_normal(X.shape[0])
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _kernel_rows(*args, **kwargs)

    monkeypatch.setattr(splinerf.regression, "_kernel_rows", counted)
    model = fits[name](y)
    assert calls == []
    model.residual
    assert len(calls) == 1


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
def test_constrained_peak_memory_is_about_one_kernel_matrix(d, alpha, n):
    # the projected kernel is built over K and factored in K's memory: one n x n float array.
    # The rest, 0.67-0.88 MiB here, is the Gram's two row-block buffers of 2^15 entries and
    # the n x r monomial arrays
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
    assert peak < 8 * n ** 2 + 1.25 * 2 ** 20


def _one_shot(model, Xt):
    """predict's value from the whole (n_test, n) kernel matrix, and that matrix's row
    products' summands |K[i, j] c[j]| summed (for a rounding bound)."""
    if model.kind == "dual":
        K = kernel_matrix(Xt, model.X, model.spec)
        poly = 0.0
    else:
        K = distance_kernel_matrix(Xt, model.X, model.spec)
        poly = monomial_matrix(Xt, monomial_exponents(model.spec.d, model.spec.alpha)) @ model.poly_coeffs
    return K, poly, np.abs(K) @ np.abs(model.dual_coeffs)


def _fit(kind, X, y, spec):
    if kind == "dual":
        return fit_dual(X, y, spec, FitConfig(mode="ridge", mu=1e-3))
    return fit_constrained_spline(X, y, spec, FitConfig(mode="constrained_spline", mu=1e-3))


@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("kind", ["dual", "constrained_spline"])
@pytest.mark.parametrize("n, n_test", [(300, 250), (37, 2000), (300, 0)])
def test_streamed_predict_is_the_kernel_matrix_product(kind, k, n, n_test):
    # predict multiplies each row block of the cross kernel by the coefficients; the
    # blocks are kernel_matrix's rows bit for bit, with a ragged last block here
    rng = np.random.default_rng(86)
    spec = KernelSpec(3, 3, 1.0)
    X, Xt = rng.uniform(-0.7, 0.7, (n, 3)), rng.uniform(-0.7, 0.7, (n_test, 3))
    y = rng.standard_normal(n) if k is None else rng.standard_normal((n, k))
    model = _fit(kind, X, y, spec)
    step = DISTANCE_BLOCK_ENTRIES // n
    assert n_test == 0 or n_test % step
    got = predict(model, Xt)
    assert got.shape == (n_test,) + y.shape[1:]
    K, poly, summands = _one_shot(model, Xt)
    want = np.empty_like(got)
    for i in range(0, n_test, step):
        want[i:i + step] = K[i:i + step] @ model.dual_coeffs
    assert np.array_equal(got, want + poly)
    # The one-shot product K @ c sums the same terms, but OpenBLAS picks its kernel
    # by shape and a row's place in its thread range and 4-row group, so its
    # rounding may differ: by at most 2 n eps sum |K[i, j] c[j]| per row
    one_shot = K @ model.dual_coeffs + poly
    eps = np.finfo(float).eps
    assert np.all(np.abs(got - one_shot) <= 2 * n * eps * summands + 2 * eps * np.abs(one_shot))


@pytest.mark.parametrize("kind", ["dual", "constrained_spline"])
def test_streamed_predict_equals_the_one_shot_product_at_aligned_sizes(kind):
    # n = 1000 gives 32-row blocks and a ragged last block of 16 rows.  At these sizes
    # OpenBLAS's gemv rounds each row of a block as it does in the whole matrix
    # (checked at 1 to 4 threads), as at the fit's n = 2000 training residual
    # (test_constrained_ill_conditioned_saddle_case); at other shapes it may not, and
    # the test above bounds the difference
    rng = np.random.default_rng(87)
    spec = KernelSpec(3, 3, 1.0)
    X, Xt = rng.uniform(-0.7, 0.7, (1000, 3)), rng.uniform(-0.7, 0.7, (2000, 3))
    model = _fit(kind, X, rng.standard_normal(1000), spec)
    K, poly, _ = _one_shot(model, Xt)
    assert np.array_equal(predict(model, Xt), K @ model.dual_coeffs + poly)


@pytest.mark.parametrize("d, alpha", [(1, 0), (2, 1), (3, 3)])
def test_fit_dual_solves_the_kernel_matrix_bit_for_bit(d, alpha):
    # fit_dual assembles the distance term on and above the diagonal only (three row
    # blocks here, the last one ragged), and those entries are kernel_matrix's
    rng = np.random.default_rng(88 + d)
    spec = KernelSpec(alpha, d, 1.0)
    n = 300
    X = rng.uniform(-0.7, 0.7, (n, d))
    for y, mu in [(rng.standard_normal(n), 1e-3), (rng.standard_normal((n, 2)), 1e-2)]:
        model = fit_dual(X, y, spec, FitConfig(mode="ridge", mu=mu))
        want = _inline_cholesky_solve(kernel_matrix(X, X, spec), n * mu, y)
        assert np.array_equal(model.dual_coeffs, want)


def test_fits_and_streamed_predict_peak_memory():
    # each fit holds one n x n array, its Gram factored in place, plus about 0.13 8n^2 of
    # row-block buffers and monomials; predict holds none.  The bound is below the
    # 1.21 8n^2 that an n x n finiteness mask (0.125 8n^2) gives fit_constrained_spline
    rng = np.random.default_rng(89)
    spec = KernelSpec(3, 3, 1.0)
    n, n_test = 1000, 2000
    X, Xt = rng.uniform(-0.7, 0.7, (n, 3)), rng.uniform(-0.7, 0.7, (n_test, 3))
    y = rng.standard_normal(n)
    for kind in ("dual", "constrained_spline"):
        predict(_fit(kind, X[:40], y[:40], spec), Xt[:5])  # warm every cache outside the window

    def peak(fn):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            result = fn()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    for kind in ("dual", "constrained_spline"):
        fit_peak, model = peak(lambda: _fit(kind, X, y, spec))
        assert fit_peak <= 1.17 * n ** 2 * 8, kind
        predict_peak, _ = peak(lambda: predict(model, Xt))
        assert predict_peak < n_test * n * 8 / 4, kind
    for K in (kernel_matrix(Xt, X, spec), kernel_matrix(X, X, spec, kind="pol_only"),
              distance_kernel_matrix(Xt, X, spec)):
        assert K.flags.c_contiguous


@pytest.mark.parametrize("n", [600, 1000])
def test_fits_hold_one_kernel_matrix(n):
    # each fit factors its Gram in the Gram's own memory: one n x n float array, not the
    # Gram and a factor copy; the rest of the peak is the Gram's two row-block buffers
    # and the monomials
    rng = np.random.default_rng(91)
    spec = KernelSpec(3, 3, 1.0)
    X = rng.uniform(-0.7, 0.7, (n, 3))
    y = rng.standard_normal(n)
    for kind in ("dual", "constrained_spline"):
        _fit(kind, X[:40], y[:40], spec)  # warm every cache outside the window
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _fit(kind, X, y, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * n ** 2, kind


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fits_at_non_finite_point_rejected(bad):
    # match the message: the factor's non-finite matrix and numpy's failed SVD are ValueErrors too
    X = np.linspace(-0.5, 0.5, 6)[:, None]
    X[2, 0] = bad
    for fit in (fit_dual, fit_constrained_spline):
        with pytest.raises(ValueError, match="points must be finite"):
            fit(X, np.ones(6), KernelSpec(1, 1, 1.0))


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
    # a non-finite shift would give NaN or all-zero coefficients without an error
    for mode in ("ridge", "constrained_spline"):
        for knob in ("mu", "jitter"):
            for bad in (np.nan, np.inf):
                with pytest.raises(ValueError):
                    FitConfig(mode=mode, **{knob: bad})
        assert FitConfig(mode=mode, mu=1e-3).mu == 1e-3


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


def _mirrored(K):
    # the symmetric matrix the fits factor: K[i, j] for i <= j, mirrored below the diagonal
    return np.triu(K) + np.triu(K, 1).T


def _factor(K, shift=0.0):
    # the fits' factor path, on a C-ordered copy of K
    return splinerf.regression._factor_in_place(np.array(K, dtype=float, order="C"), shift)


def _inline_cholesky_solve(K, shift, B):
    n = K.shape[0]
    cf = sla.cho_factor(_mirrored(K) + shift * np.eye(n), lower=True)
    return sla.cho_solve(cf, B)


def _alpha3_gram(rng, n=60):
    # alpha = 3, d = 3: the assembled Gram is symmetric only up to rounding
    spec = KernelSpec(3, 3, 1.0)
    X = rng.uniform(-0.5, 0.5, (n, 3))
    K = kernel_matrix(X, X, spec)
    assert not np.array_equal(K, K.T)
    return K


def test_factor_spd_matches_inline_cholesky():
    rng = np.random.default_rng(11)
    # fig2-sized d = 1 Gram, with fig2's jitter and its 512 test-point columns
    spec1 = KernelSpec(0, 1, 1.0)
    X1 = rng.uniform(-1, 1, (20, 1))
    B1 = kernel_matrix(np.linspace(-1, 1, 512)[:, None], X1, spec1).T
    K3 = _alpha3_gram(rng)
    cases = [(kernel_matrix(X1, X1, spec1), 1e-10, B1),
             (K3, 1e-6, rng.standard_normal((60, 4))),
             (K3, 1e-6, rng.standard_normal(60))]
    for K, shift, B in cases:
        factor = _factor(K, shift)
        assert factor.escalation == 0.0
        assert np.array_equal(factor.solve(B), _inline_cholesky_solve(K, shift, B))


def test_factor_spd_ignores_the_strict_lower_triangle():
    # like potrf, the factor neither reads nor checks K[i, j] for i > j: a NaN or inf there
    # is no error, and the factor and solves are those of the clean matrix
    rng = np.random.default_rng(12)
    K = _alpha3_gram(rng)
    below = np.tril_indices_from(K, -1)
    noise = rng.uniform(-1e3, 1e3, below[0].size)
    B = rng.standard_normal((60, 3))
    first = _factor(K, 1e-6)
    for fill in (noise, np.nan, np.inf, -np.inf):
        other = K.copy()
        other[below] = fill
        second = _factor(other, 1e-6)
        assert first.factor[1] and second.factor[1]  # lower: cho_factor wrote the lower triangle
        assert np.array_equal(np.tril(first.factor[0]), np.tril(second.factor[0]))
        assert np.array_equal(first.solve(B), second.solve(B))


def test_factor_spd_of_a_symmetric_matrix_matches_its_symmetric_part():
    # fig1 and fig2 pass exactly symmetric matrices: their golden CSVs need this factor to be
    # the one of the symmetric part 0.5 (K + K^T), bit for bit
    rng = np.random.default_rng(13)
    spec = KernelSpec(0, 1, 1.0)
    X = rng.uniform(-1, 1, (20, 1))
    ens = sample_fourier_ensemble(spec, 64, RngStream(7))
    F = ens.features(X)
    B = kernel_matrix(np.linspace(-1, 1, 512)[:, None], X, spec).T
    for K in (kernel_matrix(X, X, spec), ens.scaling * (F @ F.T)):
        assert np.array_equal(K, K.T)
        factor = _factor(K, 1e-10)
        cf = sla.cho_factor(0.5 * (K + K.T) + 1e-10 * np.eye(20), lower=True)
        assert np.array_equal(np.tril(factor.factor[0]), np.tril(cf[0]))
        assert np.array_equal(factor.solve(B), sla.cho_solve(cf, B))


def test_factor_spd_escalates_and_fit_reports_the_rung():
    assert _factor(np.eye(4)).escalation == 0.0
    rung = _factor(np.ones((5, 5))).escalation
    assert rung in JITTER_LADDER
    # five copies of one point: K = k(0, 0) * ones = 0.5 * ones, singular
    spec = KernelSpec(0, 1, 1.0)
    X = np.zeros((5, 1))
    rung_half = _factor(kernel_matrix(X, X, spec)).escalation
    assert rung_half in JITTER_LADDER
    assert fit_dual(X, np.ones(5), spec).jitter_used == rung_half
    model = fit_dual(X, np.ones(5), spec, FitConfig(jitter=1e-13))
    assert model.jitter_used == 1e-13 + _factor(kernel_matrix(X, X, spec), 1e-13).escalation


@pytest.mark.parametrize("R, rung", [(10.0, 1e-9), (30.0, 1e-6)])
def test_fit_dual_escalates_on_a_restored_gram(R, rung):
    # ten repeated points make the Gram singular: the unshifted factor fails, and each
    # failed rung is retried on the triangle restored from the mirror, so the factor that
    # succeeds is the one of the original matrix plus the rung, bit for bit
    rng = np.random.default_rng(92)
    spec = KernelSpec(3, 3, R)
    X = rng.uniform(-0.6 * R, 0.6 * R, (30, 3))
    X = np.vstack([X, X[:10]])
    y = rng.standard_normal(40)
    K = kernel_matrix(X, X, spec)
    factor = _factor(K)
    assert factor.escalation == rung
    model = fit_dual(X, y, spec)
    assert model.jitter_used == rung
    assert np.array_equal(model.dual_coeffs, factor.solve(y))
    assert np.array_equal(model.dual_coeffs, _inline_cholesky_solve(K, rung, y))


@pytest.mark.parametrize("jitter", [1e-300, 1e-20])
@pytest.mark.parametrize("alpha, d", [(1, 2), (3, 3)])
def test_fit_constrained_spline_escalates_on_a_restored_kernel(alpha, d, jitter):
    # ten repeated points make the projected kernel M singular on their differences, which
    # lie in the null space of Phi^T: the jittered factor fails, and the 1e-12 rung is
    # retried on the triangle the dsyr2k update wrote, restored from the mirror
    rng = np.random.default_rng(93)
    spec = KernelSpec(alpha, d, 1.0)
    X = rng.uniform(-0.7, 0.7, (30, d))
    X = np.vstack([X, X[:10]])
    n = len(X)
    y = rng.standard_normal(n)
    model = fit_constrained_spline(X, y, spec, FitConfig(mode="constrained_spline", jitter=jitter))
    shift = jitter + JITTER_LADDER[0]
    assert model.jitter_used == shift
    # the saddle solve forms its own K, so agreement is up to conditioning: ||M + shift I||_2
    # is at most 2 n max|K| and its smallest eigenvalue, on the repeated-point differences,
    # is shift, so a backward-stable solve is within kappa eps of the exact coefficients
    # (measured: 3.5e-6 to 2.3e-5 relative, kappa eps 8.1e-4 to 1.3e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lam, nu = saddle_solve(X, y, spec, shift)
    kappa = 2 * n * np.max(np.abs(distance_kernel_matrix(X, X, spec))) / shift
    for got, want in [(model.dual_coeffs, lam), (model.poly_coeffs, nu)]:
        assert np.max(np.abs(got - want)) <= kappa * np.finfo(float).eps * np.max(np.abs(want))


@pytest.mark.parametrize("jitter", [0.0, 1e-20])
@pytest.mark.parametrize("kind", ["nn", "fourier"])
def test_fit_primal_escalates_on_a_restored_gram(kind, jitter):
    # six copies of one point: K_hat is a multiple of the ones matrix, so the jittered
    # factor fails, and the rung's factor is the one of K_hat itself plus the rung, bit for bit
    spec = KernelSpec(1, 2, 1.0) if kind == "nn" else KernelSpec(0, 1, 1.0)
    sample = sample_nn_ensemble if kind == "nn" else sample_fourier_ensemble
    ens = sample(spec, 16, RngStream(5))
    X = np.full((6, spec.d), 0.3)
    y = np.random.default_rng(94).standard_normal(6)
    model = fit_primal(X, y, ens, FitConfig(jitter=jitter))
    shift = jitter + JITTER_LADDER[0]
    assert model.jitter_used == shift
    F = ens.features(X)
    K_hat = ens.scaling * (F @ F.T)
    assert np.array_equal(K_hat, K_hat[0, 0] * np.ones((6, 6)))
    eta = ens.scaling * (F.T @ _inline_cholesky_solve(K_hat, shift, y))
    assert np.array_equal(model.feature_weights, eta)


def test_factor_spd_condition_estimate_reads_the_restored_matrix():
    # every rung fails; the estimate is of the matrix the rungs factored, not of K's
    # strict lower triangle or of a failed factor's leftovers
    K = -np.ones((4, 4)) - np.diag([0.0, 1.0, 2.0, 3.0])
    K[np.tril_indices(4, -1)] = 7.0
    top = 1e-3 + JITTER_LADDER[-1]
    ev = np.abs(np.linalg.eigvalsh(_mirrored(K) + top * np.eye(4)))
    message = f"condition estimate {ev.max() / ev.min():.3e}"
    with pytest.raises(IllConditionedError, match=re.escape(message)):
        _factor(K, 1e-3)


def test_factor_spd_rejects_bad_matrices():
    with pytest.raises(IllConditionedError):
        _factor(-np.eye(3))
    K = np.eye(3)
    K[0, 2] = np.nan
    with pytest.raises(ValueError) as exc:
        _factor(K)
    assert not isinstance(exc.value, IllConditionedError)
    # on or above the diagonal, in the first band of rows the mirror checks, a middle one and
    # the last, short one
    for i, j, bad in ((0, 0, np.inf), (130, 200, -np.inf), (299, 299, np.nan), (250, 299, np.inf)):
        K = np.eye(300)
        K[i, j] = bad
        with pytest.raises(ValueError, match="non-finite") as exc:
            _factor(K)
        assert not isinstance(exc.value, IllConditionedError)
    for shift in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError) as exc:
            _factor(np.eye(3), shift)
        assert not isinstance(exc.value, IllConditionedError)


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
