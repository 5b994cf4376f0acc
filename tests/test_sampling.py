import numpy as np
import pytest

from oracles import sphere_moment
from splinerf.features import sample_fourier_ensemble, sample_nn_ensemble
from splinerf.kernels import KernelSpec, make_profile, rkhs_norm_1d
from splinerf.sampling import (
    RngStream,
    SamplerError,
    derive_seed,
    sample_fourier_taus,
    tau_density,
    tau_rejection_stats,
)


def _direction(d, stream):
    return sample_nn_ensemble(KernelSpec(0, d, 1.0), 1, stream).directions[0]


def test_sphere_determinism():
    s = RngStream(seed=42)
    a = _direction(2, s)
    b = _direction(2, s)
    assert np.array_equal(a, b)
    c = _direction(2, RngStream(derive_seed(42, 1)))
    assert not np.array_equal(a, c)


def test_sphere_unit_norm():
    for d in (1, 2, 5, 8):
        v = _direction(d, RngStream(derive_seed(3, d)))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_sphere_d1_is_two_points():
    dirs = sample_nn_ensemble(KernelSpec(0, 1, 1.0), 1_000_000, RngStream(11)).directions.ravel()
    assert set(np.unique(dirs)) == {-1.0, 1.0}
    frac = np.mean(dirs == 1.0)
    stderr = 0.5 / np.sqrt(dirs.size)
    assert abs(frac - 0.5) < 3 * stderr


def test_sphere_quadratic_moment_d3():
    # E[(w . e1)^2] = 1/3 on the 2-sphere
    dirs = sample_nn_ensemble(KernelSpec(0, 3, 1.0), 1_000_000, RngStream(12)).directions
    w1sq = dirs[:, 0] ** 2
    stderr = w1sq.std(ddof=1) / np.sqrt(w1sq.size)
    assert abs(w1sq.mean() - 1.0 / 3.0) < 3 * stderr


def test_sphere_invalid_dimension():
    with pytest.raises(ValueError):
        _direction(0, RngStream(0))


def test_nn_params_bias_moments():
    biases = sample_nn_ensemble(KernelSpec(0, 1, 1.0), 100_000, RngStream(13)).biases
    stderr = biases.std(ddof=1) / np.sqrt(biases.size)
    assert abs(biases.mean()) < 3 * stderr
    assert abs(biases.var() - 1.0 / 3.0) < 0.01


def test_nn_params_bias_support():
    params = sample_nn_ensemble(KernelSpec(0, 2, 2.0), 10, RngStream(14))
    assert np.all(np.abs(params.biases) <= 2.0)
    assert np.allclose(np.linalg.norm(params.directions, axis=1), 1.0, atol=1e-12)


def test_nn_params_invalid_radius():
    for R in (0.0, -1.0):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            sample_nn_ensemble(KernelSpec(0, 2, R), 5, RngStream(0))


@pytest.mark.parametrize("R", [0.0, -1.0, np.nan, np.inf, 1e308])
def test_radius_must_be_positive_and_finite(R):
    # at R = 1e308 the diameter 2R overflows: two points of the ball lie further apart than any float
    # the kernel section k(., 0) for alpha = 0 on [-1, 1]; its squared norm is 1/2
    section = [lambda t: 0.5 - np.abs(np.asarray(t)) / 4, lambda t: -np.sign(np.asarray(t)) / 4]
    prof = make_profile(section, 1.0)
    for make in (lambda: KernelSpec(0, 1, R), lambda: sample_fourier_taus(R, 5, RngStream(0)),
                 lambda: tau_rejection_stats(R, 5, RngStream(0)), lambda: tau_density(0.5, R),
                 lambda: make_profile(section, R), lambda: rkhs_norm_1d(prof, 0, R)):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            make()


_COUNTED = {
    "sample_fourier_taus": lambda m: sample_fourier_taus(1.0, m, RngStream(1)),
    "tau_rejection_stats": lambda m: tau_rejection_stats(1.0, m, RngStream(1))[0],
    "sample_nn_ensemble": lambda m: sample_nn_ensemble(KernelSpec(0, 2), m, RngStream(1)).directions,
    "sample_fourier_ensemble": lambda m: sample_fourier_ensemble(KernelSpec(0, 2), m, RngStream(1)).omegas,
}


@pytest.mark.parametrize("sampler", _COUNTED)
def test_sample_counts_are_checked_like_seeds(sampler):
    # a float count, even an integral one, is not a count, and a numpy integer is
    for bad in (2.0, 2.7, -3):
        with pytest.raises(ValueError, match="count must be an integer"):
            _COUNTED[sampler](bad)
    assert np.array_equal(_COUNTED[sampler](np.int64(3)), _COUNTED[sampler](3))


def test_tau_scalar_deterministic():
    tau = sample_fourier_taus(1.0, 1, RngStream(9))
    assert tau.shape == (1,)
    assert np.array_equal(tau, sample_fourier_taus(1.0, 1, RngStream(9)))
    assert not np.array_equal(tau, sample_fourier_taus(1.0, 1, RngStream(derive_seed(9, 1))))
    for R in (0.0, -1.0):
        with pytest.raises(ValueError):
            sample_fourier_taus(R, 1, RngStream(9))


def test_tau_sign_symmetry():
    taus = sample_fourier_taus(1.0, 1_000_000, RngStream(15))
    stderr = 1.0 / np.sqrt(taus.size)
    assert abs(np.mean(np.sign(taus))) < 4 * stderr


def test_tau_acceptance_rate_quick():
    _, n_acc = tau_rejection_stats(2.0, 200_000, RngStream(16))
    assert abs(n_acc / 200_000 - 0.5) < 0.02


@pytest.mark.parametrize("R", [1e-200, 1e9, 1e200])
def test_tau_law_holds_at_extreme_radii(R):
    # the density is a function of u = R tau alone: neither tau^2 nor a cutoff on tau may leak in
    n = 200_000
    accepted, n_acc = tau_rejection_stats(R, n, RngStream(1))
    assert abs(n_acc / n - 0.5) < 4 * np.sqrt(0.25 / n)
    assert abs(np.median(np.abs(R * accepted)) - 0.854) < 0.01  # as at R = 1


def test_rejection_envelope_bound():
    # p / (M q) <= 1 on a fine grid of [-100R, 100R]
    for R in (0.5, 1.0, 2.0):
        tau = np.linspace(-100 * R, 100 * R, 1_000_001)
        q = (R / np.pi) / (1.0 + (R * tau) ** 2)
        ratio = tau_density(tau, R) / (2.0 * q)
        assert ratio.max() <= 1.0 + 1e-12


def test_tau_density_at_nan_and_infinity():
    # NaN in, NaN out; at +-inf the density takes its limit 0, also where R tau overflows
    with np.errstate(over="ignore"):
        got = tau_density(np.array([np.nan, np.inf, -np.inf, 1e308]), 2.0)
    assert np.isnan(got[0]) and np.array_equal(got[1:], np.zeros(3))
    assert tau_density(np.inf, 1.0) == 0.0


@pytest.mark.parametrize("args", [
    (1.5,), (np.float64(1.0),), (-1,), (2 ** 64,),  # seeds: not integral, or outside [0, 2^64)
    (0, "a", 1.5), (0, np.float64(2.0)), (0, None),  # labels neither a string nor integral
    (0, 2 ** 63), (0, -2 ** 63 - 1),                   # labels outside the signed 64-bit range
])
def test_derive_seed_rejects_keys_it_would_read_as_others(args):
    # 1.5 would be read as 1, -1 as 2^64 - 1 and 2^64 as 0; 2^63 does not pack as a signed label
    with pytest.raises(ValueError):
        derive_seed(*args)


def test_derive_seed_takes_numpy_integers_and_the_whole_key_range():
    assert derive_seed(np.uint64(2 ** 64 - 1), np.int64(-5), "x") == derive_seed(2 ** 64 - 1, -5, "x")
    assert derive_seed(0, 2 ** 63 - 1) != derive_seed(0, -2 ** 63)
    top = RngStream(2 ** 64 - 1).generator().random()
    assert RngStream(np.uint64(2 ** 64 - 1)).generator().random() == top


def test_tau_density_normalization_and_origin():
    from oracles import adaptive_gauss_legendre

    for R in (0.5, 1.0, 2.0):
        assert abs(tau_density(0.0, R) - R / np.pi) < 1e-14
        mass = adaptive_gauss_legendre(lambda t: tau_density(t, R), -2000.0 * R, 2000.0 * R,
                                       tol=1e-9)
        assert abs(mass - 1.0) < 1e-3  # remaining mass sits in the 1/t^2 tails


def test_fourier_frequency_factorization():
    freqs = sample_fourier_ensemble(KernelSpec(0, 3, 1.5), 200, RngStream(17))
    assert np.allclose(np.linalg.norm(freqs.omegas, axis=1), np.abs(freqs.taus), atol=1e-12)


def test_fourier_frequency_d1_symmetry():
    freqs = sample_fourier_ensemble(KernelSpec(0, 1, 1.0), 200_000, RngStream(18))
    omg = freqs.omegas.ravel()
    stderr = 1.0 / np.sqrt(omg.size)
    assert abs(np.mean(np.sign(omg))) < 4 * stderr


def test_fourier_directions_do_not_overlap_the_next_counter_block():
    # directions come from the stream's own generator, after its taus, and not
    # from the Philox block 2**64 counters on, where another sampler could start
    for seed in (0, 7, 123):
        dirs = sample_fourier_ensemble(KernelSpec(0, 3, 1.0), 8, RngStream(seed)).directions
        g = np.random.Generator(np.random.Philox(key=seed, counter=2 ** 64)).standard_normal((8, 3))
        assert not np.allclose(dirs, g / np.linalg.norm(g, axis=1)[:, None])


def test_fourier_frequency_empty():
    assert sample_fourier_taus(1.0, 0, RngStream(19)).shape == (0,)


def test_sphere_moment_closed_values():
    e1 = np.zeros(5); e1[0] = 1.0
    assert abs(sphere_moment("even_power", e1, 2) - 1.0 / 5.0) < 1e-14
    e1 = np.zeros(3); e1[0] = 1.0
    assert abs(sphere_moment("abs_odd", e1, 0) - 0.5) < 1e-14
    e1 = np.zeros(4); e1[0] = 1.0
    assert abs(sphere_moment("bilinear", e1, t=e1) - 0.25) < 1e-14


def test_sphere_moment_abs_odd_mc_oracle():
    from oracles import mc_sphere_projection_moment

    e1 = np.zeros(3); e1[0] = 1.0
    rng = np.random.default_rng(100)
    mean, se = mc_sphere_projection_moment(lambda w: np.abs(w[:, 0]), 3, 10_000_000, rng)
    assert abs(sphere_moment("abs_odd", e1, 0) - mean) < 4 * se


def test_sphere_moment_errors():
    with pytest.raises(ValueError):
        sphere_moment("bilinear", [1.0, 0.0])
    with pytest.raises(ValueError):
        sphere_moment("no_such_kind", [1.0])
    with pytest.raises(ValueError):
        sphere_moment("even_power", [1.0, 0.0], 3)


def test_sphere_moments_match_monte_carlo():
    # Every closed form vs a shared 1e7-draw Monte Carlo, 20 random configs.
    rng = np.random.default_rng(1234)
    n_samples = 10_000_000
    chunk = 1_000_000
    for _ in range(20):
        d = int(rng.integers(1, 9))
        alpha = int(rng.integers(0, 4))
        z = rng.normal(size=d)
        t = rng.normal(size=d)
        sums = np.zeros(5)
        sums_sq = np.zeros(5)
        done = 0
        while done < n_samples:
            k = min(chunk, n_samples - done)
            g = rng.standard_normal((k, d))
            inv_norm = 1.0 / np.sqrt(np.einsum("ij,ij->i", g, g))
            wz = (g @ z) * inv_norm  # w.z for w = g / |g|
            wt = (g @ t) * inv_norm
            square = wz * wz
            even = np.ones(k)
            for _ in range(alpha):
                even *= square
            cross = wz * wt
            # |w.z|^(2 alpha + 1), (w.z)^(2 alpha), (w.z)^2, w.z w.t, (w.z w.t)^2
            for i, stat in enumerate((np.abs(wz) * even, even, square, cross, cross * cross)):
                sums[i] += stat.sum()
                sums_sq[i] += stat @ stat
            done += k
        means = sums / n_samples
        ses = np.sqrt(np.maximum(sums_sq / n_samples - means ** 2, 0.0) / n_samples)
        closed = np.array([
            sphere_moment("abs_odd", z, alpha),
            sphere_moment("even_power", z, 2 * alpha),
            sphere_moment("quadratic", z),
            sphere_moment("bilinear", z, t=t),
            sphere_moment("bilinear_squared", z, t=t),
        ])
        assert np.all(np.abs(closed - means) < 4 * ses + 1e-12), (d, alpha)


def test_stream_validation():
    for seed in (-1, 2 ** 64, 1.5, np.float64(2.0)):  # 1.5 would be the stream of seed 1
        with pytest.raises(ValueError):
            RngStream(seed)
    assert isinstance(SamplerError("x"), RuntimeError)
