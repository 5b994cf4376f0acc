"""Spline kernels on the ball, their random-feature expansions and leverage scores."""

from .kernels import (
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
)
from .features import (
    FourierFeatureMap,
    NNFeatureMap,
    approx_kernel,
    sample_fourier_ensemble,
    sample_nn_ensemble,
)
from .leverage import (
    GridLeverageEstimator,
    LeverageProfile,
    fourier_leverage,
    fourier_profiles,
    nn_leverage,
    nn_profile,
)
from .regression import (
    DegenerateDesignError,
    FitConfig,
    IllConditionedError,
    RegressionModel,
    fit_constrained_spline,
    fit_dual,
    fit_primal,
    predict,
)
from .sampling import (
    RngStream,
    SamplerError,
    derive_seed,
    sample_fourier_taus,
    tau_density,
    tau_rejection_stats,
)

__version__ = "0.1.0"
