"""Noisy convolution inversion on a finite window.

Observations y_i = q(t_i) + sigma * eps_i of a convolution q = g * f are
turned into an estimate of f in three stages: local-polynomial weight
rows, exact on the design, smooth the data into estimates of q and its
derivatives, a data-driven comparison rule picks each derivative's
bandwidth, and the rational Laplace structure of g supplies an explicit
inversion formula (derivative combination plus an exponential-kernel
convolution term).

The sim module reproduces a benchmark grid over five built-in kernels and
three target functions; the cli module exposes everything as a command
line tool.
"""

from ._expalg import ExpPoly
from .deconv import (
    DeconvolutionResult,
    EstimatorConfig,
    deconvolve,
    risk_mse,
)
from .kernels import (
    SmoothingKernel,
    eval_kernel,
    make_boundary_kernel,
    make_kernel,
)
from .resolvent import (
    PoleTerm,
    Polynomial,
    RationalLaplaceKernel,
    ResolventDecomposition,
    decompose,
    exp_poly_kernel,
    partial_fraction_terms,
    phi_tilde,
    pole_multiset,
    polished_roots,
    rational_kernel,
)
from .sim import (
    BUILTIN_F_NAMES,
    BUILTIN_G_NAMES,
    SIGMA0,
    ExperimentReport,
    Scenario,
    builtin_f,
    builtin_g,
    forward_convolve,
    ladder_sigma,
    run_experiment,
    run_table,
    table_cells,
    write_report_csv,
    write_report_json,
)
from .smoother import (
    AdaptationError,
    DerivativeEstimate,
    EstimationError,
    NoisySample,
    apply_rows,
    estimate_derivative,
    estimate_sigma,
    lepski_select,
    pc_estimate,
)
from .special import normal_quantile, reg_lower_gamma, standard_normals

__version__ = "0.1.0"

__all__ = [
    "AdaptationError",
    "BUILTIN_F_NAMES",
    "BUILTIN_G_NAMES",
    "DeconvolutionResult",
    "DerivativeEstimate",
    "EstimationError",
    "EstimatorConfig",
    "ExpPoly",
    "ExperimentReport",
    "NoisySample",
    "PoleTerm",
    "Polynomial",
    "RationalLaplaceKernel",
    "ResolventDecomposition",
    "SIGMA0",
    "Scenario",
    "SmoothingKernel",
    "apply_rows",
    "builtin_f",
    "builtin_g",
    "deconvolve",
    "decompose",
    "estimate_derivative",
    "estimate_sigma",
    "eval_kernel",
    "exp_poly_kernel",
    "forward_convolve",
    "ladder_sigma",
    "lepski_select",
    "make_boundary_kernel",
    "make_kernel",
    "normal_quantile",
    "partial_fraction_terms",
    "pc_estimate",
    "phi_tilde",
    "pole_multiset",
    "polished_roots",
    "rational_kernel",
    "reg_lower_gamma",
    "risk_mse",
    "run_experiment",
    "run_table",
    "standard_normals",
    "table_cells",
    "write_report_csv",
    "write_report_json",
    "__version__",
]
