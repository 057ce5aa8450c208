"""Bayesian model fusion: priors, MAP estimation, CV selection, mapping."""

from .cross_validation import (
    CrossValidationReport,
    cross_validate_eta,
    default_eta_grid,
    select_prior_and_eta,
    select_prior_and_eta_from_solvers,
)
from .evidence import (
    EvidenceReport,
    log_evidence,
    select_prior_and_eta_by_evidence,
)
from .map_estimation import FoldSpectrum, KernelMapSolver, kernel_solvers, map_estimate
from .model import BmfRegressor, fuse
from .prior_mapping import FingerMap, PriorMapping, map_prior_coefficients
from .sequential import (
    RefitOutcome,
    SequentialBmf,
    SequentialBmfConfig,
    SequentialFitterState,
)
from .uncertainty import coefficient_posterior_variance, predictive_variance
from .priors import (
    GaussianCoefficientPrior,
    nonzero_mean_prior,
    uninformative_prior,
    zero_mean_prior,
)

__all__ = [
    "BmfRegressor",
    "RefitOutcome",
    "SequentialBmf",
    "SequentialBmfConfig",
    "SequentialFitterState",
    "coefficient_posterior_variance",
    "predictive_variance",
    "CrossValidationReport",
    "EvidenceReport",
    "log_evidence",
    "select_prior_and_eta_by_evidence",
    "FingerMap",
    "FoldSpectrum",
    "GaussianCoefficientPrior",
    "KernelMapSolver",
    "PriorMapping",
    "cross_validate_eta",
    "default_eta_grid",
    "fuse",
    "kernel_solvers",
    "map_estimate",
    "map_prior_coefficients",
    "nonzero_mean_prior",
    "select_prior_and_eta",
    "select_prior_and_eta_from_solvers",
    "uninformative_prior",
    "zero_mean_prior",
]
