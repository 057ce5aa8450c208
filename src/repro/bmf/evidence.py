"""Evidence-based (type-II maximum likelihood) hyper-parameter selection.

Section IV-D selects the prior and its strength by N-fold cross-validation.
The fully Bayesian alternative maximizes the *marginal likelihood* of the
late-stage data instead: under prior ``alpha ~ N(mu, tau^2 diag(s^2))`` and
noise ``sigma_0^2``, the observations are jointly Gaussian,

    f ~ N(G mu,  tau^2 * (B + eta I)),   B = G diag(s^2) G^T,
    eta = sigma_0^2 / tau^2,

so with the overall scale ``tau^2`` profiled out in closed form the
log-evidence of each ``eta`` costs O(K) after one eigendecomposition of
the K x K kernel:

    tau^2*(eta)  = r^T (B + eta I)^{-1} r / K
    log L*(eta)  = -K/2 (log(2 pi tau^2*) + 1) - 1/2 log det(B + eta I)

No folds, no refits -- and it uses all K samples for both "fitting" and
"selection".  The ablation benchmark compares it against the paper's CV.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .cross_validation import default_eta_grid
from .map_estimation import KernelMapSolver, kernel_solvers
from .priors import GaussianCoefficientPrior

__all__ = ["EvidenceReport", "log_evidence", "select_prior_and_eta_by_evidence"]


def log_evidence(
    solver: KernelMapSolver,
    etas: Sequence[float],
    spectrum: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Profiled log marginal likelihood for each eta in the grid.

    Parameters
    ----------
    solver:
        A :class:`KernelMapSolver` built on the training data (its kernel
        and prior-mean residual are reused).
    etas:
        Positive candidate values of ``eta = sigma_0^2 / tau^2``.
    spectrum:
        Optional ``numpy.linalg.eigh(solver.kernel)``, for reuse across
        priors that share the kernel.

    Returns
    -------
    numpy.ndarray
        ``log L*(eta)`` up to the common additive constant, one entry per
        candidate.
    """
    etas = np.asarray(list(etas), dtype=float)
    if np.any(etas <= 0):
        raise ValueError("all eta values must be positive")
    if spectrum is None:
        spectrum = np.linalg.eigh(solver.kernel)
    eigenvalues, eigenvectors = spectrum
    eigenvalues = np.maximum(eigenvalues, 0.0)
    projected = eigenvectors.T @ solver.centered_target
    num_samples = projected.shape[0]

    out = np.empty(len(etas))
    for i, eta in enumerate(etas):
        shifted = eigenvalues + eta
        tau_sq = float(np.sum(projected**2 / shifted)) / num_samples
        tau_sq = max(tau_sq, 1e-300)
        log_det = float(np.sum(np.log(shifted)))
        out[i] = (
            -0.5 * num_samples * (np.log(2.0 * np.pi * tau_sq) + 1.0)
            - 0.5 * log_det
        )
    return out


@dataclass
class EvidenceReport:
    """Outcome of an evidence-based prior/eta selection run."""

    prior: GaussianCoefficientPrior
    eta: float
    log_evidence: float
    per_prior_log_evidence: Dict[str, np.ndarray] = field(default_factory=dict)
    per_prior_grids: Dict[str, np.ndarray] = field(default_factory=dict)


def select_prior_and_eta_by_evidence(
    design: np.ndarray,
    target: np.ndarray,
    priors: Sequence[GaussianCoefficientPrior],
    eta_grids: Optional[Dict[str, Sequence[float]]] = None,
    missing_scale: Optional[float] = None,
) -> EvidenceReport:
    """Pick the (prior, eta) pair maximizing the marginal likelihood.

    Same call shape as
    :func:`repro.bmf.cross_validation.select_prior_and_eta`, so the two
    selection strategies are drop-in interchangeable.  Priors that share a
    scale share one kernel and one eigendecomposition.
    """
    if not priors:
        raise ValueError("at least one candidate prior is required")
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    num_samples = design.shape[0]

    report = EvidenceReport(prior=priors[0], eta=np.nan, log_evidence=-np.inf)
    spectra: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}  # id(kernel) -> eigh
    for prior, solver in zip(
        priors, kernel_solvers(design, target, priors, missing_scale)
    ):
        if eta_grids is not None and prior.name in eta_grids:
            grid = np.asarray(list(eta_grids[prior.name]), dtype=float)
        else:
            grid = default_eta_grid(prior, num_samples)
        key = id(solver.kernel)
        if key not in spectra:
            spectra[key] = np.linalg.eigh(solver.kernel)
        values = log_evidence(solver, grid, spectra[key])
        report.per_prior_log_evidence[prior.name] = values
        report.per_prior_grids[prior.name] = grid
        best = int(np.argmax(values))
        if values[best] > report.log_evidence:
            report.prior = prior
            report.eta = float(grid[best])
            report.log_evidence = float(values[best])
    return report
