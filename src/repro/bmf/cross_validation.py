"""Hyper-parameter and prior selection by N-fold cross-validation (§IV-D).

The modeling error of a candidate (prior, eta) pair is estimated by
partitioning the late-stage samples into N non-overlapping folds, fitting on
N-1 of them and measuring the relative error (eq. 59) on the held-out fold,
then averaging over folds.  BMF-PS picks the (prior, eta) pair with minimal
cross-validation error -- this is what lets it track the better of
BMF-ZM/BMF-NZM in every experiment of Section V.

The sweep is made cheap by the dual-form solver: the fold kernels are
submatrices of one precomputed K x K kernel, each fold kernel is
eigendecomposed once, and the priors that share a scale (BMF-ZM and BMF-NZM
both use ``|alpha_E|``) share those decompositions.  A whole prior x eta
grid across all folds costs ``O(K^2 M + N * K^3 + N * len(grid) * K^2)``
(see :class:`repro.bmf.map_estimation.FoldSpectrum`), plus one Cholesky per
(fold, eta) only where ``eta I + B_ff`` is numerically near singular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..runtime.metrics import metrics as runtime_metrics
from .map_estimation import FoldSpectrum, KernelMapSolver, kernel_solvers
from .priors import GaussianCoefficientPrior

__all__ = [
    "CrossValidationReport",
    "default_eta_grid",
    "cross_validate_eta",
    "select_prior_and_eta",
    "select_prior_and_eta_from_solvers",
]


def default_eta_grid(
    prior: GaussianCoefficientPrior,
    num_samples: int,
    num_points: int = 13,
    decades_below: float = 5.0,
    decades_above: float = 3.0,
) -> np.ndarray:
    """Geometric eta grid centered on the natural problem scale.

    The prior term ``eta * s_m^{-2}`` competes with the Gram diagonal
    ``(G^T G)_{mm} ~= K`` (the basis is orthonormal in distribution), so the
    interesting regime is ``eta ~ K * s^2``.  The grid spans several decades
    around ``K * median(s^2)`` to cover strongly- and weakly-weighted priors.
    """
    finite = prior.scale[np.isfinite(prior.scale) & (prior.scale > 0)]
    reference_scale_sq = float(np.median(finite**2)) if finite.size else 1.0
    reference = max(num_samples, 1) * reference_scale_sq
    return np.geomspace(
        reference * 10.0**-decades_below,
        reference * 10.0**decades_above,
        num_points,
    )


@dataclass
class CrossValidationReport:
    """Outcome of a prior/eta selection run.

    Attributes
    ----------
    prior:
        The winning prior object.
    eta:
        The winning hyper-parameter value.
    error:
        Mean cross-validation relative error of the winner.
    per_prior_errors:
        For each candidate prior name, the CV error curve over its eta grid.
    per_prior_grids:
        The eta grid evaluated for each candidate prior.
    """

    prior: GaussianCoefficientPrior
    eta: float
    error: float
    per_prior_errors: Dict[str, np.ndarray] = field(default_factory=dict)
    per_prior_grids: Dict[str, np.ndarray] = field(default_factory=dict)


def _fold_masks(num_samples: int, n_folds: int):
    """Deterministic interleaved fold assignment (samples are i.i.d. anyway)."""
    fold_ids = np.arange(num_samples) % n_folds
    for fold in range(n_folds):
        yield np.flatnonzero(fold_ids != fold), np.flatnonzero(fold_ids == fold)


def cross_validate_eta(
    solver: KernelMapSolver,
    etas: Sequence[float],
    n_folds: int = 5,
    spectra: Optional[List[FoldSpectrum]] = None,
) -> np.ndarray:
    """Mean relative validation error for each eta in the grid.

    Parameters
    ----------
    solver:
        A :class:`KernelMapSolver` built on the *training* data.
    etas:
        Candidate hyper-parameter values (all positive).
    n_folds:
        Number of cross-validation folds (``N`` in Section IV-D).
    spectra:
        Optional per-fold cache of ``solver.kernel``'s
        :class:`~repro.bmf.map_estimation.FoldSpectrum`.  An empty list is
        filled by this call; passing the filled list with another solver
        that shares the kernel skips every eigendecomposition.

    Returns
    -------
    numpy.ndarray
        ``errors[i]`` is the N-fold mean of eq. (59) for ``etas[i]``.
    """
    etas = np.asarray(list(etas), dtype=float)
    if np.any(etas <= 0):
        raise ValueError("all eta values must be positive")
    num_samples = solver.target.shape[0]
    if n_folds < 2 or n_folds > num_samples:
        raise ValueError(
            f"n_folds must be in [2, {num_samples}], got {n_folds}"
        )
    if spectra is None:
        spectra = []
    elif len(spectra) not in (0, n_folds):
        raise ValueError(
            f"spectra holds {len(spectra)} folds, expected 0 or {n_folds}"
        )
    errors = np.zeros(len(etas))
    with runtime_metrics.timer("bmf.cross_validation"):
        for fold, (train_rows, val_rows) in enumerate(
            _fold_masks(num_samples, n_folds)
        ):
            if fold == len(spectra):
                spectra.append(FoldSpectrum(solver.kernel, train_rows, val_rows))
            predicted = spectra[fold].predict(solver, etas)
            actual = solver.target[val_rows]
            norm = float(np.linalg.norm(actual))
            scale = norm if norm > 0 else 1.0
            errors += np.linalg.norm(predicted - actual[:, None], axis=0) / scale
    runtime_metrics.increment("bmf.cv_evaluations", n_folds * len(etas))
    return errors / n_folds


def select_prior_and_eta(
    design: np.ndarray,
    target: np.ndarray,
    priors: Sequence[GaussianCoefficientPrior],
    eta_grids: Optional[Dict[str, Sequence[float]]] = None,
    n_folds: int = 5,
    missing_scale: Optional[float] = None,
) -> CrossValidationReport:
    """Pick the best (prior, eta) pair by N-fold cross-validation.

    This is the full BMF-PS selection step: it evaluates every candidate
    prior with its own eta grid and returns the minimizer together with the
    full error surfaces (useful for the hyper-parameter ablation bench).
    """
    if not priors:
        raise ValueError("at least one candidate prior is required")
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    solvers = kernel_solvers(design, target, priors, missing_scale)
    return select_prior_and_eta_from_solvers(solvers, eta_grids, n_folds)


def select_prior_and_eta_from_solvers(
    solvers: Sequence[KernelMapSolver],
    eta_grids: Optional[Dict[str, Sequence[float]]] = None,
    n_folds: int = 5,
) -> CrossValidationReport:
    """Prior/eta selection over *prebuilt* kernel solvers.

    Identical selection semantics to :func:`select_prior_and_eta` (same
    candidate order, same default grids, same fold layout), but the caller
    supplies the :class:`~repro.bmf.map_estimation.KernelMapSolver` per
    candidate prior.  This is the streaming entry point: a sequential fit
    keeps one solver per candidate and *extends* it with each new batch of
    samples (``O(K * Delta-K * M)``), so re-running the full selection does
    not pay the ``O(K^2 M)`` kernel rebuild.  Solvers that share a kernel
    (:meth:`~repro.bmf.map_estimation.KernelMapSolver.shares_kernel_with`)
    share its fold eigendecompositions too.
    """
    if not solvers:
        raise ValueError("at least one solver is required")
    num_samples = solvers[0].target.shape[0]
    report = CrossValidationReport(prior=solvers[0].prior, eta=np.nan, error=np.inf)
    shared: List[tuple] = []  # (solver, its kernel's fold spectra)
    for solver in solvers:
        prior = solver.prior
        if eta_grids is not None and prior.name in eta_grids:
            grid = np.asarray(list(eta_grids[prior.name]), dtype=float)
        else:
            grid = default_eta_grid(prior, num_samples)
        spectra = next(
            (cached for owner, cached in shared if solver.shares_kernel_with(owner)),
            None,
        )
        if spectra is None:
            spectra = []
            shared.append((solver, spectra))
        errors = cross_validate_eta(solver, grid, n_folds, spectra)
        report.per_prior_errors[prior.name] = errors
        report.per_prior_grids[prior.name] = grid
        best = int(np.argmin(errors))
        if errors[best] < report.error:
            report.prior = prior
            report.eta = float(grid[best])
            report.error = float(errors[best])
    return report
