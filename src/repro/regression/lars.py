"""Least-angle regression (LAR), the paper's ref. [12] baseline.

Li's DAC'09 work ("Finding deterministic solution from underdetermined
equation: large-scale performance modeling by least angle regression")
applied LAR to exactly the problem this package studies, one generation
before the OMP formulation of [13].  The algorithm (Efron et al., 2004)
moves the coefficient vector along the *equiangular* direction of the
active set -- the direction making equal angles with every active column --
growing the active set each time an inactive column's correlation catches
up.  Compared to OMP's hard per-step least-squares refit, LAR's path is
continuous and less greedy.

Model order is selected by the shared N-fold cross-validation helper, as
for OMP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .base import BasisRegressor
from .path_selection import cross_validated_order

__all__ = ["LarsPath", "LeastAngleRegression", "lars_path"]


@dataclass
class LarsPath:
    """Result of one LAR sweep (same shape contract as ``OmpPath``).

    ``coefficients_per_step[s]`` holds the coefficients over
    ``selected[: s + 1]`` at the *end* of step ``s`` (just before the next
    variable joins the active set).
    """

    selected: List[int] = field(default_factory=list)
    coefficients_per_step: List[np.ndarray] = field(default_factory=list)

    def dense_coefficients(self, num_terms: int, step: Optional[int] = None) -> np.ndarray:
        """Expand the step-``step`` solution to a dense vector of length M."""
        if not self.coefficients_per_step:
            return np.zeros(num_terms)
        if step is None:
            step = len(self.coefficients_per_step) - 1
        out = np.zeros(num_terms)
        coefficients = self.coefficients_per_step[step]
        out[self.selected[: len(coefficients)]] = coefficients
        return out


def lars_path(design: np.ndarray, target: np.ndarray, max_terms: int) -> LarsPath:
    """Run least-angle regression for up to ``max_terms`` active variables.

    Columns are used as-is (the orthonormal polynomial columns already have
    comparable norms); the constant column participates like any other.

    Returns
    -------
    LarsPath
        Active set in join order and the per-step coefficient snapshots.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    num_samples, num_terms = design.shape
    max_terms = min(max_terms, num_samples, num_terms)

    # Normalize columns so "equal correlation" is meaningful even if some
    # empirical column norms drift from 1; fold the scaling back at the end.
    norms = np.linalg.norm(design, axis=0)
    usable = norms > 1e-12
    safe_norms = np.where(usable, norms, 1.0)
    columns = design / safe_norms

    path = LarsPath()
    active: List[int] = []
    signs: List[float] = []
    mu = np.zeros(num_samples)
    beta_normalized = np.zeros(0)
    excluded = ~usable

    for _step in range(max_terms):
        correlations = columns.T @ (target - mu)
        correlations[excluded] = 0.0
        if active:
            correlations[active] = 0.0
        if not active:
            best = int(np.argmax(np.abs(correlations)))
            if abs(correlations[best]) < 1e-14:
                break
            active.append(best)
            signs.append(float(np.sign(correlations[best])))

        # Equiangular direction of the signed active columns.
        signed = columns[:, active] * np.array(signs)
        gram = signed.T @ signed
        try:
            w = np.linalg.solve(gram, np.ones(len(active)))
        except np.linalg.LinAlgError:
            break
        total = float(np.sum(w))
        if total <= 0:
            break
        normalizer = 1.0 / np.sqrt(total)
        direction = signed @ (normalizer * w)

        current_c = float(np.abs(columns[:, active[0]] @ (target - mu)))
        a = columns.T @ direction

        # Step length: smallest positive gamma at which an inactive column
        # reaches the active correlation level.  Candidates are laid out
        # (j, -) then (j, +) for ascending j, so argmin's first-occurrence
        # rule breaks ties in that order.
        gamma = current_c / normalizer  # full step (reaches LS on active set)
        next_index = None
        numerators = np.stack([current_c - correlations, current_c + correlations], axis=1)
        denominators = np.stack([normalizer - a, normalizer + a], axis=1)
        eligible = ~excluded
        eligible[active] = False
        valid = eligible[:, np.newaxis] & (denominators > 1e-14)
        candidates = np.divide(
            numerators, denominators, out=np.full_like(numerators, np.inf), where=valid
        ).ravel()
        candidates[~((candidates > 1e-14) & (candidates < gamma))] = np.inf
        first = int(np.argmin(candidates))
        if np.isfinite(candidates[first]):
            gamma = float(candidates[first])
            next_index = first // 2

        mu = mu + gamma * direction

        # Accumulate coefficients in normalized-column units, snapshot in
        # original units.
        grown = np.zeros(len(active))
        grown[: beta_normalized.size] = beta_normalized
        beta_normalized = grown + np.array(signs) * (normalizer * w * gamma)
        path.selected = list(active)
        path.coefficients_per_step.append(
            beta_normalized / safe_norms[active]
        )

        if next_index is None:
            break  # reached the least-squares solution on the active set
        correlations_next = columns[:, next_index] @ (target - mu)
        active.append(next_index)
        signs.append(float(np.sign(correlations_next)) or 1.0)
    return path


class LeastAngleRegression(BasisRegressor):
    """LAR sparse regression with cross-validated model-order selection.

    Parameters mirror :class:`~repro.regression.OrthogonalMatchingPursuit`.
    """

    def __init__(
        self,
        basis,
        max_terms: Optional[int] = None,
        selection: str = "cv",
        n_folds: int = 5,
    ):
        if selection not in ("cv", "fixed"):
            raise ValueError(f"selection must be 'cv' or 'fixed', got {selection!r}")
        if selection == "fixed" and max_terms is None:
            raise ValueError("selection='fixed' requires an explicit max_terms")
        if n_folds < 2:
            raise ValueError(f"n_folds must be >= 2, got {n_folds}")
        super().__init__(basis)
        self.max_terms = max_terms
        self.selection = selection
        self.n_folds = n_folds
        self.selected_terms_: Optional[List[int]] = None
        self.cv_errors_: Optional[np.ndarray] = None

    def _fit_design(self, design: np.ndarray, target: np.ndarray) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        target = np.asarray(target, dtype=float)
        num_samples, num_terms = design.shape
        if self.max_terms is not None:
            budget = min(self.max_terms, num_samples, num_terms)
        else:
            budget = max(1, min(num_samples // 2, num_terms))

        if self.selection == "cv":
            order, errors = cross_validated_order(
                lars_path, design, target, budget, self.n_folds
            )
            self.cv_errors_ = errors
        else:
            order = budget
        path = lars_path(design, target, order)
        self.selected_terms_ = list(path.selected)
        return path.dense_coefficients(num_terms)
