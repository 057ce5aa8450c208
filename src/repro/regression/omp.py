"""Orthogonal matching pursuit (OMP) sparse regression (Section II-C, ref. [13]).

OMP is the paper's primary baseline.  It greedily selects, one per
iteration, the basis function most correlated with the current residual,
then re-solves least squares on the selected subset.  The iteration count
(model order) is chosen by N-fold cross-validation, mirroring how [13]
determines when "a sufficiently large number of basis functions are chosen".

The implementation keeps an incremental Cholesky factorization of the
selected columns' Gram matrix, so one full path over ``S`` steps costs
``O(S * K * M)`` for the correlation scans plus ``O(K * S^2 + S^3)`` for the
solves -- no per-step ``lstsq`` from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .base import BasisRegressor
from .path_selection import cross_validated_order

__all__ = ["OmpPath", "OrthogonalMatchingPursuit", "omp_path"]


@dataclass
class OmpPath:
    """Result of one greedy OMP sweep.

    Attributes
    ----------
    selected:
        Basis-function indices in selection order.
    coefficients_per_step:
        ``coefficients_per_step[s]`` is the least-squares coefficient vector
        (length ``s + 1``) over ``selected[: s + 1]`` after step ``s``.
    residual_norms:
        Euclidean norm of the training residual after each step.
    """

    selected: List[int] = field(default_factory=list)
    coefficients_per_step: List[np.ndarray] = field(default_factory=list)
    residual_norms: List[float] = field(default_factory=list)

    def dense_coefficients(self, num_terms: int, step: Optional[int] = None) -> np.ndarray:
        """Expand the step-``step`` solution to a dense vector of length M."""
        if not self.coefficients_per_step:
            return np.zeros(num_terms)
        if step is None:
            step = len(self.coefficients_per_step) - 1
        out = np.zeros(num_terms)
        coeffs = self.coefficients_per_step[step]
        out[self.selected[: len(coeffs)]] = coeffs
        return out


class _IncrementalCholesky:
    """Grow-only Cholesky factor of the Gram matrix of selected columns."""

    def __init__(self, max_size: int):
        self._factor = np.zeros((max_size, max_size))
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def try_append(self, cross: np.ndarray, norm_sq: float) -> bool:
        """Append a column with Gram cross-terms ``cross`` and squared norm.

        Returns False (without modifying state) if the new column is
        numerically dependent on the already-selected ones.
        """
        s = self._size
        factor = self._factor
        if s == 0:
            if norm_sq <= 0:
                return False
            factor[0, 0] = math.sqrt(norm_sq)
            self._size = 1
            return True
        from scipy.linalg import solve_triangular

        w = solve_triangular(factor[:s, :s], cross, lower=True, check_finite=False)
        remainder = norm_sq - float(w @ w)
        if remainder <= 1e-12 * max(norm_sq, 1.0):
            return False
        factor[s, :s] = w
        factor[s, s] = math.sqrt(remainder)
        self._size = s + 1
        return True

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(L L^T) x = rhs`` for the current factor size."""
        from scipy.linalg import solve_triangular

        s = self._size
        factor = self._factor[:s, :s]
        tmp = solve_triangular(factor, rhs, lower=True, check_finite=False)
        return solve_triangular(factor.T, tmp, lower=False, check_finite=False)


def omp_path(
    design: np.ndarray,
    target: np.ndarray,
    max_terms: int,
    residual_tol: float = 0.0,
) -> OmpPath:
    """Run the greedy OMP selection for up to ``max_terms`` steps.

    Parameters
    ----------
    design:
        Design matrix ``G`` of shape ``(K, M)``.
    target:
        Target vector ``f`` of shape ``(K,)``.
    max_terms:
        Maximum number of basis functions to select (capped at ``min(K, M)``).
    residual_tol:
        Stop early once ``||r||_2 <= residual_tol * ||f||_2``.

    Returns
    -------
    OmpPath
        The selection order and per-step least-squares solutions.
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    num_samples, num_terms = design.shape
    max_terms = min(max_terms, num_samples, num_terms)

    column_norms = np.linalg.norm(design, axis=0)
    usable = column_norms > 0
    safe_norms = np.where(usable, column_norms, 1.0)

    path = OmpPath()
    chol = _IncrementalCholesky(max_terms)
    # Selected columns, one per row in selection order: the border
    # cross-terms and the residual read the view ``chosen[:s]`` instead of
    # re-gathering ``design[:, selected]`` at every step.  Rows keep the
    # memory layout of that gather, so the arithmetic is bitwise unchanged.
    chosen = np.empty((max_terms, num_samples))
    residual = target.copy()
    target_norm = np.linalg.norm(target)
    selected_mask = np.zeros(num_terms, dtype=bool)
    cross_with_target: List[float] = []

    while chol.size < max_terms:
        correlations = np.abs(design.T @ residual) / safe_norms
        correlations[selected_mask | ~usable] = -np.inf
        best = int(np.argmax(correlations))
        if not np.isfinite(correlations[best]) or correlations[best] <= 0:
            break
        column = design[:, best]
        size = chol.size
        cross = chosen[:size] @ column
        selected_mask[best] = True
        if not chol.try_append(cross, float(column @ column)):
            # Numerically dependent column: exclude it and keep going.
            continue
        chosen[size] = column
        path.selected.append(best)
        cross_with_target.append(float(column @ target))
        coeffs = chol.solve(np.array(cross_with_target))
        path.coefficients_per_step.append(coeffs)
        residual = target - chosen[: size + 1].T @ coeffs
        res_norm = float(np.linalg.norm(residual))
        path.residual_norms.append(res_norm)
        if target_norm > 0 and res_norm <= residual_tol * target_norm:
            break
    return path


class OrthogonalMatchingPursuit(BasisRegressor):
    """OMP sparse regression with cross-validated model-order selection.

    Parameters
    ----------
    basis:
        Orthonormal basis defining the candidate functions.
    max_terms:
        Upper bound on the number of selected basis functions.  Defaults to
        ``K // 2`` at fit time (the CV then picks the best order <= bound).
    selection:
        ``"cv"`` chooses the model order by ``n_folds`` cross-validation;
        ``"fixed"`` always uses ``max_terms`` functions.
    n_folds:
        Number of cross-validation folds for order selection.
    residual_tol:
        Early-stop tolerance on the relative training residual.
    """

    def __init__(
        self,
        basis,
        max_terms: Optional[int] = None,
        selection: str = "cv",
        n_folds: int = 5,
        residual_tol: float = 1e-8,
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
        self.residual_tol = residual_tol
        self.selected_terms_: Optional[List[int]] = None
        self.cv_errors_: Optional[np.ndarray] = None

    def _resolve_max_terms(self, num_samples: int, num_terms: int) -> int:
        if self.max_terms is not None:
            return min(self.max_terms, num_samples, num_terms)
        return max(1, min(num_samples // 2, num_terms))

    def _fit_design(self, design: np.ndarray, target: np.ndarray) -> np.ndarray:
        design = np.asarray(design, dtype=float)
        target = np.asarray(target, dtype=float)
        num_samples, num_terms = design.shape
        budget = self._resolve_max_terms(num_samples, num_terms)

        if self.selection == "cv":
            order, errors = cross_validated_order(
                lambda d, t, m: omp_path(d, t, m, self.residual_tol),
                design,
                target,
                budget,
                self.n_folds,
            )
            self.cv_errors_ = errors
        else:
            order = budget
        path = omp_path(design, target, order, self.residual_tol)
        self.selected_terms_ = list(path.selected)
        return path.dense_coefficients(num_terms)
