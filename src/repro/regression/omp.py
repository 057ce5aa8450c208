"""Orthogonal matching pursuit (OMP) sparse regression (Section II-C, ref. [13]).

OMP is the paper's primary baseline.  It greedily selects, one per
iteration, the basis function most correlated with the current residual,
then re-solves least squares on the selected subset.  The iteration count
(model order) is chosen by N-fold cross-validation, mirroring how [13]
determines when "a sufficiently large number of basis functions are chosen".

The implementation keeps an incremental Cholesky factor ``L`` of the
selected columns' Gram matrix together with ``L^{-1} G_S^T f``, so a step
costs one forward solve for the new border row and one back-substitution
for the coefficients -- no per-step ``lstsq``.  The correlations come from
one of two forms, chosen from the shape alone:

* **Gram form** (``M <= GRAM_TERMS_RATIO * max_terms``): ``G^T G`` and
  ``G^T f`` are formed once, then the correlations are
  ``G^T f - (G^T G)[:, S] c`` with no pass over the K rows (Batch-OMP,
  Rubinstein, Zibulevsky & Elad, 2008).  A path of ``S`` steps costs
  ``O(K * M^2 + M * S^2)``.  The residual norm is
  ``sqrt(||f||^2 - b^T c)``; near cancellation it is formed explicitly.
* **Scan form**: the correlations are ``G^T r`` over the residual, so a
  path costs ``O(S * K * M)``.  It wins when ``M >> max_terms``, where the
  ``M x M`` Gram matrix would cost more than the scans it saves (and, at
  paper scale, more memory than the machine has).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy.linalg import solve_triangular

from .base import BasisRegressor
from .path_selection import cross_validated_order

__all__ = ["OmpPath", "OrthogonalMatchingPursuit", "omp_path"]

#: ``omp_path`` takes the Gram form when ``M <= GRAM_TERMS_RATIO * max_terms``
#: (after capping).  Measured on a 2-vCPU x86-64 VM with one BLAS thread,
#: the crossover sits between M / max_terms = 4 and 6: one path in Gram
#: form is 1.3x faster at 300 x 540 with 135 terms (ratio 4.0), 1.2x slower
#: at 100 x 540 with 100 terms (5.4) and 3.6x slower at 100 x 2000 with 50
#: terms (40).  The Gram matrix must also fit in memory: 418 MB at M = 7227.
GRAM_TERMS_RATIO = 4


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
    """Grow-only Cholesky factor ``L`` of the selected columns' Gram matrix.

    Alongside ``L`` it keeps ``z = L^{-1} b`` for the right-hand side
    ``b = G_S^T f``, extended by one entry per appended column, so the
    least-squares coefficients cost one back-substitution per step and
    ``b^T c = z^T z`` is available without touching the design.
    """

    def __init__(self, max_size: int):
        self._factor = np.zeros((max_size, max_size))
        self._forward = np.zeros(max_size)
        self._size = 0

    @property
    def size(self) -> int:
        return self._size

    def try_append(self, cross: np.ndarray, norm_sq: float, rhs: float) -> bool:
        """Append a column with Gram cross-terms ``cross``, squared norm
        ``norm_sq`` and right-hand-side entry ``rhs`` (its dot with ``f``).

        Returns False (without modifying state) if the new column is
        numerically dependent on the already-selected ones.
        """
        s = self._size
        factor = self._factor
        if s == 0:
            if norm_sq <= 0:
                return False
            w = cross
            remainder = norm_sq
        else:
            w = solve_triangular(factor[:s, :s], cross, lower=True, check_finite=False)
            remainder = norm_sq - float(w @ w)
            if remainder <= 1e-12 * max(norm_sq, 1.0):
                return False
        pivot = math.sqrt(remainder)
        factor[s, :s] = w
        factor[s, s] = pivot
        self._forward[s] = (rhs - float(w @ self._forward[:s])) / pivot
        self._size = s + 1
        return True

    def coefficients(self) -> np.ndarray:
        """Solve ``(L L^T) c = b`` by back-substitution of ``L^T c = z``."""
        s = self._size
        return solve_triangular(
            self._factor[:s, :s].T, self._forward[:s], lower=False, check_finite=False
        )

    def explained_sq(self) -> float:
        """``b^T c = z^T z``: the squared norm of the fitted values."""
        z = self._forward[: self._size]
        return float(z @ z)


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
    target_norm = float(np.linalg.norm(target))
    use_gram = num_terms <= GRAM_TERMS_RATIO * max_terms

    path = OmpPath()
    chol = _IncrementalCholesky(max_terms)
    selected_mask = np.zeros(num_terms, dtype=bool)
    if use_gram:
        gram = design.T @ design
        # Rows of ``gram`` for the selected columns, in selection order:
        # the correlations are ``G^T f - gram[S].T @ c``, O(M s) per step.
        chosen = np.empty((max_terms, num_terms))
        gram_target = design.T @ target
        # Below this squared residual, ||f||^2 - b^T c has lost too many
        # digits to cancellation; the residual is then formed explicitly.
        explicit_below = (
            max(4.0 * residual_tol**2, 1e4 * np.finfo(float).eps) * target_norm**2
        )
    else:
        # Selected design columns, one per row in selection order: the
        # border cross-terms and the residual read the view ``chosen[:s]``.
        chosen = np.empty((max_terms, num_samples))
        residual = target

    coeffs = np.zeros(0)
    while chol.size < max_terms:
        size = chol.size
        if use_gram:
            correlations = gram_target - chosen[:size].T @ coeffs
        else:
            correlations = design.T @ residual
        correlations = np.abs(correlations) / safe_norms
        correlations[selected_mask | ~usable] = -np.inf
        best = int(np.argmax(correlations))
        if not np.isfinite(correlations[best]) or correlations[best] <= 0:
            break
        if use_gram:
            row = gram[best]
            cross, norm_sq, rhs = row[path.selected], row[best], gram_target[best]
        else:
            column = design[:, best]
            cross = chosen[:size] @ column
            norm_sq, rhs = column @ column, column @ target
        selected_mask[best] = True
        if not chol.try_append(cross, float(norm_sq), float(rhs)):
            # Numerically dependent column: exclude it and keep going.
            continue
        chosen[size] = row if use_gram else column
        path.selected.append(best)
        coeffs = chol.coefficients()
        path.coefficients_per_step.append(coeffs)
        if use_gram:
            res_sq = target_norm**2 - chol.explained_sq()
            if res_sq > explicit_below:
                res_norm = math.sqrt(res_sq)
            else:
                res_norm = float(
                    np.linalg.norm(target - design[:, path.selected] @ coeffs)
                )
        else:
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
