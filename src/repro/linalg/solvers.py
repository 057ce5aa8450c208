"""Dense symmetric-positive-definite solve helpers.

Thin wrappers over :mod:`scipy.linalg` with the error handling and
conventions used throughout the package (float64, explicit shapes).  The
"conventional solver" of the paper (Cholesky decomposition, ref. [30]) lives
here so that the fast low-rank solver of Section IV-C has an exact reference
implementation to be compared against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.linalg

__all__ = [
    "cholesky_solve",
    "clip_spectrum",
    "solve_spd",
    "solve_least_squares",
    "SolverError",
]

#: Relative eigenvalue floor of the regularized SPD pseudo-solve.
SPECTRUM_FLOOR = 1e-12


class SolverError(RuntimeError):
    """Raised when a linear system cannot be solved reliably."""


def clip_spectrum(eigenvalues: np.ndarray) -> np.ndarray:
    """Clip an SPD spectrum at ``max(lambda_max, 1) * SPECTRUM_FLOOR``.

    ``eigenvalues`` is 1-D, or 2-D with one spectrum per column (the same
    kernel shifted by each eta of a grid); every column gets its own floor.
    This is the regularization of :func:`solve_spd`'s fallback, shared with
    the spectral cross-validation sweep so both give the same answers.
    """
    floor = np.maximum(eigenvalues.max(axis=0), 1.0) * SPECTRUM_FLOOR
    return np.maximum(eigenvalues, floor)


def solve_spd(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` for symmetric positive definite ``matrix``.

    Uses a Cholesky factorization (the paper's "conventional solver").
    Falls back to an eigenvalue-clipped pseudo-solve if the matrix is
    numerically indefinite, which can happen when prior variances span many
    orders of magnitude.
    """
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if rhs.shape[0] != matrix.shape[0]:
        raise ValueError(
            f"rhs length {rhs.shape[0]} does not match matrix size {matrix.shape[0]}"
        )
    solution = cholesky_solve(matrix, rhs)
    if solution is not None:
        return solution
    # Regularized fallback: clip tiny/negative eigenvalues.
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    clipped = clip_spectrum(eigenvalues)
    projected = eigenvectors.T @ rhs
    return eigenvectors @ (projected / clipped)


def cholesky_solve(matrix: np.ndarray, rhs: np.ndarray) -> Optional[np.ndarray]:
    """Cholesky solve of ``matrix @ x = rhs``; None if the factorization
    breaks down (``matrix`` is not numerically positive definite)."""
    try:
        chol = scipy.linalg.cho_factor(matrix, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    return scipy.linalg.cho_solve(chol, rhs, check_finite=False)


def solve_least_squares(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution of ``design @ x ~= target``.

    This is the traditional fitting method of Section II-B (eq. 6); for an
    overdetermined system it returns the least-squares solution, and for an
    underdetermined one the minimum-norm solution (which is exactly why
    plain least squares fails in the paper's high-dimensional regime).
    """
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float)
    solution, _residuals, _rank, _sv = np.linalg.lstsq(design, target, rcond=None)
    return solution
