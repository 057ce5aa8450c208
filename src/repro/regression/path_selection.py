"""Cross-validated model-order selection for greedy/path algorithms.

OMP [13] and least-angle regression [12] both produce a *path*: a sequence
of nested models of growing size.  The model order (how many steps to keep)
is chosen by N-fold cross-validation, as the paper's baselines do.  This
module factors that selection loop out so every path algorithm shares it.

A path object must expose:

* ``selected`` -- basis-function indices in selection order;
* ``coefficients_per_step[s]`` -- the coefficient vector (length ``s + 1``)
  over ``selected[: s + 1]`` after step ``s``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

__all__ = ["cross_validated_order"]

PathFunction = Callable[[np.ndarray, np.ndarray, int], object]


def cross_validated_order(
    path_function: PathFunction,
    design: np.ndarray,
    target: np.ndarray,
    budget: int,
    n_folds: int = 5,
) -> "tuple[int, Optional[np.ndarray]]":
    """Pick the path length minimizing mean N-fold validation error.

    Parameters
    ----------
    path_function:
        ``path_function(design, target, max_terms)`` running the algorithm
        on a training fold.
    design / target:
        The full training data.
    budget:
        Maximum number of path steps to consider.
    n_folds:
        Number of cross-validation folds.

    Returns
    -------
    (order, errors):
        The selected number of steps (>= 1) and the per-step mean
        validation errors (``None`` when CV could not run).
    """
    num_samples = design.shape[0]
    if num_samples < 2 * n_folds:
        return budget, None
    fold_ids = np.arange(num_samples) % n_folds
    errors = np.zeros(budget)
    counts = np.zeros(budget)
    for fold in range(n_folds):
        val_mask = fold_ids == fold
        train_design = design[~val_mask]
        train_target = target[~val_mask]
        val_design = design[val_mask]
        val_target = target[val_mask]
        fold_budget = min(budget, train_design.shape[0])
        path = path_function(train_design, train_target, fold_budget)
        norm = np.linalg.norm(val_target)
        scale = norm if norm > 0 else 1.0
        # One gather per fold; step ``s`` reads the first ``s + 1`` columns.
        val_selected = val_design[:, path.selected]
        for step, coefficients in enumerate(path.coefficients_per_step):
            prediction = val_selected[:, : step + 1] @ coefficients
            errors[step] += np.linalg.norm(prediction - val_target) / scale
            counts[step] += 1
    valid = counts > 0
    if not np.any(valid):
        return budget, None
    mean_errors = np.full(budget, np.inf)
    mean_errors[valid] = errors[valid] / counts[valid]
    return int(np.argmin(mean_errors)) + 1, mean_errors
