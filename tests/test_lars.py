"""Unit tests for least-angle regression (ref. [12]).

``reference_lars_path`` keeps the per-candidate Python loop for the step
length that :func:`repro.regression.lars_path` vectorizes; the two must
agree bitwise.
"""

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.regression import LeastAngleRegression, lars_path


def sparse_problem(rng, num_vars=60, nonzero=4, num_samples=80, noise=0.0):
    basis = OrthonormalBasis.linear(num_vars)
    truth = np.zeros(basis.size)
    support = rng.choice(np.arange(1, basis.size), nonzero, replace=False)
    truth[support] = rng.uniform(1.0, 3.0, nonzero) * rng.choice([-1, 1], nonzero)
    x = rng.standard_normal((num_samples, num_vars))
    f = basis.evaluate(truth, x)
    if noise:
        f = f + noise * rng.standard_normal(num_samples)
    return basis, truth, support, x, f


def reference_lars_path(design, target, max_terms):
    """LAR with the step length found by a loop over candidates, j ascending,
    the ``-`` candidate before the ``+`` one; returns (selected, coefficients)."""
    num_samples, num_terms = design.shape
    max_terms = min(max_terms, num_samples, num_terms)
    norms = np.linalg.norm(design, axis=0)
    excluded = ~(norms > 1e-12)
    safe_norms = np.where(excluded, 1.0, norms)
    columns = design / safe_norms
    selected, coefficients = [], []
    active, signs = [], []
    mu = np.zeros(num_samples)
    beta = np.zeros(0)
    for _step in range(max_terms):
        if not active:
            correlations = columns.T @ (target - mu)
            correlations[excluded] = 0.0
            best = int(np.argmax(np.abs(correlations)))
            if abs(correlations[best]) < 1e-14:
                break
            active.append(best)
            signs.append(float(np.sign(correlations[best])))
        signed = columns[:, active] * np.array(signs)
        try:
            w = np.linalg.solve(signed.T @ signed, np.ones(len(active)))
        except np.linalg.LinAlgError:
            break
        total = float(np.sum(w))
        if total <= 0:
            break
        normalizer = 1.0 / np.sqrt(total)
        direction = signed @ (normalizer * w)
        current_c = float(np.abs(columns[:, active[0]] @ (target - mu)))
        a = columns.T @ direction
        gamma = current_c / normalizer
        next_index = None
        c_all = columns.T @ (target - mu)
        for j in range(num_terms):
            if j in active or excluded[j]:
                continue
            for numerator, denominator in (
                (current_c - c_all[j], normalizer - a[j]),
                (current_c + c_all[j], normalizer + a[j]),
            ):
                if denominator > 1e-14:
                    candidate = numerator / denominator
                    if 1e-14 < candidate < gamma:
                        gamma = candidate
                        next_index = j
        mu = mu + gamma * direction
        grown = np.zeros(len(active))
        grown[: beta.size] = beta
        beta = grown + np.array(signs) * (normalizer * w * gamma)
        selected = list(active)
        coefficients.append(beta / safe_norms[active])
        if next_index is None:
            break
        active.append(next_index)
        signs.append(float(np.sign(columns[:, next_index] @ (target - mu))) or 1.0)
    return selected, coefficients


class TestLarsPath:
    @pytest.mark.parametrize(
        "num_samples,num_terms,max_terms", [(50, 6, 6), (80, 61, 20), (40, 200, 40)]
    )
    def test_matches_loop_reference_bitwise(self, rng, num_samples, num_terms, max_terms):
        design = rng.standard_normal((num_samples, num_terms))
        design[:, 1] = 0.0  # excluded column
        design[:, 4] = design[:, 2]  # exact ties between candidates
        target = design[:, :6] @ rng.standard_normal(6)
        target += 0.1 * rng.standard_normal(num_samples)
        path = lars_path(design, target, max_terms)
        selected, coefficients = reference_lars_path(design, target, max_terms)
        assert path.selected == selected
        assert len(path.coefficients_per_step) == len(coefficients)
        for fast, slow in zip(path.coefficients_per_step, coefficients):
            np.testing.assert_array_equal(fast, slow)

    def test_full_path_reaches_least_squares(self, rng):
        """With no competitor left, the last step lands on the active-set
        OLS solution (Efron et al., property of the full-gamma step)."""
        design = rng.standard_normal((50, 6))
        truth = np.array([2.0, 0.0, -1.5, 0.0, 1.0, 0.0])
        target = design @ truth
        path = lars_path(design, target, 6)
        dense = path.dense_coefficients(6)
        ols, *_ = np.linalg.lstsq(design[:, path.selected], target, rcond=None)
        reference = np.zeros(6)
        reference[path.selected] = ols
        assert np.allclose(dense, reference, atol=1e-8)

    def test_recovers_true_support(self, rng):
        basis, _truth, support, x, f = sparse_problem(rng)
        design = basis.design_matrix(x)
        path = lars_path(design, f, 4)
        assert set(path.selected) == set(support)

    def test_path_is_nested(self, rng):
        basis, _t, _s, x, f = sparse_problem(rng, noise=0.05)
        design = basis.design_matrix(x)
        path = lars_path(design, f, 10)
        for step, coefficients in enumerate(path.coefficients_per_step):
            assert len(coefficients) == step + 1

    def test_correlations_tie_along_path(self, rng):
        """LAR invariant: active columns share the max |correlation|."""
        basis, _t, _s, x, f = sparse_problem(rng, noise=0.05)
        design = basis.design_matrix(x)
        norms = np.linalg.norm(design, axis=0)
        path = lars_path(design, f, 6)
        # Rebuild the residual at step 3 and check the tie.
        step = 3
        dense = path.dense_coefficients(design.shape[1], step=step)
        residual = f - design @ dense
        correlations = np.abs(design.T @ residual) / norms
        active = path.selected[: step + 1]
        active_c = correlations[active]
        assert np.allclose(active_c, active_c[0], rtol=1e-6)
        inactive = np.delete(correlations, active)
        assert inactive.max() <= active_c[0] * (1 + 1e-8)

    def test_zero_target(self, rng):
        design = rng.standard_normal((10, 5))
        path = lars_path(design, np.zeros(10), 5)
        assert path.selected == []

    def test_empty_path_dense(self):
        from repro.regression.lars import LarsPath

        assert np.allclose(LarsPath().dense_coefficients(4), 0.0)

    def test_max_terms_respected(self, rng):
        basis, _t, _s, x, f = sparse_problem(rng, noise=0.1)
        design = basis.design_matrix(x)
        path = lars_path(design, f, 3)
        assert len(path.selected) <= 3


class TestLeastAngleRegression:
    def test_cv_fit_is_accurate(self, rng):
        basis, truth, _s, x, f = sparse_problem(rng, noise=0.02)
        model = LeastAngleRegression(basis).fit(x, f)
        x_test = rng.standard_normal((300, basis.num_vars))
        reference = basis.evaluate(truth, x_test)
        error = np.linalg.norm(model.predict(x_test) - reference)
        assert error / np.linalg.norm(reference) < 0.05

    def test_comparable_to_omp(self, rng):
        """Both path methods should land in the same accuracy class."""
        from repro.regression import OrthogonalMatchingPursuit

        basis, truth, _s, x, f = sparse_problem(
            rng, num_vars=100, nonzero=6, num_samples=120, noise=0.05
        )
        x_test = rng.standard_normal((400, basis.num_vars))
        reference = basis.evaluate(truth, x_test)

        def error_of(model):
            model.fit(x, f)
            return np.linalg.norm(model.predict(x_test) - reference) / (
                np.linalg.norm(reference)
            )

        lars_error = error_of(LeastAngleRegression(basis))
        omp_error = error_of(OrthogonalMatchingPursuit(basis))
        assert lars_error < 5 * omp_error

    def test_fixed_selection(self, rng):
        basis, _t, _s, x, f = sparse_problem(rng)
        model = LeastAngleRegression(basis, max_terms=3, selection="fixed")
        model.fit(x, f)
        assert len(model.selected_terms_) <= 3

    def test_validation(self):
        basis = OrthonormalBasis.linear(5)
        with pytest.raises(ValueError, match="selection"):
            LeastAngleRegression(basis, selection="greedy")
        with pytest.raises(ValueError, match="max_terms"):
            LeastAngleRegression(basis, selection="fixed")
        with pytest.raises(ValueError, match="n_folds"):
            LeastAngleRegression(basis, n_folds=1)
