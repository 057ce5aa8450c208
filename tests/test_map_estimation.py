"""Unit tests for MAP estimation (Section III-B) and the fast solver (IV-C)."""

import numpy as np
import pytest

from repro.basis import OrthonormalBasis
from repro.bmf import (
    FoldSpectrum,
    GaussianCoefficientPrior,
    KernelMapSolver,
    map_estimate,
    nonzero_mean_prior,
    uninformative_prior,
    zero_mean_prior,
)


@pytest.fixture
def problem(rng):
    num_samples, num_terms = 25, 80
    design = rng.standard_normal((num_samples, num_terms))
    truth = rng.standard_normal(num_terms)
    target = design @ truth + 0.05 * rng.standard_normal(num_samples)
    early = truth * (1 + 0.1 * rng.standard_normal(num_terms))
    return design, target, early


class TestSolverEquivalence:
    """The low-rank fast solver is exact (eqs. 55, 58)."""

    def test_zero_mean_fast_equals_direct(self, problem):
        design, target, early = problem
        prior = zero_mean_prior(early)
        fast = map_estimate(design, target, prior, 2.0, solver="fast")
        direct = map_estimate(design, target, prior, 2.0, solver="direct")
        assert np.allclose(fast, direct, atol=1e-9)

    def test_nonzero_mean_fast_equals_direct(self, problem):
        design, target, early = problem
        prior = nonzero_mean_prior(early)
        fast = map_estimate(design, target, prior, 0.5, solver="fast")
        direct = map_estimate(design, target, prior, 0.5, solver="direct")
        assert np.allclose(fast, direct, atol=1e-9)

    def test_with_missing_entries(self, problem):
        design, target, early = problem
        prior = nonzero_mean_prior(early).with_missing([0, 10, 20])
        fast = map_estimate(design, target, prior, 1.0, solver="fast")
        direct = map_estimate(design, target, prior, 1.0, solver="direct")
        assert np.allclose(fast, direct, atol=1e-8)

    def test_with_pinned_entries(self, problem):
        design, target, early = problem
        early = early.copy()
        early[[3, 7]] = 0.0  # zero early coefficient pins the late one
        prior = zero_mean_prior(early)
        fast = map_estimate(design, target, prior, 1.0, solver="fast")
        direct = map_estimate(design, target, prior, 1.0, solver="direct")
        assert np.allclose(fast, direct, atol=1e-9)
        assert fast[3] == 0.0 and fast[7] == 0.0

    def test_pinned_plus_missing_agree_for_default_missing_scale(self, problem):
        """Pinned entries make the direct path recurse on a sub-problem;
        the missing-scale default must be resolved against the full prior
        once so both solvers substitute the same value."""
        design, target, early = problem
        early = early.copy()
        early[[3, 7]] = 0.0  # pinned
        prior = zero_mean_prior(early).with_missing([0, 10, 20])
        for missing_scale in (None, 500.0):
            fast = map_estimate(
                design, target, prior, 1.0,
                solver="fast", missing_scale=missing_scale,
            )
            direct = map_estimate(
                design, target, prior, 1.0,
                solver="direct", missing_scale=missing_scale,
            )
            assert np.allclose(fast, direct, rtol=1e-7, atol=1e-8), missing_scale
            assert direct[3] == 0.0 and direct[7] == 0.0


class TestMapSemantics:
    def test_matches_paper_eq30(self, problem):
        """Zero-mean MAP equals eq. (28)-(30) evaluated literally."""
        design, target, early = problem
        early = np.where(early == 0, 1e-3, early)
        prior = zero_mean_prior(early)
        sigma0_sq = 0.7  # eta = sigma_0^2 for the zero-mean prior
        solution = map_estimate(design, target, prior, sigma0_sq)
        inv_sigma0_sq = 1.0 / sigma0_sq
        posterior_cov = np.linalg.inv(
            inv_sigma0_sq * design.T @ design + np.diag(early**-2.0)
        )
        reference = inv_sigma0_sq * posterior_cov @ design.T @ target
        assert np.allclose(solution, reference, atol=1e-8)

    def test_matches_paper_eq35(self, problem):
        """Nonzero-mean MAP equals eq. (31)-(35) evaluated literally."""
        design, target, early = problem
        early = np.where(early == 0, 1e-3, early)
        prior = nonzero_mean_prior(early)
        eta = 1.3
        solution = map_estimate(design, target, prior, eta)
        diag = np.diag(early**-2.0)
        posterior_cov = np.linalg.inv(eta * diag + design.T @ design)
        reference = posterior_cov @ (eta * diag @ early + design.T @ target)
        assert np.allclose(solution, reference, atol=1e-8)

    def test_strong_prior_returns_prior_mean(self, problem):
        """eta -> infinity: the data is ignored (eq. 35 limit)."""
        design, target, early = problem
        prior = nonzero_mean_prior(early)
        solution = map_estimate(design, target, prior, 1e14)
        assert np.allclose(solution, early, atol=1e-4)

    def test_weak_prior_interpolates_training_data(self, problem):
        """eta -> 0: the MAP solution reproduces the observations."""
        design, target, early = problem
        prior = nonzero_mean_prior(early)
        solution = map_estimate(design, target, prior, 1e-10)
        assert np.allclose(design @ solution, target, atol=1e-4)

    def test_all_pinned_returns_means(self, rng):
        design = rng.standard_normal((5, 3))
        prior = GaussianCoefficientPrior(np.array([1.0, 2.0, 3.0]), np.zeros(3))
        solution = map_estimate(design, rng.standard_normal(5), prior, 1.0)
        assert np.allclose(solution, [1.0, 2.0, 3.0])

    def test_uninformative_prior_acts_like_ridgeless(self, rng):
        """With a flat prior and K > M, MAP approaches least squares."""
        design = rng.standard_normal((50, 8))
        truth = rng.standard_normal(8)
        target = design @ truth
        prior = uninformative_prior(8)
        solution = map_estimate(design, target, prior, 1.0, missing_scale=1e6)
        assert np.allclose(solution, truth, atol=1e-5)


class TestValidation:
    def test_bad_solver_rejected(self, problem):
        design, target, early = problem
        with pytest.raises(ValueError, match="solver"):
            map_estimate(design, target, zero_mean_prior(early), 1.0, solver="qr")

    def test_non_positive_eta_rejected(self, problem):
        design, target, early = problem
        with pytest.raises(ValueError, match="eta"):
            map_estimate(design, target, zero_mean_prior(early), 0.0)

    def test_prior_size_mismatch_rejected(self, problem):
        design, target, _early = problem
        with pytest.raises(ValueError, match="coefficients"):
            map_estimate(design, target, uninformative_prior(3), 1.0)

    def test_target_shape_mismatch_rejected(self, problem):
        design, _target, early = problem
        with pytest.raises(ValueError, match="target"):
            map_estimate(design, np.zeros(3), zero_mean_prior(early), 1.0)


class TestKernelMapSolver:
    def test_solve_matches_map_estimate(self, problem):
        design, target, early = problem
        prior = nonzero_mean_prior(early)
        solver = KernelMapSolver(design, target, prior)
        assert np.allclose(
            solver.solve(0.8),
            map_estimate(design, target, prior, 0.8, solver="direct"),
            atol=1e-9,
        )

    def test_submatrix_prediction_equals_refit(self, problem):
        """Fold predictions from kernel submatrices == refitting on the fold."""
        design, target, early = problem
        prior = nonzero_mean_prior(early)
        solver = KernelMapSolver(design, target, prior)
        train_rows = np.arange(0, 20)
        eval_rows = np.arange(20, 25)
        eta = 1.7
        spectrum = FoldSpectrum(solver.kernel, train_rows, eval_rows)
        kernel_prediction = spectrum.predict(solver, np.array([eta]))[:, 0]
        refit = map_estimate(
            design[train_rows], target[train_rows], prior, eta, solver="direct"
        )
        assert np.allclose(kernel_prediction, design[eval_rows] @ refit, atol=1e-8)

    def test_dual_weights_shape(self, problem):
        design, target, early = problem
        solver = KernelMapSolver(design, target, zero_mean_prior(early))
        assert solver.dual_weights(1.0).shape == (design.shape[0],)
        rows = np.arange(10)
        assert solver.dual_weights(1.0, rows).shape == (10,)

    def test_non_positive_eta_rejected(self, problem):
        design, target, early = problem
        solver = KernelMapSolver(design, target, zero_mean_prior(early))
        with pytest.raises(ValueError, match="eta"):
            solver.dual_weights(-1.0)
