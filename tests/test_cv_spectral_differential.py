"""Differential tests of the spectral CV sweep and the buffered OMP path.

Each fast path is checked against a slow reference kept only in this file:

* :func:`repro.bmf.cross_validate_eta` (one eigendecomposition per fold,
  shared across the eta grid) against a per-(fold, eta) ``solve_spd`` of
  ``eta I + B[train, train]`` -- the Cholesky loop the sweep replaced.
  The sweep covers K > M rank-deficient kernels, missing-prior columns
  (scale = inf), pinned columns (scale = 0) and etas small enough to hit
  the eigenvalue clip.  Wherever the reference's Cholesky succeeds, the
  per-eta errors agree to 1e-10 relative; the argmin agrees everywhere.
  Near-singular etas on badly scaled kernels, where the sweep falls back
  to per-eta Cholesky, are checked the same way.
* :func:`repro.regression.omp_path`, on both sides of its Gram/scan size
  rule, against a greedy OMP that re-gathers ``design[:, selected]`` and
  refits least squares at every step: same selection, coefficients within
  1e-12, including large target offsets (``||r|| << ||f||``), exactly
  sparse targets stopped by ``residual_tol``, and zero or duplicated
  columns.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bmf import (
    GaussianCoefficientPrior,
    KernelMapSolver,
    cross_validate_eta,
    kernel_solvers,
    nonzero_mean_prior,
    select_prior_and_eta,
    zero_mean_prior,
)
from repro.linalg import solve_spd
from repro.regression import omp_path
from repro.regression.omp import GRAM_TERMS_RATIO
from repro.runtime.metrics import metrics

ERROR_RTOL = 1e-10


def reference_cv(solver, etas, n_folds):
    """Per-(fold, eta) solve of the dual system; also which etas factored.

    Returns the mean relative validation error per eta and a mask that is
    True where Cholesky succeeded on every fold (elsewhere ``solve_spd``
    took its eigenvalue-clipped fallback).
    """
    kernel = solver.kernel
    num_samples = kernel.shape[0]
    fold_ids = np.arange(num_samples) % n_folds
    errors = np.zeros(len(etas))
    factored = np.ones(len(etas), dtype=bool)
    for fold in range(n_folds):
        train = np.flatnonzero(fold_ids != fold)
        val = np.flatnonzero(fold_ids == fold)
        actual = solver.target[val]
        norm = float(np.linalg.norm(actual))
        scale = norm if norm > 0 else 1.0
        for i, eta in enumerate(etas):
            system = kernel[np.ix_(train, train)] + eta * np.eye(train.size)
            try:
                scipy.linalg.cho_factor(system, lower=True, check_finite=False)
            except scipy.linalg.LinAlgError:
                factored[i] = False
            weights = solve_spd(system, solver.centered_target[train])
            predicted = (
                solver.prior_prediction[val]
                + kernel[np.ix_(val, train)] @ weights
            )
            errors[i] += float(np.linalg.norm(predicted - actual)) / scale
    return errors / n_folds, factored


def random_problem(seed, num_samples, num_terms, flavor):
    """Design, target and prior; ``flavor`` adds missing / pinned columns."""
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((num_samples, num_terms))
    truth = rng.standard_normal(num_terms)
    # Noisy data and an informative prior: the CV optimum sits at a large
    # eta, well away from the near-interpolating tiny-eta end of the grid.
    target = design @ truth + 0.5 * rng.standard_normal(num_samples)
    mean = truth * (1.0 + 0.01 * rng.standard_normal(num_terms))
    scale = np.abs(mean) + 0.1
    if flavor in ("missing", "both"):
        missing = rng.choice(num_terms, size=max(1, num_terms // 5), replace=False)
        scale[missing] = np.inf
    if flavor in ("pinned", "both"):
        finite = np.flatnonzero(np.isfinite(scale))
        pinned = rng.choice(finite, size=max(1, finite.size // 6), replace=False)
        scale[pinned] = 0.0
    return design, target, GaussianCoefficientPrior(mean, scale, name="case")


def eta_grid(solver, num_terms, n_folds, tiny_eta):
    """A grid that keeps every Cholesky reference well conditioned.

    The condition number is at most trace / min eta = 1e4 K.  A tiny eta,
    far below the clip floor max(lambda_max + eta, 1) * 1e-12, joins it
    when every training fold has 8 to 2M rows more than M columns:

    * a null space of dimension >= 8 gives the shifted fold kernel
      round-off eigenvalues of both signs, so Cholesky fails and both sides
      clip (with dimension 1 or 2, Cholesky succeeds on a coin flip and
      returns round-off noise);
    * with at most 3M training rows, the near-least-squares fit at the tiny
      eta is clearly worse than the informative prior, so the argmin does
      not hinge on the round-off in that clipped value.
    """
    num_samples = solver.kernel.shape[0]
    reference_scale = max(float(np.trace(solver.kernel)) / num_samples, 1.0)
    etas = reference_scale * np.geomspace(1e-4, 1e2, 7)
    min_train = num_samples - -(-num_samples // n_folds)
    if tiny_eta and num_terms + 8 <= min_train <= 3 * num_terms:
        etas = np.concatenate([[reference_scale * 1e-18], etas])
    return etas


class TestSpectralCrossValidation:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_samples=st.integers(min_value=6, max_value=40),
        num_terms=st.integers(min_value=3, max_value=50),
        flavor=st.sampled_from(["plain", "missing", "pinned", "both"]),
        missing_scale=st.one_of(st.none(), st.floats(min_value=2.0, max_value=30.0)),
        n_folds=st.integers(min_value=2, max_value=5),
        tiny_eta=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_eta_cholesky(
        self, seed, num_samples, num_terms, flavor, missing_scale, n_folds, tiny_eta
    ):
        design, target, prior = random_problem(seed, num_samples, num_terms, flavor)
        solver = KernelMapSolver(design, target, prior, missing_scale)
        etas = eta_grid(solver, num_terms, n_folds, tiny_eta)
        fast = cross_validate_eta(solver, etas, n_folds)
        slow, factored = reference_cv(solver, etas, n_folds)
        assert np.all(np.isfinite(fast))
        np.testing.assert_allclose(fast[factored], slow[factored], rtol=ERROR_RTOL)
        assert int(np.argmin(fast)) == int(np.argmin(slow))

    def test_rank_deficient_folds_match_the_clipped_fallback(self, rng):
        """K > M and an eta below the clip: Cholesky fails, both clip alike."""
        design = rng.standard_normal((60, 8))
        target = design @ rng.standard_normal(8) + 0.01 * rng.standard_normal(60)
        solver = KernelMapSolver(design, target, zero_mean_prior(np.ones(8)))
        etas = np.array([1e-30, 1e-2, 1.0])
        fast = cross_validate_eta(solver, etas, 4)
        slow, factored = reference_cv(solver, etas, 4)
        assert not factored[0]
        np.testing.assert_allclose(fast[1:], slow[1:], rtol=ERROR_RTOL)
        assert int(np.argmin(fast)) == int(np.argmin(slow))
        assert np.isfinite(fast[0])

    @pytest.mark.parametrize("seed", range(3))
    def test_near_singular_etas_follow_cholesky(self, seed):
        """Rank-deficient folds under a badly scaled prior (missing-prior
        columns at 1e3 x the largest scale), eta a few eps * lambda_max:
        eigenvalue round-off swamps lambda + eta (the spectral solve alone
        is off by 1e-2 to 1e-1 here), so these etas take the Cholesky path
        and match the reference exactly."""
        rng = np.random.default_rng(seed)
        design = rng.standard_normal((60, 20))
        truth = rng.standard_normal(20)
        truth[0] = 50.0
        target = design @ truth + 0.1 * rng.standard_normal(60)
        scale = np.abs(truth) + 0.1
        scale[1:4] = np.inf
        prior = GaussianCoefficientPrior(truth.copy(), scale, name="badly-scaled")
        solver = KernelMapSolver(design, target, prior)
        lambda_max = float(np.linalg.eigvalsh(solver.kernel).max())
        etas = np.finfo(float).eps * lambda_max * np.array([1.0, 3.0, 10.0, 30.0, 100.0])
        fast = cross_validate_eta(solver, etas, 4)
        slow, factored = reference_cv(solver, etas, 4)
        assert factored.all()
        np.testing.assert_allclose(fast, slow, rtol=ERROR_RTOL)

    def test_one_eigendecomposition_per_fold_and_kernel(self, rng, monkeypatch):
        """Priors sharing |alpha_E| share the kernel and every fold spectrum."""
        design = rng.standard_normal((30, 45))
        early = rng.standard_normal(45)
        target = design @ early + 0.01 * rng.standard_normal(30)
        priors = [zero_mean_prior(early), nonzero_mean_prior(early)]
        solvers = kernel_solvers(design, target, priors)
        assert solvers[0].kernel is solvers[1].kernel
        calls = []
        real_eigh = np.linalg.eigh

        def counting_eigh(matrix, *args, **kwargs):
            calls.append(matrix.shape)
            return real_eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        before = metrics.counters().get("bmf.cv_evaluations", 0)
        report = select_prior_and_eta(design, target, priors, n_folds=5)
        assert len(calls) == 5
        grid_sizes = sum(len(grid) for grid in report.per_prior_grids.values())
        assert metrics.counters()["bmf.cv_evaluations"] - before == 5 * grid_sizes

    def test_shared_spectra_give_the_same_errors(self, rng):
        design = rng.standard_normal((25, 40))
        early = rng.standard_normal(40)
        target = design @ early
        zm, nzm = kernel_solvers(
            design, target, [zero_mean_prior(early), nonzero_mean_prior(early)]
        )
        etas = np.geomspace(1e-2, 1e2, 5)
        spectra = []
        cross_validate_eta(zm, etas, 5, spectra)
        shared = cross_validate_eta(nzm, etas, 5, spectra)
        np.testing.assert_array_equal(shared, cross_validate_eta(nzm, etas, 5))

    def test_spectra_from_other_fold_count_rejected(self, rng):
        design = rng.standard_normal((20, 10))
        solver = KernelMapSolver(design, design[:, 0], zero_mean_prior(np.ones(10)))
        spectra = []
        cross_validate_eta(solver, [1.0], 4, spectra)
        with pytest.raises(ValueError, match="folds"):
            cross_validate_eta(solver, [1.0], 5, spectra)


def reference_omp(design, target, max_terms):
    """Greedy OMP with a fresh gather and least-squares refit per step.

    A candidate that would make the selected columns rank deficient (by
    ``lstsq``'s SVD rank, ``matrix_rank``'s threshold) is excluded.
    """
    norms = np.linalg.norm(design, axis=0)
    usable = norms > 0
    safe = np.where(usable, norms, 1.0)
    selected, coefficients = [], []
    excluded = ~usable
    residual = target.copy()
    while len(selected) < min(max_terms, *design.shape):
        correlations = np.abs(design.T @ residual) / safe
        correlations[excluded] = -np.inf
        best = int(np.argmax(correlations))
        if not np.isfinite(correlations[best]) or correlations[best] <= 0:
            break
        excluded[best] = True
        trial = design[:, selected + [best]]
        coeffs, _, rank, _ = np.linalg.lstsq(trial, target, rcond=None)
        if rank < len(selected) + 1:
            continue
        selected.append(best)
        coefficients.append(coeffs)
        residual = target - trial @ coeffs
    return selected, coefficients


def assert_matches_reference(path, design, target, max_terms):
    """Same selection as :func:`reference_omp` (a prefix of it if the path
    stopped early) and coefficients within 1e-12 of the largest one."""
    selected, coefficients = reference_omp(design, target, max_terms)
    assert path.selected == selected[: len(path.selected)]
    for fast, slow in zip(path.coefficients_per_step, coefficients):
        atol = 1e-12 * max(1.0, float(np.abs(slow).max()))
        np.testing.assert_allclose(fast, slow, rtol=0, atol=atol)
    return selected


def uses_gram(num_samples, num_terms, max_terms):
    return num_terms <= GRAM_TERMS_RATIO * min(max_terms, num_samples, num_terms)


def noisy_sparse_target(rng, design, offset=0.0):
    num_samples, num_terms = design.shape
    support = rng.choice(num_terms, size=min(10, num_terms), replace=False)
    target = design[:, support] @ rng.standard_normal(support.size)
    return target + 0.01 * rng.standard_normal(num_samples) + offset


def check_zero_and_duplicated_columns(rng, num_samples, num_terms, max_terms):
    design = rng.standard_normal((num_samples, num_terms))
    design[:, 7] = design[:, 3]
    design[:, 11] = 0.0
    target = design @ rng.standard_normal(num_terms)
    path = omp_path(design, target, max_terms)
    selected = assert_matches_reference(path, design, target, max_terms)
    assert path.selected == selected
    assert not {3, 7} <= set(path.selected)
    assert 11 not in path.selected


#: (K, M, max_terms) on both sides of the Gram/scan rule M <= 4 max_terms;
#: 3000 x 509 straddles it (4 * 127 = 508 < 509 <= 512 = 4 * 128).
OMP_SHAPES = [
    (40, 25, 25),
    (60, 200, 30),
    (300, 80, 60),
    (100, 540, 100),
    (300, 540, 150),
    (3000, 509, 127),
    (3000, 509, 128),
]


class TestBufferedOmpPath:
    def test_shapes_cover_both_sides_of_the_rule(self):
        sides = {uses_gram(*shape) for shape in OMP_SHAPES}
        assert sides == {True, False}
        assert not uses_gram(3000, 509, 127) and uses_gram(3000, 509, 128)

    @pytest.mark.parametrize("num_samples,num_terms,max_terms", OMP_SHAPES)
    def test_matches_gather_reference(self, rng, num_samples, num_terms, max_terms):
        design = rng.standard_normal((num_samples, num_terms))
        target = noisy_sparse_target(rng, design)
        path = omp_path(design, target, max_terms)
        assert len(path.selected) == min(max_terms, num_samples, num_terms)
        assert_matches_reference(path, design, target, max_terms)

    @pytest.mark.parametrize("num_samples,num_terms,max_terms", [(300, 80, 60), (60, 200, 30)])
    def test_large_offset_matches_reference(self, rng, num_samples, num_terms, max_terms):
        """A constant column and a 1e6 offset: ||r|| / ||f|| ~ 1e-8, where
        ``||f||^2 - b^T c`` has cancelled to noise on the Gram side."""
        design = rng.standard_normal((num_samples, num_terms))
        design[:, 0] = 1.0
        target = noisy_sparse_target(rng, design, offset=1e6)
        path = omp_path(design, target, max_terms)
        selected = assert_matches_reference(path, design, target, max_terms)
        assert len(path.selected) == len(selected)
        assert path.residual_norms[-1] < 1e-6 * np.linalg.norm(target)
        residual = target - design[:, path.selected] @ path.coefficients_per_step[-1]
        assert path.residual_norms[-1] == pytest.approx(np.linalg.norm(residual), rel=1e-6)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_exactly_sparse_target_stops_at_tolerance(self, rng, offset):
        """Gram side: the explicit residual below the guard band lets the
        ``residual_tol`` stop fire right after the support is recovered."""
        design = rng.standard_normal((300, 80))
        design[:, 0] = 1.0
        support = np.concatenate([[0], rng.choice(np.arange(1, 80), 7, replace=False)])
        weights = rng.standard_normal(support.size)
        weights[0] += offset
        target = design[:, support] @ weights
        assert uses_gram(300, 80, 60)
        path = omp_path(design, target, 60, residual_tol=1e-10)
        assert sorted(path.selected) == sorted(support)
        assert path.residual_norms[-1] <= 1e-10 * np.linalg.norm(target)
        assert_matches_reference(path, design, target, 60)

    def test_dependent_column_skipped_like_reference(self, rng):
        assert uses_gram(50, 20, 20)
        check_zero_and_duplicated_columns(rng, 50, 20, 20)

    def test_zero_and_duplicated_columns_on_scan_side(self, rng):
        assert not uses_gram(60, 200, 30)
        check_zero_and_duplicated_columns(rng, 60, 200, 30)
