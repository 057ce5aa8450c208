"""Golden end-to-end results of the modeling pipeline on the tiny RO config.

Pins seeded outputs of simulate -> early OMP -> BMF-PS (CV over prior x eta)
-> sequential refits, so that refactors of the solvers, the CV sweep or the
OMP path cannot move them unnoticed.  The configuration mirrors the tiny
``fit_ro`` benchmark workload: RO ``power``, 300 schematic samples, OMP with
at most 20 terms, BMF-PS at K = 20 / 40 / 90 (M = 68, so K = 90 exercises
the K > M regime) on a fixed 90 + 60 post-layout pool.

Tolerances: the chosen eta to 1e-9 relative, modeling errors to 1e-6
relative, selected terms, orders and prior names exactly.  Changing a golden
value needs a stated reason in CHANGES.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bmf import BmfRegressor, SequentialBmf
from repro.circuits import FusionProblem, Stage
from repro.montecarlo import simulate_dataset
from repro.regression import OrthogonalMatchingPursuit, relative_error

ETA_RTOL = 1e-9
ERROR_RTOL = 1e-6

GOLDEN_OMP_SELECTED = [
    0, 4, 3, 2, 1, 23, 42, 44, 43, 22, 24, 34, 52, 27, 15, 51, 39, 11, 6, 14,
]
GOLDEN_OMP_ORDER = 20

#: K -> (chosen prior, chosen eta, relative test error).
GOLDEN_FITS = {
    20: ("nonzero-mean", 1.0460244466754985e-08, 0.015249609294406868),
    40: ("nonzero-mean", 2.0920488933509998e-10, 0.01461660590339506),
    90: ("nonzero-mean", 4.707110010039743e-08, 0.014994808099895994),
}

#: (chosen prior, chosen eta, refit mode) after 20, +10 and +10 samples.
GOLDEN_CHAIN = [
    ("nonzero-mean", 1.0460244466754985e-08, "full"),
    ("nonzero-mean", 3.38038703180866e-11, "incremental"),
    ("nonzero-mean", 2.0920488933509998e-10, "incremental"),
]


@pytest.fixture(scope="module")
def pipeline(tiny_ro):
    problem = FusionProblem(tiny_ro, "power")
    rng = np.random.default_rng(0)
    early = simulate_dataset(tiny_ro, Stage.SCHEMATIC, 300, rng, ["power"])
    omp = OrthogonalMatchingPursuit(problem.early_basis, max_terms=20)
    omp.fit(early.x, early.metric("power"))
    pool = simulate_dataset(tiny_ro, Stage.POST_LAYOUT, 150, rng, ["power"])
    return dict(
        problem=problem,
        omp=omp,
        aligned=problem.align_early_coefficients(omp.coefficients_),
        pool=pool,
        target=pool.metric("power"),
    )


class TestGoldenEarlyOmp:
    def test_selected_terms(self, pipeline):
        assert list(pipeline["omp"].selected_terms_) == GOLDEN_OMP_SELECTED

    def test_cv_order(self, pipeline):
        errors = pipeline["omp"].cv_errors_
        assert errors is not None
        assert int(np.argmin(errors)) + 1 == GOLDEN_OMP_ORDER


class TestGoldenBmfPs:
    @pytest.mark.parametrize("num_samples", sorted(GOLDEN_FITS))
    def test_chosen_prior_eta_and_error(self, pipeline, num_samples):
        problem, target = pipeline["problem"], pipeline["target"]
        basis = problem.late_basis
        design = basis.design_matrix(pipeline["pool"].x[:num_samples])
        test_design = basis.design_matrix(pipeline["pool"].x[90:])
        model = BmfRegressor(
            basis,
            pipeline["aligned"],
            prior_kind="select",
            missing_indices=problem.missing_indices(),
        )
        model.fit_design(design, target[:num_samples])
        prior, eta, error = GOLDEN_FITS[num_samples]
        assert model.chosen_prior_.name == prior
        assert model.chosen_eta_ == pytest.approx(eta, rel=ETA_RTOL)
        measured = relative_error(test_design @ model.coefficients_, target[90:])
        assert measured == pytest.approx(error, rel=ERROR_RTOL)


class TestGoldenSequentialChain:
    def test_refit_chain(self, pipeline):
        problem, target = pipeline["problem"], pipeline["target"]
        x = pipeline["pool"].x
        fitter = SequentialBmf(
            problem.late_basis,
            pipeline["aligned"],
            prior_kind="select",
            missing_indices=problem.missing_indices(),
        )
        for (lo, hi), (prior, eta, mode) in zip(
            ((0, 20), (20, 30), (30, 40)), GOLDEN_CHAIN
        ):
            fitter.add_samples(x[lo:hi], target[lo:hi])
            assert fitter.model.chosen_prior_.name == prior
            assert fitter.model.chosen_eta_ == pytest.approx(eta, rel=ETA_RTOL)
            assert fitter.last_refit_mode == mode
