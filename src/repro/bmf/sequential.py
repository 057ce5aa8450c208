"""Sequential BMF: streaming late-stage samples with incremental refits.

The paper fixes the late-stage sample budget up front (Tables I-VI sweep
it); in practice a designer collects expensive post-layout simulations one
batch at a time and wants to stop as soon as the fused model is good
enough.  :class:`SequentialBmf` supports that workflow:

* feed samples incrementally with :meth:`add_samples`; every batch re-solves
  the MAP system on the data collected so far;
* the Section IV-C fast solver is used *incrementally*: the dual kernel
  ``B = G diag(s^2) G^T`` is grown by a rank-k border update per batch
  (``O(K * Delta-K * M)`` via :func:`repro.linalg.extend_gram_kernel`)
  instead of being rebuilt from scratch (``O(K^2 M)``), and for a fixed
  hyper-parameter the Cholesky factor of ``eta I + B`` is border-updated
  too (:class:`repro.linalg.CholeskyFactor`);
* when conditioning degrades (degenerate kernel/Schur pivots, detected by
  :func:`repro.linalg.is_effectively_zero`-style scale checks) the refit
  falls back to a full rebuild -- counted in ``woodbury.fallbacks``;
* the cross-validation error of every refit is recorded, giving a
  monitorable convergence curve, and :meth:`has_converged` implements a
  plateau test on that curve.

Construction parameters are captured in an immutable
:class:`SequentialBmfConfig` snapshot, so refits can never observe caller
mutation of arrays or lists passed to the constructor.

With ``deterministic=True`` every kernel entry is computed with a
blocking-independent reduction, making the fitted state *bitwise* identical
no matter how the same samples are batched (one at a time, in chunks, or
all at once) -- the property the differential test suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..faults import InjectedFault, failpoint
from ..linalg import CholeskyFactor, SolverError, is_effectively_zero
from ..runtime.metrics import metrics as runtime_metrics
from .cross_validation import select_prior_and_eta_from_solvers
from .map_estimation import KernelMapSolver, kernel_solvers
from .model import BmfRegressor

__all__ = [
    "RefitOutcome",
    "SequentialBmf",
    "SequentialBmfConfig",
    "SequentialFitterState",
]

#: Fires at the top of every refit (before any solver work); armed plans
#: here model a whole-refit failure, exercised via :meth:`try_add_samples`.
_FP_REFIT = failpoint("sequential.refit")


@dataclass(frozen=True)
class RefitOutcome:
    """Structured result of one :meth:`SequentialBmf.try_add_samples` call.

    Instead of raising a :class:`~repro.linalg.SolverError` (or an injected
    fault) through a serving loop, the sequential fitter reports what
    happened so the caller can decide to retry, skip the batch, or keep
    serving the last good model.  ``ok=False`` guarantees the fitter state
    (accumulated samples, cached solvers, histories, and the published
    model) is exactly what it was before the call.
    """

    ok: bool
    mode: Optional[str] = None
    cv_error: Optional[float] = None
    num_samples: int = 0
    error: Optional[str] = None
    error_type: Optional[str] = None

    @property
    def failed(self) -> bool:
        return not self.ok


@dataclass(frozen=True)
class SequentialFitterState:
    """Portable snapshot of a :class:`SequentialBmf`'s resumable state.

    Carries exactly what a warm restart needs: the accumulated samples
    (everything a from-scratch refit would consume) plus, when the
    fixed-eta incremental path had one cached, the lower Cholesky factor
    of ``eta I + B`` and the index of the prior it belongs to -- so
    :meth:`SequentialBmf.rearm` can keep border-updating the *same*
    factor instead of re-factoring a ``K x K`` system from scratch.
    Histories (CV-error / sample-count curves) are diagnostics, not
    state, and restart empty.
    """

    x: np.ndarray
    f: np.ndarray
    chol_lower: Optional[np.ndarray] = None
    chol_prior_index: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "x", _readonly(self.x))
        object.__setattr__(self, "f", _readonly(self.f))
        object.__setattr__(self, "chol_lower", _readonly(self.chol_lower))
        if self.x is None or self.f is None:
            raise ValueError("fitter state requires sample arrays")
        if self.x.ndim != 2 or self.f.shape != (self.x.shape[0],):
            raise ValueError(
                f"inconsistent sample shapes x={self.x.shape} f={self.f.shape}"
            )
        if (self.chol_lower is None) != (self.chol_prior_index is None):
            raise ValueError(
                "chol_lower and chol_prior_index must be given together"
            )


def _readonly(array: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if array is None:
        return None
    out = np.array(array, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def _freeze_kwarg(name: str, value: Any) -> Any:
    """Snapshot a constructor kwarg so later caller mutation is invisible."""
    if name == "eta_grid" and value is not None:
        return tuple(float(v) for v in value)
    if name == "priors" and value is not None:
        return tuple(value)  # GaussianCoefficientPrior is a frozen dataclass
    return value


@dataclass(frozen=True)
class SequentialBmfConfig:
    """Immutable snapshot of everything a sequential refit needs.

    :class:`SequentialBmf` used to capture its constructor arguments in a
    lambda closure; mutating the original ``alpha_early`` array or
    ``missing_indices`` list *after* construction silently changed every
    later refit.  This config copies (and freezes) all mutable inputs once,
    at construction, and is the only state refits read.
    """

    basis: Any
    alpha_early: Optional[np.ndarray] = None
    prior_kind: str = "select"
    missing_indices: Optional[Tuple[int, ...]] = None
    n_folds: int = 5
    regressor_kwargs: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "alpha_early", _readonly(self.alpha_early))
        if self.missing_indices is not None:
            object.__setattr__(
                self,
                "missing_indices",
                tuple(int(i) for i in self.missing_indices),
            )
        frozen = {
            name: _freeze_kwarg(name, value)
            for name, value in dict(self.regressor_kwargs).items()
        }
        object.__setattr__(self, "regressor_kwargs", MappingProxyType(frozen))

    def make_regressor(self) -> BmfRegressor:
        """A fresh :class:`BmfRegressor` configured from the snapshot."""
        kwargs = dict(self.regressor_kwargs)
        if "eta_grid" in kwargs and kwargs["eta_grid"] is not None:
            kwargs["eta_grid"] = list(kwargs["eta_grid"])
        return BmfRegressor(
            self.basis,
            self.alpha_early,
            prior_kind=self.prior_kind,
            missing_indices=self.missing_indices,
            n_folds=self.n_folds,
            **kwargs,
        )


class SequentialBmf:
    """Incrementally fused late-stage model with a convergence monitor.

    Parameters are forwarded to :class:`~repro.bmf.BmfRegressor` (snapshotted
    in an immutable :class:`SequentialBmfConfig` first); every refit runs the
    full prior/hyper-parameter selection on the data collected so far.

    Parameters
    ----------
    incremental:
        Reuse the cached dual kernel across batches (rank-k border updates,
        Section IV-C applied in streaming form).  Falls back to a full
        rebuild when conditioning degrades.  Only the default ``"fast"``
        solver with ``"cv"`` selection (or a fixed ``eta``) runs
        incrementally; other configurations silently use from-scratch
        refits, exactly as before.
    deterministic:
        Compute kernel entries with a blocking-independent reduction so the
        fitted state is bitwise reproducible regardless of how samples are
        batched.  Slower (no BLAS in the kernel build); intended for
        reproducibility-critical flows and the differential test suite.

    Attributes
    ----------
    cv_error_history:
        Cross-validation error after each :meth:`add_samples` call.
    sample_count_history:
        Total sample count after each call.
    last_refit_mode:
        ``"incremental"``, ``"full"``, or ``"fallback"`` -- how the most
        recent :meth:`add_samples` call refitted.
    """

    def __init__(
        self,
        basis,
        alpha_early: Optional[np.ndarray] = None,
        prior_kind: str = "select",
        missing_indices: Optional[Iterable[int]] = None,
        n_folds: int = 5,
        incremental: bool = True,
        deterministic: bool = False,
        **regressor_kwargs,
    ):
        self.config = SequentialBmfConfig(
            basis=basis,
            alpha_early=alpha_early,
            prior_kind=prior_kind,
            missing_indices=(
                None if missing_indices is None else tuple(missing_indices)
            ),
            n_folds=n_folds,
            regressor_kwargs=regressor_kwargs,
        )
        # Validate the configuration eagerly (bad prior shapes, conflicting
        # eta/prior_kind, ...) instead of on the first add_samples call, and
        # keep the validated candidate priors for the incremental path.
        template = self.config.make_regressor()
        self._candidate_priors = list(template._candidate_priors)
        self.incremental = bool(incremental)
        self.deterministic = bool(deterministic)

        self._x: Optional[np.ndarray] = None
        self._f: Optional[np.ndarray] = None
        self._design: Optional[np.ndarray] = None
        self._solvers: Optional[List[KernelMapSolver]] = None
        self._chol: Optional[CholeskyFactor] = None
        self._chol_prior_index: Optional[int] = None
        self._model: Optional[BmfRegressor] = None
        self.cv_error_history: List[float] = []
        self.sample_count_history: List[int] = []
        self.last_refit_mode: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Late-stage samples accumulated so far."""
        return 0 if self._x is None else self._x.shape[0]

    @property
    def model(self) -> BmfRegressor:
        """The most recent fitted regressor."""
        if self._model is None:
            raise RuntimeError("no samples added yet; call add_samples() first")
        return self._model

    def _incremental_capable(self) -> bool:
        kwargs = self.config.regressor_kwargs
        if kwargs.get("selection", "cv") != "cv":
            return False
        if kwargs.get("solver", "fast") != "fast":
            return False
        return self.incremental

    # ------------------------------------------------------------------
    def add_samples(self, x: np.ndarray, f: np.ndarray) -> "SequentialBmf":
        """Append a batch of late-stage samples and refit.

        Parameters
        ----------
        x:
            New variation samples, shape ``(B, R)``.
        f:
            Their simulated performance values, shape ``(B,)``.
        """
        x = np.asarray(x, dtype=float)
        f = np.asarray(f, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        if f.shape != (x.shape[0],):
            raise ValueError(
                f"f must have shape ({x.shape[0]},), got {f.shape}"
            )
        if self._x is None:
            self._x, self._f = x.copy(), f.copy()
        else:
            if x.shape[1] != self._x.shape[1]:
                raise ValueError(
                    f"batch has {x.shape[1]} variables, expected "
                    f"{self._x.shape[1]}"
                )
            self._x = np.vstack([self._x, x])
            self._f = np.concatenate([self._f, f])

        _FP_REFIT.hit()
        with runtime_metrics.timer("sequential.refit"):
            if self._incremental_capable():
                cv_error = self._refit_incremental(x, f)
            else:
                cv_error = self._refit_full()
        self.cv_error_history.append(cv_error)
        self.sample_count_history.append(self.num_samples)
        return self

    def try_add_samples(self, x: np.ndarray, f: np.ndarray) -> RefitOutcome:
        """Append a batch and refit, reporting failure instead of raising.

        The serving-loop counterpart of :meth:`add_samples`: solver-level
        failures (:class:`~repro.linalg.SolverError`,
        ``numpy.linalg.LinAlgError``, injected faults) are caught, the
        fitter is rolled back to its pre-call state, and a structured
        :class:`RefitOutcome` with ``ok=False`` is returned so the caller
        keeps serving the last good model.  Caller errors (bad shapes /
        dtypes) still raise -- they indicate a bug at the call site, not a
        transient numerical failure.
        """
        snapshot = (
            self._x,
            self._f,
            self._design,
            self._solvers,
            self._model,
            self.last_refit_mode,
        )
        history_len = len(self.cv_error_history)
        try:
            self.add_samples(x, f)
        except (SolverError, np.linalg.LinAlgError, InjectedFault) as exc:
            (
                self._x,
                self._f,
                self._design,
                self._solvers,
                self._model,
                self.last_refit_mode,
            ) = snapshot
            # The cached dual Cholesky may have been border-updated in place
            # before the failure; drop it so the next refit re-factors.
            self._chol = None
            self._chol_prior_index = None
            del self.cv_error_history[history_len:]
            del self.sample_count_history[history_len:]
            runtime_metrics.increment("sequential.failed_refits")
            return RefitOutcome(
                ok=False,
                num_samples=self.num_samples,
                error=str(exc),
                error_type=type(exc).__name__,
            )
        return RefitOutcome(
            ok=True,
            mode=self.last_refit_mode,
            cv_error=self.cv_error_history[-1],
            num_samples=self.num_samples,
        )

    # ------------------------------------------------------------------
    # From-scratch refit (non-incremental configurations)
    # ------------------------------------------------------------------
    def _refit_full(self) -> float:
        self._model = self.config.make_regressor()
        self._model.fit(self._x, self._f)
        self.last_refit_mode = "full"
        if self._model.cv_report_ is not None:
            return float(self._model.cv_report_.error)
        # Fixed-eta / evidence fits have no CV error; track training error.
        residual = self._f - self._model.predict(self._x)
        norm = max(float(np.linalg.norm(self._f)), 1e-300)
        return float(np.linalg.norm(residual)) / norm

    # ------------------------------------------------------------------
    # Incremental refit (streaming Woodbury path)
    # ------------------------------------------------------------------
    def _refit_incremental(self, x_new: np.ndarray, f_new: np.ndarray) -> float:
        design_new = self.config.basis.design_matrix(x_new)
        mode = "incremental"
        if self._design is None:
            self._design = np.array(design_new, copy=True)
            self._build_solvers()
            mode = "full"
        else:
            full_design = np.concatenate([self._design, design_new], axis=0)
            try:
                grown = [
                    solver.extended(
                        design_new,
                        f_new,
                        full_design=full_design,
                        full_target=self._f,
                    )
                    for solver in self._solvers
                ]
                self._check_extension_conditioning(grown)
            except SolverError:
                runtime_metrics.increment("woodbury.fallbacks")
                self._design = full_design
                self._build_solvers()
                mode = "fallback"
            else:
                self._design = full_design
                self._solvers = grown
                runtime_metrics.increment("woodbury.incremental_refits")
        self.last_refit_mode = mode
        return self._solve_from_solvers()

    def _build_solvers(self) -> None:
        """(Re)build the kernel solvers from scratch, one kernel per scale."""
        self._solvers = kernel_solvers(
            self._design,
            self._f,
            self._candidate_priors,
            self.config.regressor_kwargs.get("missing_scale"),
            deterministic=self.deterministic,
        )
        self._chol = None
        self._chol_prior_index = None

    def _check_extension_conditioning(
        self, grown: List[KernelMapSolver]
    ) -> None:
        """Scale-relative sanity check on the freshly appended kernel border.

        A new kernel diagonal entry that is round-off-level relative to the
        kernel's own scale means the new row carries no energy under the
        prior -- border updates on top of it would amplify noise, so signal
        the caller to rebuild from scratch instead.
        """
        num_new = grown[0].kernel.shape[0] - self._solvers[0].kernel.shape[0]
        for solver in grown:
            diag = np.diagonal(solver.kernel)
            scale = float(np.max(diag, initial=0.0))
            for entry in diag[-num_new:]:
                if entry < 0 or is_effectively_zero(entry, scale=scale):
                    raise SolverError(
                        "degenerate kernel diagonal in incremental extension"
                    )

    def _solve_from_solvers(self) -> float:
        """Hyper-parameter selection + MAP solve on the cached solvers."""
        kwargs = self.config.regressor_kwargs
        eta = kwargs.get("eta")
        cv_report = None
        if eta is not None:
            prior_index = 0
            chosen_eta = float(eta)
        else:
            eta_grid = kwargs.get("eta_grid")
            grids = None
            if eta_grid is not None:
                grids = {p.name: list(eta_grid) for p in self._candidate_priors}
            n_folds = min(
                self.config.n_folds, max(2, self._design.shape[0] // 2)
            )
            cv_report = select_prior_and_eta_from_solvers(
                self._solvers, grids, n_folds
            )
            prior_index = next(
                i
                for i, s in enumerate(self._solvers)
                if s.prior is cv_report.prior
            )
            chosen_eta = float(cv_report.eta)

        solver = self._solvers[prior_index]
        coefficients = self._map_solve(solver, prior_index, chosen_eta)

        model = self.config.make_regressor()
        model.chosen_prior_ = solver.prior
        model.chosen_eta_ = chosen_eta
        model.cv_report_ = cv_report
        model.evidence_report_ = None
        model.coefficients_ = coefficients
        model._train_design = self._design
        self._model = model

        if cv_report is not None:
            return float(cv_report.error)
        predictions = self._design @ coefficients
        residual = self._f - predictions
        norm = max(float(np.linalg.norm(self._f)), 1e-300)
        return float(np.linalg.norm(residual)) / norm

    def _map_solve(
        self, solver: KernelMapSolver, prior_index: int, eta: float
    ) -> np.ndarray:
        """MAP coefficients, border-updating the dual Cholesky when possible.

        The cached factor of ``eta I + B`` stays valid across batches only
        for a fixed eta and a stable chosen prior; cross-validated refits
        (eta changes per batch) and deterministic mode (border updates are
        not blocking-independent) always re-factor.
        """
        fixed_eta = self.config.regressor_kwargs.get("eta") is not None
        if not fixed_eta or self.deterministic:
            return solver.solve(eta)

        kernel = solver.kernel
        size = kernel.shape[0]
        factor = self._chol
        reusable = (
            factor is not None
            and self._chol_prior_index == prior_index
            and factor.size < size
        )
        try:
            if reusable:
                old = factor.size
                cross = kernel[:old, old:]
                corner = kernel[old:, old:].copy()
                corner[np.diag_indices_from(corner)] += eta
                factor.append(cross, corner)
            else:
                system = kernel.copy()
                system[np.diag_indices_from(system)] += eta
                factor = CholeskyFactor(system)
        except SolverError:
            runtime_metrics.increment("woodbury.fallbacks")
            self._chol = None
            self._chol_prior_index = None
            return solver.solve(eta)  # robust solve_spd path
        self._chol = factor
        self._chol_prior_index = prior_index
        weights = factor.solve(solver.centered_target)
        return solver.prior.mean + solver._scale_sq * (solver.design.T @ weights)

    # ------------------------------------------------------------------
    # Warm restart (crash recovery; see docs/store.md)
    # ------------------------------------------------------------------
    def export_state(self) -> SequentialFitterState:
        """Snapshot the resumable fitter state for persistence.

        The snapshot (samples plus, when cached, the dual Cholesky factor)
        is everything :meth:`rearm` needs to continue a streaming fit in a
        fresh process.  Raises :class:`RuntimeError` before the first
        batch -- there is nothing to resume yet.
        """
        if self._x is None:
            raise RuntimeError("no samples added yet; nothing to export")
        factor = self._chol
        return SequentialFitterState(
            x=self._x,
            f=self._f,
            chol_lower=None if factor is None else np.array(factor.lower),
            chol_prior_index=None if factor is None else self._chol_prior_index,
        )

    def rearm(self, state: SequentialFitterState) -> "SequentialBmf":
        """Restore a fresh fitter from a persisted snapshot.

        Reinstalls the samples, rebuilds the design matrix and kernel
        solvers from the (immutable) config, and -- on the fixed-eta
        incremental path -- adopts the persisted Cholesky factor via
        :meth:`repro.linalg.CholeskyFactor.from_lower`, so the next
        :meth:`add_samples` call border-updates exactly where the dead
        process stopped instead of re-factoring ``eta I + B`` from
        scratch.  The restored model's coefficients are recomputed from
        that factor (two triangular solves), not refitted.

        Only a fresh fitter (no samples yet) can be re-armed, and the
        snapshot must match the configured basis; violations raise
        :class:`RuntimeError` / :class:`ValueError` respectively.  In
        ``deterministic`` mode the factor is ignored (that path never
        caches one) and the refit is recomputed blocking-independently,
        which keeps resumed streams bitwise identical to uninterrupted
        ones.
        """
        if self._x is not None:
            raise RuntimeError(
                "rearm() requires a fresh fitter; this one already has "
                f"{self.num_samples} samples"
            )
        num_vars = self.config.basis.num_vars
        if state.x.shape[1] != num_vars:
            raise ValueError(
                f"snapshot has {state.x.shape[1]} variables, basis expects "
                f"{num_vars}"
            )
        self._x = np.array(state.x, dtype=float)
        self._f = np.array(state.f, dtype=float)
        with runtime_metrics.timer("sequential.rearm"):
            self._design = self.config.basis.design_matrix(self._x)
            self._build_solvers()
            cv_error = self._rearm_solve(state)
        self.last_refit_mode = "rearmed"
        self.cv_error_history.append(cv_error)
        self.sample_count_history.append(self.num_samples)
        runtime_metrics.increment("sequential.rearms")
        return self

    def _rearm_solve(self, state: SequentialFitterState) -> float:
        """Recompute the served model, adopting the persisted factor."""
        eta = self.config.regressor_kwargs.get("eta")
        use_factor = (
            state.chol_lower is not None
            and eta is not None
            and not self.deterministic
            and self._incremental_capable()
        )
        if not use_factor:
            return self._solve_from_solvers()

        prior_index = int(state.chol_prior_index)
        if not 0 <= prior_index < len(self._solvers):
            raise ValueError(
                f"snapshot prior index {prior_index} out of range for "
                f"{len(self._solvers)} candidate priors"
            )
        solver = self._solvers[prior_index]
        factor = CholeskyFactor.from_lower(state.chol_lower)
        if factor.size != solver.kernel.shape[0]:
            raise ValueError(
                f"snapshot factor is {factor.size}x{factor.size} but the "
                f"kernel over the snapshot samples is "
                f"{solver.kernel.shape[0]}x{solver.kernel.shape[0]}"
            )
        self._chol = factor
        self._chol_prior_index = prior_index
        weights = factor.solve(solver.centered_target)
        coefficients = solver.prior.mean + solver._scale_sq * (
            solver.design.T @ weights
        )

        model = self.config.make_regressor()
        model.chosen_prior_ = solver.prior
        model.chosen_eta_ = float(eta)
        model.cv_report_ = None
        model.evidence_report_ = None
        model.coefficients_ = coefficients
        model._train_design = self._design
        self._model = model

        residual = self._f - self._design @ coefficients
        norm = max(float(np.linalg.norm(self._f)), 1e-300)
        return float(np.linalg.norm(residual)) / norm

    # ------------------------------------------------------------------
    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict with the latest fused model."""
        return self.model.predict(x)

    # ------------------------------------------------------------------
    def has_converged(
        self, relative_improvement: float = 0.05, window: int = 2
    ) -> bool:
        """Plateau test on the cross-validation error curve.

        True when over the last ``window`` refits the CV error improved by
        less than ``relative_improvement`` (fractionally) per step -- i.e.
        additional expensive simulations have stopped paying for
        themselves.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        history = self.cv_error_history
        if len(history) < window + 1:
            return False
        for before, after in zip(history[-window - 1 : -1], history[-window:]):
            if before <= 0:
                continue
            if (before - after) / before > relative_improvement:
                return False
        return True
