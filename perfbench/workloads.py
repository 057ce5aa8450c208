"""The three benchmark workloads, written against the public ``repro`` API.

Each workload has a set-up (timed, repeated by the runner for
``setup_s``), a measured part, and a correctness gate:

* ``fit_ro`` -- the paper's Table IV / Fig. 5 modeling job for the ring
  oscillator's ``power`` metric (early OMP prior, BMF-PS fits at three
  sample counts), then publishes the three fits and serves fresh rows
  against them.
* ``serve_wide`` -- four quadratic R = 100 (M = 5151) BMF-PS models are
  fitted and published, then served fresh rows open loop.
* ``serve_refit`` -- three RO BMF-PS models served open loop; after
  every serving block they are refitted (+10 samples, incremental CV)
  and republished.

Sizes come from :data:`SIZES`: ``full`` is the benchmark, ``tiny`` the
seconds-long self-test configuration.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.backends.oracle import oracle_predict
from repro.basis import OrthonormalBasis
from repro.bmf import BmfRegressor, SequentialBmf
from repro.circuits import FusionProblem, RingOscillator, Stage
from repro.experiments import make_ring_oscillator
import repro.montecarlo as montecarlo
from repro.process import ProcessKit
from repro.regression import OrthogonalMatchingPursuit, relative_error
from repro.serving import ShardRouter

from openloop import (
    FixedRateResult,
    PhaseStats,
    RowStream,
    Schedule,
    merge_stats,
    percentile,
    run_fixed_rate,
    run_saturation,
)

#: Relative tolerance between a served prediction and the oracle.
ORACLE_RTOL = 1e-12
#: Served requests re-checked against the oracle per run.
ORACLE_CHECKS = 24
#: Lowest fixed-rate answer count that gives p99 ten samples beyond it.
P99_MIN_ANSWERS = 1000

SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "fit_ro": dict(
            early_samples=3000, omp_max_terms=300, train=900, test=300,
            sample_counts=(100, 300, 900), rate=400.0, window=768,
            serve_share=0.5, fixed_share=0.5, min_answers=P99_MIN_ANSWERS,
        ),
        "serve_wide": dict(
            num_vars=100, degree=2, models=4, train=100, test=300,
            rate=30.0, window=256, fixed_share=0.8, min_answers=P99_MIN_ANSWERS,
        ),
        "serve_refit": dict(
            early_samples=3000, first=100, step=10, refits_per_block=4, test=300,
            rate=200.0, window=768, fixed_share=0.5, min_answers=P99_MIN_ANSWERS,
        ),
    },
    "tiny": {
        "fit_ro": dict(
            early_samples=300, omp_max_terms=20, train=90, test=60,
            sample_counts=(20, 40, 90), rate=200.0, window=8,
            serve_share=0.5, fixed_share=0.5, min_answers=0,
        ),
        "serve_wide": dict(
            num_vars=10, degree=2, models=4, train=30, test=60,
            rate=100.0, window=8, fixed_share=0.8, min_answers=0,
        ),
        "serve_refit": dict(
            early_samples=300, first=20, step=5, refits_per_block=2, test=60,
            rate=100.0, window=8, fixed_share=0.5, min_answers=0,
        ),
    },
}

#: Seed of every modeling dataset.  Modeling inputs are the same in every
#: run, so fitted models, chosen (prior, eta) and ``model_err_pct`` are
#: exact and gated; the run's seed drives the load (schedules and rows).
MODEL_SEED = 0
#: Seed of every arrival schedule and saturation model pick.  All runs
#: share it (common random numbers), so p99 does not swing with the luck of
#: one Poisson draw; the run's seed draws the query rows.
SCHEDULE_SEED = 1
#: Fixed-rate + saturation block pairs per pass.
BLOCKS = 6
#: serve_wide fits its four models this many times per round and reports
#: the mean: one set takes ~0.2 s, too short to time steadily on its own.
FIT_REPEATS = 3
#: Warm-up requests sent (and awaited) at the end of every set-up.
WARMUP_REQUESTS = 8


def tiny_ring_oscillator() -> RingOscillator:
    return RingOscillator(
        n_ring=5, n_buffer=2, kit=ProcessKit(params_per_device=4, interdie_params=4)
    )


@dataclass
class Measured:
    """What one measured pass produced."""

    metrics: Dict[str, float]
    phases: List[PhaseStats]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    signature: Dict[str, object]
    notes: Dict[str, object] = field(default_factory=dict)


class _Published:
    """Every version published per model name, with its publish interval."""

    def __init__(self) -> None:
        self.by_name: Dict[str, list] = {}

    def publish(self, router: ShardRouter, name: str, model, started: float) -> float:
        """Publish and wait until every replica serves it; returns seconds
        from ``started`` until then."""
        record = router.publish(name, model)
        for shard_id in router.replicas(name):
            registry = router.shard(shard_id).registry
            if registry.current(name).version != record.version:
                raise RuntimeError(
                    f"{name} v{record.version} is not current on shard {shard_id}"
                )
        done = time.perf_counter()
        self.by_name.setdefault(name, []).append(
            (started, done, record.model.basis, np.array(record.model.coefficients))
        )
        return done - started

    def candidates(self, name: str, sent: float, done: float):
        """Versions that may have been current between ``sent`` and ``done``."""
        versions = self.by_name[name]
        out = []
        for j, (start, _, basis, coef) in enumerate(versions):
            until = versions[j + 1][1] if j + 1 < len(versions) else np.inf
            if start <= done and until >= sent:
                out.append((basis, coef))
        return out


def _oracle_gate(served: "Served", published: _Published, seed: int) -> bool:
    """Seeded subset of answered requests must match the oracle to 1e-12."""
    fixed = served.fixed
    answered = np.flatnonzero(~np.isnan(fixed.values))
    if answered.size == 0:
        return False
    pick = np.random.default_rng(seed).choice(
        answered, size=min(ORACLE_CHECKS, answered.size), replace=False
    )
    for i in np.sort(pick):
        candidates = published.candidates(
            served.schedule.names[i], fixed.sent_at[i], fixed.done_at[i]
        )
        best = np.inf
        for basis, coef in candidates:
            expect = float(oracle_predict(basis, coef, served.rows[i : i + 1])[0])
            best = min(best, abs(fixed.values[i] - expect) / max(abs(expect), 1e-300))
        if not best <= ORACLE_RTOL:
            return False
    return True


def _warm_up(router: ShardRouter, names, rows: RowStream) -> None:
    """Warm-up: a few awaited requests so first-call costs stay in set-up."""
    for i in range(WARMUP_REQUESTS):
        router.predict(names[i % len(names)], rows.take(1)[0], timeout=30.0)


@dataclass
class Served:
    """Both serving phases of a pass, pooled over their blocks."""

    schedule: Schedule
    rows: np.ndarray
    fixed: FixedRateResult
    saturation: PhaseStats
    metrics: Dict[str, float]

    @property
    def phases(self) -> List[PhaseStats]:
        return [self.fixed.stats, self.saturation]


def _serve(
    router, names, rows: RowStream, cfg: dict, budget_s: float, tail: bool,
    after_block: Optional[Callable[[], None]] = None,
) -> Served:
    """Alternate fixed-rate and saturation blocks; metrics are block medians.

    A stall of the machine spoils the block it lands in, not the run.  p99
    is taken per block when every block has ``P99_MIN_ANSWERS`` requests,
    else over all fixed-rate requests.  ``after_block`` runs once the
    block's requests have all completed (nothing is in flight).

    The arrival schedule comes from :data:`SCHEDULE_SEED` (the run's seed
    draws the rows).  With ``tail`` the fixed-rate blocks send at least
    ``min_answers`` requests in all, so p99 has ten samples beyond it.
    """
    floor = cfg["min_answers"] if tail else 0
    count = max(floor, int(round(cfg["rate"] * cfg["fixed_share"] * budget_s)))
    schedule = Schedule.poisson(SCHEDULE_SEED, cfg["rate"], count, names)
    fixed_rows = rows.take(count)
    saturation_s = (1 - cfg["fixed_share"]) * budget_s / BLOCKS
    fixed_parts, saturation_parts = [], []
    for block in range(BLOCKS):
        lo, hi = block * count // BLOCKS, (block + 1) * count // BLOCKS
        fixed_parts.append(
            run_fixed_rate(router.submit, schedule.part(lo, hi), fixed_rows[lo:hi])
        )
        saturation_parts.append(
            run_saturation(
                router.submit, names, rows, cfg["window"], saturation_s, SCHEDULE_SEED + block
            )
        )
        if after_block is not None:
            after_block()
    fixed = FixedRateResult.concat(fixed_parts)
    saturation = merge_stats("saturation", saturation_parts)
    sent = fixed.stats.sent + saturation.sent
    answered = fixed.stats.answered + saturation.answered
    if count // BLOCKS >= P99_MIN_ANSWERS:
        p99 = np.median([percentile(part.stats.latencies_s, 99) for part in fixed_parts])
    else:
        p99 = percentile(fixed.stats.latencies_s, 99)
    metrics = {
        "lat_p50_ms": 1e3 * float(np.median(
            [percentile(part.stats.latencies_s, 50) for part in fixed_parts]
        )),
        "lat_p99_ms": 1e3 * float(p99),
        "capacity_rps": float(np.median(
            [part.completed_in_window / part.elapsed_s for part in saturation_parts]
        )),
        "answered_frac": answered / sent if sent else 0.0,
    }
    return Served(schedule, fixed_rows, fixed, saturation, metrics)


def _queue_peak(router: ShardRouter) -> int:
    return max(
        int(shard["peak_queue_depth"]) for shard in router.stats()["shards"].values()
    )


class Workload:
    """Base: owns the work directory of its set-ups."""

    name = ""

    def __init__(self, size: str, seed: int, workdir: Path):
        self.cfg = SIZES[size][self.name]
        self.size = size
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self._setups = 0

    def _store_root(self) -> Path:
        self._setups += 1
        root = self.workdir / f"{self.name}-store-{self._setups}"
        shutil.rmtree(root, ignore_errors=True)
        return root

    def setup(self):
        raise NotImplementedError

    def measure(self, state, seconds: float, tail: bool = True) -> Measured:
        """One measured pass of about ``seconds`` of serving."""
        raise NotImplementedError

    def _result(
        self, router, served: Served, published: _Published, metrics: dict, work: int,
        checks=None, signature=None, notes=None,
    ) -> Measured:
        """Package a pass: ``work`` counts the non-request operations."""
        phases = served.phases
        return Measured(
            metrics=dict(metrics, **served.metrics),
            phases=phases,
            attempted=work + sum(p.sent for p in phases),
            failed=sum(p.missed for p in phases),
            checks=dict(oracle=_oracle_gate(served, published, self.seed), **(checks or {})),
            signature=dict(
                gen_sent=served.fixed.stats.sent,
                schedule=served.schedule.digest(),
                **(signature or {}),
            ),
            notes=dict(queue_peak=_queue_peak(router), fixed=served.fixed, **(notes or {})),
        )

    def teardown(self, state) -> None:
        state["router"].stop()
        shutil.rmtree(state["store_root"], ignore_errors=True)


class FitRo(Workload):
    """Table IV / Fig. 5 modeling run for RO ``power``; one closed-loop caller."""

    name = "fit_ro"
    metric = "power"

    def setup(self):
        tb = make_ring_oscillator() if self.size == "full" else tiny_ring_oscillator()
        problem = FusionProblem(tb, self.metric)
        store_root = self._store_root()
        router = ShardRouter(store_root).start()
        rows = RowStream(self.seed + 7, tb.num_vars(Stage.POST_LAYOUT))
        return dict(tb=tb, problem=problem, router=router, store_root=store_root, rows=rows)

    def modeling_job(self, tb, problem) -> dict:
        """Simulate, fit the early OMP prior, fit BMF-PS at every K."""
        cfg = self.cfg
        rng = np.random.default_rng(MODEL_SEED)
        early = montecarlo.simulate_dataset(tb, Stage.SCHEMATIC, cfg["early_samples"], rng, [self.metric])
        omp = OrthogonalMatchingPursuit(problem.early_basis, max_terms=cfg["omp_max_terms"])
        omp.fit(early.x, early.metric(self.metric))
        aligned = problem.align_early_coefficients(omp.coefficients_)
        missing = problem.missing_indices()
        pool = montecarlo.simulate_dataset(
            tb, Stage.POST_LAYOUT, cfg["train"] + cfg["test"], rng, [self.metric]
        )
        basis = problem.late_basis
        train_x, test_x = pool.x[: cfg["train"]], pool.x[cfg["train"] :]
        target = pool.metric(self.metric)
        train_f, test_f = target[: cfg["train"]], target[cfg["train"] :]
        design = basis.design_matrix(train_x)
        test_design = basis.design_matrix(test_x)
        fits = {}
        for k in cfg["sample_counts"]:
            model = BmfRegressor(basis, aligned, prior_kind="select", missing_indices=missing)
            model.fit_design(design[:k], train_f[:k])
            fits[k] = dict(
                model=model,
                prior=model.chosen_prior_.name,
                eta=float(model.chosen_eta_),
                err_pct=100.0 * relative_error(test_design @ model.coefficients_, test_f),
            )
        return dict(fits=fits, omp_terms=len(omp.selected_terms_))

    def measure(self, state, seconds: float, tail: bool = True) -> Measured:
        start = time.perf_counter()
        job = self.modeling_job(state["tb"], state["problem"])
        model_s = time.perf_counter() - start
        fits = job["fits"]
        router = state["router"]
        published = _Published()
        names = [f"{self.metric}@K{k}" for k in fits]
        publish_s: List[float] = []

        def publish_round() -> None:
            for name, fit in zip(names, fits.values()):
                publish_s.append(
                    published.publish(router, name, fit["model"], time.perf_counter())
                )

        publish_round()
        _warm_up(router, names, state["rows"])
        served = _serve(
            router, names, state["rows"], self.cfg, self.cfg["serve_share"] * seconds, tail,
            after_block=publish_round,
        )
        summary = {
            str(k): {"prior": f["prior"], "eta": f["eta"], "err_pct": f["err_pct"]}
            for k, f in fits.items()
        }
        return self._result(
            router, served, published,
            metrics=dict(
                model_s=model_s,
                model_err_pct=fits[min(fits)]["err_pct"],
                publish_p50_ms=float(np.median(publish_s)) * 1e3,
            ),
            work=len(fits) + len(publish_s),
            signature=dict(
                fits={k: [f["prior"], f["eta"]] for k, f in summary.items()},
                omp_terms=job["omp_terms"],
            ),
            notes=dict(fits=summary),
        )


class ServeWide(Workload):
    """Fresh single rows against four quadratic R = 100 (M = 5151) models."""

    name = "serve_wide"

    def setup(self):
        cfg = self.cfg
        basis = OrthonormalBasis.total_degree(cfg["num_vars"], cfg["degree"])
        rng = np.random.default_rng(MODEL_SEED)
        degrees = basis.total_degrees()
        # Linear terms carry most of the variance, quadratic terms a tenth.
        spread = np.array([0.0, 0.1, 0.01])[degrees] / np.sqrt(np.bincount(degrees)[degrees])
        models = []
        for _ in range(cfg["models"]):
            truth = rng.standard_normal(basis.size) * spread
            truth[degrees == 0] = 1.0
            early = truth * (1.0 + 0.2 * rng.standard_normal(basis.size))
            train_x = rng.standard_normal((cfg["train"], basis.num_vars))
            test_x = rng.standard_normal((cfg["test"], basis.num_vars))
            noise = 1e-3
            models.append(dict(
                truth=truth, early=early, train_x=train_x, test_x=test_x,
                train_f=basis.evaluate(truth, train_x) + noise * rng.standard_normal(cfg["train"]),
                test_f=basis.evaluate(truth, test_x) + noise * rng.standard_normal(cfg["test"]),
            ))
        store_root = self._store_root()
        router = ShardRouter(store_root).start()
        rows = RowStream(self.seed + 7, basis.num_vars)
        return dict(basis=basis, models=models, router=router, store_root=store_root, rows=rows)

    def measure(self, state, seconds: float, tail: bool = True) -> Measured:
        basis, router = state["basis"], state["router"]
        published = _Published()
        names = [f"wide-{i}" for i in range(len(state["models"]))]
        round_s: List[float] = []
        publish_s: List[float] = []
        fitted: List[BmfRegressor] = []

        def fit_and_publish_round() -> None:
            start = time.perf_counter()
            for _ in range(FIT_REPEATS):
                fitted[:] = []
                for data in state["models"]:
                    model = BmfRegressor(basis, data["early"], prior_kind="select")
                    model.fit(data["train_x"], data["train_f"])
                    fitted.append(model)
            round_s.append((time.perf_counter() - start) / FIT_REPEATS)
            for name, model in zip(names, fitted):
                publish_s.append(published.publish(router, name, model, time.perf_counter()))

        fit_and_publish_round()
        errors = [
            relative_error(model.predict(d["test_x"]), d["test_f"])
            for model, d in zip(fitted, state["models"])
        ]
        _warm_up(router, names, state["rows"])
        served = _serve(
            router, names, state["rows"], self.cfg, seconds, tail,
            after_block=fit_and_publish_round,
        )
        return self._result(
            router, served, published,
            metrics=dict(
                model_s=float(np.median(round_s)),
                model_err_pct=100.0 * float(np.mean(errors)),
                publish_p50_ms=float(np.median(publish_s)) * 1e3,
            ),
            work=len(round_s) * len(fitted) + len(publish_s),
            signature=dict(fits=[[m.chosen_prior_.name, float(m.chosen_eta_)] for m in fitted]),
            notes=dict(fit_rounds_s=round_s),
        )


class ServeRefit(Workload):
    """Fresh rows against three RO BMF-PS models, refitted between blocks."""

    name = "serve_refit"

    def setup(self):
        cfg = self.cfg
        tb = make_ring_oscillator() if self.size == "full" else tiny_ring_oscillator()
        rng = np.random.default_rng(MODEL_SEED)
        metrics = list(tb.metrics)
        fitters = {}
        store_root = self._store_root()
        router = ShardRouter(store_root).start()
        # Samples for the first fit, every refit of a pass, and a test set.
        per_model = -(-BLOCKS * cfg["refits_per_block"] // len(metrics))
        budget = cfg["first"] + cfg["step"] * per_model + cfg["test"]
        pool = montecarlo.simulate_dataset(tb, Stage.POST_LAYOUT, budget, rng, metrics)
        for metric in metrics:
            problem = FusionProblem(tb, metric)
            early = problem.fit_early_model(cfg["early_samples"], rng, method="ridge")
            fitter = SequentialBmf(
                problem.late_basis,
                problem.align_early_coefficients(early),
                prior_kind="select",
                missing_indices=problem.missing_indices(),
            )
            fitter.add_samples(pool.x[: cfg["first"]], pool.metric(metric)[: cfg["first"]])
            fitters[metric] = fitter
            router.publish(metric, fitter)
        rows = RowStream(self.seed + 7, tb.num_vars(Stage.POST_LAYOUT))
        _warm_up(router, metrics, rows)
        return dict(pool=pool, fitters=fitters, router=router, store_root=store_root, rows=rows)

    def measure(self, state, seconds: float, tail: bool = True) -> Measured:
        cfg = self.cfg
        router, pool, fitters = state["router"], state["pool"], state["fitters"]
        names = list(fitters)
        published = _Published()
        for name in names:  # the set-up versions are candidates too
            record = router.shard(router.primary(name)).registry.current(name)
            published.by_name[name] = [
                (0.0, 0.0, record.model.basis, np.array(record.model.coefficients))
            ]
        taken = {name: fitters[name].num_samples for name in names}
        log: List[dict] = []

        def refit_round() -> None:
            """+step samples and a publish per refit, round-robin over models."""
            for _ in range(cfg["refits_per_block"]):
                name = names[len(log) % len(names)]
                lo, hi = taken[name], taken[name] + cfg["step"]
                taken[name] = hi
                began = time.perf_counter()
                fitters[name].add_samples(pool.x[lo:hi], pool.metric(name)[lo:hi])
                refit_s = time.perf_counter() - began
                log.append(dict(
                    mode=fitters[name].last_refit_mode,
                    refit_s=refit_s,
                    publish_s=published.publish(router, name, fitters[name], began),
                ))

        served = _serve(
            router, names, state["rows"], cfg, seconds, tail, after_block=refit_round
        )
        test = slice(pool.x.shape[0] - cfg["test"], None)
        err = relative_error(fitters["power"].predict(pool.x[test]), pool.metric("power")[test])
        return self._result(
            router, served, published,
            metrics=dict(
                model_s=sum(entry["refit_s"] for entry in log),
                model_err_pct=100.0 * err,
                publish_p50_ms=float(np.median([e["publish_s"] for e in log])) * 1e3,
            ),
            work=2 * len(log),
            signature=dict(
                refit_modes=[entry["mode"] for entry in log],
                samples={name: fitters[name].num_samples for name in names},
            ),
            notes=dict(refits=log),
        )


WORKLOADS = {cls.name: cls for cls in (FitRo, ServeWide, ServeRefit)}
