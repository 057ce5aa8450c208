"""Which entry points the traced pass wraps, and the per-layer metrics.

Every metric is measured from outside the program: spans from the
:class:`~tracing.Tracer` wrappers installed by :func:`install`, plus
deltas of the program's own ``repro.runtime.metrics`` counters and timers
over the traced pass (read, never incremented).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

import repro.backends
import repro.bmf.cross_validation
import repro.linalg.solvers
import repro.linalg.woodbury
import repro.montecarlo.engine
import repro.regression.omp
from repro.basis import OrthonormalBasis
from repro.bmf import BmfRegressor, SequentialBmf
from repro.linalg import CholeskyFactor
from repro.serving import ModelRegistry, PredictionEngine, ShardRouter
from repro.store import ModelStore

from openloop import percentile
from tracing import Tracer

#: Backend kernels timed as ``backends.kernel_s``.
KERNELS = ("gather_product", "fused_gather_matvec", "matvec", "matmul_t", "triangular_solve")

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("montecarlo.simulate_s", "s"),
    ("montecarlo.samples", "count"),
    ("regression.omp_s", "s"),
    ("regression.omp_paths", "count"),
    ("bmf.fit_s", "s"),
    ("bmf.cv_s", "s"),
    ("bmf.cv_evals", "count"),
    ("bmf.refit_ms_p50", "ms"),
    ("bmf.refit_incremental_ratio", "ratio"),
    ("linalg.gram_s", "s"),
    ("linalg.chol_s", "s"),
    ("basis.design_s", "s"),
    ("basis.design_cells", "count"),
    ("basis.predict_us_p50", "us"),
    ("basis.predict_rows", "count"),
    ("backends.kernel_s", "s"),
    ("basis.plan_share", "ratio"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("engine.submit_us_p50", "us"),
    ("engine.evaluate_s", "s"),
    ("engine.batches", "count"),
    ("engine.rows_per_batch", "rows"),
    ("engine.queue_peak", "count"),
    ("engine.shed", "count"),
    ("engine.expired", "count"),
    ("router.submit_us_p50", "us"),
    ("router.publish_ms_p50", "ms"),
    ("router.replica_applied", "count"),
    ("registry.publish_ms_p50", "ms"),
    ("store.append_ms_p50", "ms"),
    ("store.writes", "count"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.sent", "count"),
    ("trace.overhead_pct", "%"),
)


def _rows(args, kwargs) -> int:
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return 1 if x.ndim == 1 else x.shape[0]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer."""
    tracer.wrap_function(repro.montecarlo.engine, "simulate_dataset", "montecarlo.simulate")
    tracer.wrap_function(repro.regression.omp, "omp_path", "regression.omp_path")
    tracer.wrap_function(repro.bmf.cross_validation, "cross_validate_eta", "bmf.cv")
    tracer.wrap_function(repro.linalg.woodbury, "gram_kernel", "linalg.gram")
    tracer.wrap_function(repro.linalg.woodbury, "extend_gram_kernel", "linalg.gram_extend")
    tracer.wrap_function(repro.linalg.solvers, "solve_spd", "linalg.solve_spd")
    tracer.wrap_method(CholeskyFactor, "append", "linalg.chol_append")
    tracer.wrap_method(CholeskyFactor, "solve", "linalg.chol_solve")
    tracer.wrap_method(BmfRegressor, "fit_design", "bmf.fit")
    tracer.wrap_method(SequentialBmf, "add_samples", "bmf.refit")
    tracer.wrap_method(OrthonormalBasis, "fused_predict", "basis.predict", count=_rows)
    backend_cls = type(repro.backends.get_backend())
    for kernel in KERNELS:
        tracer.wrap_method(backend_cls, kernel, "backends.kernel")
    tracer.wrap_method(PredictionEngine, "submit", "engine.submit")
    tracer.wrap_method(ShardRouter, "submit", "router.submit")
    tracer.wrap_method(ShardRouter, "publish", "router.publish")
    tracer.wrap_method(ModelRegistry, "publish", "registry.publish")
    tracer.wrap_method(ModelStore, "append", "store.append")


def _p50(values: List[float], scale: float) -> float:
    return float(np.median(values)) * scale if values else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def compute(tracer: Tracer, delta: Dict[str, float], measured, overhead_pct: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (0 where a layer did no work)."""
    t = tracer
    refits = t.calls("bmf.refit")
    predict_s = t.total_seconds("basis.predict")
    kernel_in_predict = t.child_seconds("basis.predict", "backends.kernel")
    hits, misses = delta.get("design_cache.hits", 0), delta.get("design_cache.misses", 0)
    batches = delta.get("serving.batches", 0)
    fixed = measured.notes["fixed"].stats
    values = {
        "montecarlo.simulate_s": t.total_seconds("montecarlo.simulate"),
        "montecarlo.samples": delta.get("montecarlo.samples", 0),
        "regression.omp_s": t.total_seconds("regression.omp_path"),
        "regression.omp_paths": t.calls("regression.omp_path"),
        "bmf.fit_s": t.total_seconds("bmf.fit"),
        "bmf.cv_s": t.total_seconds("bmf.cv"),
        "bmf.cv_evals": delta.get("bmf.cv_evaluations", 0),
        "bmf.refit_ms_p50": _p50(t.durations("bmf.refit"), 1e3),
        "bmf.refit_incremental_ratio": _ratio(
            delta.get("woodbury.incremental_refits", 0), refits
        ),
        "linalg.gram_s": t.total_seconds("linalg.gram", "linalg.gram_extend"),
        "linalg.chol_s": t.total_seconds(
            "linalg.solve_spd", "linalg.chol_append", "linalg.chol_solve"
        ),
        "basis.design_s": delta.get("design_matrix.seconds", 0.0),
        "basis.design_cells": delta.get("design_matrix.cells", 0),
        "basis.predict_us_p50": _p50(t.durations("basis.predict"), 1e6),
        "basis.predict_rows": t.total_count("basis.predict"),
        "backends.kernel_s": t.total_seconds("backends.kernel"),
        "basis.plan_share": 1.0 - _ratio(kernel_in_predict, predict_s) if predict_s else 0.0,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.evictions": delta.get("design_cache.evictions", 0),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "engine.submit_us_p50": _p50(t.durations("engine.submit"), 1e6),
        "engine.evaluate_s": delta.get("serving.evaluate.seconds", 0.0),
        "engine.batches": batches,
        "engine.rows_per_batch": _ratio(delta.get("serving.batch_size", 0), batches),
        "engine.queue_peak": measured.notes["queue_peak"],
        "engine.shed": delta.get("serving.shed.rejected", 0)
        + delta.get("serving.brownout.shed", 0),
        "engine.expired": delta.get("serving.shed.expired", 0)
        + delta.get("serving.expired", 0),
        "router.submit_us_p50": _p50(t.self_times("router.submit"), 1e6),
        "router.publish_ms_p50": _p50(t.durations("router.publish"), 1e3),
        "router.replica_applied": delta.get("serving.shard.replica_applied", 0),
        "registry.publish_ms_p50": _p50(t.self_times("registry.publish"), 1e3),
        "store.append_ms_p50": _p50(t.durations("store.append"), 1e3),
        "store.writes": delta.get("store.writes", 0),
        "gen.lag_ms_p99": percentile(fixed.lag_s, 99) * 1e3,
        "gen.sent": fixed.sent,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: float(values[name]) for name, _ in PER_LAYER}
