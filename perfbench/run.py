"""Benchmark entry point: one workload, one seed, one measured run.

Run from the repository root::

    python3 perfbench/run.py --workload fit_ro --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs one untraced measured pass and prints every end-to-end
metric.  ``--trace 1`` runs an untraced and a traced pass of half the
length each and prints every per-layer metric; ``trace.overhead_pct``
compares the two.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries the environment, phase counts and count signature.

The exit code is 0 when every correctness check passed, 1 when one
failed, 2 when the program is not there to benchmark, and 3 when the run
was invalid (its load generator ran late); no result line is printed in
the last two cases.  ``python3 perfbench/run.py --record-reference``
re-measures the ``fit_ro`` reference file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: BLAS threads per process, fixed before numpy loads.  With the 2-core
#: default, OpenBLAS threads in a refit compete with the serving threads
#: and serve_refit turns bimodal (refits 2-3x slower, 100+ ms stalls), so
#: one thread keeps runs comparable.  The detail line records the setting.
BLAS_THREADS = "1"
#: (name, unit) of every gated end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("model_s", "s"),
    ("model_err_pct", "%"),
    ("answered_frac", "ratio"),
)
#: End-to-end figures printed with every untraced run but kept out of the
#: result line: on a 2-vCPU machine their run-to-run spread (IQR over the
#: median, ten runs) reached 0.3-1.2, above any bound a gate can use.
UNGATED = (
    ("capacity_rps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p99_ms", "ms"),
    ("publish_p50_ms", "ms"),
    ("fail_frac", "ratio"),
)
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run whose generator sent its p99 request later than this is invalid.
LAG_LIMIT_MS = 1000.0
REFERENCE = HERE / "reference_fit_ro.json"
#: Counters whose deltas over a measured pass form the count signature.
SIGNATURE_COUNTERS = ("store.writes", "bmf.cv_evaluations")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("fit_ro", "serve_wide", "serve_refit"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", default=".bench_work")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")
    return args


def _check_reference(size: str, fits: dict) -> bool:
    """fit_ro's chosen prior, eta and error must match the stored reference."""
    reference = json.loads(REFERENCE.read_text())
    tol = reference["tolerances"]
    for k, want in reference[size].items():
        got = fits[k]
        if got["prior"] != want["prior"]:
            return False
        if abs(got["eta"] - want["eta"]) > tol["eta_rtol"] * abs(want["eta"]):
            return False
        if abs(got["err_pct"] - want["err_pct"]) > tol["err_pct_rtol"] * want["err_pct"]:
            return False
    return True


def _record_reference(workdir: Path) -> None:
    from workloads import FitRo

    reference = {
        "tolerances": {"eta_rtol": 1e-9, "err_pct_rtol": 1e-4},
        "note": "fit_ro BMF-PS fits on the fixed modeling dataset; "
        "regenerate with: python3 perfbench/run.py --record-reference",
    }
    for size in ("tiny", "full"):
        workload = FitRo(size, 0, workdir)
        state = workload.setup()
        try:
            job = workload.modeling_job(state["tb"], state["problem"])
        finally:
            workload.teardown(state)
        reference[size] = {
            str(k): {"prior": f["prior"], "eta": f["eta"], "err_pct": f["err_pct"]}
            for k, f in job["fits"].items()
        }
        print(size, reference[size], flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def _counter_delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def _measure(workload, state, seconds, snapshot, tail=True):
    before = snapshot()
    measured = workload.measure(state, seconds, tail)
    return measured, _counter_delta(before, snapshot())


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SOURCE / "repro").is_dir():
        print(f"no program to benchmark: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, BLAS_THREADS)
    sys.path.insert(0, str(SOURCE))
    workdir = Path(args.workdir).resolve() / f"run-{args.workload or 'reference'}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.record_reference:
            _record_reference(workdir)
            return 0
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    import envinfo
    import layers
    from openloop import percentile
    from repro.runtime.metrics import metrics as runtime_metrics
    from tracing import Tracer, all_restored
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
    setup_times = []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            workload.teardown(state)
        start = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - start)
    env = envinfo.describe(state["store_root"])

    checks = {}
    detail = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "engine_defaults": "ShardRouter(store_root): library defaults"}
    try:
        if not args.trace:
            measured, delta = _measure(workload, state, args.seconds, runtime_metrics.snapshot)
            metrics = dict(measured.metrics, setup_s=statistics.median(setup_times))
            units = END_TO_END
        else:
            untraced, _ = _measure(
                workload, state, args.seconds / 2, runtime_metrics.snapshot, tail=False
            )
            workload.teardown(state)
            state = workload.setup()
            tracer = Tracer()
            try:
                layers.install(tracer)
                patches = tracer.wrapped_entry_points()
                measured, delta = _measure(
                    workload, state, args.seconds / 2, runtime_metrics.snapshot, tail=False
                )
            finally:
                tracer.restore()
            checks["entry_points_restored"] = all_restored(patches)
            overhead = _overhead_pct(args.workload, untraced.metrics, measured.metrics)
            metrics = layers.compute(tracer, delta, measured, overhead)
            units = layers.PER_LAYER
            detail["spans"] = len(tracer.spans)
            detail["untraced"] = untraced.metrics
            detail["traced"] = measured.metrics
    finally:
        workload.teardown(state)

    checks.update(measured.checks)
    fixed = measured.notes["fixed"].stats
    lag_p99_ms = percentile(fixed.lag_s, 99) * 1e3
    sent = sum(p.sent for p in measured.phases)
    if args.workload == "fit_ro":
        checks["reference"] = _check_reference(args.size, measured.notes["fits"])
    detail.update(
        checks=checks,
        phases={p.name: dict(p.counts(), elapsed_s=p.elapsed_s) for p in measured.phases},
        fixed_rate_answers=fixed.answered,
        gen_lag_ms_p99=lag_p99_ms,
        signature=dict(
            measured.signature,
            **{k: delta.get(k, 0) for k in SIGNATURE_COUNTERS},
        ),
        setup_times_s=setup_times,
        fail_frac=sum(p.missed for p in measured.phases) / sent if sent else 0.0,
    )
    if lag_p99_ms > LAG_LIMIT_MS:
        print(
            f"invalid run: generator p99 lag {lag_p99_ms:.1f} ms exceeds "
            f"{LAG_LIMIT_MS} ms; no result reported",
            file=sys.stderr,
        )
        return 3
    correct = all(checks.values())
    for name, unit in units:
        print(f"{name:32s} {metrics[name]:14.6g} {unit}")
    if not args.trace:
        ungated = dict(measured.metrics, fail_frac=detail["fail_frac"])
        for name, unit in UNGATED:
            print(f"{name:32s} {ungated[name]:14.6g} {unit}  (ungated)")
        detail["ungated"] = {name: ungated[name] for name, _ in UNGATED}
    print(json.dumps({"detail": detail}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": int(measured.attempted),
        "failed": int(measured.failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units},
    }))
    return 0 if correct else 1


def _overhead_pct(workload: str, untraced: dict, traced: dict) -> float:
    """How much slower the traced pass ran than the untraced one, in %."""
    if workload == "fit_ro":
        return 100.0 * (traced["model_s"] / untraced["model_s"] - 1.0)
    return 100.0 * (untraced["capacity_rps"] / traced["capacity_rps"] - 1.0)


if __name__ == "__main__":
    sys.exit(main())
