"""Self-test of the benchmark at tiny sizes (about a minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

WORKLOADS = ("fit_ro", "serve_wide", "serve_refit")
#: Signature entries that must repeat exactly for the same seed.
SIGNATURE_KEYS = ("gen_sent", "schedule", "store.writes", "bmf.cv_evaluations")


def _run(tmp_path: Path, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
            "--size", "tiny", "--workdir", str(tmp_path),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=100,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _declared(kind: str):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return sorted(metric["name"] for metric in spec[kind])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_names_signatures_and_restore(tmp_path, workload):
    first_detail, first = _run(tmp_path, workload, trace=0)
    second_detail, _ = _run(tmp_path, workload, trace=0)
    traced_detail, traced = _run(tmp_path, workload, trace=1)

    assert first["correct"] and traced["correct"]
    assert sorted(first["metrics"]) == _declared("end_to_end")
    assert sorted(traced["metrics"]) == _declared("per_layer")

    a, b = first_detail["signature"], second_detail["signature"]
    for key in SIGNATURE_KEYS:
        assert a[key] == b[key], key
    if workload == "serve_refit":
        assert a["refit_modes"] == b["refit_modes"]
    if workload == "fit_ro":
        assert a["fits"] == b["fits"]

    assert traced_detail["checks"]["entry_points_restored"] is True


def test_tracer_puts_every_original_back():
    import layers
    from repro.basis import OrthonormalBasis
    from repro.bmf import BmfRegressor
    from tracing import Tracer, all_restored

    before_fused = OrthonormalBasis.fused_predict
    before_fit = BmfRegressor.fit_design
    tracer = Tracer()
    layers.install(tracer)
    patches = tracer.wrapped_entry_points()
    assert OrthonormalBasis.fused_predict is not before_fused
    assert not all_restored(patches)
    tracer.restore()
    assert all_restored(patches)
    assert OrthonormalBasis.fused_predict is before_fused
    assert BmfRegressor.fit_design is before_fit
    assert "fit_design" not in vars(BmfRegressor)
    for owner, attr, _, original in patches:
        assert getattr(owner, attr) is original


def test_bare_benchmark_directory_fails_without_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in BENCH.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_ro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
