"""The environment a result was measured in, recorded with every run."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import sys
from pathlib import Path
from typing import Dict


def _blas_threads() -> object:
    """OpenBLAS's runtime thread count, or the reason it is unknown."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError as exc:
        return f"unknown ({exc.__class__.__name__})"
    for lib in sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return "unknown (no OpenBLAS loaded)"


def _filesystem(path: Path) -> Dict[str, str]:
    """Mount point and filesystem type holding ``path``."""
    path = path.resolve()
    best = ("", "unknown")
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        mounts = []
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        if (str(path) + "/").startswith(mount.rstrip("/") + "/") and len(mount) > len(best[0]):
            best = (mount, fields[2])
    return {"mount": best[0], "type": best[1]}


def describe(store_root: Path) -> Dict[str, object]:
    import numpy
    import scipy

    from repro.backends import describe_selection

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "backend": describe_selection(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "store_filesystem": _filesystem(store_root),
        "machine": platform.machine(),
    }
