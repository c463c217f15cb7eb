"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from pathlib import Path

from workloads import WORKLOADS

CPU_CACHE = Path("/sys/devices/system/cpu/cpu0/cache")


def _git_revision(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _blas() -> dict:
    """numpy's OpenBLAS build and thread count, asked of the library."""
    import numpy as np

    out = {"threads": None, "config": None}
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        threads = lib.scipy_openblas_get_num_threads64_
        config = lib.scipy_openblas_get_config64_
    except (OSError, AttributeError):
        return out
    threads.restype = ctypes.c_int
    config.restype = ctypes.c_char_p
    out["threads"] = threads()
    out["config"] = config().decode()
    return out


def _l3_bytes() -> int | None:
    for index in sorted(CPU_CACHE.glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
        return int(size.rstrip("KM")) * scale
    return None


def _density_array_bytes() -> int:
    # one complex128 field on the density suite's finest grid
    grid = next(dict(r.options)["grid"] for w in WORKLOADS.values()
                for r in w.runs if r.suite == "density")
    return grid * grid * 16


def environment(root: Path) -> dict:
    from importlib.metadata import version

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_revision": _git_revision(root),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "l3_bytes": _l3_bytes(),
        "density_grid_array_bytes": _density_array_bytes(),
    }
