"""Thread pinning and host facts recorded beside every result.

This module must not import numpy: ``pin_threads`` has to run before the
first numpy import so the BLAS/OpenMP pools start at the pinned size.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: BLAS/OpenMP threads per process.  One caller runs one job at a time, and
#: on a few shared cores a second pool thread mostly measures the scheduler.
THREADS = 1


def pin_threads() -> int:
    """Set the BLAS/OpenMP thread count to ``THREADS`` (at most nproc).

    Child processes inherit the environment, so CLI jobs run with the same
    setting.  Overrides any value already set, so every run is pinned alike.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads must run before numpy is imported")
    n = min(THREADS, nproc())
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def host_facts() -> dict:
    import numpy as np

    caches = _cache_sizes()
    return {
        "nproc": nproc(),
        "cpu": _cpu_model(),
        "L2": caches.get("L2", "unknown"),
        "L3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
