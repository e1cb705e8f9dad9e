"""What the benchmark records about the host: environment, GEMM ceiling, memory."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
from time import perf_counter

import numpy as np

GEMM_N = 1024
GEMM_REPEATS = 7


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_runtime() -> dict:
    """Thread count and build string reported by the loaded OpenBLAS, if any."""
    path = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            for line in f:
                if "openblas" in line:
                    path = line.split()[-1]
                    break
    except OSError:
        return {}
    if path is None:
        return {}
    lib = ctypes.CDLL(path)
    out = {}
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                threads.argtypes = []
                config.restype = ctypes.c_char_p
                config.argtypes = []
                out["threads"] = int(threads())
                out["config"] = config().decode("ascii", "replace")
                return out
    return out


def environment(blas_threads_pinned: int) -> dict:
    """Machine, BLAS and interpreter facts recorded in every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime = _openblas_runtime()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": runtime.get("config", blas.get("openblas configuration")),
        "blas_threads_pinned": blas_threads_pinned,
        "blas_threads_runtime": runtime.get("threads"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def gemm_gflops() -> float:
    """Median float64 GEMM rate at the pinned BLAS thread count, GFLOP/s."""
    rng = np.random.default_rng(0)
    a = rng.random((GEMM_N, GEMM_N))
    b = rng.random((GEMM_N, GEMM_N))
    a @ b
    rates = []
    for _ in range(GEMM_REPEATS):
        t0 = perf_counter()
        a @ b
        rates.append(2.0 * GEMM_N ** 3 / (perf_counter() - t0) / 1e9)
    return statistics.median(rates)


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
