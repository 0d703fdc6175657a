"""Environment record written with every result.

The BLAS thread count is read from each OpenBLAS library the process has
loaded (numpy and scipy each bundle their own), through the library's own
``get_num_threads`` call, so it is the count in effect, not the requested
one.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

import numpy as np
import scipy
import scipy.linalg  # noqa: F401  loads scipy's BLAS
import scipy.sparse.linalg  # noqa: F401

_GETTERS = ("openblas_get_num_threads", "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")


def _loaded_blas_libraries():
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    return sorted(p for p in paths if ".so" in os.path.basename(p))


def blas_threads():
    """library file name -> threads reported by that library."""
    out = {}
    for path in _loaded_blas_libraries():
        lib = ctypes.CDLL(path)
        for name in _GETTERS:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_build(config):
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def environment(seed):
    return {
        "seed": int(seed),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_build(np.show_config(mode="dicts")),
        "scipy_blas": _blas_build(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "dgp_threads": os.environ.get("DGP_THREADS"),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
