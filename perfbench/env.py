"""Environment stamp carried by every result, and the comparability rule."""

import ctypes
import os
import platform

# symbol names for the config string and thread count across OpenBLAS builds
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                   "openblas_get_config64_", "openblas_get_config")
_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")

# keys that must match for two results to be comparable
COMPARABLE_KEYS = ("nproc", "machine", "python", "numpy", "scipy", "openblas",
                   "blas_threads")


def _loaded_openblas():
    "Paths of the OpenBLAS libraries mapped into this process (Linux only)."
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _call(lib, symbols, restype):
    for sym in symbols:
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_info():
    """(config strings, thread counts) of every loaded OpenBLAS, by library path."""
    configs, threads = [], []
    for path in _loaded_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        cfg = _call(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        if cfg is not None:
            configs.append(cfg.decode().strip())
            threads.append(_call(lib, _THREAD_SYMBOLS, ctypes.c_int))
    return configs, threads


def stamp():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    configs, threads = blas_info()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": " | ".join(configs) or "unknown",
        "blas_threads": threads,
    }


def differences(a, b):
    "Stamp keys on which two results differ; empty means comparable."
    return [k for k in COMPARABLE_KEYS if a.get(k) != b.get(k)]
