"""chainlab: desk-scale verification of estimation bounds along
degradation/restoration chains.

Exact finite-alphabet probability, Fisher-information and error-probability
bound audits, restorers and parameter estimators, mixed-domain training
collapse, sparse recovery certificates, and a deterministic experiment
runner. Callers import from the modules (``chainlab.probability``,
``chainlab.restorers``, ...); the package itself re-exports nothing.

Importing chainlab pins BLAS to one thread, so that report bytes do not
depend on the host's core count: OpenBLAS's multithreaded solves round
differently. The pin sets the thread variables, so that every OpenBLAS
loaded after chainlab starts with one thread; in a process that loaded numpy
first, it also calls the thread setter of each OpenBLAS library already
loaded. ``BLAS_PINNED`` says whether the pin took (or the environment had
already set one thread); it stays False only where no OpenBLAS setter was
found. The package loads no numpy: numpy first loads with a module, after
the pin.
"""

import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_loaded_openblas() -> bool:
    """Set each OpenBLAS already loaded to one thread; True if each then has one."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps if "openblas" in line}
    except OSError:  # no /proc: not Linux
        return False
    threads = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not a library that this process has loaded
            continue
        for name in ("scipy_openblas_%s_num_threads64_", "scipy_openblas_%s_num_threads",
                     "openblas_%s_num_threads64_", "openblas_%s_num_threads"):
            if hasattr(lib, name % "set") and hasattr(lib, name % "get"):
                getattr(lib, name % "set")(1)
                threads.append(getattr(lib, name % "get")())
                break
        else:
            threads.append(None)
    return set(threads) == {1}


BLAS_PINNED = ("numpy" not in sys.modules
               or all(os.environ.get(var) == "1" for var in _BLAS_THREAD_VARS)
               or _pin_loaded_openblas())
os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

__version__ = "0.1.0"
