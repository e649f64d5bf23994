"""chainlab: desk-scale verification of estimation bounds along
degradation/restoration chains.

Exact finite-alphabet probability, Fisher-information and error-probability
bound audits, restorers and parameter estimators, mixed-domain training
collapse, sparse recovery certificates, and a deterministic experiment
runner.

Importing chainlab pins BLAS to one thread, so that report bytes do not
depend on the host's core count: OpenBLAS's multithreaded solves round
differently. The pin sets the thread variables, so that every OpenBLAS
loaded after chainlab starts with one thread; in a process that loaded numpy
first, it also calls the thread setter of each OpenBLAS library already
loaded. ``BLAS_PINNED`` says whether the pin took (or the environment had
already set one thread); it stays False only where no OpenBLAS setter was
found.
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

# numpy loads from here on, after the pin.
from .probability import (
    FiniteDistribution,
    ConditionalTable,
    JointDistribution,
    PipelineChain,
    assemble_joint,
    condition,
    marginal,
    mutual_information,
    normalize,
)
from .information import (
    GaussianMeanFamily,
    InfoReport,
    LaplaceRateFamily,
    TableFamily,
    dpi_audit,
    entropy_error_bound_gaussian,
    entropy_error_bound_grid,
    fisher_information,
    rao_blackwellize,
    sufficiency_check,
)
from .channels import BlurOperator, blur_matrix, gaussian_kernel
from .restorers import (
    ParamEstimator,
    Restorer,
    estimator_variance_mc,
    mmse_restorer,
    posterior_sampler,
    with_restorer,
)
from .classification import (
    bayes_risk,
    pr_gap,
    separability,
    theorem_ordering_audit,
)
from .domain_shift import (
    DomainSpec,
    LinearRestorer,
    double_meaning_minimizer,
    fit_linear_restorer,
    mixed_vs_targeted_report,
    resolution_shift_prediction,
    train_mixed_restorer,
)
from .sparse import (
    KernelOperator,
    RecoveryCertificate,
    SpikeSignal,
    build_kernel_operator,
    l1_map_solve,
    lambda_pipeline_experiment,
    recovery_certificate,
)
from .rng import stream_rng

__version__ = "0.1.0"
