"""Deep Gaussian process surrogates with uncertainty propagation for Darcy flow."""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# DGP_THREADS sizes the BLAS/OpenMP thread pools, which are fixed when the
# libraries load, so it is applied here, before the first numeric import
if _os.environ.get("DGP_THREADS"):
    _threads = _os.environ["DGP_THREADS"]
    _vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    if "numpy" in _sys.modules and any(_os.environ.get(v) != _threads
                                       for v in _vars):
        import warnings as _warnings
        _warnings.warn(
            f"DGP_THREADS={_threads} cannot resize the thread pools of BLAS "
            "libraries numpy has already loaded; import dgpuq before numpy, "
            "or set " + ", ".join(_vars) + " before Python starts",
            RuntimeWarning, stacklevel=2)
    for _var in _vars:
        _os.environ[_var] = _threads

from .kernels import (RBFParams, ARDParams, gram, chol_psd,
                      DimensionMismatchError, SingularMatrixError)
from .random_field import (Grid2D, ExpCovSpec, KLExpansion, kle_decompose,
                           sample_log_field, permeability, std_normal_inv_cdf)
from .darcy import SourceSpec, DarcySolution, source_term, solve, restrict

__all__ = [
    "RBFParams", "ARDParams", "gram", "chol_psd",
    "DimensionMismatchError", "SingularMatrixError",
    "Grid2D", "ExpCovSpec", "KLExpansion", "kle_decompose",
    "sample_log_field", "permeability", "std_normal_inv_cdf",
    "SourceSpec", "DarcySolution", "source_term", "solve", "restrict",
    "__version__",
]
