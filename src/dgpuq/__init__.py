"""Deep Gaussian process surrogates with uncertainty propagation for Darcy flow."""

__version__ = "0.1.0"

import os as _os

# DGP_THREADS sizes the BLAS/OpenMP thread pools, which are fixed when the
# libraries load, so it is applied here, before the first numeric import
if _os.environ.get("DGP_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ[_var] = _os.environ["DGP_THREADS"]

from .kernels import (RBFParams, ARDParams, ard_eval, gram, chol_psd,
                      DimensionMismatchError, SingularMatrixError)
from .random_field import (Grid2D, ExpCovSpec, KLExpansion, exp_cov,
                           kle_decompose, sample_log_field, permeability,
                           std_normal_inv_cdf, std_normal_cdf)
from .darcy import SourceSpec, DarcySolution, source_term, solve, restrict

__all__ = [
    "RBFParams", "ARDParams", "ard_eval", "gram", "chol_psd",
    "DimensionMismatchError", "SingularMatrixError",
    "Grid2D", "ExpCovSpec", "KLExpansion", "exp_cov", "kle_decompose",
    "sample_log_field", "permeability", "std_normal_inv_cdf", "std_normal_cdf",
    "SourceSpec", "DarcySolution", "source_term", "solve", "restrict",
    "__version__",
]
