"""Pytest set-up shared by ``tests/`` and ``bench/``.

The suite's matrices are small, so BLAS threads cost more than they give:
each standard thread variable is set to one unless it is already set.
Thread pools are sized when the linear-algebra libraries load, so this runs
before any test module imports numpy, and the subprocesses the tests start
inherit the same variables.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
