"""Pytest set-up shared by ``tests/`` and ``bench/``.

The suite's matrices are small, so BLAS threads cost more than they give:
one thread unless ``DGP_THREADS`` is already set.  The cap takes effect when
``dgpuq`` is imported, and thread pools are sized when the linear-algebra
libraries load, so the package is imported here, before any test module
imports numpy.
"""

import os

os.environ.setdefault("DGP_THREADS", "1")

import dgpuq  # noqa: E402,F401
