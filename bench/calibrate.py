"""Machine-speed probe for normalising stage times.

The sandbox's speed drifts by 15-30 % over a few seconds as other tenants
load the host, and the drift moves dense LAPACK, BLAS, sparse LU and
interpreter-bound code together.  Each timed stage is therefore bracketed
by probes of a fixed mix of that work; the stage time divided by the mean
probe time next to it is steadier than the raw time.  The probe uses only
numpy and scipy, so no change to ``dgpuq`` can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

PROBES_PER_SIDE = 5


class Probe:
    """A fixed piece of work, about 15 ms on one core of the 2-core Xeon sandbox it was tuned on."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((240, 240))
        self.spd = a @ a.T + 240.0 * np.eye(240)
        self.square = rng.standard_normal((300, 300))
        lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(60, 60))
        eye = sp.eye(60)
        self.laplace = (sp.kron(lap, eye) + sp.kron(eye, lap)).tocsc()
        self.rhs = rng.standard_normal(60 * 60)
        self.vec = rng.standard_normal(64)
        # 32 MB, well beyond the last-level cache: a matrix-vector product
        # over it is bound by memory bandwidth, as the KLE's reduction is
        self.tall = rng.standard_normal((2048, 2048))
        self.col = rng.standard_normal(2048)
        self.once()  # first calls load code paths; keep them out of probes

    def once(self):
        t0 = time.perf_counter()
        np.linalg.eigh(self.spd)
        self.square @ self.square
        self.tall @ self.col
        self.col @ self.tall
        spla.splu(self.laplace).solve(self.rhs)
        v = self.vec
        for _ in range(600):
            v = np.exp(-0.5 * v * v) + 0.5 * v
        return time.perf_counter() - t0

    def seconds(self):
        """Median probe time over a few repetitions."""
        return statistics.median(self.once() for _ in range(PROBES_PER_SIDE))
