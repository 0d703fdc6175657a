"""Covariance function, Gram-matrix assembly and safe Cholesky factorization.

There is one kernel, :class:`ARDParams`, the automatic relevance
determination (exponential quadratic) kernel

    k(h, h') = sigma_h_sq * exp(-0.5 * sum_k w_k (h_k - h'_k)^2),

whose per-dimension weights ``w_k`` reveal which coordinates matter.  The
input layer's form ``tau0_sq * exp(-(x - x')^T B (x - x'))`` with diagonal
``B = diag(b)`` is the same kernel with ``w = 2b``; :func:`RBFParams` builds
it from ``(tau0_sq, b)``.  Scaling by 2 and by 1/2 is exact, so both
parameterizations give bit-identical Gram matrices.

All arrays are dense row-major float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "SingularMatrixError",
    "RBFParams",
    "ARDParams",
    "ard_eval",
    "gram",
    "chol_psd",
    "pairwise_sqdist",
]


class DimensionMismatchError(ValueError):
    """Vector/matrix dimensions do not agree."""

    def __init__(self, what, expected, got):
        self.what = what
        self.expected = expected
        self.got = got
        super().__init__(f"{what}: expected length {expected}, got {got}")


class SingularMatrixError(np.linalg.LinAlgError):
    """Cholesky failed even at the maximum jitter level."""


@dataclass(frozen=True)
class ARDParams:
    """ARD kernel: signal variance and per-dimension relevance weights."""

    sigma_h_sq: float
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           np.atleast_1d(np.asarray(self.weights, dtype=float)))
        if not self.sigma_h_sq > 0:
            raise ValueError(f"sigma_h_sq must be positive, got {self.sigma_h_sq}")
        if not np.all(self.weights >= 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and >= 0")
        if not np.any(self.weights > 0):
            raise ValueError("at least one ARD weight must be > 0")

    @property
    def dim(self):
        return self.weights.shape[0]


def RBFParams(tau0_sq, lengthscale_inv) -> ARDParams:
    """The kernel ``tau0_sq * exp(-(x - x')^T diag(b) (x - x'))``: ARD with w = 2b."""
    b = np.atleast_1d(np.asarray(lengthscale_inv, dtype=float))
    return ARDParams(sigma_h_sq=tau0_sq, weights=2.0 * b)


def _check_len(name, vec, expected):
    if vec.shape[-1] != expected:
        raise DimensionMismatchError(name, expected, vec.shape[-1])


def ard_eval(h1, h2, p: ARDParams) -> float:
    """Evaluate the ARD kernel at a single pair of points."""
    h1 = np.asarray(h1, dtype=float).ravel()
    h2 = np.asarray(h2, dtype=float).ravel()
    if h1.shape[0] != h2.shape[0]:
        raise DimensionMismatchError("ard_eval inputs", h1.shape[0], h2.shape[0])
    _check_len("ard_eval weights", h1, p.dim)
    d = h1 - h2
    return float(p.sigma_h_sq * np.exp(-0.5 * np.dot(d * p.weights, d)))


def pairwise_sqdist(A, B, scale) -> np.ndarray:
    """Weighted pairwise squared distances sum_k scale_k (A_ik - B_jk)^2.

    Computed via the expanded form for speed; clipped at zero to guard
    against cancellation.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    As = A * scale
    aa = np.sum(As * A, axis=1)[:, None]
    bb = np.sum((B * scale) * B, axis=1)[None, :]
    sq = aa + bb - 2.0 * As @ B.T
    np.maximum(sq, 0.0, out=sq)
    return sq


def gram(A, B, kernel: ARDParams) -> np.ndarray:
    """Assemble the Gram matrix with entry (i, j) = k(A[i], B[j])."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError("gram column counts", A.shape[1], B.shape[1])
    _check_len("gram vs kernel dim", A, kernel.dim)
    # the expanded-form distances carry asymmetric roundoff; make the
    # self-Gram exactly symmetric with unit diagonal distance zero
    sq = pairwise_sqdist(A, B, kernel.weights)
    if A.shape == B.shape and np.shares_memory(A, B):
        sq = 0.5 * (sq + sq.T)
        np.fill_diagonal(sq, 0.0)
    return kernel.sigma_h_sq * np.exp(-0.5 * sq)


def chol_psd(M, base_jitter=None):
    """Lower Cholesky factor of ``M + jitter * I`` with escalating jitter.

    The jitter is the smallest value in ``{0, base, base*10, ..., base*1e6}``
    for which the factorization succeeds.  ``base_jitter`` defaults to
    ``1e-6 * mean(diag(M))``.

    Returns
    -------
    (L, jitter) : lower-triangular factor and the jitter actually applied.

    Raises
    ------
    SingularMatrixError
        If the factorization still fails at the largest jitter.
    ValueError
        If ``M`` is not symmetric to 1e-10 relative tolerance.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"chol_psd needs a square matrix, got shape {M.shape}")
    scale = np.max(np.abs(M)) if M.size else 0.0
    if not np.allclose(M, M.T, rtol=0.0, atol=1e-10 * max(scale, 1.0)):
        raise ValueError("chol_psd input is not symmetric within 1e-10 relative")
    M = 0.5 * (M + M.T)
    if base_jitter is None:
        mean_diag = float(np.mean(np.diag(M))) if M.size else 0.0
        if mean_diag > 0:
            base_jitter = 1e-6 * mean_diag
        else:
            # roundoff-scale or indefinite input: scale from magnitudes
            mag = float(np.mean(np.abs(np.diag(M)))) if M.size else 0.0
            base_jitter = 1e-6 * mag if mag > 0 else 1e-6
    n = M.shape[0]
    eye = np.eye(n)
    for level in [0.0] + [base_jitter * 10.0 ** k for k in range(7)]:
        try:
            L = np.linalg.cholesky(M + level * eye if level else M)
            return L, level
        except np.linalg.LinAlgError:
            continue
    raise SingularMatrixError(
        f"matrix not factorizable at maximum jitter {base_jitter * 1e6:.3e}")
