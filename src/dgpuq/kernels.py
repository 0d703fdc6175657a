"""Covariance function, Gram-matrix assembly and safe Cholesky factorization.

There is one kernel, :class:`ARDParams`, the automatic relevance
determination (exponential quadratic) kernel

    k(h, h') = sigma_h_sq * exp(-0.5 * sum_k w_k (h_k - h'_k)^2),

whose per-dimension weights ``w_k`` reveal which coordinates matter.  The
input layer's form ``tau0_sq * exp(-(x - x')^T B (x - x'))`` with diagonal
``B = diag(b)`` is the same kernel with ``w = 2b``; :func:`RBFParams` builds
it from ``(tau0_sq, b)``.  Scaling by 2 and by 1/2 is exact, so both
parameterizations give bit-identical Gram matrices.

Squared distances use the expanded form ``a_i + b_j - 2 (A w) B^T`` with the
weighted row norms ``a_i = sum_k w_k A_ik^2``.  Each operand is scaled and
reduced once: a self-Gram ``gram(X, X)`` reuses its row norms for both
sides and can hand them to its caller (``return_norms``), and
:func:`predictive_grams` and :func:`cross_gram` take a fixed training set's
norms as given, so prediction scales only the test rows.

All arrays are dense row-major float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "DimensionMismatchError",
    "RBFParams",
    "ARDParams",
    "gram",
    "predictive_grams",
    "cross_gram",
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


def _same_rows(A, B) -> bool:
    """Whether A and B are views of the same data with the same layout."""
    return A is B or (A.shape == B.shape and A.strides == B.strides
                      and A.__array_interface__["data"][0]
                      == B.__array_interface__["data"][0])


# elements of the row block that the weighted norms reduce at a time
_NORM_BLOCK = 1 << 16


def _weighted(A, scale):
    """``A * scale`` and the weighted row norms sum_k scale_k A_ik^2.

    The products ``As * A`` are formed and summed a block of rows at a time,
    so the transient is _NORM_BLOCK values (or one row, if longer) instead
    of a second copy of A; each row is still one ``np.sum``, so the norms
    are bit-identical to reducing the whole product at once.
    """
    As = A * scale
    norms = np.empty(A.shape[0])
    rows = max(1, _NORM_BLOCK // max(A.shape[1], 1))
    for s in range(0, A.shape[0], rows):
        np.sum(As[s:s + rows] * A[s:s + rows], axis=1, out=norms[s:s + rows])
    return As, norms


def _expanded_sqdist(aa, bb, cross):
    """``aa_i + bb_j - 2 cross_ij``, clipped at zero against cancellation."""
    sq = aa[:, None] + bb[None, :] - 2.0 * cross
    np.maximum(sq, 0.0, out=sq)
    return sq


def _sqdist_and_norms(A, B, scale, same):
    """Expanded-form distances and A's weighted row norms, which serve as
    B's when ``same``."""
    As, aa = _weighted(A, scale)
    bb = aa if same else _weighted(B, scale)[1]
    return _expanded_sqdist(aa, bb, As @ B.T), aa


def _symmetrized(sq):
    # the expanded-form distances carry asymmetric roundoff; make the
    # self-Gram exactly symmetric with unit diagonal distance zero
    sq = 0.5 * (sq + sq.T)
    np.fill_diagonal(sq, 0.0)
    return sq


def pairwise_sqdist(A, B, scale) -> np.ndarray:
    """Weighted pairwise squared distances sum_k scale_k (A_ik - B_jk)^2.

    Computed via the expanded form for speed; clipped at zero to guard
    against cancellation.  When B is A the row norms are formed once.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return _sqdist_and_norms(A, B, scale, _same_rows(A, B))[0]


def gram(A, B, kernel: ARDParams, return_norms=False):
    """Assemble the Gram matrix with entry (i, j) = k(A[i], B[j]).

    A self-Gram (B the same array as A) is exactly symmetric with diagonal
    ``sigma_h_sq``, and scales and reduces its operand once.  With
    ``return_norms`` it returns ``(K, norms)``, the weighted row norms
    sum_k w_k A_ik^2 of that pass, for :func:`predictive_grams`; that is
    only defined for a self-Gram.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError("gram column counts", A.shape[1], B.shape[1])
    _check_len("gram vs kernel dim", A, kernel.dim)
    same = _same_rows(A, B)
    if return_norms and not same:
        raise ValueError("gram returns row norms only for a self-Gram")
    sq, aa = _sqdist_and_norms(A, B, kernel.weights, same)
    if same:
        sq = _symmetrized(sq)
    K = kernel.sigma_h_sq * np.exp(-0.5 * sq)
    return (K, aa) if return_norms else K


def _predictive_operands(X, Xstar, kernel: ARDParams):
    """X and Xstar as checked 2-D arrays, and ``(Xstar * w, its norms)``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if X.shape[1] != Xstar.shape[1]:
        raise DimensionMismatchError("predictive_grams column counts",
                                     X.shape[1], Xstar.shape[1])
    _check_len("predictive_grams vs kernel dim", X, kernel.dim)
    return X, Xstar, _weighted(Xstar, kernel.weights)


def _cross(X, x_norms, Xs_w, ss, kernel: ARDParams):
    return kernel.sigma_h_sq * np.exp(
        -0.5 * _expanded_sqdist(x_norms, ss, X @ Xs_w.T))


def cross_gram(X, x_norms, Xstar, kernel: ARDParams):
    """The cross-Gram of :func:`predictive_grams` alone, without the test
    self-Gram: for a caller that needs only its diagonal, sigma_h_sq."""
    X, _, (Xs_w, ss) = _predictive_operands(X, Xstar, kernel)
    return _cross(X, x_norms, Xs_w, ss, kernel)


def predictive_grams(X, x_norms, Xstar, kernel: ARDParams):
    """``(gram(X, Xstar), gram(Xstar, Xstar))`` with Xstar scaled once.

    ``x_norms`` are the weighted row norms of the fixed rows X, as returned
    by ``gram(X, X, kernel, return_norms=True)``.  The cross-Gram is one
    product of the unscaled X with ``Xstar * w``, so it differs from
    ``gram(X, Xstar)`` only in the association of x_ik w_k x*_jk, by last
    bits; the test self-Gram is bit-identical to ``gram(Xstar, Xstar)``.
    """
    X, Xstar, (Xs_w, ss) = _predictive_operands(X, Xstar, kernel)
    sq = _symmetrized(_expanded_sqdist(ss, ss, Xs_w @ Xstar.T))
    return (_cross(X, x_norms, Xs_w, ss, kernel),
            kernel.sigma_h_sq * np.exp(-0.5 * sq))


def _cholesky(M):
    # LAPACK's dpotrf through scipy: half the time of np.linalg.cholesky at
    # n = 700 on one BLAS thread (7.1-7.5 ms against 14-15 ms), level at
    # n <= 200.  The upper triangle is zeroed; NaN cannot reach it, as it
    # fails chol_psd's symmetry check
    return scipy.linalg.cholesky(M, lower=True, check_finite=False)


def chol_psd(M):
    """Lower Cholesky factor of ``M``, or of ``M + jitter * I`` with the one
    jitter ``1e-6 * mean(diag(M))`` when the exact factorization fails.

    Returns
    -------
    (L, jitter) : lower-triangular factor and the jitter applied (0 or the
        one value above).

    Raises
    ------
    np.linalg.LinAlgError
        If the jittered factorization fails too, or at once when the exact
        one fails and the mean diagonal is not positive.
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
    try:
        return _cholesky(M), 0.0
    except np.linalg.LinAlgError:
        jitter = 1e-6 * float(np.mean(np.diag(M)))
    if not jitter > 0:
        raise np.linalg.LinAlgError("matrix not factorizable and its mean "
                                    "diagonal is not positive")
    return _cholesky(M + jitter * np.eye(M.shape[0])), jitter
