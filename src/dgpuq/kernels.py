"""Covariance function, Gram-matrix assembly and safe Cholesky factorization.

There is one kernel, :class:`ARDParams`, the automatic relevance
determination (exponential quadratic) kernel

    k(h, h') = sigma_h_sq * exp(-0.5 * sum_k w_k (h_k - h'_k)^2),

whose per-dimension weights ``w_k`` reveal which coordinates matter.  The
input layer's form ``tau0_sq * exp(-(x - x')^T B (x - x'))`` with diagonal
``B = diag(b)`` is the same kernel with ``w = 2b``; :func:`RBFParams` builds
it from ``(tau0_sq, b)``.  Scaling by 2 and by 1/2 is exact, so both
parameterizations give bit-identical Gram matrices.

Squared distances use the expanded form ``a_i + b_j - 2 (A w) B^T`` with
the weighted row norms ``a_i = sum_k w_k A_ik^2``.  A self-Gram
``gram(X, X)`` (and ``pairwise_sqdist(X, X)``), one object passed as both
arguments, forms its norms once and its product as one ``dsyrk`` on the
rows scaled by ``sqrt(w)``: half the flops of a general product, and the
lower triangle it fills is mirrored, so the result is exactly symmetric
with a zero distance diagonal.  It can hand its norms to its caller
(``return_norms``), and :func:`predictive_grams` (joint) and
:func:`cross_gram` (marginal) take a fixed training set's norms as given,
so the deep model's first latent (:mod:`dgpuq.deepgp`) predicts by scaling
only the test rows.  :func:`downdate` forms a posterior covariance
``K - V V^T`` as one exactly symmetric ``dsyrk`` update: :func:`chol_psd`
rejects any input that is not exactly symmetric.

All arrays are dense row-major float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk

__all__ = [
    "DimensionMismatchError",
    "RBFParams",
    "ARDParams",
    "gram",
    "predictive_grams",
    "cross_gram",
    "chol_psd",
    "pairwise_sqdist",
    "downdate",
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


# elements of the row block that the weighted norms reduce at a time
_NORM_BLOCK = 1 << 16


def _norms(A, scale):
    """The weighted row norms sum_k scale_k A_ik^2.

    The products ``(A * scale) * A`` are formed and summed a block of rows
    at a time, so the transient is _NORM_BLOCK values (or one row, if
    longer) instead of a copy of A; each row is still one ``np.sum``, so
    the norms are bit-identical to reducing the whole product at once.
    """
    norms = np.empty(A.shape[0])
    rows = max(1, _NORM_BLOCK // max(A.shape[1], 1))
    for s in range(0, A.shape[0], rows):
        blk = A[s:s + rows]
        prod = blk * scale
        prod *= blk
        np.sum(prod, axis=1, out=norms[s:s + rows])
    return norms


# rows of the diagonal block _mirror_lower sweeps to make a result exactly
# symmetric (chol_psd requires it), and that block's strict upper triangle
_SYM_BLOCK = 64
_BLOCK_UPPER = ~np.tri(_SYM_BLOCK, dtype=bool)


def _mirror_lower(A):
    """Copy the strict lower triangle of square A onto its upper, in place."""
    n = A.shape[0]
    for s in range(0, n, _SYM_BLOCK):
        e = min(s + _SYM_BLOCK, n)
        D = A[s:e, s:e]
        np.copyto(D, D.T, where=_BLOCK_UPPER[:e - s, :e - s])
        A[s:e, e:] = A[e:, s:e].T


def _expanded_sqdist(aa, bb, cross):
    """``aa_i + bb_j - 2 cross_ij``, clipped at zero against cancellation."""
    sq = aa[:, None] + bb[None, :] - 2.0 * cross
    np.maximum(sq, 0.0, out=sq)
    return sq


def _syrk_sqdist(Ah, norms):
    """Self distances of the rows whose ``sqrt(w)``-scaled copy is ``Ah``.

    One ``dsyrk`` forms ``-2 Ah Ah^T`` in the lower triangle, half the flops
    of a general product; ``Ah.T`` is its Fortran-ordered operand, so it is
    not copied.  The row norms are added, the result clipped at zero and
    the triangle mirrored, and the diagonal is set to zero: the distances
    are exactly symmetric.
    """
    if not len(Ah):               # dsyrk rejects an empty output
        return np.zeros((0, 0))
    sq = dsyrk(-2.0, Ah.T, trans=1, lower=1)
    sq += norms[:, None] + norms[None, :]
    np.maximum(sq, 0.0, out=sq)
    _mirror_lower(sq)
    np.fill_diagonal(sq, 0.0)
    return sq.T            # the Fortran-ordered result read row-major


def _sqdist_and_norms(A, B, scale, same):
    """Weighted distances and A's weighted row norms, which serve as B's
    when ``same``: then through :func:`_syrk_sqdist`, else the expanded
    form with one general product."""
    aa = _norms(A, scale)
    if same:
        return _syrk_sqdist(A * np.sqrt(scale), aa), aa
    return _expanded_sqdist(aa, _norms(B, scale), (A * scale) @ B.T), aa


def pairwise_sqdist(A, B, scale) -> np.ndarray:
    """Weighted pairwise squared distances sum_k scale_k (A_ik - B_jk)^2.

    Computed via the expanded form for speed; clipped at zero to guard
    against cancellation.  When B is A (one object passed twice) the row
    norms are formed once and the product is one ``dsyrk``: the result is
    exactly symmetric with a zero diagonal.
    """
    same = A is B
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    return _sqdist_and_norms(A, B, scale, same)[0]


def gram(A, B, kernel: ARDParams, return_norms=False):
    """Assemble the Gram matrix with entry (i, j) = k(A[i], B[j]).

    A self-Gram (B the same object as A) is exactly symmetric with diagonal
    ``sigma_h_sq``: its distances are one ``dsyrk`` on the rows scaled by
    ``sqrt(w)``, mirrored.  With ``return_norms`` it returns ``(K, norms)``,
    the weighted row norms sum_k w_k A_ik^2, for :func:`predictive_grams`;
    that is only defined for a self-Gram.
    """
    same = A is B
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    if A.shape[1] != B.shape[1]:
        raise DimensionMismatchError("gram column counts", A.shape[1], B.shape[1])
    _check_len("gram vs kernel dim", A, kernel.dim)
    if return_norms and not same:
        raise ValueError("gram returns row norms only for a self-Gram")
    sq, aa = _sqdist_and_norms(A, B, kernel.weights, same)
    K = kernel.sigma_h_sq * np.exp(-0.5 * sq)
    return (K, aa) if return_norms else K


def _predictive_operands(X, Xstar, kernel: ARDParams):
    """X as a checked 2-D array, ``Xstar * sqrt(w)`` and Xstar's norms."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if X.shape[1] != Xstar.shape[1]:
        raise DimensionMismatchError("test input columns", X.shape[1],
                                     Xstar.shape[1])
    _check_len("training input columns vs kernel dim", X, kernel.dim)
    return (X, Xstar * np.sqrt(kernel.weights),
            _norms(Xstar, kernel.weights))


def _cross(X, x_norms, Xh, ss, kernel: ARDParams):
    """The cross-Gram against the test rows ``Xh = Xstar * sqrt(w)``, which
    it scales by ``sqrt(w)`` once more, in place, as the product operand."""
    Xh *= np.sqrt(kernel.weights)
    return kernel.sigma_h_sq * np.exp(
        -0.5 * _expanded_sqdist(x_norms, ss, X @ Xh.T))


def cross_gram(X, x_norms, Xstar, kernel: ARDParams):
    """The cross-Gram of :func:`predictive_grams` alone, without the test
    self-Gram: for a caller that needs only its diagonal, sigma_h_sq."""
    X, Xh, ss = _predictive_operands(X, Xstar, kernel)
    return _cross(X, x_norms, Xh, ss, kernel)


def predictive_grams(X, x_norms, Xstar, kernel: ARDParams):
    """``(gram(X, Xstar), gram(Xstar, Xstar))`` for a stack of s test sets,
    Xstar (s, n*, kappa), with Xstar copied once.

    ``x_norms`` are the weighted row norms of the fixed rows X, as returned
    by ``gram(X, X, kernel, return_norms=True)``.  Xstar is copied once,
    as ``Xstar * sqrt(w)``, and its norms are formed once.  That copy is
    the ``dsyrk`` operand of each set's test self-Gram, (s, n*, n*),
    bit-identical to ``gram`` on the set, and is then scaled by ``sqrt(w)``
    again in place.  The cross-Gram is one product of the unscaled X with
    it, (n, s n*) with the sets' columns in stack order.  It differs from
    ``gram(X, Xstar)`` only in the association of x_ik w_k x*_jk, by last
    bits; a set's columns equal those of a stack of that set alone unless
    the BLAS kernel rounds a column by the product's width (:mod:`dgpuq.uq`
    says where).
    """
    s, n_star, kappa = np.shape(Xstar)
    X, Xh, ss = _predictive_operands(X, np.reshape(Xstar, (-1, kappa)),
                                     kernel)
    Kss = np.empty((s, n_star, n_star))
    for K, Ah, norms in zip(Kss, Xh.reshape(s, n_star, Xh.shape[1]),
                            ss.reshape(s, n_star)):
        np.exp(-0.5 * _syrk_sqdist(Ah, norms), out=K)
        K *= kernel.sigma_h_sq
    return _cross(X, x_norms, Xh, ss, kernel), Kss


def downdate(K, V):
    """``K - V V^T`` for a symmetric row-major K, formed in K's memory.

    One ``dsyrk`` update of the lower triangle, mirrored: the result is
    exactly symmetric, and V V^T is never formed on its own.
    """
    if not len(K):                # dsyrk rejects an empty output
        return K
    C = dsyrk(-1.0, V.T, trans=1, beta=1.0, c=K.T, lower=1, overwrite_c=1)
    _mirror_lower(C)
    return C.T


def _cholesky(M):
    # LAPACK's dpotrf through scipy: half the time of np.linalg.cholesky at
    # n = 700 on one BLAS thread (7.1-7.5 ms against 14-15 ms), level at
    # n <= 200.  The upper triangle is zeroed; chol_psd lets no NaN or inf
    # reach it
    return scipy.linalg.cholesky(M, lower=True, check_finite=False)


def chol_psd(M):
    """Lower Cholesky factor of ``M``, or of ``M + jitter * I`` with the one
    jitter ``1e-6 * mean(diag(M))`` when the exact factorization fails.

    ``M`` must be exactly symmetric: the factorization reads one triangle.
    ``M`` itself is never written; the jitter is added to a copy.

    Returns
    -------
    (L, jitter) : lower-triangular factor, in Fortran order, and the jitter
        applied (0 or the one value above).

    Raises
    ------
    np.linalg.LinAlgError
        If the jittered factorization fails too, or at once when the exact
        one fails and the mean diagonal is not positive.
    ValueError
        If ``M`` is not square, has a NaN or infinite entry, or is not
        exactly symmetric.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"chol_psd needs a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():     # first, as NaN != NaN
        raise ValueError("chol_psd input has a NaN or infinite entry")
    if not np.array_equal(M, M.T):
        raise ValueError("chol_psd input is not symmetric")
    try:
        return _cholesky(M), 0.0
    except np.linalg.LinAlgError:
        jitter = 1e-6 * float(np.mean(np.diag(M)))
    if not jitter > 0:
        raise np.linalg.LinAlgError("matrix not factorizable and its mean "
                                    "diagonal is not positive")
    M = M.copy()
    M[np.diag_indices_from(M)] += jitter
    return _cholesky(M), jitter
