"""Exact (dense) Gaussian process regression with a zero mean function.

Used as the first layer of the deep model (the mapping from observed
inputs) and as the oracle baseline that the variational layers are tested
against.  Output columns are independent and share one ARD kernel with
w = 2b, fitted in theta = [log tau0_sq, log b, log noise_var].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import (ARDParams, RBFParams, gram, predictive_grams, chol_psd,
                      pairwise_sqdist, DimensionMismatchError)
from .optimize import ascend

__all__ = ["GPModel", "build_model", "log_marginal", "log_marginal_grad", "fit", "predict"]

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GPModel:
    """Exact-GP state: the Cholesky factor of K + noise*I and the mean weights.

    ``train_norms`` are the training rows' weighted norms sum_k w_k x_ik^2
    from the pass that formed K, so that prediction scales only the test
    inputs.
    """

    kernel: ARDParams
    noise_var: float
    train_x: np.ndarray   # (n, kappa)
    train_y: np.ndarray   # (n, nu)
    chol_cache: np.ndarray  # lower factor of gram(X, X) + noise_var * I
    alpha: np.ndarray     # (n, nu) mean weights; the predictive mean is Ks^T alpha
    train_norms: np.ndarray  # (n,) weighted row norms of train_x

    @property
    def n(self):
        return self.train_x.shape[0]


def _build(kernel: ARDParams, noise_var: float, X, Y):
    """:func:`build_model` that also returns the Gram matrix it formed."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] != X.shape[0]:
        raise DimensionMismatchError("training rows", X.shape[0], Y.shape[0])
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    K, norms = gram(X, X, kernel, return_norms=True)
    L, _ = chol_psd(K + noise_var * np.eye(X.shape[0]))
    model = GPModel(kernel=kernel, noise_var=float(noise_var),
                    train_x=X, train_y=Y, chol_cache=L,
                    alpha=scipy.linalg.cho_solve((L, True), Y),
                    train_norms=norms)
    return model, K


def build_model(kernel: ARDParams, noise_var: float, X, Y) -> GPModel:
    """Assemble a model, its factorization and alpha = (K + noise*I)^-1 Y."""
    return _build(kernel, noise_var, X, Y)[0]


def log_marginal(model: GPModel) -> float:
    """Sum over output columns of log N(y_j | 0, K + noise*I)."""
    L = model.chol_cache
    Y = model.train_y
    n, nu = Y.shape
    alpha = scipy.linalg.solve_triangular(L, Y, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    return float(-0.5 * np.sum(alpha * alpha) - 0.5 * nu * (logdet + n * LOG_2PI))


def _hyper_grads(X, K, G, kernel: ARDParams, noise_var):
    """(dL/dlog sigma_h_sq, dL/dlog w, dL/dlog noise_var) from G = dL/dC.

    C = K + noise_var * I with K = gram(X, X, kernel); dL/dlog w equals
    dL/dlog b for w = 2b, and is one matrix product for all dimensions.
    """
    P = G * K
    g_log_sigma = float(np.sum(P))
    row = P.sum(axis=1)
    col = P.sum(axis=0)
    quad = np.einsum("ik,ij,jk->k", X, P, X, optimize=True)
    sq = X * X
    g_log_w = -0.5 * kernel.weights * (sq.T @ row + sq.T @ col - 2.0 * quad)
    g_log_noise = noise_var * float(np.trace(G))
    return g_log_sigma, g_log_w, g_log_noise


def log_marginal_grad(model: GPModel, K=None):
    """Gradient of the log marginal w.r.t. (log tau0_sq, log b, log noise_var).

    dL/dC = W / 2 with W = sum_j alpha_j alpha_j^T - nu * Kinv.  ``K`` is
    the model's noise-free Gram matrix, formed here when not given.
    """
    X, L, alpha = model.train_x, model.chol_cache, model.alpha
    n, nu = alpha.shape
    Kinv = scipy.linalg.cho_solve((L, True), np.eye(n))
    W = alpha @ alpha.T - nu * Kinv
    if K is None:
        K = gram(X, X, model.kernel)
    return _hyper_grads(X, K, 0.5 * W, model.kernel, model.noise_var)


def _pack_theta(kernel: ARDParams, noise_var) -> np.ndarray:
    """theta = [log tau0_sq, log b, log noise_var] with b = w / 2."""
    return np.concatenate([[np.log(kernel.sigma_h_sq)], np.log(0.5 * kernel.weights),
                           [np.log(noise_var)]])


def _unpack_theta(theta):
    """Inverse of :func:`_pack_theta`: returns (kernel, noise_var).

    An overflowing ``exp`` raises FloatingPointError.
    """
    with np.errstate(over="raise"):
        kernel = RBFParams(tau0_sq=float(np.exp(theta[0])),
                           lengthscale_inv=np.exp(theta[1:-1]))
        return kernel, float(np.exp(theta[-1]))


def _median_heuristic(X, max_points=200):
    """Per-dimension inverse scales from the overall median squared distance."""
    n = X.shape[0]
    sub = X[:: max(1, n // max_points)]
    sq = pairwise_sqdist(sub, sub, np.ones(X.shape[1]))
    med = float(np.median(sq[np.triu_indices_from(sq, k=1)]))
    if med <= 0:
        med = 1.0
    return np.full(X.shape[1], 1.0 / med)


def fit(X, Y, init: ARDParams = None, noise_var=None, iters=100,
        return_trace=False):
    """Maximize the log marginal over hyperparameters in log space.

    Returns the refitted model (and the objective trace when asked); the
    trace is nondecreasing by construction of the line search.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] < 2:
        raise ValueError("need at least two training points")
    y_var = float(np.var(Y))
    if y_var == 0.0:
        y_var = 1.0
    if init is None:
        init = RBFParams(tau0_sq=y_var, lengthscale_inv=_median_heuristic(X))
    if noise_var is None:
        noise_var = 0.01 * y_var

    def value_and_grad(theta, need_grad=True):
        try:
            model, K = _build(*_unpack_theta(theta), X, Y)
            f = log_marginal(model)
            if not need_grad:
                return f, None
            gt, gb, gn = log_marginal_grad(model, K)
        except (np.linalg.LinAlgError, FloatingPointError, ValueError):
            return -np.inf, None
        return f, np.concatenate([[gt], gb, [gn]])

    theta, trace = ascend(value_and_grad, _pack_theta(init, noise_var), iters)
    model = build_model(*_unpack_theta(theta), X, Y)
    if return_trace:
        return model, trace
    return model


def predict(model: GPModel, Xstar):
    """Predictive mean (n*, nu) and covariance (n*, n*) at test inputs.

    The mean is Ks^T alpha; the covariance is solved through the cached
    Cholesky factor, shared by all output columns and symmetrized on return.
    Both Gram matrices come from one scaling of Xstar and the cached
    training norms (:func:`kernels.predictive_grams`): Kss is bit-identical
    to ``gram(Xstar, Xstar)``, while Ks, and so the mean and covariance,
    differ from ``gram(train_x, Xstar)`` in the last bits only.
    """
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if Xstar.shape[1] != model.train_x.shape[1]:
        raise DimensionMismatchError("predict columns",
                                     model.train_x.shape[1], Xstar.shape[1])
    Ks, Kss = predictive_grams(model.train_x, model.train_norms, Xstar,
                               model.kernel)   # (n, n*), (n*, n*)
    mean = Ks.T @ model.alpha
    v = scipy.linalg.solve_triangular(model.chol_cache, Ks, lower=True)
    cov = Kss - v.T @ v
    cov = 0.5 * (cov + cov.T)
    return mean, cov
