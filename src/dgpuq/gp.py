"""Exact (dense) Gaussian process regression with a zero mean: the fit only.

Output columns are independent and share one ARD kernel with w = 2b,
fitted in theta = [log tau0_sq, log b, log noise_var].
:func:`deepgp.train_deep` fits the first latent on the inputs here to start
its input layer, whose backward reuses :func:`_hyper_grads`; the deep model
predicts from its own factors (:func:`deepgp.predict_layer1`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import (ARDParams, RBFParams, gram, chol_psd, pairwise_sqdist,
                      DimensionMismatchError)
from .optimize import BlockSpec, ascend, cached_objective

__all__ = ["GPModel", "build_model", "log_marginal", "log_marginal_grad", "fit"]

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GPModel:
    """Exact-GP state: the Cholesky factor of K + noise*I and the mean weights."""

    kernel: ARDParams
    noise_var: float
    train_x: np.ndarray   # (n, kappa)
    train_y: np.ndarray   # (n, nu)
    chol_cache: np.ndarray  # lower factor of gram(X, X) + noise_var * I
    alpha: np.ndarray     # (n, nu) mean weights; the predictive mean is Ks^T alpha


def _build(kernel: ARDParams, noise_var: float, X, Y):
    """:func:`build_model` that also returns the Gram matrix it formed."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if Y.shape[0] != X.shape[0]:
        raise DimensionMismatchError("training rows", X.shape[0], Y.shape[0])
    if not noise_var > 0:
        raise ValueError("noise_var must be positive")
    K = gram(X, X, kernel)
    L, _ = chol_psd(K + noise_var * np.eye(X.shape[0]))
    model = GPModel(kernel=kernel, noise_var=float(noise_var),
                    train_x=X, train_y=Y, chol_cache=L,
                    alpha=scipy.linalg.cho_solve((L, True), Y))
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
    dL/dlog b for w = 2b.  With P = G o K it needs, per input dimension k,
    the quadratic form x_k^T P x_k, whose n^2 kappa work is one GEMM, P X,
    and a column-wise dot product with X.  At n = 700, kappa = 4096 on one
    BLAS thread that takes 77-85 ms against 111-139 ms for the same
    contraction as one three-operand ``einsum``.  The input layer's
    backward and :func:`fit` both come here.
    """
    P = G * K
    g_log_sigma = float(np.sum(P))
    row = P.sum(axis=1)
    col = P.sum(axis=0)
    quad = np.einsum("ij,ij->j", X, P @ X)
    sq = X * X
    g_log_w = -0.5 * kernel.weights * (sq.T @ row + sq.T @ col - 2.0 * quad)
    g_log_noise = noise_var * float(np.trace(G))
    return g_log_sigma, g_log_w, g_log_noise


def log_marginal_grad(model: GPModel, K):
    """Gradient of the log marginal w.r.t. (log tau0_sq, log b, log noise_var).

    dL/dC = W / 2 with W = sum_j alpha_j alpha_j^T - nu * Kinv.  ``K`` is
    the model's noise-free Gram matrix.
    """
    X, L, alpha = model.train_x, model.chol_cache, model.alpha
    n, nu = alpha.shape
    Kinv = scipy.linalg.cho_solve((L, True), np.eye(n))
    W = alpha @ alpha.T - nu * Kinv
    return _hyper_grads(X, K, 0.5 * W, model.kernel, model.noise_var)


def _theta(kernel: ARDParams, noise_var):
    """The hyperparameters by block name, w = 2b; theta holds their logs,
    [log tau0_sq, log b, log noise_var]."""
    return {"tau0_sq": kernel.sigma_h_sq, "b": 0.5 * kernel.weights,
            "noise_var": noise_var}


def _from_theta(values):
    """(kernel, noise_var) from the values of :func:`_theta`."""
    return (RBFParams(tau0_sq=float(values["tau0_sq"]),
                      lengthscale_inv=values["b"]),
            float(values["noise_var"]))


def _median_heuristic(X, max_points=200):
    """Per-dimension inverse scales from the overall median squared distance."""
    n = X.shape[0]
    sub = X[:: max(1, n // max_points)]
    sq = pairwise_sqdist(sub, sub, np.ones(X.shape[1]))
    med = float(np.median(sq[np.triu_indices_from(sq, k=1)]))
    if med <= 0:
        med = 1.0
    return np.full(X.shape[1], 1.0 / med)


def fit(X, Y, iters=100):
    """Maximize the log marginal over hyperparameters in log space.

    The ascent starts from signal variance var(Y), the median-heuristic
    inverse scales and noise variance 0.01 var(Y).  Returns the refitted
    model.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] < 2:
        raise ValueError("need at least two training points")
    y_var = float(np.var(Y))
    if y_var == 0.0:
        y_var = 1.0
    init = RBFParams(tau0_sq=y_var, lengthscale_inv=_median_heuristic(X))
    theta0 = _theta(init, 0.01 * y_var)
    spec = BlockSpec([(name, np.shape(v), True) for name, v in theta0.items()])

    def forward(theta):
        model, K = _build(*_from_theta(spec.unpack(theta)), X, Y)
        return log_marginal(model), (model, K)

    def backward(state):
        return spec.flatten(dict(zip(("tau0_sq", "b", "noise_var"),
                                     log_marginal_grad(*state))))

    theta, _ = ascend(cached_objective(forward, backward), spec.pack(theta0),
                      iters)
    return build_model(*_from_theta(spec.unpack(theta)), X, Y)
