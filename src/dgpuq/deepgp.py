"""Supervised deep Gaussian process: stacked variational GP layers.

Structure: observed inputs X map to the first latent through an exact GP
(no inducing points; that conditional is a tractable Gaussian), and each
subsequent latent maps through a sparse collapsed layer from
:mod:`dgpuq.gplvm`.  With G latents h_1..h_G the mappings are

    X -> h_1 -> h_2 -> ... -> h_G -> Y.

The first latent keeps a full n x n posterior covariance per column,
parameterized as S_j = (C^-1 + diag(lam_j))^-1 and mean column C mu_bar_j
with C the input-layer prior covariance; deeper latents are factorized.
With W = diag(sqrt(lam_j)), B_j = I + W C W and H_j = B_j^-1, two exact
identities carry the first-latent forward and backward:

    S_j = W^-1 (I - H_j) W^-1,        C^-1 S_j = W H_j W^-1,

so each column of the joint bound needs one Cholesky factor of B_j and
its triangular inverse; C^-1 is never formed.  The gradient keeps those
inverses, and C, in rectangular full packed storage (n(n+1)/2 values per
triangle: 59 MB at n = 700, q1 = 30 instead of 118 MB) and unpacks one
column at a time; its per-column backward is n^3 flops, two ``dsyrk``
updates split by the sign of the diagonal weight.
Training is two-phase: a greedy stack of GP-LVMs initializes every layer,
then the joint bound (first-layer KL + collapsed layer terms + entropies)
is refined by gradient ascent.  Prediction propagates Gaussian moments
layer to layer using the test-point kernel expectations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, dsyr2k, dsyrk
from scipy.linalg.lapack import dpotrf, dtrtri, dlauum, dtrttf, dtfttr

from .kernels import ARDParams, gram, chol_psd, DimensionMismatchError
from .gplvm import (LayerState, VariationalLatent, InducingSet, layer_bound,
                    layer_bound_grads, train_gplvm, _phi_forward)
from .optimize import ascend
from . import gp as gp_mod
from .rng import rng_for

__all__ = [
    "InputLayer",
    "DeepGPModel",
    "train_deep",
    "elbo",
    "elbo_grad_vector",
    "pack_params",
    "unpack_params",
    "predict_layer1",
    "propagate",
    "predict",
]

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class InputLayer:
    """Exact-GP mapping from observed inputs to the first latent."""

    kernel: ARDParams    # w = 2b, packed as log b (see gp._pack_theta)
    noise_var: float
    mu_bar: np.ndarray   # (n, q1)
    lam: np.ndarray      # (n, q1), positive


@dataclass
class DeepGPModel:
    """Trained deep GP: input layer plus an ordered stack of sparse layers.

    ``hidden_layers[t]`` maps latent t+1 to latent t+2 (the last one maps
    to the observed outputs); its ``latent`` field holds q of its input.
    """

    X: np.ndarray
    Y: np.ndarray
    input_layer: InputLayer
    hidden_layers: list
    dims: list
    training_meta: dict = field(default_factory=dict)
    _pred_cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_latents(self):
        return len(self.hidden_layers)


# ---------------------------------------------------------------------------
# Joint bound
# ---------------------------------------------------------------------------

def _input_cov(input_layer: InputLayer, X):
    """Return C = Kx + noise_var * I, formed in place on the input Gram."""
    C = gram(X, X, input_layer.kernel)
    C[np.diag_indices_from(C)] += input_layer.noise_var
    return C


def _lapack_checked(routine, *args, **kwargs):
    out, info = routine(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{routine.__name__} failed with info={info}")
    return out


# column block of the in-place mirror and of the dsyrk operands: bounds the
# backward's per-column temporaries to n x _BLOCK values
_BLOCK = 64


def _mirror_lower(A):
    """Copy the strict lower triangle of square A onto its upper, in place."""
    n = A.shape[0]
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        D = A[s:e, s:e]
        D[...] = np.tril(D) + np.tril(D, -1).T
        A[s:e, e:] = A[e:, s:e].T


def _first_latent_forward(input_layer: InputLayer, X, need_full=False):
    """Moments of the first latent and the per-column KL to its prior.

    C = Kx + noise_var * I is the input-layer prior covariance.  Column j
    factors B_j = I + W C W = L L^T (W = diag(sqrt(lam_j))) and inverts the
    factor; H_j = B_j^-1 = L^-T L^-1, so diag H_j is the column sums of
    squares of L^-1 and diag S_j = (1 - diag H_j) / lam_j.  That difference
    loses digits only where lam_i * C_ii is tiny (h_ii near 1); the former
    form C_ii - ||(L^-1 W C)_i||^2 lost them where lam * C is large.  The
    1e-300 floor keeps log S finite either way.  One n x n buffer holds B,
    L and L^-1 in turn for every column.

    Returns (M1, diag_S, kl, packed).  With ``need_full``, packed is the
    backward's cache (C, [L^-1 per column]), each triangle in LAPACK's
    rectangular full packed format (``dtrttf``, lower): n(n+1)/2 values, so
    the factors take 59 MB at n = 700, q1 = 30, half of full storage.  The
    round trip through ``dtfttr`` is exact.  Otherwise packed is None.
    """
    n, q1 = input_layer.mu_bar.shape
    C = _input_cov(input_layer, X)
    M1 = C @ input_layer.mu_bar
    diag_S = np.empty((n, q1))
    kl = 0.0
    cols = []
    B = np.empty_like(C)
    for j in range(q1):
        lam_j = input_layer.lam[:, j]
        w = np.sqrt(lam_j)
        np.multiply(w[:, None], C, out=B)
        B *= w[None, :]
        B[np.diag_indices_from(B)] += 1.0
        # B is symmetric and potrf reads one triangle: B.T is B in Fortran
        # order, factored in place without a copy
        L = _lapack_checked(dpotrf, B.T, lower=1, overwrite_a=1)
        logdet_B = 2.0 * float(np.sum(np.log(np.diag(L))))
        L_inv = _lapack_checked(dtrtri, L, lower=1, overwrite_c=1)
        h = np.einsum("ij,ij->j", L_inv, L_inv)
        dS = (1.0 - h) / lam_j
        np.maximum(dS, 1e-300, out=dS)
        diag_S[:, j] = dS
        kl += 0.5 * (float(input_layer.mu_bar[:, j] @ M1[:, j])
                     - float(lam_j @ dS) + logdet_B)
        if need_full:
            cols.append(_lapack_checked(dtrttf, L_inv, uplo="L"))
    if not need_full:
        return M1, diag_S, kl, None
    del B, L, L_inv     # freed before C is packed
    return M1, diag_S, kl, (_lapack_checked(dtrttf, C.T, uplo="L"), cols)


def _first_latent_grads(input_layer: InputLayer, X, packed, d_M1, d_s1):
    """Input-layer gradient block given d(value)/dM1 and d(value)/d diag S.

    The value is the layer terms that read M1 and diag S, minus the first
    KL; ``packed`` comes from :func:`_first_latent_forward` and is
    consumed: each factor is dropped once unpacked, so one column at a time
    is held in full.  Per column, with e = d_s1 + lam/2 and
    S = W^-1 (I - H) W^-1:

        d lam = -(S o S) e,
        d C  += C^-1 S diag(e) S C^-1 - (C^-1 - C^-1 S C^-1) / 2
              = K diag(e / lam^2) K - K / 2,      K = W H W.

    H comes from the unpacked L^-1 by ``dlauum``.  K diag(e / lam^2) K is
    two ``dsyrk`` updates, one over the columns with e > 0 and one over
    those with e < 0: n^3 flops per column, half of one GEMM.  Every
    column adds into the lower triangle of one n x n buffer, mirrored once
    after the loop; only the symmetric part of d C enters the
    hyperparameter gradient.  C is unpacked after the loop, when the
    factors are gone.
    """
    il = input_layer
    n, q1 = il.mu_bar.shape
    C_rfp, cols = packed
    d_log_lam = np.empty((n, q1))
    diag = np.diag_indices(n)
    G_C = None
    P_buf = np.empty((_BLOCK, n))
    for j in range(q1):
        H = _lapack_checked(dtfttr, n, cols[j], uplo="L")       # L^-1
        cols[j] = None
        if G_C is None:
            # first allocated here, after the first packed factor is freed:
            # d M1 mu_bar^T - mu_bar mu_bar^T / 2, symmetric part, lower
            G_C = dsyr2k(0.5, d_M1, il.mu_bar, lower=1)
            G_C = dsyrk(-0.5, il.mu_bar, beta=1.0, c=G_C, lower=1,
                        overwrite_c=1)
        lam_j = il.lam[:, j]
        e_lam = (d_s1[:, j] + 0.5 * lam_j) / lam_j
        H = _lapack_checked(dlauum, H, lower=1, overwrite_c=1)
        _mirror_lower(H)
        # (I - H) o (I - H): H o H off the diagonal, (1 - h_ii)^2 on it
        h = H[diag].copy()
        H[diag] = 1.0 - h
        d_log_lam[:, j] = -np.einsum("ij,ij,j->i", H, H, e_lam)
        H[diag] = h
        # K = W H W in place, then K diag(e / lam^2) K - K / 2 into G_C
        w = np.sqrt(lam_j)
        K = H
        K *= w[:, None]
        K *= w[None, :]
        daxpy(K.ravel(order="K"), G_C.ravel(order="K"), a=-0.5)
        s = np.sqrt(np.abs(e_lam)) / w
        for sign in (1.0, -1.0):
            idx = np.flatnonzero(sign * e_lam > 0.0)
            for c in range(0, idx.size, _BLOCK):
                blk = idx[c:c + _BLOCK]
                # mode="clip" writes into out; "raise" would buffer a copy
                P = np.take(K.T, blk, axis=0, out=P_buf[:blk.size], mode="clip")
                P *= s[blk, None]               # scaled columns blk of K
                G_C = dsyrk(sign, P.T, beta=1.0, c=G_C, lower=1,
                            overwrite_c=1)
        del H, K    # freed before the next column is unpacked
    _mirror_lower(G_C)
    C = _lapack_checked(dtfttr, n, C_rfp, uplo="L")
    _mirror_lower(C)
    d_mu_bar = C @ (d_M1 - il.mu_bar)
    Kx = C                          # in place: the input Gram C - noise_var I
    Kx[diag] -= il.noise_var
    g_log_tau, g_log_b, g_log_noise = gp_mod._hyper_grads(X, Kx, G_C, il.kernel,
                                                          il.noise_var)
    return {"log_tau0": g_log_tau, "log_b": g_log_b,
            "log_noise": g_log_noise, "mu_bar": d_mu_bar,
            "log_lam": d_log_lam}


def elbo(model: DeepGPModel) -> float:
    """Joint variational lower bound of the deep model."""
    return _deep_value_and_grad(model, need_grad=False)[0]


def _deep_value_and_grad(model: DeepGPModel, need_grad=True, frozen_input=False):
    """Joint bound and, with ``need_grad``, its gradient blocks.

    With ``frozen_input`` the input-layer block is not computed (it is
    None): neither the packed factors nor the first-latent backward.
    """
    X, Y = model.X, model.Y
    G = model.n_latents
    M1, diag_S1, kl1, packed = _first_latent_forward(
        model.input_layer, X, need_full=need_grad and not frozen_input)
    model.hidden_layers[0].latent = VariationalLatent(means=M1, variances=diag_S1)

    value = -kl1
    caches = []
    for t in range(G):
        layer = model.hidden_layers[t]
        if t < G - 1:
            nxt = model.hidden_layers[t + 1].latent
            out_means, out_vars = nxt.means, nxt.variances
        else:
            out_means, out_vars = Y, None
        v, cache = layer_bound(layer.kernel, layer.beta, layer.latent,
                               layer.inducing.inputs, out_means, out_vars,
                               return_cache=True)
        value += v
        caches.append(cache)
    for t in range(1, G):
        S = model.hidden_layers[t].latent.variances
        value += 0.5 * float(np.sum(np.log(S))) + 0.5 * S.size * (1.0 + LOG_2PI)

    if not need_grad:
        return value, None

    grads = [layer_bound_grads(c) for c in caches]

    # free hidden latents: input of layer t, output of layer t-1, plus entropy
    latent_blocks = []
    for t in range(1, G):
        S = model.hidden_layers[t].latent.variances
        d_means = grads[t]["latent_means"] + grads[t - 1]["out_means"]
        d_vars = grads[t]["latent_vars"] + grads[t - 1]["out_vars"] + 0.5 / S
        latent_blocks.append({"means": d_means, "log_vars": d_vars * S})

    layer_blocks = []
    for t in range(G):
        layer = model.hidden_layers[t]
        g = grads[t]
        layer_blocks.append({
            "Hu": g["Hu"],
            "log_sigma_h": g["sigma_h_sq"] * layer.kernel.sigma_h_sq,
            "log_w": g["weights"] * layer.kernel.weights,
            "log_beta": g["beta"] * layer.beta,
        })

    # input layer: chain through M1 = C mu_bar, diag S_j and the first KL
    input_block = None
    if not frozen_input:
        input_block = _first_latent_grads(model.input_layer, X, packed,
                                          grads[0]["latent_means"],
                                          grads[0]["latent_vars"])
    return value, {"input": input_block, "layers": layer_blocks,
                   "latents": latent_blocks}


# ---------------------------------------------------------------------------
# Parameter vector packing (unconstrained optimization space)
# ---------------------------------------------------------------------------

def pack_params(model: DeepGPModel, frozen_input=False) -> np.ndarray:
    il = model.input_layer
    parts = []
    if not frozen_input:
        parts += [gp_mod._pack_theta(il.kernel, il.noise_var), il.mu_bar.ravel(),
                  np.log(il.lam).ravel()]
    for layer in model.hidden_layers:
        parts += [layer.inducing.inputs.ravel(), [np.log(layer.kernel.sigma_h_sq)],
                  np.log(layer.kernel.weights), [np.log(layer.beta)]]
    for t in range(1, model.n_latents):
        lat = model.hidden_layers[t].latent
        parts += [lat.means.ravel(), np.log(lat.variances).ravel()]
    return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])


def unpack_params(model: DeepGPModel, x, frozen_input=False) -> DeepGPModel:
    """Rebuild a model with parameters taken from the packed vector.

    Raises FloatingPointError when a log-parameter overflows ``exp``.
    """
    i = 0

    def take(k):
        nonlocal i
        out = x[i:i + k]
        i += k
        return out

    with np.errstate(over="raise"):
        il = model.input_layer
        if frozen_input:
            new_il = il
        else:
            kern, nv = gp_mod._unpack_theta(take(il.kernel.dim + 2))
            n, q1 = il.mu_bar.shape
            mu_bar = take(n * q1).reshape(n, q1).copy()
            lam = np.exp(take(n * q1)).reshape(n, q1)
            new_il = InputLayer(kernel=kern, noise_var=nv, mu_bar=mu_bar, lam=lam)
        new_layers = []
        for layer in model.hidden_layers:
            m, q = layer.inducing.inputs.shape
            Z = take(m * q).reshape(m, q).copy()
            sig = float(np.exp(take(1)[0]))
            w = np.exp(take(q))
            beta = float(np.exp(take(1)[0]))
            new_layers.append(LayerState(
                kernel=ARDParams(sigma_h_sq=sig, weights=w), beta=beta,
                latent=layer.latent, inducing=InducingSet(inputs=Z)))
        for t in range(1, model.n_latents):
            n, q = model.hidden_layers[t].latent.means.shape
            means = take(n * q).reshape(n, q).copy()
            variances = np.exp(take(n * q)).reshape(n, q)
            new_layers[t].latent = VariationalLatent(means=means,
                                                     variances=variances)
    if i != x.size:
        raise ValueError(f"parameter vector length mismatch: used {i} of {x.size}")
    return DeepGPModel(X=model.X, Y=model.Y, input_layer=new_il,
                       hidden_layers=new_layers, dims=list(model.dims),
                       training_meta=model.training_meta)


def _grad_to_vector(model: DeepGPModel, g, frozen_input=False) -> np.ndarray:
    parts = []
    if not frozen_input:
        gi = g["input"]
        parts += [[gi["log_tau0"]], gi["log_b"], [gi["log_noise"]],
                  gi["mu_bar"].ravel(), gi["log_lam"].ravel()]
    for gl in g["layers"]:
        parts += [gl["Hu"].ravel(), [gl["log_sigma_h"]], gl["log_w"],
                  [gl["log_beta"]]]
    for gt in g["latents"]:
        parts += [gt["means"].ravel(), gt["log_vars"].ravel()]
    return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])


def elbo_grad_vector(model: DeepGPModel, frozen_input=False) -> np.ndarray:
    """Gradient of :func:`elbo` in the packed parameterization."""
    _, g = _deep_value_and_grad(model, need_grad=True, frozen_input=frozen_input)
    return _grad_to_vector(model, g, frozen_input)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_deep(X, Y, dims, m_inducing, iters=100, seed=0, init_iters=150,
               fix_latent_to_inputs=False, callback=None) -> DeepGPModel:
    """Train a deep GP by greedy GP-LVM stacking plus joint refinement.

    Parameters
    ----------
    dims : latent dimensions q_1..q_G (outermost first).
    m_inducing : inducing counts, one per sparse layer.
    iters : accepted steps of the joint phase.
    init_iters : accepted steps for each greedy GP-LVM fit.
    fix_latent_to_inputs : clamp the first latent to X with tiny variances
        and freeze the input layer (requires G = 1 and q_1 = X.shape[1]);
        the joint phase then trains the output mapping only.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatchError("training rows", X.shape[0], Y.shape[0])
    dims = [int(d) for d in dims]
    m_inducing = [int(m) for m in m_inducing]
    G = len(dims)
    if G < 1:
        raise ValueError("need at least one latent layer")
    if len(m_inducing) != G:
        raise ValueError("m_inducing must have one entry per layer")
    if float(np.var(Y)) <= 0.0:
        raise ValueError("Y has zero variance; nothing to model")
    if fix_latent_to_inputs and (G != 1 or dims[0] != X.shape[1]):
        raise ValueError("fix_latent_to_inputs requires G = 1 and q1 = input dim")

    # greedy stack: GP-LVM on Y gives the last latent, then work backwards
    init_traces = []
    layers = [None] * G
    latent_means = [None] * (G + 1)    # index i holds q(h_i) moments, 1-based
    latent_vars = [None] * (G + 1)
    data = Y
    for t in range(G - 1, -1, -1):
        if fix_latent_to_inputs:
            state = _sparse_layer_on_fixed_inputs(X, Y, m_inducing[0], seed)
            trace = np.array([])
        else:
            state, trace = train_gplvm(data, dims[t], m_inducing[t],
                                       iters=init_iters, seed=seed + 101 * t)
        init_traces.append(trace)
        layers[t] = state
        latent_means[t + 1] = state.latent.means
        latent_vars[t + 1] = state.latent.variances
        data = state.latent.means

    # hidden layers' free latent moments (inputs of layers 1..G-1)
    for t in range(1, G):
        layers[t].latent = VariationalLatent(means=latent_means[t + 1].copy(),
                                             variances=latent_vars[t + 1].copy())
    # clear reparam fields: the deep parameterization replaces them
    for layer in layers:
        layer.reparam = None

    # input layer: exact-GP fit of X -> first latent means; the mean is
    # C mu_bar, so mu_bar is the fit's mean weights C^-1 M1
    if fix_latent_to_inputs:
        M1, S1 = X.copy(), np.full_like(X, 1e-9)
    else:
        M1, S1 = latent_means[1], latent_vars[1]
    gpm = gp_mod.fit(X, M1, iters=min(init_iters, 60))
    input_layer = InputLayer(kernel=gpm.kernel, noise_var=gpm.noise_var,
                             mu_bar=gpm.alpha,
                             lam=1.0 / np.clip(S1, 1e-12, None))

    model = DeepGPModel(X=X, Y=Y, input_layer=input_layer, hidden_layers=layers,
                        dims=dims, training_meta={"seed": int(seed),
                                                  "iters": int(iters),
                                                  "init_iters": int(init_iters)})
    frozen = bool(fix_latent_to_inputs)

    def value_and_grad(x, need_grad=True):
        try:
            cand = unpack_params(model, x, frozen_input=frozen)
            value, g = _deep_value_and_grad(cand, need_grad=need_grad,
                                            frozen_input=frozen)
        except (np.linalg.LinAlgError, FloatingPointError, ValueError):
            return -np.inf, None
        if not need_grad:
            return value, None
        return value, _grad_to_vector(cand, g, frozen_input=frozen)

    x0 = pack_params(model, frozen_input=frozen)
    x, trace = ascend(value_and_grad, x0, iters, callback=callback)
    trained = unpack_params(model, x, frozen_input=frozen)
    _deep_value_and_grad(trained, need_grad=False)  # sync first-latent moments
    trained.training_meta.update({
        "elbo_trace": trace,
        "final_elbo": float(trace[-1]),
        "init_traces": init_traces,
    })
    return trained


def _sparse_layer_on_fixed_inputs(X, Y, m, seed) -> LayerState:
    """Sparse output layer whose latent is clamped to the observed inputs."""
    n, q = X.shape
    latent = VariationalLatent(means=X.copy(), variances=np.full((n, q), 1e-9))
    rng = rng_for(seed, 7)
    idx = np.sort(rng.choice(n, size=min(m, n), replace=False))
    y_var = float(np.var(Y))
    span = np.maximum(X.max(axis=0) - X.min(axis=0), 1e-3)
    kern = ARDParams(sigma_h_sq=y_var, weights=2.0 / span ** 2)
    return LayerState(kernel=kern, beta=100.0 / y_var, latent=latent,
                      inducing=InducingSet(inputs=X[idx].copy()))


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def predict_layer1(model: DeepGPModel, Xstar):
    """Exact-GP predictive moments of the first latent at new inputs.

    The cached :class:`gp.GPModel` has targets M1 = C mu_bar (the first
    latent's means) and mean weights C^-1 M1 = mu_bar exactly, whatever
    jitter the factorization of C needed.  It keeps the training rows'
    weighted norms (n values), not the scaled n x kappa inputs.
    """
    key = "layer1"
    if key not in model._pred_cache:
        il = model.input_layer
        Kx, norms = gram(model.X, model.X, il.kernel, return_norms=True)
        L_C, _ = chol_psd(Kx + il.noise_var * np.eye(model.X.shape[0]))
        model._pred_cache[key] = gp_mod.GPModel(
            kernel=il.kernel, noise_var=il.noise_var, train_x=model.X,
            train_y=model.hidden_layers[0].latent.means, chol_cache=L_C,
            alpha=il.mu_bar, train_norms=norms)
    return gp_mod.predict(model._pred_cache[key], Xstar)


def _layer_pred_cache(model: DeepGPModel, t):
    key = ("layer", t)
    if key in model._pred_cache:
        return model._pred_cache[key]
    layer = model.hidden_layers[t]
    if t < model.n_latents - 1:
        out_means = model.hidden_layers[t + 1].latent.means
    else:
        out_means = model.Y
    _, cache = layer_bound(layer.kernel, layer.beta, layer.latent,
                           layer.inducing.inputs, out_means,
                           return_cache=True)
    V = layer.beta * cache.AinvM                     # (m, nu)
    Dmat = cache.Kuu_inv - cache.A_inv               # PSD: posterior shrinkage
    entry = {"V": V, "Dmat": Dmat, "Z": layer.inducing.inputs,
             "kernel": layer.kernel, "beta": layer.beta}
    model._pred_cache[key] = entry
    return entry


def propagate(model: DeepGPModel, layer_index: int, qh_prev_star,
              include_noise=True):
    """Push Gaussian moments through hidden layer ``layer_index``.

    ``qh_prev_star`` is ``(means, variances)`` of the layer input at the
    test points (factorized per point and dimension).  Returns the
    factorized moments of the layer output, including the layer noise
    variance when ``include_noise`` is set.
    """
    means, variances = qh_prev_star
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    cache = _layer_pred_cache(model, layer_index)
    kern, V, Dmat = cache["kernel"], cache["V"], cache["Dmat"]
    _, phi1, T, _ = _phi_forward(kern, means, np.clip(variances, 1e-300, None),
                                 cache["Z"])
    n_star, m = phi1.shape
    Tf = T.reshape(n_star, m * m)
    mean = phi1 @ V                                             # (n*, nu)
    tr_term = Tf @ Dmat.ravel()                                 # <T_t, Dmat>
    quad = Tf @ (V[:, None, :] * V[None, :, :]).reshape(m * m, -1)  # V'T_t V
    proj = mean * mean
    var = kern.sigma_h_sq - tr_term[:, None] + quad - proj
    np.maximum(var, 0.0, out=var)
    if include_noise:
        var = var + 1.0 / cache["beta"]
    return mean, var


def predict(model: DeepGPModel, Xstar):
    """Predictive mean and variance of the outputs at new inputs.

    Chains the exact first-layer predictive with moment propagation through
    every sparse layer; deterministic given the model (no sampling).
    """
    mean1, cov1 = predict_layer1(model, Xstar)
    q1 = mean1.shape[1]
    v1 = np.clip(np.diag(cov1), 0.0, None) + model.input_layer.noise_var
    moments = (mean1, np.repeat(v1[:, None], q1, axis=1))
    for t in range(model.n_latents):
        moments = propagate(model, t, moments)
    return moments
