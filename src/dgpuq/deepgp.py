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
its triangular inverse; C^-1 is never formed.  The inverse is recursive
and blocked (``_tri_inv_lower``): two half-size inverses and two ``dtrmm``
products, with ``dtrtri`` only on leaves of at most 128 rows, so most of
its n^3/3 flops run at matrix-product speed: 4.5 ms against 8.5 ms for
``dtrtri`` at n = 700 on one thread.  The gradient keeps those
inverses, and C, in rectangular full packed storage (n(n+1)/2 values per
triangle: 59 MB at n = 700, q1 = 30 instead of 118 MB) and unpacks one
column at a time; its per-column backward is n^3 flops, two ``dsyrk``
updates split by the sign of the diagonal weight.

The joint bound is split into a forward and a backward half.
``_deep_forward`` evaluates it, reading the first latent's moments from
:func:`_first_latent_forward` and writing nothing to the model, and keeps
one layer cache per sparse layer plus, when asked to pack, the packed
first-latent factors;
``_deep_backward`` consumes that state, dropping each layer cache once its
gradient is taken.  :func:`elbo` is the forward without packing, which only
a value needs, and :func:`elbo_grad_vector` the forward with packing
followed by the backward.
:func:`train_deep` packs at every trial point, since any trial may be
accepted, and hands the halves to :func:`optimize.cached_objective`, so the
gradient at an accepted line-search trial reuses that trial's forward.
The parameter vector is laid out by one :class:`optimize.BlockSpec`
(``_layout``); :func:`pack_params` and :func:`unpack_params` are its pack and
unpack, and ``_deep_backward`` returns the gradient by block name.

Training is two-phase: a greedy stack of GP-LVMs initializes every layer,
then the joint bound (first-layer KL + collapsed layer terms + entropies)
is refined by gradient ascent.  Prediction propagates Gaussian moments
layer to layer using the test-point kernel expectations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import daxpy, dsyr2k, dsyrk, dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri, dlauum, dtrttf, dtfttr

from .gp import LOG_2PI
from .kernels import ARDParams, gram, chol_psd, DimensionMismatchError
from .gplvm import (LayerState, VariationalLatent, InducingSet, layer_bound,
                    layer_bound_grads, train_gplvm, _phi_forward)
from .optimize import BlockSpec, ascend, cached_objective
from . import gp as gp_mod

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


@dataclass
class InputLayer:
    """Exact-GP mapping from observed inputs to the first latent."""

    kernel: ARDParams    # w = 2b, packed as log b (see gp._theta)
    noise_var: float
    mu_bar: np.ndarray   # (n, q1)
    lam: np.ndarray      # (n, q1), positive


@dataclass
class DeepGPModel:
    """Trained deep GP: input layer plus an ordered stack of sparse layers.

    ``hidden_layers[t]`` maps latent t+1 to latent t+2 (the last one maps
    to the observed outputs); its ``latent`` field holds q of its input.
    The joint bound computes layer 0's input latent from the input layer
    and ignores the stored one; :func:`train_deep` stores those moments in
    the model it returns, and :func:`predict` reads them.

    ``_pred_cache`` holds the prediction caches, filled lazily on first use
    and never invalidated: a caller who assigns a field afterwards must
    clear it.
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
    """``(C, norms)``: C = Kx + noise_var * I, formed in place on the input
    Gram, and the weighted row norms of X from the pass that formed Kx."""
    C, norms = gram(X, X, input_layer.kernel, return_norms=True)
    C[np.diag_indices_from(C)] += input_layer.noise_var
    return C, norms


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


# largest block that _tri_inv_lower hands to dtrtri.  At n = 700 on one
# OpenBLAS thread (2-core x86-64 host) the recursion takes a median 4.5 ms
# with any leaf from 64 to 160, dtrtri alone 8.5 ms; dpotrf takes 6.1 ms and
# dlauum, with the same n^3/3 flops as dtrtri, 3.0 ms
_TRI_LEAF = 128


def _tri_inv_lower(L):
    """Overwrite the lower-triangular factor L with L^-1; return L.

    Recursive blocked inverse (Elmroth, Gustavson, Jonsson & Kagstrom,
    SIAM Review 46(1), 2004).  With L = [[L11, 0], [L21, L22]],

        L^-1 = [[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]]:

    both diagonal blocks are inverted in place by recursion, then the
    off-diagonal block by two ``dtrmm`` products.  Blocks of at most
    ``_TRI_LEAF`` rows go to ``dtrtri``.  Nothing writes above the
    diagonal, so a zero strict upper triangle stays exactly zero.
    """
    n = L.shape[0]
    if n <= _TRI_LEAF:
        # a sub-block view is not contiguous: dtrtri inverts a copy
        out = _lapack_checked(dtrtri, L, lower=1, overwrite_c=1)
        if out is not L:
            L[...] = out
        return L
    k = n // 2
    L11, L21, L22 = L[:k, :k], L[k:, :k], L[k:, k:]
    _tri_inv_lower(L11)
    _tri_inv_lower(L22)
    P = dtrmm(-1.0, L11, L21, side=1, lower=1)     # -L21 L11^-1
    L21[...] = dtrmm(1.0, L22, P, lower=1, overwrite_b=1)
    return L


def _first_latent_forward(input_layer: InputLayer, X, need_full=False):
    """Moments of the first latent and the per-column KL to its prior.

    C = Kx + noise_var * I is the input-layer prior covariance.  Column j
    factors B_j = I + W C W = L L^T (W = diag(sqrt(lam_j))) and inverts the
    factor by :func:`_tri_inv_lower`; H_j = B_j^-1 = L^-T L^-1, so diag H_j
    is the column sums of squares of L^-1 and diag S_j = (1 - diag H_j) /
    lam_j.  That difference loses digits only where lam_i * C_ii is tiny
    (h_ii near 1); the former form C_ii - ||(L^-1 W C)_i||^2 lost them where
    lam * C is large.  The 1e-300 floor keeps log S finite either way.  One
    n x n buffer holds B, L and L^-1 in turn for every column; ``dpotrf``
    zeroes its strict upper triangle and the inverse keeps it zero, so the
    column sums read L^-1 alone.

    Returns (M1, diag_S, kl, packed).  With ``need_full``, packed is the
    backward's cache (C, [L^-1 per column]), each triangle in LAPACK's
    rectangular full packed format (``dtrttf``, lower): n(n+1)/2 values, so
    the factors take 59 MB at n = 700, q1 = 30, half of full storage.  The
    round trip through ``dtfttr`` is exact.  Otherwise packed is None.
    """
    n, q1 = input_layer.mu_bar.shape
    C = _input_cov(input_layer, X)[0]
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
        L_inv = _tri_inv_lower(L)
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
    return {"tau0_sq": g_log_tau, "b": g_log_b, "noise_var": g_log_noise,
            "mu_bar": d_mu_bar, "lam": d_log_lam}


def elbo(model: DeepGPModel) -> float:
    """Joint variational lower bound of the deep model."""
    return _deep_forward(model, pack=False)[0]


def _deep_forward(model: DeepGPModel, pack=True):
    """Joint bound and the state its gradient reads: the forward half.

    Layer 0's input latent is the first latent's moments, built here;
    ``model`` is left unchanged.  Returns
    ``(value, (model, caches, packed))`` with one layer cache per
    sparse layer.  ``packed`` holds the first latent's packed factors when
    ``pack`` is set, which :func:`_deep_backward` needs, and is None
    otherwise.
    """
    X, Y = model.X, model.Y
    G = model.n_latents
    M1, diag_S1, kl1, packed = _first_latent_forward(
        model.input_layer, X, need_full=pack)
    first = VariationalLatent(means=M1, variances=diag_S1)

    value = -kl1
    caches = []
    for t, layer in enumerate(model.hidden_layers):
        if t < G - 1:
            nxt = model.hidden_layers[t + 1].latent
            out_means, out_vars = nxt.means, nxt.variances
        else:
            out_means, out_vars = Y, None
        v, cache = layer_bound(layer.kernel, layer.beta,
                               first if t == 0 else layer.latent,
                               layer.inducing.inputs, out_means, out_vars)
        value += v
        caches.append(cache)
    for t in range(1, G):
        S = model.hidden_layers[t].latent.variances
        value += 0.5 * float(np.sum(np.log(S))) + 0.5 * S.size * (1.0 + LOG_2PI)
    return value, (model, caches, packed)


def _deep_backward(state):
    """Gradient of the joint bound from :func:`_deep_forward`'s state.

    Returns ``{block name: gradient}`` in :func:`_layout`'s stored
    coordinates; the state must come from a forward with ``pack`` set.  The
    state is consumed: each layer cache (with its (n, m, m) T array) is
    dropped as soon as its gradient is taken, so at most one is alive, and
    all are gone before the packed first-latent factors are unpacked.
    """
    model, caches, packed = state
    G = model.n_latents
    grads = []
    for t in range(G):
        grads.append(layer_bound_grads(caches[t]))
        caches[t] = None

    out = {}
    for t, layer in enumerate(model.hidden_layers):
        g = grads[t]
        out[f"Hu{t}"] = g["Hu"]
        out[f"sigma_h_sq{t}"] = g["sigma_h_sq"] * layer.kernel.sigma_h_sq
        out[f"weights{t}"] = g["weights"] * layer.kernel.weights
        out[f"beta{t}"] = g["beta"] * layer.beta
    # free hidden latents: input of layer t, output of layer t-1, plus entropy
    for t in range(1, G):
        S = model.hidden_layers[t].latent.variances
        out[f"means{t}"] = grads[t]["latent_means"] + grads[t - 1]["out_means"]
        d_vars = grads[t]["latent_vars"] + grads[t - 1]["out_vars"] + 0.5 / S
        out[f"variances{t}"] = d_vars * S

    # input layer: chain through M1 = C mu_bar, diag S_j and the first KL
    out.update(_first_latent_grads(model.input_layer, model.X, packed,
                                   grads[0]["latent_means"],
                                   grads[0]["latent_vars"]))
    return out


# ---------------------------------------------------------------------------
# Parameter vector (unconstrained optimization space)
# ---------------------------------------------------------------------------

def _layout(model: DeepGPModel):
    """``(spec, values)`` of the model's parameter vector.

    The blocks are the input layer's theta, mu_bar and log lam, then per
    sparse layer t its inducing inputs and the logs of sigma_h_sq, the
    weights and beta, then the means and log variances of each free latent
    t = 1..G-1.
    """
    il = model.input_layer
    theta = gp_mod._theta(il.kernel, il.noise_var)
    entries = [(k, v, True) for k, v in theta.items()] + [
        ("mu_bar", il.mu_bar, False), ("lam", il.lam, True)]
    for t, layer in enumerate(model.hidden_layers):
        entries += [(f"Hu{t}", layer.inducing.inputs, False),
                    (f"sigma_h_sq{t}", layer.kernel.sigma_h_sq, True),
                    (f"weights{t}", layer.kernel.weights, True),
                    (f"beta{t}", layer.beta, True)]
    for t in range(1, model.n_latents):
        lat = model.hidden_layers[t].latent
        entries += [(f"means{t}", lat.means, False),
                    (f"variances{t}", lat.variances, True)]
    return (BlockSpec([(name, np.shape(v), log) for name, v, log in entries]),
            {name: v for name, v, _ in entries})


def _with_values(model: DeepGPModel, values) -> DeepGPModel:
    """A new model holding ``values`` (from :func:`_layout`)."""
    kern, noise_var = gp_mod._from_theta(values)
    il = InputLayer(kernel=kern, noise_var=noise_var, mu_bar=values["mu_bar"],
                    lam=values["lam"])
    layers = [LayerState(
        kernel=ARDParams(sigma_h_sq=float(values[f"sigma_h_sq{t}"]),
                         weights=values[f"weights{t}"]),
        beta=float(values[f"beta{t}"]),
        latent=layer.latent if t == 0 else VariationalLatent(
            means=values[f"means{t}"], variances=values[f"variances{t}"]),
        inducing=InducingSet(inputs=values[f"Hu{t}"]))
        for t, layer in enumerate(model.hidden_layers)]
    return DeepGPModel(X=model.X, Y=model.Y, input_layer=il,
                       hidden_layers=layers, dims=list(model.dims),
                       training_meta=model.training_meta)


def pack_params(model: DeepGPModel) -> np.ndarray:
    """The model's parameter vector in :func:`_layout`'s blocks."""
    spec, values = _layout(model)
    return spec.pack(values)


def unpack_params(model: DeepGPModel, x) -> DeepGPModel:
    """Rebuild a model with parameters taken from the packed vector.

    Raises FloatingPointError when a log-parameter's ``exp`` overflows or
    gives 0.0, and ValueError when ``x`` has the wrong length.
    """
    return _with_values(model, _layout(model)[0].unpack(x))


def elbo_grad_vector(model: DeepGPModel) -> np.ndarray:
    """Gradient of :func:`elbo` in the packed parameterization."""
    return _layout(model)[0].flatten(_deep_backward(_deep_forward(model)[1]))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_deep(X, Y, dims, m_inducing, iters=100, seed=0,
               init_iters=150) -> DeepGPModel:
    """Train a deep GP by greedy GP-LVM stacking plus joint refinement.

    Parameters
    ----------
    dims : latent dimensions q_1..q_G (outermost first).
    m_inducing : inducing counts, one per sparse layer.
    iters : accepted steps of the joint phase.
    init_iters : accepted steps for each greedy GP-LVM fit.
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

    # greedy stack: GP-LVM on Y gives the last latent, then work backwards;
    # each layer keeps its GP-LVM latent as its input latent
    layers = [None] * G
    data = Y
    for t in range(G - 1, -1, -1):
        layers[t], _ = train_gplvm(data, dims[t], m_inducing[t],
                                   iters=init_iters, seed=seed + 101 * t)
        data = layers[t].latent.means

    # input layer: exact-GP fit of X -> first latent means; the mean is
    # C mu_bar, so mu_bar is the fit's mean weights C^-1 M1
    first = layers[0].latent
    gpm = gp_mod.fit(X, first.means, iters=min(init_iters, 60))
    input_layer = InputLayer(kernel=gpm.kernel, noise_var=gpm.noise_var,
                             mu_bar=gpm.alpha,
                             lam=1.0 / np.clip(first.variances, 1e-12, None))

    model = DeepGPModel(X=X, Y=Y, input_layer=input_layer, hidden_layers=layers,
                        dims=dims, training_meta={"seed": int(seed),
                                                  "iters": int(iters),
                                                  "init_iters": int(init_iters)})
    spec, values = _layout(model)

    def forward(x):
        return _deep_forward(_with_values(model, spec.unpack(x)))

    def backward(state):
        return spec.flatten(_deep_backward(state))

    x, trace = ascend(cached_objective(forward, backward),
                      spec.pack(values), iters)
    trained = _with_values(model, spec.unpack(x))
    M1, diag_S1, _, _ = _first_latent_forward(trained.input_layer, X)
    trained.hidden_layers[0].latent = VariationalLatent(means=M1,
                                                        variances=diag_S1)
    trained.training_meta.update({
        "elbo_trace": trace,
        "final_elbo": float(trace[-1]),
    })
    return trained


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
        C, norms = _input_cov(il, model.X)
        L_C, _ = chol_psd(C)
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
                           layer.inducing.inputs, out_means)
    V = layer.beta * cache.AinvM                     # (m, nu)
    Dmat = cache.Kuu_inv - cache.A_inv               # PSD: posterior shrinkage
    entry = {"V": V, "Dmat": Dmat, "Z": layer.inducing.inputs,
             "kernel": layer.kernel, "beta": layer.beta}
    model._pred_cache[key] = entry
    return entry


def propagate(model: DeepGPModel, layer_index: int, qh_prev_star):
    """Push Gaussian moments through hidden layer ``layer_index``.

    ``qh_prev_star`` is ``(means, variances)`` of the layer input at the
    test points (factorized per point and dimension).  Returns the
    factorized moments of the layer output, the variance including the
    layer noise 1/beta.
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
    return mean, var + 1.0 / cache["beta"]


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
