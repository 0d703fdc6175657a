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
accepted, and hands the halves to an :class:`optimize.Objective`, so the
gradient at an accepted line-search trial reuses that trial's forward.
The parameter vector is laid out by one :class:`optimize.BlockSpec`
(``_layout``); :func:`pack_params` and :func:`unpack_params` are its pack and
unpack, and ``_deep_backward`` returns the gradient by block name.
:func:`model_arrays` names everything a model holds, those blocks among
them, and :func:`model_from_arrays` rebuilds the model from that.

Training is two-phase: a greedy stack of GP-LVMs initializes every layer,
then the joint bound (first-layer KL + collapsed layer terms + entropies)
is refined by L-BFGS ascent (:func:`optimize.ascend`), the one objective
that fits every parameter.  The input layer starts in closed form from the greedy first
latent's means M: signal variance v = var(M) (1 when that is 0), the
median-heuristic inverse scales, noise variance v / 100 and mu_bar = C^-1 M,
the exact-GP mean weights.
Prediction reads the model's own factors (:func:`prediction_factors`) and
propagates Gaussian moments layer to layer by test-point kernel expectations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.blas import daxpy, dsyr2k, dsyrk, dtrmm
from scipy.linalg.lapack import dpotrf, dtrtri, dtrtrs, dlauum, dtrttf, dtfttr

from .kernels import (ARDParams, RBFParams, gram, predictive_grams,
                      cross_gram, chol_psd, downdate, pairwise_sqdist,
                      DimensionMismatchError, _mirror_lower)
from .gplvm import (LOG_2PI, LayerState, VariationalLatent, InducingSet,
                    layer_bound, layer_bound_grads, train_gplvm, _phi_forward,
                    _pairs, _pair_weights, _check_shape)
from .optimize import BlockSpec, Objective, ascend, _NUMERICAL_FAILURES

__all__ = [
    "InputLayer",
    "DeepGPModel",
    "train_deep",
    "elbo",
    "elbo_grad_vector",
    "pack_params",
    "unpack_params",
    "predict_layer1",
    "prediction_factors",
    "model_arrays",
    "check_model_array_names",
    "model_from_arrays",
    "propagate",
    "predict",
]


@dataclass
class InputLayer:
    """Exact-GP mapping from observed inputs to the first latent."""

    kernel: ARDParams    # w = 2b, packed as log b (see _layout)
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

    ``_pred_cache`` is the named prediction factors
    (:func:`prediction_factors`), empty or complete, never partly built.
    A model built in memory builds them all on first use; one built by
    :func:`model_from_arrays` (as :func:`io.load_model` builds it) holds
    them all, so it rebuilds none.
    They are never invalidated: a caller who changes a parameter
    afterwards must clear the cache.
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


# column block of the dsyrk operands: bounds the backward's per-column
# temporaries to n x _BLOCK values
_BLOCK = 64


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


def _hyper_grads(X, K, G, kernel: ARDParams, noise_var):
    """dL/dlog sigma_h_sq, dL/dlog w and dL/dlog noise_var from G = dL/dC,
    by :func:`_layout`'s block names, for :func:`_first_latent_grads`.

    C = K + noise_var * I with K = gram(X, X, kernel); dL/dlog w equals
    dL/dlog b for w = 2b.  With P = G o K it needs, per input dimension k,
    the quadratic form x_k^T P x_k, whose n^2 kappa work is one GEMM, P X,
    and a column-wise dot product with X.  At n = 700, kappa = 4096 on one
    BLAS thread that takes 77-85 ms against 111-139 ms for the same
    contraction as one three-operand ``einsum``.
    """
    P = G * K
    g_log_sigma = float(np.sum(P))
    row = P.sum(axis=1)
    col = P.sum(axis=0)
    quad = np.einsum("ij,ij->j", X, P @ X)
    sq = X * X
    g_log_w = -0.5 * kernel.weights * (sq.T @ row + sq.T @ col - 2.0 * quad)
    return {"tau0_sq": g_log_sigma, "b": g_log_w,
            "noise_var": noise_var * float(np.trace(G))}


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
    return {**_hyper_grads(X, Kx, G_C, il.kernel, il.noise_var),
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
    try:
        M1, diag_S1, kl1, packed = _first_latent_forward(
            model.input_layer, X, need_full=pack)
    except _NUMERICAL_FAILURES as exc:
        raise type(exc)(f"input layer: {exc}") from exc
    first = VariationalLatent(means=M1, variances=diag_S1)

    value = -kl1
    caches = []
    for t, layer in enumerate(model.hidden_layers):
        if t < G - 1:
            nxt = model.hidden_layers[t + 1].latent
            out_means, out_vars = nxt.means, nxt.variances
        else:
            out_means, out_vars = Y, None
        try:
            v, cache = layer_bound(layer.kernel, layer.beta,
                                   first if t == 0 else layer.latent,
                                   layer.inducing.inputs, out_means, out_vars)
        except _NUMERICAL_FAILURES as exc:
            raise type(exc)(f"layer {t + 1}: {exc}") from exc
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
    state is consumed: each layer cache (with its (n, P) T array) is
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

    The blocks are the logs of the input layer's tau0_sq, b (w = 2b) and
    noise_var, its mu_bar and log lam, then per sparse layer t its inducing
    inputs and the logs of sigma_h_sq, the weights and beta, then the means
    and log variances of each free latent t = 1..G-1.
    """
    il = model.input_layer
    entries = [("tau0_sq", il.kernel.sigma_h_sq, True),
               ("b", 0.5 * il.kernel.weights, True),
               ("noise_var", il.noise_var, True),
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


def _from_values(values, dims, training_meta) -> DeepGPModel:
    """The model holding ``values``: :func:`_layout`'s blocks plus ``X``,
    ``Y`` and layer 0's stored latent ``means0``, ``variances0``."""
    il = InputLayer(kernel=RBFParams(tau0_sq=float(values["tau0_sq"]),
                                     lengthscale_inv=values["b"]),
                    noise_var=float(values["noise_var"]),
                    mu_bar=values["mu_bar"], lam=values["lam"])
    layers = [LayerState(
        kernel=ARDParams(sigma_h_sq=float(values[f"sigma_h_sq{t}"]),
                         weights=values[f"weights{t}"]),
        beta=float(values[f"beta{t}"]),
        latent=VariationalLatent(means=values[f"means{t}"],
                                 variances=values[f"variances{t}"]),
        inducing=InducingSet(inputs=values[f"Hu{t}"]))
        for t in range(len(dims))]
    return DeepGPModel(X=values["X"], Y=values["Y"], input_layer=il,
                       hidden_layers=layers, dims=list(dims),
                       training_meta=training_meta)


def _with_values(model: DeepGPModel, values) -> DeepGPModel:
    """A new model holding ``values`` (from :func:`_layout`)."""
    first = model.hidden_layers[0].latent
    return _from_values(dict(values, X=model.X, Y=model.Y, means0=first.means,
                             variances0=first.variances),
                        model.dims, model.training_meta)


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

def _median_heuristic(X, max_points=200):
    """Per-dimension inverse scales from the overall median squared distance."""
    n = X.shape[0]
    sub = X[:: max(1, n // max_points)]
    sq = pairwise_sqdist(sub, sub, np.ones(X.shape[1]))
    med = float(np.median(sq[np.triu_indices_from(sq, k=1)]))
    if med <= 0:
        med = 1.0
    return np.full(X.shape[1], 1.0 / med)


# a greedy fit or the joint phase that leaves a layer's sigma_h_sq or its
# largest ARD weight below this fraction of its start has degenerated
DEGENERATE = 1e-6


def _check_alive(t, layer, start, phase):
    """Raise FloatingPointError naming sparse layer t (counted from 1 in the
    message) when its sigma_h_sq or largest ARD weight is below DEGENERATE
    times ``start``, the pair at the start of its greedy fit."""
    now = (layer.kernel.sigma_h_sq, float(np.max(layer.kernel.weights)))
    for name, value, first in zip(("sigma_h_sq", "largest ARD weight"), now,
                                  start):
        if not value >= DEGENERATE * first:
            raise FloatingPointError(
                f"layer {t + 1} degenerated in the {phase}: its {name} fell "
                f"from {first:.4g} to {value:.4g}, below {DEGENERATE:g} of "
                "its start")


def train_deep(X, Y, dims, m_inducing, *, iters, init_iters,
               seed=0) -> DeepGPModel:
    """Train a deep GP by greedy GP-LVM stacking plus joint refinement.

    Parameters
    ----------
    dims : latent dimensions q_1..q_G (outermost first).
    m_inducing : inducing counts, one per sparse layer.
    iters : budget of accepted steps of the joint phase.
    init_iters : budget of accepted steps for each greedy GP-LVM fit.
    Both budgets are required: the ``train`` command owns their defaults.

    X needs at least two rows, and Y a nonzero variance (the first greedy
    fit checks it).  Every layer's latent dimension and inducing
    count are checked before the first fit, and a ValueError names the
    layer whose shape cannot be fitted.  The model's
    ``training_meta["optimizer"]`` lists every ascent in the order it ran,
    each greedy fit's warm and full phases (``"greedy warm"``,
    ``"greedy full"``, with its ``layer``) and then the ``"joint"`` phase,
    with its budget, accepted steps, value evaluations, gradient
    evaluations, last failure and why it stopped
    (:meth:`optimize.Objective.record`).  Raises FloatingPointError,
    naming the layer, when a greedy fit or the joint phase leaves a layer's
    sigma_h_sq or largest ARD weight below DEGENERATE of its greedy start,
    when a greedy fit's bound is not finite at the start of a phase, and
    when the joint bound is not finite at its start.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[0] != Y.shape[0]:
        raise DimensionMismatchError("training rows", X.shape[0], Y.shape[0])
    if X.shape[0] < 2:
        raise ValueError("need at least two training points")
    dims = [int(d) for d in dims]
    m_inducing = [int(m) for m in m_inducing]
    G = len(dims)
    if G < 1:
        raise ValueError("need at least one latent layer")
    if len(m_inducing) != G:
        raise ValueError("m_inducing must have one entry per layer")
    # every layer's shape before the first greedy fit: layer t maps its
    # latents to the next layer's, or to Y
    for t in range(G):
        q_out = dims[t + 1] if t + 1 < G else Y.shape[1]
        try:
            _check_shape(X.shape[0], q_out, dims[t], m_inducing[t])
        except ValueError as exc:
            raise ValueError(f"layer {t + 1}: {exc}") from None

    # greedy stack: GP-LVM on Y gives the last latent, then work backwards;
    # each layer keeps its GP-LVM latent as its input latent.  train_gplvm
    # starts sigma_h_sq at var(data) and every ARD weight at 1
    layers, starts, runs = [None] * G, [None] * G, []
    data = Y
    for t in range(G - 1, -1, -1):
        fit = []
        try:
            layers[t], _ = train_gplvm(data, dims[t], m_inducing[t],
                                       iters=init_iters, seed=seed + 101 * t,
                                       record=fit)
        except FloatingPointError as exc:
            raise FloatingPointError(f"layer {t + 1}: {exc}") from None
        runs += [dict(r, phase=f"greedy {r['phase']}", layer=t + 1)
                 for r in fit]
        starts[t] = (float(np.var(data)), 1.0)
        _check_alive(t, layers[t], starts[t], "greedy fit")
        data = layers[t].latent.means

    # input layer: the exact GP of X -> first latent means M at a closed-form
    # start, fitted by the joint phase alone; its mean is C mu_bar, so mu_bar
    # is the exact-GP mean weights C^-1 M
    first = layers[0].latent
    m_var = float(np.var(first.means)) or 1.0
    input_layer = InputLayer(
        kernel=RBFParams(tau0_sq=m_var, lengthscale_inv=_median_heuristic(X)),
        noise_var=0.01 * m_var, mu_bar=None,
        lam=1.0 / np.clip(first.variances, 1e-12, None))
    C = _input_cov(input_layer, X)[0]
    input_layer.mu_bar = cho_solve((chol_psd(C)[0], True), first.means)

    model = DeepGPModel(X=X, Y=Y, input_layer=input_layer, hidden_layers=layers,
                        dims=dims, training_meta={"seed": int(seed),
                                                  "iters": int(iters),
                                                  "init_iters": int(init_iters)})
    spec, values = _layout(model)

    def forward(x):
        return _deep_forward(_with_values(model, spec.unpack(x)))

    def backward(state):
        return spec.flatten(_deep_backward(state))

    x0 = spec.pack(values)
    objective = Objective(forward, backward)
    try:
        x, trace = ascend(objective, x0, iters)
    except FloatingPointError:
        # every evaluation is guarded, so ascend raises only for a bound
        # that is not finite at x0: the objective kept the failure there, or
        # else the forward's own value was not finite
        reason = objective.failure or f"its value is {objective.value}"
        raise FloatingPointError("the joint bound is not finite at its "
                                 f"start: {reason}") from None
    runs.append(objective.record(iters, trace, phase="joint"))
    trained = _with_values(model, spec.unpack(x))
    for t, layer in enumerate(trained.hidden_layers):
        _check_alive(t, layer, starts[t], "joint phase")
    M1, diag_S1, _, _ = _first_latent_forward(trained.input_layer, X)
    trained.hidden_layers[0].latent = VariationalLatent(means=M1,
                                                        variances=diag_S1)
    trained.training_meta.update({
        "elbo_trace": trace,
        "final_elbo": float(trace[-1]),
        "optimizer": runs,
    })
    return trained


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def _layer_factors(model: DeepGPModel, t):
    """Sparse layer t's named factors V and B from one layer bound."""
    layer = model.hidden_layers[t]
    # the means that the layer maps to: the next latent's, or Y
    outputs = (model.hidden_layers[t + 1].latent.means
               if t < model.n_latents - 1 else model.Y)
    _, cache = layer_bound(layer.kernel, layer.beta, layer.latent,
                           layer.inducing.inputs, outputs)
    V = layer.beta * cache.AinvM                     # (m, nu)
    # the posterior shrinkage Kuu^-1 - A^-1 = Lk^-T (I - Aw^-1) Lk^-1 is B B^T
    # with B = Lk^-T Q diag(1 - 1/a)^1/2 for Aw = Q diag(a) Q^T.  Clipping
    # 1 - 1/a at 0 keeps B B^T PSD to rounding; the difference of the two
    # inverses is indefinite once Phi2's roundoff meets an ill-conditioned Kuu
    a, Q = np.linalg.eigh(cache.Aw)
    B = _lapack_checked(dtrtrs, cache.L_K,
                        Q * np.sqrt(np.clip(1.0 - 1.0 / a, 0.0, None)),
                        lower=1, trans=1)
    return {f"layer{t}_V": V, f"layer{t}_B": B}


def prediction_factors(model: DeepGPModel) -> dict:
    """The arrays :func:`predict` and :func:`predict_layer1` read besides
    the parameters, by name: the first latent's lower Cholesky factor of C
    (``input_chol``, n x n) and its training rows' weighted norms
    (``input_norms``, 1 x n), then per sparse layer t the mean weights
    ``layer{t}_V`` (m x nu) and ``layer{t}_B`` (m x m), the factor of the
    posterior shrinkage: Kuu^-1 - A^-1 = B B^T.

    They are ``model._pred_cache`` itself, empty or complete: a non-empty
    cache is returned as it is, and a build stores its factors only once
    all are built, so one that raises leaves the cache empty.  They depend
    on the parameters alone, so :func:`model_arrays` names them beside
    the parameters, :func:`model_from_arrays` installs them, and a caller
    who changes a parameter must clear the cache."""
    if model._pred_cache:
        return model._pred_cache
    C, norms = _input_cov(model.input_layer, model.X)
    factors = {"input_chol": chol_psd(C)[0], "input_norms": norms[None, :]}
    for t in range(model.n_latents):
        factors.update(_layer_factors(model, t))
    model._pred_cache.update(factors)
    return model._pred_cache


def check_model_array_names(names, dims):
    """``(params, factors)``, each ``{name: shape}``: the table of
    :func:`model_arrays` for latent dims ``dims``, once ``names`` are
    exactly its names; empty ``dims``, a missing or an unknown name is a
    ValueError naming it.  A str axis is a size fixed by the first array
    that has it: n and kappa by X, nu by Y and m{t}, sparse layer t's
    inducing count, by ``Hu{t}``.  A loader calls it before it reads any
    array."""
    if not dims:
        raise ValueError("a model needs at least one latent dimension")
    q1 = dims[0]
    params = {"X": ("n", "kappa"), "Y": ("n", "nu"), "tau0_sq": (),
              "b": ("kappa",), "noise_var": (), "mu_bar": ("n", q1),
              "lam": ("n", q1)}
    factors = {"input_chol": ("n", "n"), "input_norms": (1, "n")}
    for t, (q, q_out) in enumerate(zip(dims, list(dims[1:]) + ["nu"])):
        m = f"m{t}"
        params.update({f"Hu{t}": (m, q), f"sigma_h_sq{t}": (),
                       f"weights{t}": (q,), f"beta{t}": (),
                       f"means{t}": ("n", q), f"variances{t}": ("n", q)})
        factors.update({f"layer{t}_V": (m, q_out), f"layer{t}_B": (m, m)})
    shapes = params.keys() | factors.keys()
    for name in sorted(shapes ^ set(names)):
        raise ValueError(f"model array {name!r} is missing" if name in shapes
                         else f"unknown model array {name!r}")
    return params, factors


def model_arrays(model: DeepGPModel) -> dict:
    """Everything the model holds, by name: X and Y, :func:`_layout`'s
    blocks (a scalar as a 0-d value), layer 0's stored latent (``means0``,
    ``variances0``) and the :func:`prediction_factors`, built here if the
    cache is empty.  :func:`model_from_arrays` rebuilds the model."""
    first = model.hidden_layers[0].latent
    return {"X": model.X, "Y": model.Y, **_layout(model)[1],
            "means0": first.means, "variances0": first.variances,
            **prediction_factors(model)}


def model_from_arrays(arrays, dims, training_meta=None) -> DeepGPModel:
    """The model whose :func:`model_arrays` are ``arrays``.  Its prediction
    factors are installed, so it predicts bit-identically to the model they
    came from and rebuilds none.  Every name, then every shape, is checked
    against :func:`check_model_array_names`' table: a missing, unknown or
    wrong-shaped array is a ValueError naming it.  A 1-D block may arrive
    as one row."""
    params, factors = check_model_array_names(arrays, dims)
    shapes = {**params, **factors}
    sizes, values = {}, {}
    for name, want in shapes.items():
        arr, got = arrays[name], np.shape(arrays[name])
        if len(want) == 1 and len(got) == 2 and got[0] == 1:
            arr, got = arr[0], got[1:]
        if len(got) == len(want):
            for axis, size in zip(want, got):
                if isinstance(axis, str):
                    sizes.setdefault(axis, size)
        expected = tuple(sizes.get(a, a) for a in want)
        if got != expected:
            raise ValueError(f"model array {name!r} has shape "
                             f"{np.shape(arrays[name])}, expected {expected}")
        values[name] = arr
    model = _from_values(values, dims, training_meta or {})
    # input_chol in Fortran order, like chol_psd's factor, so that
    # solve_triangular makes the same trtrs call on it
    model._pred_cache.update(
        {name: values[name] for name in factors},
        input_chol=np.asfortranarray(values["input_chol"]))
    return model


def _test_inputs(model: DeepGPModel, Xstar):
    """Xstar as a float array of at least two dimensions, its columns (last
    axis) checked before the prediction factors are built, and the
    factors."""
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    if Xstar.shape[-1] != model.X.shape[1]:
        raise DimensionMismatchError("predict columns", model.X.shape[1],
                                     Xstar.shape[-1])
    return Xstar, prediction_factors(model)


def predict_layer1(model: DeepGPModel, Xstar):
    """Exact-GP predictive mean and joint covariance of the first latent at
    a stack of s sets of new inputs, (s, n*, kappa): means (s, n*, q1) and
    covariances (s, n*, n*), each set's joint on its own and shared by its
    q1 columns, what a joint draw (:func:`uq.uq_report`) needs.  The
    covariance is noise-free, k** - K*^T C^-1 K*: :func:`predict` adds the
    input layer's noise_var to its marginal variances and never forms this
    covariance.  Neither is the variational predictive of the q(h1) that
    the joint bound trains, which adds K*^T C^-1 S_j C^-1 K* per column.

    The stack forms one cross-Gram and one triangular solve over all s n*
    rows, so the n training rows are read once for the stack, and each
    set's mean product, test self-Gram and downdate on its own rows.  Each
    set's result comes from the operations of a stack of that set alone;
    the longer BLAS products may round it differently only where the kernel
    tiles them by the row count (see :mod:`dgpuq.uq`).
    """
    if np.ndim(Xstar) != 3:
        raise ValueError(f"test inputs have shape {np.shape(Xstar)}: expected"
                         " a stack (s, n*, kappa)")
    Xstar, factors = _test_inputs(model, Xstar)
    Ks, Kss = predictive_grams(model.X, factors["input_norms"].ravel(), Xstar,
                               model.input_layer.kernel)
    # v = L^-1 Ks and mean Ks^T mu_bar (Rasmussen & Williams 2006,
    # Algorithm 2.1).  The mean is a product per set: a stacked product
    # only q1 columns wide rounds by its row count on OpenBLAS's AVX-512
    # kernels, and per set it costs n q1 flops a row, against n kappa
    v = solve_triangular(factors["input_chol"], Ks, lower=True)
    n_star, means = Xstar.shape[1], []
    for k, K in enumerate(Kss):
        cols = slice(k * n_star, (k + 1) * n_star)
        means.append(Ks[:, cols].T @ model.input_layer.mu_bar)
        downdate(K, v[:, cols].T)          # in K's memory
    return np.stack(means), Kss


def propagate(model: DeepGPModel, layer_index: int, qh_prev_star):
    """Push Gaussian moments through hidden layer ``layer_index``.

    ``qh_prev_star`` is ``(means, variances)`` of the layer input at the
    test points (factorized per point and dimension).  Returns the
    factorized moments of the layer output, the variance including the
    layer noise 1/beta: the marginal of each point, never a covariance
    across points.  The quadratic terms contract the (n*, P) pair form of
    the Phi2 terms with the pair weights of B B^T, the posterior shrinkage
    that a joint draw reads too, and of V V^T per column.
    """
    means, variances = qh_prev_star
    means = np.atleast_2d(np.asarray(means, dtype=float))
    variances = np.atleast_2d(np.asarray(variances, dtype=float))
    factors = prediction_factors(model)
    layer = model.hidden_layers[layer_index]
    kern, at = layer.kernel, f"layer{layer_index}_"
    V, B = factors[at + "V"], factors[at + "B"]
    _, phi1, T, _ = _phi_forward(kern, means, np.clip(variances, 1e-300, None),
                                 layer.inducing.inputs)
    m = phi1.shape[1]
    # the pair form of V V^T per output column: 2 V_k V_l off the diagonal
    kk, ll = _pairs(m)
    VV = V[kk]
    VV *= V[ll]
    VV[m:] *= 2.0
    mean = phi1 @ V                                             # (n*, nu)
    tr_term = T @ _pair_weights(B @ B.T)                        # <T_t, B B^T>
    quad = T @ VV                                               # V'T_t V
    proj = mean * mean
    var = kern.sigma_h_sq - tr_term[:, None] + quad - proj
    np.maximum(var, 0.0, out=var)
    return mean, var + 1.0 / layer.beta


def predict(model: DeepGPModel, Xstar):
    """Predictive mean and marginal variance of the outputs at new inputs.

    Chains the exact first-layer predictive with moment propagation through
    every sparse layer; deterministic given the model (no sampling).  The
    moments are factorized per point and dimension, so the first layer
    gives only its marginal variances: the diagonal of
    :func:`predict_layer1`'s joint covariance, to rounding, plus the input
    layer's noise_var.  Each layer's variance includes its noise (noise_var
    for the first latent, 1/beta for each sparse layer); the draws of
    :func:`uq.uq_report` are noise-free.
    """
    Xstar, factors = _test_inputs(model, Xstar)
    il = model.input_layer
    Ks = cross_gram(model.X, factors["input_norms"].ravel(), Xstar, il.kernel)
    mean1 = Ks.T @ il.mu_bar
    v = solve_triangular(factors["input_chol"], Ks, lower=True)
    var1 = il.kernel.sigma_h_sq - np.einsum("ij,ij->j", v, v)
    q1 = mean1.shape[1]
    v1 = np.clip(var1, 0.0, None) + il.noise_var
    moments = (mean1, np.repeat(v1[:, None], q1, axis=1))
    for t in range(model.n_latents):
        moments = propagate(model, t, moments)
    return moments
