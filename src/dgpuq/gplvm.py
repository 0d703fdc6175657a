"""Bayesian GP-LVM layer engine.

One "layer" maps uncertain inputs ``h`` (a factorized Gaussian over rows)
through a sparse GP with inducing inputs to outputs that are either
observed data or, inside the deep model, another uncertain layer.  The
optimal Gaussian posterior over inducing outputs is collapsed analytically,
leaving a bound that depends on the kernel expectations

    phi0 = E[tr K_ff],   Phi1 = E[K_fu],   Phi2 = E[K_uf K_fu],

which have closed forms for the ARD kernel (``_phi_forward``).  Phi2 is
the sum over rows i of per-row terms T_i, each symmetric in the inducing
pair (k, l), so the forward forms, exponentiates and stores only the
P = m(m+1)/2 distinct pairs k <= l (``_pairs``): T is an (n, P) array, and
this one layout serves the bound's cache, the backward and the moment
propagation of :mod:`dgpuq.deepgp`.  A weight W on Phi2 meets T through its
pair form (``_pair_weights``): W_kk on a diagonal pair and W_kl + W_lk off
it.  Sums per inducing point unpack one m x m (or m x m x q) array per
layer, which is cheap next to the n x P work.
:func:`layer_bound` / :func:`layer_bound_grads` implement the collapsed
bound and its exact gradients with respect to every input; subtracting
:func:`latent_kl` specializes them to the stand-alone GP-LVM with a
standard-normal latent prior, and :func:`train_gplvm` optimizes that model.

The GP-LVM objective is split into a forward and a backward half.
``_elbo_forward`` evaluates the bound and returns the layer cache (the Phi
statistics and the K_uu and A factors); ``_elbo_backward``
turns that cache into the gradient blocks.  :func:`train_gplvm` hands them
to an :class:`optimize.Objective`, so the gradient at an accepted
line-search trial reuses that trial's forward.  Its parameter vector is
laid out by an :class:`optimize.BlockSpec` (``_spec``), in which the latent
variances are 1/(1 + lam) and lam is stored as its log.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .kernels import ARDParams, gram, DimensionMismatchError
from .optimize import BlockSpec, Objective, ascend
from .rng import rng_for

__all__ = [
    "VariationalLatent",
    "InducingSet",
    "LayerState",
    "layer_bound",
    "layer_bound_grads",
    "latent_kl",
    "train_gplvm",
    "effective_dims",
]

LOG_2PI = float(np.log(2.0 * np.pi))

# relative diagonal added to K_uu; scales with the signal variance so that
# gradients in log(sigma_h_sq) stay exact
KUU_JITTER = 1e-10

# jitter rises to cap the condition number at 1/RCOND_FLOOR: explicit
# inverses of worse-conditioned matrices would drown the analytic gradient
# cancellations in roundoff
RCOND_FLOOR = 1e-8

# a latent coordinate is retained when its ARD weight is at least this
# fraction of the largest (:func:`effective_dims`)
RETAIN_FRAC = 0.01


def _chol_conditioned(M, base_jitter):
    """Cholesky of ``M + jit*I`` with jit sized from the actual spectrum.

    The jitter lifts the smallest eigenvalue to about RCOND_FLOOR times the
    largest, using a soft minimum over the spectrum e so the rule stays
    differentiable when small eigenvalues cluster (the usual situation when
    an ARD weight switches a dimension off):

        jit = RCOND_FLOOR lam_max - soft_min,
        soft_min = -log(sum_i exp(-t e_i)) / t,  t = 10 / (RCOND_FLOOR lam_max).

    Returns ``(L, M + jit*I, djit_dM)``; the last entry is the derivative
    of the jitter w.r.t. the matrix when the spectral branch is active,
    else None.  With w the soft-min weights, d(soft_min)/de = w at fixed t,
    and the scale t moves with lam_max, which adds (w.e - soft_min) /
    lam_max to d(jit)/d(lam_max).  Chaining it keeps the analytic gradients
    consistent with the regularized objective.  Raises LinAlgError when
    ``M + jit*I`` is still not numerically positive definite.
    """
    evals, vecs = np.linalg.eigh(M)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    # log-sum-exp soft minimum, smoothing scale tied to the jitter magnitude
    t = 10.0 / max(RCOND_FLOOR * lam_max, 1e-300)
    expd = np.exp(-t * (evals - lam_min))
    log_sum = float(np.log(expd.sum()))
    soft_min = lam_min - log_sum / t
    spectral = RCOND_FLOOR * lam_max - soft_min
    jit = float(base_jitter)
    djit = None
    if spectral > jit:
        jit = spectral
        wts = expd / expd.sum()          # d(soft_min)/d(eigenvalues) at fixed t
        v_hi = vecs[:, -1]
        # w.e - soft_min, formed from the shifted eigenvalues to avoid
        # cancellation
        scale_term = (float(wts @ (evals - lam_min)) + log_sum / t) / lam_max
        djit = ((RCOND_FLOOR + scale_term) * np.outer(v_hi, v_hi)
                - (vecs * wts[None, :]) @ vecs.T)
    Mj = M + jit * np.eye(M.shape[0])
    return np.linalg.cholesky(Mj), Mj, djit


@dataclass
class VariationalLatent:
    """Factorized Gaussian over latent rows: N(means[i], diag(variances[i]))."""

    means: np.ndarray      # (n, q)
    variances: np.ndarray  # (n, q), strictly positive

    def __post_init__(self):
        self.means = np.atleast_2d(np.asarray(self.means, dtype=float))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=float))
        if self.means.shape != self.variances.shape:
            raise DimensionMismatchError("latent variances", self.means.shape,
                                         self.variances.shape)
        if not np.all(self.variances > 0):
            raise ValueError("latent variances must be strictly positive")

    @property
    def n(self):
        return self.means.shape[0]

    @property
    def q(self):
        return self.means.shape[1]


@dataclass
class InducingSet:
    """Inducing inputs of a sparse layer; q(U) is collapsed out of the bound."""

    inputs: np.ndarray                 # (m, q)

    def __post_init__(self):
        self.inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        if self.inputs.shape[0] < 1:
            raise ValueError("need at least one inducing point")


@dataclass
class LayerState:
    """All state of one sparse variational layer."""

    kernel: ARDParams
    beta: float                      # noise precision (1 / noise variance)
    latent: VariationalLatent
    inducing: InducingSet

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.kernel.dim != self.latent.q:
            raise DimensionMismatchError("kernel weights", self.latent.q,
                                         self.kernel.dim)
        if self.inducing.inputs.shape[1] != self.latent.q:
            raise DimensionMismatchError("inducing inputs", self.latent.q,
                                         self.inducing.inputs.shape[1])


# ---------------------------------------------------------------------------
# Phi statistics (closed forms for the ARD kernel) and their gradients
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _pairs(m):
    """Indices (k, l) of the m(m+1)/2 distinct inducing pairs: the m
    diagonal pairs (k, k) first, then every k < l in row-major order.
    Cached per m and read-only."""
    iu, ju = np.triu_indices(m, 1)
    diag = np.arange(m)
    kk, ll = np.concatenate([diag, iu]), np.concatenate([diag, ju])
    kk.flags.writeable = ll.flags.writeable = False
    return kk, ll


def _pair_weights(W):
    """The pair form of an m x m weight: W_kk on a diagonal pair and
    W_kl + W_lk on an off-diagonal one, so that ``T @ _pair_weights(W)`` is
    sum_kl W_kl T_kl for T symmetric in (k, l)."""
    m = W.shape[0]
    kk, ll = _pairs(m)
    w = W[kk, ll] + W[ll, kk]
    w[:m] *= 0.5                      # exact: halves W_kk + W_kk
    return w


def _unpack_pairs(v, m):
    """The array (m, m, ...) symmetric in its first two axes whose entries
    (k, l) and (l, k) are v[p] for the pair p = (k, l) of :func:`_pairs`."""
    kk, ll = _pairs(m)
    out = np.empty((m, m) + v.shape[1:])
    out[kk, ll] = v
    out[ll, kk] = v
    return out


def _pair_sums(M, Z):
    """``sum_l M[k,l] (z_k - z_l)`` (m, q) and ``sum_kl M[k,l] (z_k - z_l)^2``
    (q,) for an m x m weight M."""
    delta = Z[:, None, :] - Z[None, :, :]
    return (np.einsum("kl,klj->kj", M, delta),
            M.ravel() @ (delta * delta).reshape(M.size, -1))


def _phi_terms(kernel: ARDParams, means, variances, Z):
    """(mu, Zc, gam, a, rho, b, zbar, delta) for the Phi forward and backward:
    means and Z shifted by the mean of Z, gam = w*S + 1, a = w/gam,
    rho = 2*w*S + 1, b = w/rho, and the (P, q) pair designs
    zbar = (z_k + z_l)/2, delta = z_k - z_l of the centred Z over the pairs
    of :func:`_pairs`."""
    w = kernel.weights
    centre = Z.mean(axis=0)
    Zc = Z - centre
    kk, ll = _pairs(Z.shape[0])
    gam, rho = w * variances + 1.0, 2.0 * w * variances + 1.0
    return (means - centre, Zc, gam, w / gam, rho, w / rho,
            0.5 * (Zc[kk] + Zc[ll]), Zc[kk] - Zc[ll])


def _phi_forward(kernel: ARDParams, means, variances, Z):
    """Return (phi0, Phi1, T, Phi2) where T[:, p] is the per-point term of
    Phi2 at the inducing pair p of :func:`_pairs`.

    With the coefficients of :func:`_phi_terms`, the ARD closed forms are

        log Phi1[i,k] = log s2 + sum_j [-a (mu - z_k)^2 / 2 - log(gam) / 2]
        log T[i,kl]   = 2 log s2 + sum_j [-w delta_kl^2 / 4 - b (mu - zbar_kl)^2
                                          - log(rho) / 2]

    and expanding the squares turns each sum over j into matrix products:

        log Phi1 = (a*mu) @ Z^T - (a/2) @ (Z^2)^T + row1
        log T    = [2*b*mu, -b] @ [zbar, zbar^2]^T - (delta^2 @ w)^T / 4 + row2

    with row1, row2 the terms in mu^2, log s2 and the log-determinants.  Both
    depend on mu and Z only through differences, so both are first shifted
    by the mean of Z: the expanded squares then scale with the spread of
    the points, not with their distance from the origin, and do not cancel.
    T is symmetric in (k, l), so only the P = m(m+1)/2 distinct pairs are
    formed: T is (n, P), and Phi2 = sum_i T[i] unpacked, exactly symmetric.
    """
    n, m = means.shape[0], Z.shape[0]
    mu, Zc, gam, a, rho, b, zbar, delta = _phi_terms(kernel, means, variances, Z)
    log_s2 = np.log(kernel.sigma_h_sq)
    # a mean far out or a huge signal variance (a trial step) overflows
    # mu^2 or an exp: raise, so the line search rejects the trial, rather
    # than warn and carry inf along
    with np.errstate(over="raise"):
        quad1 = np.sum(a * mu * mu + np.log(gam), axis=1)
        quad2 = np.sum(b * mu * mu + 0.5 * np.log(rho), axis=1)
        log1 = (a * mu) @ Zc.T - (0.5 * a) @ (Zc * Zc).T
        log1 += (log_s2 - 0.5 * quad1)[:, None]
        log2 = np.hstack([2.0 * b * mu, -b]) @ np.hstack([zbar, zbar * zbar]).T
        log2 += (2.0 * log_s2 - quad2)[:, None]
        log2 -= 0.25 * ((delta * delta) @ kernel.weights)
        T = np.exp(log2, out=log2)
        phi1 = np.exp(log1, out=log1)
    return n * kernel.sigma_h_sq, phi1, T, _unpack_pairs(T.sum(axis=0), m)


def _phi_backward(kernel, means, variances, Z, phi1, T, W1, W2, w_phi0):
    """Accumulate gradients of w_phi0*phi0 + <W1, Phi1> + <W2, Phi2>.

    Returns raw-parameter gradients for latent means/variances, inducing
    inputs, sigma_h_sq and the ARD weights.  ``T`` is the (n, P) pair form
    of :func:`_phi_forward`; W2 is any m x m weight.

    The exponents of :func:`_phi_forward` are quadratic in (mu - z_k) and
    (mu - zbar_kl), so every reduction of P1 = W1*Phi1 (n, m) and of
    Q = w2*T (n, P), with w2 the pair weights of W2 (:func:`_pair_weights`),
    is a contraction against the same centred design matrices (p = 0, 1, 2):

        sum_k P1 (mu - z_k)^p        from  P1 @ [1, Z, Z^2]
        sum_kl Q (mu - zbar_kl)^p    from  T @ (w2 * [zbar, zbar^2, 1])
        sum_i T (mu - zbar_kl)/rho   from  T^T @ [mu/rho, 1/rho]      (d Z)

    w2 rides on the design matrices, so Q itself is never formed.  The
    inducing-point gradient sums each pair's terms over its partners l; it
    unpacks the (P, q) pair sums over i to (m, m, q) and weights them by
    W2 + W2^T, a cost of m^2 q next to the n P q of the contractions.
    """
    n, q = means.shape
    m = Z.shape[0]
    w = kernel.weights
    mu, Zc, gam, a, rho, b, zbar, _ = _phi_terms(kernel, means, variances, Z)
    # Phi1: r1 = sum_k P1, mu*r1 - PZ = sum_k P1 (mu - z_k), s2 = ... (mu - z_k)^2
    P1 = W1 * phi1
    r1 = P1.sum(axis=1)[:, None]
    PZ = P1 @ Zc
    s2 = mu * (mu * r1 - 2.0 * PZ) + P1 @ (Zc * Zc)
    d_means = -a * (mu * r1 - PZ)
    d_vars = 0.5 * a * (a * s2 - r1)
    # s2 / gam / gam, not s2 / gam**2: gam**2 overflows for gam above 1e154
    d_w = -0.5 * np.sum(s2 / gam / gam + variances * r1 / gam, axis=0)
    d_Z = P1.T @ (a * mu) - Zc * (P1.T @ a)
    # Phi2: the same three sums over the pairs (k, l), weighted by Q
    w2 = _pair_weights(W2)[:, None]
    QD = T @ (w2 * np.hstack([zbar, zbar * zbar, np.ones_like(w2)]))
    QZ, QZ2, r2 = QD[:, :q], QD[:, q:2 * q], QD[:, 2 * q:]
    t2 = mu * (mu * r2 - 2.0 * QZ) + QZ2
    d_means -= 2.0 * b * (mu * r2 - QZ)
    d_vars += b * (2.0 * b * t2 - r2)
    # d T_kl / d z_k = w sum_i T_ikl [(mu_i - zbar_kl)/rho_i - delta_kl / 2],
    # and the pair enters <W2, Phi2> with weight W_kl + W_lk
    W2s = W2 + W2.T
    pair_delta, pair_delta2 = _pair_sums(
        W2s * _unpack_pairs(T.sum(axis=0), m), Zc)
    d_w -= (np.sum(t2 / rho / rho + variances * r2 / rho, axis=0)
            + 0.125 * pair_delta2)
    R = T.T @ np.hstack([mu / rho, 1.0 / rho])
    pair_md = _unpack_pairs(R[:, :q] - zbar * R[:, q:], m)
    d_Z += w * (np.einsum("kl,klj->kj", W2s, pair_md) - 0.5 * pair_delta)
    d_sigma = (np.sum(P1) + 2.0 * np.sum(r2)) / kernel.sigma_h_sq + n * w_phi0
    return {"latent_means": d_means, "latent_vars": d_vars, "Hu": d_Z,
            "sigma_h_sq": d_sigma, "weights": d_w}


# ---------------------------------------------------------------------------
# Collapsed variational bound for one layer
# ---------------------------------------------------------------------------

@dataclass
class _LayerCache:
    kernel: ARDParams
    beta: float
    means: np.ndarray
    variances: np.ndarray
    Z: np.ndarray
    out_means: np.ndarray
    out_vars: np.ndarray      # or None
    phi1: np.ndarray
    T: np.ndarray             # (n, P): Phi2's terms over the pairs of _pairs
    phi2: np.ndarray
    Kuu: np.ndarray
    L_K: np.ndarray           # lower factor of Kuu
    Aw: np.ndarray            # I + beta Lk^-1 Phi2 Lk^-T
    L_Aw: np.ndarray          # lower factor of Aw
    Kuu_gram: np.ndarray
    M: np.ndarray             # Phi1^T @ out_means
    AinvM: np.ndarray
    djit: np.ndarray          # d(jitter)/d(Kuu_gram), or None
    value: float


def layer_bound(kernel: ARDParams, beta: float, latent: VariationalLatent,
                Hu, out_means, out_vars=None):
    """Collapsed variational bound of one sparse layer and the cache that
    :func:`layer_bound_grads` and the layer's predictor read.

    ``out_means`` are the layer outputs (observed data, or the means of the
    next latent); ``out_vars`` are their variances when the outputs are
    themselves uncertain (None for observed data).  The bound is

        nu * [n/2 log(beta/2pi) + 1/2 log|Kuu| - 1/2 log|A|]
        - beta/2 (||out_means||^2 + sum out_vars + nu*phi0)
        + beta*nu/2 tr(Kuu^-1 Phi2) + beta^2/2 tr(M^T A^-1 M)

    with A = Kuu + beta*Phi2 and M = Phi1^T out_means.  Returns
    ``(value, cache)``.  Raises LinAlgError when the whitened inner matrix
    I + beta * Lk^-1 Phi2 Lk^-T is not numerically positive definite, which
    roundoff in Phi2 can bring about at a very large beta.
    """
    Hu = np.atleast_2d(np.asarray(Hu, dtype=float))
    out_means = np.atleast_2d(np.asarray(out_means, dtype=float))
    n, nu = out_means.shape
    if n != latent.n:
        raise DimensionMismatchError("layer outputs rows", latent.n, n)
    phi0, phi1, T, phi2 = _phi_forward(kernel, latent.means, latent.variances, Hu)
    Kuu_gram = gram(Hu, Hu, kernel)
    L_K, Kuu, djit = _chol_conditioned(Kuu_gram, KUU_JITTER * kernel.sigma_h_sq)
    # whitened inner matrix I + beta * Lk^-1 Phi2 Lk^-T: well conditioned by
    # construction, so the quadratic data-fit term stays accurate even when
    # Kuu + beta*Phi2 itself is numerically singular
    half = scipy.linalg.solve_triangular(L_K, phi2, lower=True)
    P2w = scipy.linalg.solve_triangular(L_K, half.T, lower=True)
    P2w = 0.5 * (P2w + P2w.T)
    Aw = beta * P2w
    Aw[np.diag_indices_from(Aw)] += 1.0
    L_Aw = np.linalg.cholesky(Aw)
    M = phi1.T @ out_means
    Mw = scipy.linalg.solve_triangular(L_K, M, lower=True)
    AwinvMw = scipy.linalg.cho_solve((L_Aw, True), Mw)
    AinvM = scipy.linalg.solve_triangular(L_K, AwinvMw, lower=True, trans=1)

    logdet_Aw = 2.0 * float(np.sum(np.log(np.diag(L_Aw))))
    sum_sq = float(np.sum(out_means * out_means))
    sum_vars = float(np.sum(out_vars)) if out_vars is not None else 0.0
    value = (nu * 0.5 * n * (np.log(beta) - LOG_2PI)
             - nu * 0.5 * logdet_Aw
             - 0.5 * beta * (sum_sq + sum_vars + nu * phi0)
             + 0.5 * beta * nu * float(np.trace(P2w))
             + 0.5 * beta ** 2 * float(np.sum(Mw * AwinvMw)))
    cache = _LayerCache(kernel=kernel, beta=beta, means=latent.means,
                        variances=latent.variances, Z=Hu, out_means=out_means,
                        out_vars=out_vars, phi1=phi1, T=T, phi2=phi2, Kuu=Kuu,
                        L_K=L_K, Aw=Aw, L_Aw=L_Aw, Kuu_gram=Kuu_gram, M=M,
                        AinvM=AinvM, djit=djit, value=value)
    return value, cache


def layer_bound_grads(cache: _LayerCache):
    """Exact gradients of :func:`layer_bound` w.r.t. every input block.

    Raw-parameter gradients; keys: latent_means, latent_vars, Hu,
    sigma_h_sq, weights, beta, out_means, out_vars (None when the outputs
    are observed).
    """
    beta = cache.beta
    nu = cache.out_means.shape[1]
    n = cache.out_means.shape[0]
    kern = cache.kernel
    # Kuu^-1 and A^-1 = (Kuu + beta Phi2)^-1 from the bound's two factors
    eye = np.eye(cache.L_K.shape[0])
    Lk_inv = scipy.linalg.solve_triangular(cache.L_K, eye, lower=True)
    Aw_inv = scipy.linalg.cho_solve((cache.L_Aw, True), eye)
    Kuu_inv = Lk_inv.T @ Lk_inv
    A_inv = Lk_inv.T @ Aw_inv @ Lk_inv
    A_inv = 0.5 * (A_inv + A_inv.T)

    W_A = -0.5 * nu * A_inv - 0.5 * beta ** 2 * (cache.AinvM @ cache.AinvM.T)
    KiP2Ki = Kuu_inv @ cache.phi2 @ Kuu_inv
    W_phi2 = beta * W_A + 0.5 * beta * nu * Kuu_inv
    W_phi1 = beta ** 2 * cache.out_means @ cache.AinvM.T
    W_Kuu = 0.5 * nu * Kuu_inv + W_A - 0.5 * beta * nu * KiP2Ki
    w_phi0 = -0.5 * beta * nu

    g = _phi_backward(kern, cache.means, cache.variances, cache.Z,
                      cache.phi1, cache.T, W_phi1, W_phi2, w_phi0)

    # add K_uu contributions (ARD kernel on the inducing inputs); when the
    # spectral jitter branch is active the gram sensitivity picks up the
    # jitter's own derivative so gradients stay consistent with the value
    WK = 0.5 * (W_Kuu + W_Kuu.T)
    E = WK if cache.djit is None else WK + float(np.trace(WK)) * cache.djit
    pair_delta, pair_delta2 = _pair_sums(E * cache.Kuu_gram, cache.Z)
    g["Hu"] -= 2.0 * kern.weights * pair_delta
    g["weights"] -= 0.5 * pair_delta2
    g["sigma_h_sq"] += float(np.sum(WK * cache.Kuu)) / kern.sigma_h_sq

    sum_sq = float(np.sum(cache.out_means ** 2))
    sum_vars = float(np.sum(cache.out_vars)) if cache.out_vars is not None else 0.0
    tr_AinvPhi2 = float(np.sum(A_inv * cache.phi2))
    tr_KinvPhi2 = float(np.sum(Kuu_inv * cache.phi2))
    tr_MAM = float(np.sum(cache.M * cache.AinvM))
    phi0 = n * kern.sigma_h_sq
    g["beta"] = (0.5 * nu * n / beta
                 - 0.5 * nu * tr_AinvPhi2
                 - 0.5 * (sum_sq + sum_vars + nu * phi0)
                 + 0.5 * nu * tr_KinvPhi2
                 + beta * tr_MAM
                 - 0.5 * beta ** 2 * float(np.sum(cache.AinvM * (cache.phi2 @ cache.AinvM))))
    g["out_means"] = -beta * cache.out_means + beta ** 2 * cache.phi1 @ cache.AinvM
    g["out_vars"] = (np.full_like(cache.out_vars, -0.5 * beta)
                     if cache.out_vars is not None else None)
    return g


# ---------------------------------------------------------------------------
# Stand-alone GP-LVM: standard-normal latent prior
# ---------------------------------------------------------------------------

def latent_kl(latent: VariationalLatent) -> float:
    """KL(q(H) || N(0, I)) for a factorized Gaussian."""
    mu, S = latent.means, latent.variances
    return float(0.5 * np.sum(mu * mu + S - np.log(S)) - 0.5 * mu.size)


def _elbo_forward(state: LayerState, Y):
    """The ELBO and the layer cache its gradient reads: the forward half."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    _, cache = layer_bound(state.kernel, state.beta, state.latent,
                           state.inducing.inputs, Y)
    return cache.value - latent_kl(state.latent), cache


def _elbo_backward(cache: _LayerCache):
    """ELBO gradient blocks from :func:`_elbo_forward`'s cache: the backward half."""
    g = layer_bound_grads(cache)
    mu, S = cache.means, cache.variances
    d_means = g["latent_means"] - mu                        # KL: d/dmu = mu
    d_S = g["latent_vars"] - 0.5 * (1.0 - 1.0 / S)          # KL: d/dS
    return {
        "mu_bar": d_means,
        "lam": -S * S * d_S,
        "Hu": g["Hu"],
        "sigma_h_sq": g["sigma_h_sq"],
        "weights": g["weights"],
        "beta": g["beta"],
    }


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _pca_latent(Y, q, rng):
    """Principal-component projection of Y to q dims, unit-scaled.

    One global scale factor (leading component std -> 1) so the relative
    magnitudes of the components survive; per-dimension relevance is then
    visible to the ARD weights from the start.
    """
    Yc = Y - Y.mean(axis=0)
    U, s, _ = np.linalg.svd(Yc, full_matrices=False)
    scores = U[:, :q] * s[:q]
    if scores.shape[1] < q:
        pad = rng.standard_normal((Y.shape[0], q - scores.shape[1])) * 1e-3
        scores = np.hstack([scores, pad])
    scale = scores[:, 0].std()
    if scale < 1e-12:
        scale = 1.0
    scores = scores / scale
    # deterministic sign: largest-magnitude score positive
    for k in range(q):
        j = np.argmax(np.abs(scores[:, k]))
        if scores[j, k] < 0:
            scores[:, k] = -scores[:, k]
    return scores


def _spec(n, q, m) -> BlockSpec:
    """The GP-LVM's blocks: latent means mu_bar and log lam, the inducing
    inputs, and the logs of sigma_h_sq, the ARD weights and beta."""
    return BlockSpec([("mu_bar", (n, q), False), ("lam", (n, q), True),
                      ("Hu", (m, q), False), ("sigma_h_sq", (), True),
                      ("weights", (q,), True), ("beta", (), True)])


def _layer_state(values) -> LayerState:
    """The layer of :func:`_spec`'s values: latent variances 1/(1 + lam)."""
    return LayerState(
        kernel=ARDParams(sigma_h_sq=float(values["sigma_h_sq"]),
                         weights=values["weights"]),
        beta=float(values["beta"]),
        latent=VariationalLatent(means=values["mu_bar"],
                                 variances=1.0 / (1.0 + values["lam"])),
        inducing=InducingSet(inputs=values["Hu"]))


def _check_shape(n, nu, q, m):
    """Raise ValueError unless a GP-LVM of q latents and m inducing inputs
    fits n rows of nu outputs: 1 <= q <= nu and 1 <= m <= n."""
    if not 1 <= q <= nu:
        raise ValueError(f"latent dimension must satisfy 1 <= q <= {nu}, got {q}")
    if not 1 <= m <= n:
        raise ValueError(f"inducing count must satisfy 1 <= m <= {n}, got {m}")


def train_gplvm(Y, q, m, *, iters, seed=0, record=None):
    """Train a Bayesian GP-LVM on data Y.

    Returns ``(state, trace)`` where ``state`` carries the optimized kernel,
    noise precision, variational posterior q(H) and inducing inputs, and
    ``trace`` is the nondecreasing ELBO history.  ``iters`` is a budget of
    accepted steps, shared by a warm phase with beta held fixed and a full
    phase; each phase's :meth:`optimize.Objective.record` (phase
    ``"warm"`` or ``"full"``) is appended to the list ``record`` if given.
    A bound that is not finite where a phase starts raises
    FloatingPointError naming the phase and the objective's reason.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n, nu = Y.shape
    _check_shape(n, nu, q, m)
    y_var = float(np.var(Y))
    if y_var <= 0.0:
        raise ValueError("Y has zero variance; nothing to model")

    rng = rng_for(seed)
    mu0 = _pca_latent(Y, q, rng)
    idx = rng.choice(n, size=m, replace=False)
    spec = _spec(n, q, m)
    x0 = spec.pack({"mu_bar": mu0,
                    "lam": np.full((n, q), 9.0),  # latent variances at 0.1
                    "Hu": mu0[np.sort(idx)], "sigma_h_sq": y_var,
                    "weights": np.ones(q), "beta": 100.0 / y_var})

    def forward(x):
        values = spec.unpack(x)
        f, cache = _elbo_forward(_layer_state(values), Y)
        return f, (cache, values)

    def make_backward(frozen):
        def backward(fwd):
            cache, values = fwd
            g = _elbo_backward(cache)
            # chain to the stored log coordinates
            return spec.flatten({name: g[name] * values[name] if log
                                 else g[name] for name, _, log in spec.blocks},
                                frozen)
        return backward

    # hold the noise precision for the first stretch so it cannot swallow
    # the signal before the latent space has organized.  Without this phase
    # (n=150 at 32^2 -> 16^2, dims 8,8, m 30,30, 150 steps), the greedy
    # layer 1 of a 2-layer stack collapsed, sigma_h_sq below 1e-9 of its
    # start, on 3 of 7 seeds, and a fourth predicted the training mean
    warm = min(50, int(iters) // 3)
    x, traces = x0, []
    for phase, budget, frozen in (("warm", warm, {"beta"}),
                                  ("full", int(iters) - warm, ())):
        objective = Objective(forward, make_backward(frozen))
        try:
            x, trace = ascend(objective, x, budget)
        except FloatingPointError:
            # as in deepgp.train_deep's joint phase: ascend raises only for
            # a bound that is not finite where the phase starts
            reason = objective.failure or f"its value is {objective.value}"
            raise FloatingPointError(
                f"the GP-LVM bound is not finite at the start of its {phase} "
                f"phase: {reason}") from None
        traces.append(trace if not traces else trace[1:])
        if record is not None:
            record.append(objective.record(budget, trace, phase=phase))
    trace = np.concatenate(traces)
    return _layer_state(spec.unpack(x)), trace


def effective_dims(kernel: ARDParams):
    """Indices of latent coordinates whose ARD weight is at least
    RETAIN_FRAC of the largest."""
    w = kernel.weights
    return np.flatnonzero(w >= RETAIN_FRAC * w.max()).tolist()
