"""Shared test oracles: independent of the implementation paths they check."""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dgpuq import uq
from dgpuq.deepgp import DeepGPModel, InputLayer, predict_layer1
from dgpuq.gplvm import InducingSet, LayerState, VariationalLatent
from dgpuq.kernels import (ARDParams, RBFParams, DimensionMismatchError, gram,
                           chol_psd)
from dgpuq.optimize import Objective
from dgpuq.random_field import KLExpansion
from dgpuq.rng import rng_for, UQ_STREAM


def central_diff(fun, x, eps=1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp = x.copy()
        xm = x.copy()
        xp[i] += eps
        xm[i] -= eps
        g[i] = (fun(xp) - fun(xm)) / (2.0 * eps)
    return g


class RecomputingObjective(Objective):
    """The reference for :class:`dgpuq.optimize.Objective`: same halves,
    failure mapping, counts and ``record``, but ``forward`` runs afresh on
    every call, since no point or state is kept from one call to the next.
    """

    def __call__(self, x, need_grad=True):
        self._last.clear()
        return super().__call__(x, need_grad)


def spy_ascend(mp, module, runs=None, forwards=None):
    """Record each ``module.ascend`` call's result and its counts in
    ``runs`` (a new list unless given), and return that list.

    The counts follow the benchmark tracer's protocol: every call of the
    objective is a value or a gradient evaluation by its ``need_grad``.
    ``forwards``, a one-item list, is a forward counter the caller keeps.
    """
    runs = [] if runs is None else runs
    real = module.ascend

    def spied(value_and_grad, x0, iters):
        counts = {"value_evals": 0, "grad_evals": 0}

        def counted(x, need_grad=True):
            counts["grad_evals" if need_grad else "value_evals"] += 1
            return value_and_grad(x, need_grad)

        start = forwards[0] if forwards else 0
        x, trace = real(counted, x0, iters)
        counts["accepted"] = len(trace) - 1
        counts["forwards"] = (forwards[0] if forwards else 0) - start
        runs.append({"x0": np.array(x0), "x": x, "trace": trace,
                     "budget": iters, **counts})
        return x, trace

    mp.setattr(module, "ascend", spied)
    return runs


# Hand-indexed parameter codecs: each trainer's vector layout written out
# position by position, the reference for the optimize.BlockSpec layouts of
# gplvm.train_gplvm and deepgp.train_deep.

def hand_pack_theta(kernel, noise_var):
    """theta = [log tau0_sq, log b, log noise_var] with b = w / 2."""
    return np.concatenate([[np.log(kernel.sigma_h_sq)], np.log(0.5 * kernel.weights),
                           [np.log(noise_var)]])


def hand_unpack_theta(theta):
    """Inverse of :func:`hand_pack_theta`: returns (kernel, noise_var)."""
    with np.errstate(over="raise"):
        kernel = RBFParams(tau0_sq=float(np.exp(theta[0])),
                           lengthscale_inv=np.exp(theta[1:-1]))
        return kernel, float(np.exp(theta[-1]))


def hand_gplvm_pack(mu_bar, lam, Z, kernel, beta):
    return np.concatenate([mu_bar.ravel(), np.log(lam).ravel(), Z.ravel(),
                           [np.log(kernel.sigma_h_sq)], np.log(kernel.weights),
                           [np.log(beta)]])


def hand_gplvm_unpack(x, n, q, m):
    """Inverse of :func:`hand_gplvm_pack`: (mu_bar, lam, Z, kernel, beta)."""
    i = 0
    mu_bar = x[i:i + n * q].reshape(n, q); i += n * q
    with np.errstate(over="raise"):
        lam = np.exp(x[i:i + n * q]).reshape(n, q); i += n * q
        Z = x[i:i + m * q].reshape(m, q); i += m * q
        sigma = float(np.exp(x[i])); i += 1
        w = np.exp(x[i:i + q]); i += q
        beta = float(np.exp(x[i]))
    return mu_bar, lam, Z, ARDParams(sigma_h_sq=sigma, weights=w), beta


def hand_gplvm_grad(g, lam, kernel, beta, freeze_beta):
    """GP-LVM gradient vector from ``gplvm._elbo_backward``'s raw blocks."""
    return np.concatenate([
        g["mu_bar"].ravel(),
        (g["lam"] * lam).ravel(),               # chain to log lam
        g["Hu"].ravel(),
        [g["sigma_h_sq"] * kernel.sigma_h_sq],
        g["weights"] * kernel.weights,
        [0.0 if freeze_beta else g["beta"] * beta],
    ])


def hand_pack_params(model):
    il = model.input_layer
    parts = [hand_pack_theta(il.kernel, il.noise_var), il.mu_bar.ravel(),
             np.log(il.lam).ravel()]
    for layer in model.hidden_layers:
        parts += [layer.inducing.inputs.ravel(), [np.log(layer.kernel.sigma_h_sq)],
                  np.log(layer.kernel.weights), [np.log(layer.beta)]]
    for t in range(1, model.n_latents):
        lat = model.hidden_layers[t].latent
        parts += [lat.means.ravel(), np.log(lat.variances).ravel()]
    return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])


def hand_unpack_params(model, x):
    """Inverse of :func:`hand_pack_params`: a new model."""
    i = 0

    def take(k):
        nonlocal i
        out = x[i:i + k]
        i += k
        return out

    with np.errstate(over="raise"):
        il = model.input_layer
        kern, nv = hand_unpack_theta(take(il.kernel.dim + 2))
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


def hand_grad_vector(g, n_latents):
    """Flatten a joint-bound gradient, given by block name, in
    :func:`hand_pack_params` order."""
    parts = [[g["tau0_sq"]], g["b"], [g["noise_var"]], g["mu_bar"].ravel(),
             g["lam"].ravel()]
    for t in range(n_latents):
        parts += [g[f"Hu{t}"].ravel(), [g[f"sigma_h_sq{t}"]], g[f"weights{t}"],
                  [g[f"beta{t}"]]]
    for t in range(1, n_latents):
        parts += [g[f"means{t}"].ravel(), g[f"variances{t}"].ravel()]
    return np.concatenate([np.asarray(p, dtype=float).ravel() for p in parts])


def ard_eval(h1, h2, p):
    """The ARD kernel at a single pair of points: the scalar oracle."""
    h1 = np.asarray(h1, dtype=float).ravel()
    h2 = np.asarray(h2, dtype=float).ravel()
    if h1.shape[0] != h2.shape[0]:
        raise DimensionMismatchError("ard_eval inputs", h1.shape[0], h2.shape[0])
    if h1.shape[0] != p.dim:
        raise DimensionMismatchError("ard_eval weights", p.dim, h1.shape[0])
    d = h1 - h2
    return float(p.sigma_h_sq * np.exp(-0.5 * np.dot(d * p.weights, d)))


def loop_gram(A, B, kfun):
    """Double-loop Gram matrix, the entrywise pairwise-eval oracle."""
    A = np.atleast_2d(A)
    B = np.atleast_2d(B)
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            out[i, j] = kfun(A[i], B[j])
    return out


def dense_gp_logml(K, noise_var, Y):
    """Textbook log marginal with explicit inverse and determinant."""
    n = K.shape[0]
    C = K + noise_var * np.eye(n)
    Cinv = np.linalg.inv(C)
    _, logdet = np.linalg.slogdet(C)
    total = 0.0
    for j in range(Y.shape[1]):
        y = Y[:, j]
        total += -0.5 * (y @ Cinv @ y + logdet + n * np.log(2 * np.pi))
    return total


def exact_gp_chol(X, kernel, noise_var):
    """Lower Cholesky factor of C = gram(X, X) + noise_var I."""
    return chol_psd(gram(X, X, kernel) + noise_var * np.eye(X.shape[0]))[0]


def exact_gp_model(kernel, noise_var, X, Y):
    """The deep model with no sparse layer whose first latent is the exact
    GP of Y on X: its input layer has mean weights mu_bar = C^-1 Y, so
    :func:`dgpuq.deepgp.predict_layer1` is that GP's predictive."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    mu_bar = scipy.linalg.cho_solve((exact_gp_chol(X, kernel, noise_var), True), Y)
    il = InputLayer(kernel=kernel, noise_var=noise_var, mu_bar=mu_bar,
                    lam=np.ones_like(mu_bar))
    return DeepGPModel(X=X, Y=Y, input_layer=il, hidden_layers=[],
                       dims=[Y.shape[1]])


def predict_one_set(model, Xstar):
    """:func:`dgpuq.deepgp.predict_layer1` on one set of test inputs,
    (n*, kappa), as a stack of one: the set's mean and joint covariance."""
    mean, cov = predict_layer1(model, np.asarray(Xstar, dtype=float)[None])
    return mean[0], cov[0]


def one_realization(model, Xprime, seed, *subkeys):
    """One repeat of :func:`dgpuq.uq.uq_report` on its own: the first
    latent's joint predictive on the one set Xprime, then
    ``uq._realization`` drawn from ``rng_for(seed, *subkeys)``."""
    return uq._realization(model, *predict_one_set(model, Xprime),
                           rng_for(seed, *subkeys))


def loop_realizations(model, dist, n_prime, n_repeats, seed):
    """The realizations of :func:`dgpuq.uq.uq_report` by a per-repeat loop:
    repeat j's inputs from stream ``(seed, UQ_STREAM, j, 0)`` and its draw
    from ``(seed, UQ_STREAM, j, 1)``."""
    return [one_realization(model,
                            uq.sample_inputs(dist, n_prime, seed, UQ_STREAM,
                                             j, 0),
                            seed, UQ_STREAM, j, 1)
            for j in range(n_repeats)]


def dense_gp_predict(K, Ks, Kss, noise_var, Y):
    """Textbook predictive moments with explicit inverse."""
    Cinv = np.linalg.inv(K + noise_var * np.eye(K.shape[0]))
    mean = Ks.T @ Cinv @ Y
    cov = Kss - Ks.T @ Cinv @ Ks
    return mean, cov


def ard_case(rng, kappa, spread):
    """An ARD kernel and per-column input scales for the Gram oracles.

    ``spread`` puts the weights on 1e-6..1e2 and scales column k by
    1/sqrt(w_k kappa), so that every dimension adds O(1/kappa) to a
    distance; otherwise the weights are O(1/kappa) on unit columns.
    """
    if spread:
        w = np.logspace(-6.0, 2.0, kappa)
        cols = 1.0 / np.sqrt(w * kappa)
    else:
        w = rng.uniform(0.2, 1.5, kappa) / kappa
        cols = np.ones(kappa)
    return ARDParams(sigma_h_sq=rng.uniform(0.5, 2.0), weights=w), cols


def two_pass_sqdist(A, B, scale):
    """Expanded-form weighted squared distances, each side's norms formed apart.

    When B is A the product is (A sqrt(w)) (A sqrt(w))^T, which numpy forms
    with syrk itself; its lower triangle is mirrored and the diagonal set to
    zero.  Otherwise it is the general product (A w) B^T.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    aa = np.sum((A * scale) * A, axis=1)[:, None]
    bb = np.sum((B * scale) * B, axis=1)[None, :]
    same = A.shape == B.shape and np.shares_memory(A, B)
    if same:
        Ah = A * np.sqrt(scale)
        sq = aa + bb - 2.0 * (Ah @ Ah.T)
    else:
        sq = aa + bb - 2.0 * (A * scale) @ B.T
    np.maximum(sq, 0.0, out=sq)
    if same:
        sq = np.tril(sq) + np.tril(sq, -1).T
        np.fill_diagonal(sq, 0.0)
    return sq


def two_pass_gram(A, B, kernel):
    """Gram matrix from :func:`two_pass_sqdist`."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return kernel.sigma_h_sq * np.exp(-0.5 * two_pass_sqdist(A, B, kernel.weights))


def gemm_self_gram(A, kernel):
    """Self-Gram from the general product (A w) A^T with both triangles
    averaged and a zero distance diagonal: a reference to a tolerance for
    the ``dsyrk`` form, whose rounding differs."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    sq = two_pass_sqdist(A, A.copy(), kernel.weights)
    sq = 0.5 * (sq + sq.T)
    np.fill_diagonal(sq, 0.0)
    return kernel.sigma_h_sq * np.exp(-0.5 * sq)


def two_gram_predict(X, kernel, L, alpha, Xstar):
    """Exact-GP predictive moments from gram(X, X*) and gram(X*, X*).

    Each Gram matrix scales both of its operands, the training inputs
    included; the mean is Ks^T alpha and the covariance is solved through
    the lower Cholesky factor L of K + noise*I.
    """
    Xstar = np.atleast_2d(np.asarray(Xstar, dtype=float))
    Ks = two_pass_gram(X, Xstar, kernel)
    Kss = two_pass_gram(Xstar, Xstar, kernel)
    mean = Ks.T @ alpha
    v = scipy.linalg.solve_triangular(L, Ks, lower=True)
    cov = Kss - v.T @ v
    return mean, 0.5 * (cov + cov.T)


def erf_series(x, terms=80):
    """Maclaurin series of erf, independent of scipy's implementation."""
    s = 0.0
    term = x
    n = 0
    while n < terms:
        s += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / np.sqrt(np.pi) * s


def phi_inv_bisect(u, iters=200):
    """Inverse standard-normal CDF by bisection on the erf series."""
    lo, hi = -10.0, 10.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + erf_series(mid / np.sqrt(2.0))) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mc_phi_oracle(kernel, means, variances, Z, n_samples, seed):
    """Monte Carlo estimates of the kernel expectations and their SEs.

    Returns (phi1, se1, phi2_rows, se2) where phi2_rows[i] estimates the
    i-th data point's contribution to Phi2.
    """
    rng = np.random.default_rng(seed)
    n, q = means.shape
    m = Z.shape[0]
    H = means[:, None, :] + np.sqrt(variances)[:, None, :] * \
        rng.standard_normal((n, n_samples, q))
    d = H[:, :, None, :] - Z[None, None, :, :]
    Kfu = kernel.sigma_h_sq * np.exp(
        -0.5 * np.sum(kernel.weights * d * d, axis=-1))    # (n, N, m)
    phi1 = Kfu.mean(axis=1)
    se1 = Kfu.std(axis=1) / np.sqrt(n_samples)
    prod = Kfu[:, :, :, None] * Kfu[:, :, None, :]         # (n, N, m, m)
    phi2_rows = prod.mean(axis=1)
    se2 = prod.std(axis=1) / np.sqrt(n_samples)
    return phi1, se1, phi2_rows, se2


# Per-dimension loop forms of the Phi statistics and their gradients: the
# direct transcription of the ARD closed forms, one latent dimension at a
# time, against which the matrix-product forms in dgpuq.gplvm are checked.

def loop_phi_forward(kernel, means, variances, Z):
    """Return (phi0, Phi1, T, Phi2) where T[i] is the i-th term of Phi2."""
    n, q = means.shape
    m = Z.shape[0]
    w = kernel.weights
    log1 = np.zeros((n, m))
    log2 = np.zeros((n, m, m))
    for j in range(q):
        d = means[:, j, None] - Z[None, :, j]               # (n, m)
        gam = w[j] * variances[:, j] + 1.0                  # (n,)
        log1 += -0.5 * w[j] * d * d / gam[:, None] - 0.5 * np.log(gam)[:, None]
        delta = Z[:, j, None] - Z[None, :, j]               # (m, m)
        zbar = 0.5 * (Z[:, j, None] + Z[None, :, j])        # (m, m)
        rho = 2.0 * w[j] * variances[:, j] + 1.0            # (n,)
        md = means[:, j, None, None] - zbar[None, :, :]     # (n, m, m)
        log2 += (-0.25 * w[j] * (delta * delta)[None, :, :]
                 - w[j] * md * md / rho[:, None, None]
                 - 0.5 * np.log(rho)[:, None, None])
    phi1 = kernel.sigma_h_sq * np.exp(log1)
    T = kernel.sigma_h_sq ** 2 * np.exp(log2)
    phi2 = T.sum(axis=0)
    phi2 = 0.5 * (phi2 + phi2.T)
    phi0 = n * kernel.sigma_h_sq
    return phi0, phi1, T, phi2


def loop_phi_backward(kernel, means, variances, Z, phi1, T, W1, W2, w_phi0):
    """Accumulate gradients of w_phi0*phi0 + <W1, Phi1> + <W2, Phi2>.

    Returns raw-parameter gradients for latent means/variances, inducing
    inputs, sigma_h_sq and the ARD weights.
    """
    n, q = means.shape
    w = kernel.weights
    P1 = W1 * phi1                       # (n, m)
    Q = W2[None, :, :] * T               # (n, m, m)

    d_means = np.zeros((n, q))
    d_vars = np.zeros((n, q))
    d_Z = np.zeros_like(Z)
    d_w = np.zeros(q)
    for j in range(q):
        d = means[:, j, None] - Z[None, :, j]
        gam = w[j] * variances[:, j] + 1.0
        inv_gam = 1.0 / gam[:, None]
        # Phi1 contributions
        d_means[:, j] += np.sum(P1 * (-w[j] * d * inv_gam), axis=1)
        d_Z[:, j] += np.sum(P1 * (w[j] * d * inv_gam), axis=0)
        d_vars[:, j] += np.sum(
            P1 * (0.5 * w[j] ** 2 * d * d * inv_gam ** 2 - 0.5 * w[j] * inv_gam),
            axis=1)
        d_w[j] += np.sum(P1 * (-0.5 * d * d * inv_gam
                               + 0.5 * w[j] * d * d * variances[:, j, None] * inv_gam ** 2
                               - 0.5 * variances[:, j, None] * inv_gam))
        # Phi2 contributions
        delta = Z[:, j, None] - Z[None, :, j]
        zbar = 0.5 * (Z[:, j, None] + Z[None, :, j])
        rho = 2.0 * w[j] * variances[:, j] + 1.0
        inv_rho = 1.0 / rho[:, None, None]
        md = means[:, j, None, None] - zbar[None, :, :]
        d_means[:, j] += np.sum(Q * (-2.0 * w[j] * md * inv_rho), axis=(1, 2))
        d_vars[:, j] += np.sum(
            Q * (2.0 * w[j] ** 2 * md * md * inv_rho ** 2 - w[j] * inv_rho),
            axis=(1, 2))
        sv = variances[:, j, None, None]
        d_w[j] += np.sum(Q * (-0.25 * (delta * delta)[None, :, :]
                              - md * md * inv_rho
                              + 2.0 * w[j] * md * md * sv * inv_rho ** 2
                              - sv * inv_rho))
        # both slots of the symmetric pair contribute to each inducing point
        d_Z[:, j] += 2.0 * np.sum(
            Q * (-0.5 * w[j] * delta[None, :, :] + w[j] * md * inv_rho),
            axis=(0, 2))
    d_sigma = (np.sum(P1) + 2.0 * np.sum(Q)) / kernel.sigma_h_sq + n * w_phi0
    return {
        "latent_means": d_means,
        "latent_vars": d_vars,
        "Hu": d_Z,
        "sigma_h_sq": d_sigma,
        "weights": d_w,
    }


# Per-column forms of the first-latent moments and gradients: S_j is formed
# from the Cholesky factor of B_j = I + W C W (W = diag(sqrt(lam_j))) through
# V = L_B^-1 W C and an explicit L_B^-1 W, against which the B^-1 forms in
# dgpuq.deepgp are checked.

def loop_first_latent_forward(input_layer, C):
    """Return (M1, diag_S, kl, cols) with cols[j] = (w, L_B, V)."""
    n, q1 = input_layer.mu_bar.shape
    M1 = C @ input_layer.mu_bar
    diag_S = np.empty((n, q1))
    kl = 0.0
    cols = []
    diag_C = np.diag(C)
    for j in range(q1):
        lam_j = input_layer.lam[:, j]
        w = np.sqrt(lam_j)
        B = w[:, None] * C * w[None, :]
        B[np.diag_indices_from(B)] += 1.0
        L_B = np.linalg.cholesky(B)
        V = scipy.linalg.solve_triangular(L_B, w[:, None] * C, lower=True)
        dS = diag_C - np.sum(V * V, axis=0)
        np.maximum(dS, 1e-300, out=dS)
        diag_S[:, j] = dS
        logdet_B = 2.0 * float(np.sum(np.log(np.diag(L_B))))
        kl += 0.5 * (float(input_layer.mu_bar[:, j] @ M1[:, j])
                     - float(lam_j @ dS) + logdet_B)
        cols.append((w, L_B, V))
    return M1, diag_S, kl, cols


def loop_first_latent_grads(input_layer, X, C, cols, d_M1, d_s1):
    """Input-layer gradient block given d(value)/dM1 and d(value)/d diag S.

    The value is the layer terms that read M1 and diag S, minus the first
    KL; ``cols`` comes from :func:`loop_first_latent_forward`.  Keyed by the
    input layer's block names: d/dlog for tau0_sq, b, noise_var and lam.
    """
    il = input_layer
    n, q1 = il.mu_bar.shape
    d_mu_bar = C @ (d_M1 - il.mu_bar)
    d_log_lam = np.empty((n, q1))
    G_C = d_M1 @ il.mu_bar.T - 0.5 * il.mu_bar @ il.mu_bar.T
    for j in range(q1):
        w, L_B, V = cols[j]
        lam_j = il.lam[:, j]
        S_full = C - V.T @ V
        SS = S_full * S_full
        d_lam = -(SS @ (d_s1[:, j] + 0.5 * lam_j))
        d_log_lam[:, j] = d_lam * lam_j
        # C^-1 S = I - diag(w) B^-1 diag(w) C,   C^-1 - C^-1 S C^-1 = W B^-1 W
        BinvWC = scipy.linalg.solve_triangular(L_B, V, lower=True, trans=1)
        CinvS = -w[:, None] * BinvWC
        CinvS[np.diag_indices_from(CinvS)] += 1.0
        F = scipy.linalg.solve_triangular(L_B, np.diag(w), lower=True)
        G_C += (CinvS * (d_s1[:, j] + 0.5 * lam_j)[None, :]) @ CinvS.T
        G_C -= 0.5 * F.T @ F
    Kx = gram(X, X, il.kernel)
    P = G_C * Kx
    g_log_tau = float(np.sum(P))
    row = P.sum(axis=1)
    colsum = P.sum(axis=0)
    quad = np.einsum("ik,ij,jk->k", X, P, X, optimize=True)
    sq = X * X
    g_log_b = -0.5 * il.kernel.weights * (sq.T @ row + sq.T @ colsum - 2.0 * quad)
    g_log_noise = il.noise_var * float(np.trace(G_C))
    return {"tau0_sq": g_log_tau, "b": g_log_b, "noise_var": g_log_noise,
            "mu_bar": d_mu_bar, "lam": d_log_lam}


def dense_cov_matrix(centers, spec):
    """Dense exponential covariance between every pair of cell centers."""
    lam = np.asarray(spec.lambdas, dtype=float)
    dx = np.abs(centers[:, None, 0] - centers[None, :, 0]) / lam[0]
    dy = np.abs(centers[:, None, 1] - centers[None, :, 1]) / lam[1]
    return spec.s_g_sq * np.exp(-(dx + dy))


def dense_kle_decompose(grid, spec, k_xi):
    """KL basis from a dense eigh of the n_cells x n_cells weighted covariance.

    Small-grid oracle for ``random_field.kle_decompose``: the order inside a
    tied eigenspace is LAPACK's, and each mode's largest-magnitude entry is
    made positive.
    """
    C = dense_cov_matrix(grid.cell_centers(), spec)
    area = grid.cell_area
    vals, vecs = np.linalg.eigh(area * C)
    order = np.argsort(vals)[::-1][:k_xi]
    vals = np.clip(vals[order], 0.0, None)
    vecs = vecs[:, order]
    for k in range(k_xi):
        j = np.argmax(np.abs(vecs[:, k]))
        if vecs[j, k] < 0:
            vecs[:, k] = -vecs[:, k]
    fields = (np.sqrt(vals)[:, None] * vecs.T) / np.sqrt(area)
    return KLExpansion(eigenvalues=vals, eigenfields=fields, mean=spec.mean,
                       grid=grid)


def sparse_tpfa_pressure(grid, K, f):
    """Zero-mean TPFA pressure from a COO-assembled matrix and sparse LU.

    Oracle for ``darcy.solve``: the five-point matrix is built face by face
    with its own harmonic means, p[0] is pinned by dropping row and column
    0, and the reduced system is factored by ``splu``.
    """
    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    K2d = np.asarray(K, dtype=float).reshape(ny, nx)
    idx = np.arange(grid.n_cells).reshape(ny, nx)
    rows, cols, vals = [], [], []
    for Ka, Kb, a, b, scale in (
            (K2d[:, :-1], K2d[:, 1:], idx[:, :-1], idx[:, 1:], hy / hx),
            (K2d[:-1, :], K2d[1:, :], idx[:-1, :], idx[1:, :], hx / hy)):
        t = (2.0 * Ka * Kb / (Ka + Kb) * scale).ravel()
        a, b = a.ravel(), b.ravel()
        rows += [a, b, a, b]
        cols += [b, a, a, b]
        vals += [-t, -t, t, t]
    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_cells, grid.n_cells))
    b = np.asarray(f, dtype=float).ravel() * grid.cell_area
    p = np.zeros(grid.n_cells)
    p[1:] = spla.splu(A[1:, 1:].tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b[1:])
    return p - np.mean(p)
