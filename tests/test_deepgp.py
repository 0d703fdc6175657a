import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.linalg.lapack import dpotrf, dtrtri

from dgpuq import cli, deepgp, gp, io
from dgpuq.kernels import RBFParams, ARDParams, gram, chol_psd
from dgpuq.gplvm import (VariationalLatent, InducingSet, LayerState, layer_bound,
                         _phi_forward)
from dgpuq.deepgp import (DeepGPModel, InputLayer, elbo, elbo_grad_vector,
                          pack_params, unpack_params, train_deep,
                          predict_layer1, propagate, predict, _layer_pred_cache,
                          _input_cov, _first_latent_forward, _first_latent_grads,
                          _tri_inv_lower, _TRI_LEAF)
from dgpuq.rng import rng_for
from helpers import (mc_phi_oracle, loop_phi_forward, loop_first_latent_forward,
                     loop_first_latent_grads, two_gram_predict)

LOG_2PI = np.log(2.0 * np.pi)


def tiny_model(seed=7, n=10, kappa=2, nu=2, dims=(2, 2), m=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, kappa))
    Y = rng.normal(size=(n, nu))
    il = InputLayer(
        kernel=RBFParams(tau0_sq=1.2, lengthscale_inv=rng.uniform(0.5, 1.5, kappa)),
        noise_var=0.3, mu_bar=rng.normal(size=(n, dims[0])) * 0.3,
        lam=rng.uniform(0.5, 3.0, (n, dims[0])))
    layers = []
    q_prev = dims[0]
    for t, q_out in enumerate(list(dims[1:]) + [nu]):
        latent = VariationalLatent(rng.normal(size=(n, q_prev)),
                                   rng.uniform(0.2, 0.8, (n, q_prev)))
        layers.append(LayerState(
            kernel=ARDParams(rng.uniform(0.8, 1.5), rng.uniform(0.5, 2.0, q_prev)),
            beta=rng.uniform(1.5, 4.0), latent=latent,
            inducing=InducingSet(inputs=rng.normal(size=(m, q_prev)))))
        q_prev = q_out
    return DeepGPModel(X=X, Y=Y, input_layer=il, hidden_layers=layers,
                       dims=list(dims))


def set_first_latent(model):
    """Store the first latent's moments as layer 0's input latent, as
    train_deep does for the model it returns."""
    M1, diag_S, _, _ = _first_latent_forward(model.input_layer, model.X)
    model.hidden_layers[0].latent = VariationalLatent(M1, diag_S)
    return model


def benchmark_1d(seed=42, n=50):
    rng = rng_for(seed)
    X = rng.uniform(0, 1, (n, 1))
    Y = np.sin(2 * np.pi * X) + 0.1 * rng.standard_normal((n, 1))
    Xte = rng_for(seed + 1).uniform(0, 1, (80, 1))
    Yte = np.sin(2 * np.pi * Xte) + 0.1 * rng_for(seed + 2).standard_normal((80, 1))
    return X, Y, Xte, Yte


def wide_lam_model():
    """tiny_model with first-latent precisions log-uniform over e^-6..e^6."""
    model = tiny_model()
    il = model.input_layer
    il.lam = np.exp(np.random.default_rng(8).uniform(-6.0, 6.0, il.lam.shape))
    return model


def rel_err(a, b):
    """Largest absolute difference over the largest oracle magnitude."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


class TestJointElboGradient:
    @pytest.mark.parametrize("make_model", [tiny_model, wide_lam_model],
                             ids=["tiny", "wide_lam"])
    def test_matches_finite_differences_on_tiny_instance(self, make_model):
        model = make_model()
        x0 = pack_params(model)
        g = elbo_grad_vector(model)
        eps = 1e-5
        fd = np.zeros_like(x0)
        for i in range(x0.size):
            xp = x0.copy()
            xm = x0.copy()
            xp[i] += eps
            xm[i] -= eps
            fd[i] = (elbo(unpack_params(model, xp))
                     - elbo(unpack_params(model, xm))) / (2 * eps)
        rel = np.abs(g - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-4

    def test_directional_finite_differences_above_the_leaf(self):
        # n > 2 leaves: the first latent's inverse recurses twice
        n = 2 * _TRI_LEAF + 3
        model = tiny_model(seed=11, n=n, dims=(2,), m=4)
        x0 = pack_params(model)
        g = elbo_grad_vector(model)
        eps = 1e-5
        rng = np.random.default_rng(12)
        for _ in range(3):
            d = rng.normal(size=x0.size)
            d /= np.linalg.norm(d)
            fd = (elbo(unpack_params(model, x0 + eps * d))
                  - elbo(unpack_params(model, x0 - eps * d))) / (2 * eps)
            assert abs(g @ d - fd) / (abs(fd) + 1e-8) < 1e-4

    def test_entropy_terms_match_direct_gaussian_entropy(self):
        model = tiny_model(seed=3)
        S = model.hidden_layers[1].latent.variances
        n, q = S.shape
        ours = 0.5 * np.sum(np.log(S)) + 0.5 * S.size * (1 + LOG_2PI)
        # direct evaluation: sum of per-row diagonal-Gaussian entropies
        direct = sum(0.5 * np.log((2 * np.pi * np.e) ** q * np.prod(S[i]))
                     for i in range(n))
        assert ours == pytest.approx(direct, abs=1e-10)

    @pytest.mark.parametrize("path", ["elbo_grad_vector", "train_deep"])
    def test_backward_frees_each_layer_cache_after_use(self, monkeypatch, path):
        # a layer cache holds an (n, m, m) array; only the one in use may live
        seen = []
        real_grads = deepgp.layer_bound_grads
        real_first = deepgp._first_latent_grads

        def layer_grads(cache):
            assert all(ref() is None for ref in seen)
            seen.append(weakref.ref(cache))
            return real_grads(cache)

        def first_latent_grads(*args):
            assert seen and all(ref() is None for ref in seen)
            return real_first(*args)

        monkeypatch.setattr(deepgp, "layer_bound_grads", layer_grads)
        monkeypatch.setattr(deepgp, "_first_latent_grads", first_latent_grads)
        if path == "elbo_grad_vector":
            elbo_grad_vector(tiny_model(seed=4, n=12, dims=(2, 2, 2), m=3))
            assert len(seen) == 3
        else:
            X, Y, _, _ = benchmark_1d(seed=8, n=20)
            train_deep(X, np.hstack([Y, Y ** 2]), dims=[2, 2],
                       m_inducing=[6, 6], iters=3, seed=1, init_iters=10)
            assert len(seen) >= 2

    def test_bound_leaves_the_model_unchanged(self):
        model = tiny_model(seed=29)
        predict(model, model.X[:3])          # fills the prediction caches
        latent = model.hidden_layers[0].latent
        means, variances = latent.means, latent.variances
        copies = means.copy(), variances.copy()
        caches = dict(model._pred_cache)
        elbo(model)
        elbo_grad_vector(model)
        assert model.hidden_layers[0].latent is latent
        assert latent.means is means and latent.variances is variances
        np.testing.assert_array_equal(means, copies[0])
        np.testing.assert_array_equal(variances, copies[1])
        assert model._pred_cache.keys() == caches.keys()
        assert all(model._pred_cache[k] is v for k, v in caches.items())


def _d_s1_case(case, rng, lam):
    """d(value)/d diag S whose e = (d_s1 + lam/2) / lam has a chosen sign."""
    d = rng.normal(size=lam.shape)
    if case == "positive":
        return np.abs(d)
    if case == "negative":
        return -0.5 * lam - 0.1 - np.abs(d)
    if case == "mixed_zeros":
        d[::3] = -0.5 * lam[::3]       # e = 0 exactly on every third row
    return d


class TestTriInvLower:
    @pytest.mark.parametrize("n", [1, _TRI_LEAF, _TRI_LEAF + 1,
                                   2 * _TRI_LEAF + 3, 700])
    def test_matches_dtrtri(self, n):
        # Cholesky factors of B_j = I + W C W as the first latent forms them
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        il = InputLayer(kernel=RBFParams(1.3, rng.uniform(0.2, 1.0, 3)),
                        noise_var=0.05, mu_bar=np.zeros((n, 1)),
                        lam=np.exp(rng.uniform(-6.0, 6.0, (n, 1))))
        w = np.sqrt(il.lam[:, 0])
        B = w[:, None] * _input_cov(il, X)[0] * w[None, :]
        B[np.diag_indices_from(B)] += 1.0
        L, info = dpotrf(B, lower=1)
        assert info == 0
        ref, info = dtrtri(L, lower=1)
        assert info == 0
        buf = np.asfortranarray(L)
        out = _tri_inv_lower(buf)
        assert out is buf
        assert np.linalg.norm(buf - ref) <= 1e-13 * np.linalg.norm(ref)
        assert not np.any(np.triu(buf, 1))


class TestFirstLatentMatrixForms:
    @pytest.mark.parametrize("case", ["random", "positive", "negative",
                                      "mixed_zeros"])
    @pytest.mark.parametrize("n,q1", [(5, 1), (25, 3), (120, 4),
                                      (2 * _TRI_LEAF + 3, 2)])
    def test_matches_loop_oracle(self, n, q1, case):
        rng = np.random.default_rng(100 + n)
        X = rng.normal(size=(n, 3))
        il = InputLayer(kernel=RBFParams(1.3, rng.uniform(0.2, 1.0, 3)),
                        noise_var=0.05, mu_bar=rng.normal(size=(n, q1)),
                        lam=np.exp(rng.uniform(-3.0, 3.0, (n, q1))))
        d_M1 = rng.normal(size=(n, q1))
        d_s1 = _d_s1_case(case, rng, il.lam)
        e = d_s1 + 0.5 * il.lam
        if case == "positive":
            assert np.all(e > 0)
        elif case == "negative":
            assert np.all(e < 0)
        elif case == "mixed_zeros":
            assert np.any(e == 0) and np.any(e > 0) and np.any(e < 0)
        C = _input_cov(il, X)[0]
        M1, diag_S, kl, packed = _first_latent_forward(il, X, need_full=True)
        M1_or, diag_S_or, kl_or, cols_or = loop_first_latent_forward(il, C)
        assert rel_err(M1, M1_or) <= 1e-10
        assert rel_err(diag_S, diag_S_or) <= 1e-10
        assert rel_err(kl, kl_or) <= 1e-10
        g = _first_latent_grads(il, X, packed, d_M1, d_s1)
        g_or = loop_first_latent_grads(il, X, C, cols_or, d_M1, d_s1)
        for name in ("mu_bar", "lam", "tau0_sq", "b", "noise_var"):
            assert rel_err(g[name], g_or[name]) <= 1e-10, name

    def test_gradient_holds_packed_factors(self):
        # full n x n factors for every column alone would take q1 n^2 doubles
        n, q1 = 400, 12
        model = tiny_model(seed=3, n=n, kappa=3, nu=2, dims=(q1,), m=5)
        elbo_grad_vector(model)
        tracemalloc.start()
        try:
            elbo_grad_vector(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * q1 * n * n * 8


class TestTrainDeep:
    def test_degenerate_single_layer_matches_exact_gp(self):
        X, Y, Xte, Yte = benchmark_1d()
        gpm = gp.fit(X, Y, iters=150)
        mu_gp, _ = gp.predict(gpm, Xte)
        rmse_gp = float(np.sqrt(np.mean((mu_gp - Yte) ** 2)))
        model = train_deep(X, Y, dims=[1], m_inducing=[50], iters=300, seed=0)
        mu_d, _ = predict(model, Xte)
        rmse_d = float(np.sqrt(np.mean((mu_d - Yte) ** 2)))
        assert rmse_d <= 1.1 * rmse_gp

    def test_elbo_trace_monotone_and_improving(self):
        X, Y, _, _ = benchmark_1d(seed=5, n=30)
        model = train_deep(X, Y, dims=[1], m_inducing=[15], iters=60, seed=2,
                           init_iters=60)
        trace = model.training_meta["elbo_trace"]
        assert trace[-1] >= trace[0]
        assert np.all(np.diff(trace) >= -1e-6)

    def test_same_seed_reproducible(self):
        X, Y, _, _ = benchmark_1d(seed=6, n=25)
        m1 = train_deep(X, Y, dims=[1], m_inducing=[12], iters=25, seed=4,
                        init_iters=40)
        m2 = train_deep(X, Y, dims=[1], m_inducing=[12], iters=25, seed=4,
                        init_iters=40)
        assert np.array_equal(m1.training_meta["elbo_trace"],
                              m2.training_meta["elbo_trace"])

    def test_two_layer_stack_trains(self):
        rng = rng_for(9)
        X = rng.uniform(0, 1, (30, 2))
        Y = np.column_stack([np.sin(2 * np.pi * X[:, 0]),
                             X[:, 0] * X[:, 1],
                             np.cos(np.pi * X[:, 1]),
                             X[:, 1] ** 2]) + 0.05 * rng.standard_normal((30, 4))
        model = train_deep(X, Y, dims=[2, 2], m_inducing=[10, 10], iters=40,
                           seed=1, init_iters=60)
        assert len(model.hidden_layers) == 2
        mean, var = predict(model, X[:5])
        assert mean.shape == (5, 4)
        assert np.all(var > 0)

    def test_output_layer_bound_stays_below_its_ceiling(self, tmp_path):
        # every observed entry has density at most sqrt(beta / 2 pi), so
        # the output layer's collapsed bound is at most nu*n/2*log(beta/2pi);
        # a clipped inverse once took this centred 40 + 10 fit to 5.4e15
        assert cli.main(["gen-data", "--n", "150", "--grid", "32",
                         "--out-grid", "16", "--kle", "50", "--seed", "11",
                         "--out", str(tmp_path)]) == 0
        X = io.read_matrix(tmp_path / "K.dgpm")
        Y = io.read_matrix(tmp_path / "p.dgpm")
        model = train_deep(X, Y - Y.mean(axis=0), dims=[8, 8],
                           m_inducing=[30, 30], init_iters=40, iters=10, seed=3)
        out = model.hidden_layers[-1]
        value, _ = layer_bound(out.kernel, out.beta, out.latent,
                               out.inducing.inputs, model.Y)
        n, nu = model.Y.shape
        assert np.isfinite(value)
        assert value <= 0.5 * nu * n * (np.log(out.beta) - LOG_2PI)

    def test_first_latent_holds_the_input_layer_moments(self):
        X, Y, _, _ = benchmark_1d(seed=8, n=20)
        model = train_deep(X, np.hstack([Y, Y ** 2]), dims=[2, 2],
                           m_inducing=[6, 6], iters=3, seed=1, init_iters=10)
        M1, diag_S = _first_latent_forward(model.input_layer, model.X)[:2]
        latent = model.hidden_layers[0].latent
        assert np.array_equal(latent.means, M1)
        assert np.array_equal(latent.variances, diag_S)

    def test_input_validation(self):
        X = np.zeros((5, 2))
        Y = np.ones((5, 3))
        with pytest.raises(ValueError):
            train_deep(X, Y, dims=[2], m_inducing=[2, 3], iters=1)
        with pytest.raises(ValueError):
            train_deep(X, Y, dims=[2], m_inducing=[2], iters=1)  # zero variance


class TestPredictLayer1:
    def test_interpolates_latents_at_training_inputs(self):
        # with small noise the layer-1 predictive at a training input
        # reproduces the trained latent row
        rng = np.random.default_rng(11)
        n, kappa, q1 = 12, 1, 2
        X = np.sort(rng.uniform(0, 1, (n, kappa)), axis=0)
        il_kern = RBFParams(tau0_sq=1.0, lengthscale_inv=np.array([30.0]))
        mu_bar = rng.normal(size=(n, q1))
        model = tiny_model(n=n, kappa=kappa, dims=(q1, 2))
        model.X = X
        model.input_layer = InputLayer(kernel=il_kern, noise_var=1e-8,
                                       mu_bar=mu_bar,
                                       lam=np.full((n, q1), 1e6))
        C = gram(X, X, il_kern) + 1e-8 * np.eye(n)
        trained_h1 = C @ mu_bar
        mean, _ = predict_layer1(model, X)
        assert np.abs(mean - trained_h1).max() < 1e-4

    def test_mean_is_gram_times_mu_bar_when_cholesky_needs_jitter(self):
        # duplicated rows make the Gram singular and a tiny noise leaves
        # C = K + noise I unfactorizable without jitter
        model = tiny_model(seed=17)
        X = np.vstack([model.X[:5], model.X[:5]])
        model.X = X
        il = model.input_layer
        il.noise_var = 1e-18
        K = gram(X, X, il.kernel)
        _, jitter = chol_psd(K + il.noise_var * np.eye(10))
        assert jitter > 0
        mean, _ = predict_layer1(model, X)
        expect = K @ il.mu_bar
        np.testing.assert_allclose(mean, expect, rtol=0,
                                   atol=1e-10 * np.abs(expect).max())

    def test_prior_reversion_far_from_data(self):
        model = tiny_model(seed=13)
        mean, cov = predict_layer1(model, np.full((1, 2), 60.0))
        assert np.abs(mean).max() < 1e-6
        assert cov[0, 0] == pytest.approx(model.input_layer.kernel.sigma_h_sq,
                                          rel=1e-6)

    def test_matches_exact_gp_predict(self):
        model = tiny_model(seed=15)
        il = model.input_layer
        C = gram(model.X, model.X, il.kernel) + il.noise_var * np.eye(10)
        M1 = C @ il.mu_bar
        gpm = gp.build_model(il.kernel, il.noise_var, model.X, M1)
        rng = np.random.default_rng(0)
        Xs = rng.normal(size=(6, 2))
        mean_a, cov_a = predict_layer1(model, Xs)
        mean_b, cov_b = gp.predict(gpm, Xs)
        np.testing.assert_allclose(mean_a, mean_b, atol=1e-10)
        np.testing.assert_allclose(cov_a, cov_b, atol=1e-10)


    def test_rebuilt_cache_reproduces_the_prediction(self):
        model = tiny_model(seed=19)
        Xs = np.random.default_rng(1).normal(size=(5, 2))
        mean_a, cov_a = predict_layer1(model, Xs)
        cached = model._pred_cache["layer1"]
        # the cache keeps n weighted norms, not the scaled n x kappa inputs
        assert cached.train_x is model.X
        assert cached.train_norms.shape == (model.X.shape[0],)
        mean_o, cov_o = two_gram_predict(cached, Xs)
        assert rel_err(mean_a, mean_o) <= 1e-12
        assert rel_err(cov_a, cov_o) <= 1e-12
        model._pred_cache.clear()
        mean_b, cov_b = predict_layer1(model, Xs)
        np.testing.assert_array_equal(mean_a, mean_b)
        np.testing.assert_array_equal(cov_a, cov_b)


class TestPhiStatsAtTestPoints:
    def test_zero_variance_collapse(self):
        rng = np.random.default_rng(17)
        kern = ARDParams(1.4, rng.uniform(0.3, 2.0, 2))
        means = rng.normal(size=(5, 2))
        Z = rng.normal(size=(3, 2))
        _, phi1, _, _ = _phi_forward(kern, means, np.full((5, 2), 1e-300), Z)
        np.testing.assert_allclose(phi1.T, gram(means, Z, kern).T, atol=1e-10)

    def test_phi0_counts_test_points(self):
        rng = np.random.default_rng(18)
        kern = ARDParams(2.5, np.ones(2))
        phi0, _, _, _ = _phi_forward(kern, rng.normal(size=(7, 2)),
                                     rng.uniform(0.1, 1.0, (7, 2)),
                                     rng.normal(size=(4, 2)))
        assert phi0 == pytest.approx(7 * 2.5, abs=0)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(19)
        kern = ARDParams(1.1, np.array([0.9]))
        means = rng.normal(size=(2, 1))
        variances = rng.uniform(0.3, 0.9, (2, 1))
        Z = rng.normal(size=(2, 1))
        _, phi1, _, phi2 = _phi_forward(kern, means, variances, Z)
        phi1_mc, se1, phi2_rows, se2 = mc_phi_oracle(kernel=kern, means=means,
                                                     variances=variances, Z=Z,
                                                     n_samples=200000, seed=23)
        assert np.all(np.abs(phi1 - phi1_mc) < 3 * se1 + 1e-12)
        se2_tot = np.sqrt((se2 ** 2).sum(axis=0))
        assert np.all(np.abs(phi2 - phi2_rows.sum(axis=0)) < 3 * se2_tot + 1e-12)


class TestPropagate:
    def test_deterministic_input_matches_sparse_predictor_oracle(self):
        model = set_first_latent(tiny_model(seed=21))
        t = 1
        layer = model.hidden_layers[t]
        rng = np.random.default_rng(1)
        Hstar = rng.normal(size=(4, 2))
        mean, var = propagate(model, t, (Hstar, np.full((4, 2), 1e-300)))

        # direct sparse-GP oracle from the collapsed optimal q(U)
        out_means = model.Y
        _, cache = layer_bound(layer.kernel, layer.beta, layer.latent,
                               layer.inducing.inputs, out_means)
        Z = layer.inducing.inputs
        Ksu = gram(Hstar, Z, layer.kernel)
        V = layer.beta * cache.AinvM
        mean_or = Ksu @ V
        var_or = np.empty_like(mean_or)
        Dmat = cache.Kuu_inv - cache.A_inv
        for i in range(4):
            k = Ksu[i]
            base = layer.kernel.sigma_h_sq - k @ Dmat @ k
            for j in range(mean_or.shape[1]):
                var_or[i, j] = base + (k @ V[:, j]) ** 2 - (k @ V[:, j]) ** 2
        var_or += 1.0 / layer.beta
        np.testing.assert_allclose(mean, mean_or, atol=1e-8)
        np.testing.assert_allclose(var, var_or, atol=1e-8)

    def test_matrix_moments_match_einsum_forms(self):
        model = set_first_latent(tiny_model(seed=23, n=12, nu=9, dims=(3, 2),
                                            m=6))
        rng = np.random.default_rng(4)
        means = rng.normal(size=(8, 3))
        variances = rng.uniform(0.01, 1.5, (8, 3))
        for t in range(model.n_latents):
            mean, var = propagate(model, t, (means, variances))
            cache = _layer_pred_cache(model, t)
            V, Dmat, kern = cache["V"], cache["Dmat"], cache["kernel"]
            _, phi1, T, _ = loop_phi_forward(kern, means, variances, cache["Z"])
            tr_term = np.einsum("tkl,kl->t", T, Dmat)
            quad = np.einsum("tkl,kj,lj->tj", T, V, V)
            mean_or = phi1 @ V
            var_or = np.maximum(kern.sigma_h_sq - tr_term[:, None] + quad
                                - mean_or * mean_or, 0.0) + 1.0 / cache["beta"]
            np.testing.assert_allclose(mean, mean_or, rtol=1e-12,
                                       atol=1e-12 * np.abs(mean_or).max())
            np.testing.assert_allclose(var, var_or, rtol=1e-12,
                                       atol=1e-12 * kern.sigma_h_sq)
            means = mean_or
            variances = var_or + 1e-3

    def test_random_propagations_finite_nonnegative(self):
        model = set_first_latent(tiny_model(seed=25))
        rng = np.random.default_rng(2)
        for _ in range(100):
            means = rng.normal(size=(3, 2))
            variances = rng.uniform(1e-6, 2.0, (3, 2))
            mean, var = propagate(model, 0, (means, variances))
            assert np.all(np.isfinite(mean))
            assert np.all(np.isfinite(var))
            assert np.all(var >= 0)

    def test_variance_inflation_probe(self):
        # numeric probe, not a theorem: scaling input variance 1 -> 4 tends
        # to inflate the output variance, but the kernel expectations can
        # legitimately shrink when the input mass spreads toward distant
        # inducing midpoints.  Violations are recorded; only gross ones
        # (suggesting a sign error) fail, and the wide-input limit must hit
        # its closed form sigma_h^2 + 1/beta exactly.
        model = set_first_latent(tiny_model(seed=27))
        layer = model.hidden_layers[0]
        scale = layer.kernel.sigma_h_sq + 1.0 / layer.beta
        rng = np.random.default_rng(3)
        violations = []
        for k in range(20):
            means = rng.normal(size=(1, 2))
            base_var = rng.uniform(0.05, 0.5, (1, 2))
            _, v1 = propagate(model, 0, (means, base_var))
            _, v4 = propagate(model, 0, (means, 4.0 * base_var))
            worst = float((v1 - v4).max())
            if worst > 1e-9:
                violations.append(worst)
        if violations:
            print(f"\nvariance-inflation probe: {len(violations)} of 20 "
                  f"instances shrank, worst {max(violations):.3e}")
            assert max(violations) < 0.25 * scale
        _, v_wide = propagate(model, 0, (np.zeros((1, 2)),
                                         np.full((1, 2), 1e12)))
        np.testing.assert_allclose(v_wide, scale, rtol=1e-6)


class TestPredict:
    def test_training_fit_correlation_on_benchmark(self):
        X, Y, _, _ = benchmark_1d(seed=31)
        model = train_deep(X, Y, dims=[1], m_inducing=[25], iters=150, seed=3)
        mean, var = predict(model, X)
        r = np.corrcoef(mean.ravel(), Y.ravel())[0, 1]
        assert r > 0.95
        assert np.all(var > 0)
