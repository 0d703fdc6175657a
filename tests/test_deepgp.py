import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.optimize
import scipy.spatial.distance
from scipy.linalg.lapack import dpotrf, dtrtri

from dgpuq import cli, deepgp, gplvm, io
from dgpuq.kernels import (RBFParams, ARDParams, gram, chol_psd,
                           DimensionMismatchError)
from dgpuq.gplvm import (VariationalLatent, InducingSet, LayerState, layer_bound,
                         _phi_forward)
from dgpuq.deepgp import (DeepGPModel, InputLayer, elbo, elbo_grad_vector,
                          pack_params, unpack_params, train_deep,
                          predict_layer1, propagate, predict,
                          _input_cov, _first_latent_forward, _first_latent_grads,
                          _tri_inv_lower, _TRI_LEAF)
from dgpuq.rng import rng_for
from helpers import (mc_phi_oracle, loop_phi_forward, loop_first_latent_forward,
                     loop_first_latent_grads, two_gram_predict, exact_gp_chol,
                     exact_gp_model, dense_gp_logml, one_realization,
                     predict_one_set, spy_ascend)

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


def exact_gp_fit(X, Y):
    """(kernel, noise_var) of the exact GP of Y on X: log tau0_sq, log b and
    log noise_var maximize :func:`helpers.dense_gp_logml` by L-BFGS-B, from
    signal variance var(Y), the median-heuristic inverse scales and noise
    variance var(Y) / 100."""
    def unpack(theta):
        return (RBFParams(tau0_sq=np.exp(theta[0]),
                          lengthscale_inv=np.exp(theta[1:-1])),
                float(np.exp(theta[-1])))

    def neg_logml(theta):
        kern, noise_var = unpack(theta)
        return -dense_gp_logml(gram(X, X, kern), noise_var, Y)

    y_var = float(np.var(Y))
    med = np.median(scipy.spatial.distance.pdist(X, "sqeuclidean"))
    theta0 = np.log(np.concatenate([[y_var], np.full(X.shape[1], 1.0 / med),
                                    [0.01 * y_var]]))
    return unpack(scipy.optimize.minimize(neg_logml, theta0,
                                          method="L-BFGS-B").x)


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
        kern, noise_var = exact_gp_fit(X, Y)
        gpm = exact_gp_model(kern, noise_var, X, Y)
        mu_gp, _ = two_gram_predict(X, kern, exact_gp_chol(X, kern, noise_var),
                                    gpm.input_layer.mu_bar, Xte)
        rmse_gp = float(np.sqrt(np.mean((mu_gp - Yte) ** 2)))
        model = train_deep(X, Y, dims=[1], m_inducing=[50], iters=300, seed=0,
                           init_iters=150)
        mu_d, _ = predict(model, Xte)
        rmse_d = float(np.sqrt(np.mean((mu_d - Yte) ** 2)))
        assert rmse_d <= 1.1 * rmse_gp

    def test_one_layer_fit_stops_well_inside_its_budget(self, monkeypatch):
        # the fit above: 150 greedy and 300 joint steps of budget, most of
        # which the relative-gain stop leaves unused
        runs = []
        for module in (gplvm, deepgp):
            spy_ascend(monkeypatch, module, runs)
        X, Y, _, _ = benchmark_1d()
        train_deep(X, Y, dims=[1], m_inducing=[50], iters=300, seed=0,
                   init_iters=150)
        assert len(runs) == 3
        assert sum(r["value_evals"] for r in runs) <= 300

    def test_optimizer_record_lists_every_ascent_and_reloads(self, monkeypatch,
                                                             tmp_path):
        runs = []
        for module in (gplvm, deepgp):
            spy_ascend(monkeypatch, module, runs)
        X, Y, _, _ = benchmark_1d(seed=8, n=20)
        model = train_deep(X, np.hstack([Y, Y ** 2]), dims=[2, 2],
                           m_inducing=[5, 5], iters=7, seed=2, init_iters=12)
        io.save_model(tmp_path, model)
        record = io.load_model(tmp_path).training_meta["optimizer"]
        # the greedy stack fits layer 2 first; each fit's warm phase holds
        # beta for min(50, init_iters // 3) steps
        assert [(r["phase"], r.get("layer"), r["budget"]) for r in record] == [
            ("greedy warm", 2, 4), ("greedy full", 2, 8),
            ("greedy warm", 1, 4), ("greedy full", 1, 8), ("joint", None, 7)]
        keys = ("budget", "accepted", "value_evals", "grad_evals")
        assert [{k: r[k] for k in keys} for r in record] == [
            {k: r[k] for k in keys} for r in runs]
        assert {r["stop"] for r in record} <= {
            "budget", "converged", "no step", "zero gradient", "gradient failed"}
        # the last failure's reason is kept exactly when some call failed
        assert all((r["failure"] is None) == (r["failed"] == 0)
                   for r in record)

    @pytest.mark.parametrize("phase, quantity", [
        ("greedy fit", "sigma_h_sq"), ("greedy fit", "largest ARD weight"),
        ("joint phase", "sigma_h_sq"), ("joint phase", "largest ARD weight")])
    def test_degenerate_layer_raises_naming_it(self, monkeypatch, phase,
                                               quantity):
        X, Y, _, _ = benchmark_1d(seed=8, n=20)
        Y = np.hstack([Y, Y ** 2])
        fit = dict(dims=[2, 2], m_inducing=[5, 5], iters=5, seed=2,
                   init_iters=9)
        if phase == "greedy fit":
            # layer 2 is fitted first
            real = deepgp.train_gplvm

            def collapsing(*args, **kwargs):
                layer, trace = real(*args, **kwargs)
                k = layer.kernel
                layer.kernel = (
                    ARDParams(1e-12 * k.sigma_h_sq, k.weights)
                    if quantity == "sigma_h_sq"
                    else ARDParams(k.sigma_h_sq, 1e-12 * k.weights))
                return layer, trace

            monkeypatch.setattr(deepgp, "train_gplvm", collapsing)
        else:
            # the joint phase's parameter layout, from a fit of the same shape
            spec = deepgp._layout(train_deep(X, Y, **fit))[0]
            name = {"sigma_h_sq": "sigma_h_sq1",
                    "largest ARD weight": "weights1"}[quantity]
            real = deepgp.ascend

            def collapsing(value_and_grad, x0, iters):
                x, trace = real(value_and_grad, x0, iters)
                values = spec.unpack(x)
                values[name] = 1e-12 * values[name]
                return spec.pack(values), trace

            monkeypatch.setattr(deepgp, "ascend", collapsing)
        with pytest.raises(FloatingPointError,
                           match=f"layer 2 degenerated in the {phase}: its "
                                 f"{quantity} fell from .* below 1e-06 of "
                                 "its start"):
            train_deep(X, Y, **fit)

    def test_bound_not_finite_at_the_joint_start_raises_naming_the_layer(
            self, monkeypatch):
        # beta ** 2 overflows in layer 1's bound, the first the joint
        # bound evaluates after the input layer
        real = deepgp.train_gplvm

        def noiseless(*args, **kwargs):
            layer, trace = real(*args, **kwargs)
            layer.beta = 1e200
            return layer, trace

        monkeypatch.setattr(deepgp, "train_gplvm", noiseless)
        X, Y, _, _ = benchmark_1d(seed=8, n=20)
        with pytest.raises(FloatingPointError,
                           match="the joint bound is not finite at its start: "
                                 "layer 1: "):
            train_deep(X, np.hstack([Y, Y ** 2]), dims=[2, 2],
                       m_inducing=[5, 5], iters=5, seed=2, init_iters=9)

    def test_bound_not_finite_at_the_joint_start_runs_its_forward_once(
            self, monkeypatch):
        # the start above: the reason for the failure is the one the
        # objective kept, not that of a second forward at x0
        real, real_forward = deepgp.train_gplvm, deepgp._deep_forward
        forwards = []

        def noiseless(*args, **kwargs):
            layer, trace = real(*args, **kwargs)
            layer.beta = 1e200
            return layer, trace

        def counted(*args, **kwargs):
            forwards.append(args)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(deepgp, "train_gplvm", noiseless)
        monkeypatch.setattr(deepgp, "_deep_forward", counted)
        X, Y, _, _ = benchmark_1d(seed=8, n=20)
        with pytest.raises(FloatingPointError, match="layer 1: "):
            train_deep(X, np.hstack([Y, Y ** 2]), dims=[2, 2],
                       m_inducing=[5, 5], iters=5, seed=2, init_iters=9)
        assert len(forwards) == 1

    def test_greedy_fit_that_cannot_start_exits_3_naming_layer_and_reason(
            self, tmp_path, capsys, monkeypatch):
        # the first greedy fit is of the last layer, layer 2: its first
        # bound evaluation fails, so its warm phase cannot start
        assert cli.main(["gen-data", "--n", "10", "--grid", "16",
                         "--out-grid", "8", "--kle", "10", "--seed", "3",
                         "--out", str(tmp_path / "d")]) == 0
        capsys.readouterr()
        real, calls = gplvm.layer_bound, []

        def failing_first(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return real(*args, **kwargs)

        monkeypatch.setattr(gplvm, "layer_bound", failing_first)
        code = cli.main(["train", "--data", str(tmp_path / "d"), "--dims",
                         "3,3", "--inducing", "4,4", "--iters", "2",
                         "--init-iters", "3", "--out", str(tmp_path / "m")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numeric failure: layer 2: the GP-LVM bound is not finite at the "
            "start of its warm phase: Matrix is not positive definite\n")
        assert len(calls) == 1

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two training points"):
            train_deep(np.zeros((1, 1)), [[0.0, 1.0]], dims=[1],
                       m_inducing=[1], iters=100, init_iters=150)

    @pytest.mark.parametrize("Y, dims, error, message", [
        pytest.param(np.ones((3, 2)), [1], DimensionMismatchError,
                     "training rows: expected length 4, got 3",
                     id="row-mismatch"),
        pytest.param(np.ones((4, 2)), [], ValueError,
                     "at least one latent layer", id="no-layer")])
    def test_bad_training_set_raises_naming_it(self, Y, dims, error, message):
        with pytest.raises(error, match=message):
            train_deep(np.zeros((4, 1)), Y, dims=dims, m_inducing=[2],
                       iters=100, init_iters=150)

    @pytest.mark.parametrize("dims, inducing, message", [
        pytest.param([300, 2], [5, 5], "layer 1: latent dimension must "
                     "satisfy 1 <= q <= 2, got 300", id="inner-latent"),
        pytest.param([2, 5], [5, 5], "layer 2: latent dimension must "
                     "satisfy 1 <= q <= 2, got 5", id="last-latent"),
        pytest.param([2, 2], [60, 6], "layer 1: inducing count must "
                     "satisfy 1 <= m <= 20, got 60", id="inducing")])
    def test_layer_shape_checked_before_any_fit(self, monkeypatch, dims,
                                                inducing, message):
        # the greedy stack fits layer 2 first: no fit may run before a
        # later layer's shape is found wrong
        fits = []
        monkeypatch.setattr(deepgp, "train_gplvm",
                            lambda *args, **kwargs: fits.append(args))
        X, Y, _, _ = benchmark_1d(seed=8, n=20)
        with pytest.raises(ValueError, match=message):
            train_deep(X, np.hstack([Y, Y ** 2]), dims=dims,
                       m_inducing=inducing, iters=1, init_iters=3)
        assert fits == []

    @pytest.mark.parametrize("routine, matrix", [
        pytest.param(dpotrf, [[-1.0]], id="dpotrf-indefinite"),
        pytest.param(dtrtri, [[0.0]], id="dtrtri-singular")])
    def test_failed_lapack_call_names_the_routine(self, routine, matrix):
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"{routine.__name__} failed with info=1"):
            deepgp._lapack_checked(routine, np.array(matrix), lower=1)

    def test_joint_phase_is_the_only_ascent(self, monkeypatch):
        calls = []
        real = deepgp.ascend

        def spied(value_and_grad, x0, iters):
            calls.append(np.array(x0))
            return real(value_and_grad, x0, iters)

        monkeypatch.setattr(deepgp, "ascend", spied)
        X, Y, _, _ = benchmark_1d(seed=5, n=20)
        model = train_deep(X, Y, dims=[1], m_inducing=[8], iters=3, seed=1,
                           init_iters=5)
        (x0,) = calls
        assert x0.size == pack_params(model).size

    def test_input_layer_starts_in_closed_form(self, monkeypatch):
        greedy = []
        real = deepgp.train_gplvm

        def spied(*args, **kwargs):
            layer, trace = real(*args, **kwargs)
            greedy.append(layer.latent)
            return layer, trace

        monkeypatch.setattr(deepgp, "train_gplvm", spied)
        rng = rng_for(9)
        X = rng.uniform(0, 1, (30, 2))
        Y = np.column_stack([np.sin(2 * np.pi * X[:, 0]), X[:, 0] * X[:, 1],
                             np.cos(np.pi * X[:, 1])])
        il = train_deep(X, Y, dims=[2, 2], m_inducing=[8, 8], iters=0,
                        seed=1, init_iters=5).input_layer
        first = greedy[-1]          # layer 0 is fitted last
        M = first.means
        m_var = float(np.var(M))
        d = X[:, None, :] - X[None, :, :]
        sq = np.sum(d * d, axis=-1)
        b = np.full(2, 1.0 / np.median(sq[np.triu_indices(30, k=1)]))
        kern = RBFParams(tau0_sq=m_var, lengthscale_inv=b)
        C = gram(X, X, kern) + 0.01 * m_var * np.eye(30)
        assert rel_err(il.kernel.sigma_h_sq, m_var) <= 1e-12
        assert rel_err(il.kernel.weights, 2.0 * b) <= 1e-12
        assert rel_err(il.noise_var, 0.01 * m_var) <= 1e-12
        assert rel_err(il.mu_bar, np.linalg.solve(C, M)) <= 1e-12
        assert rel_err(il.lam, 1.0 / first.variances) <= 1e-12

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
            train_deep(X, Y, dims=[2], m_inducing=[2, 3], iters=1,
                       init_iters=150)
        with pytest.raises(ValueError, match="Y has zero variance"):
            train_deep(X, Y, dims=[2], m_inducing=[2], iters=1,
                       init_iters=150)


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
        mean, _ = predict_one_set(model, X)
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
        mean, _ = predict_one_set(model, X)
        expect = K @ il.mu_bar
        np.testing.assert_allclose(mean, expect, rtol=0,
                                   atol=1e-10 * np.abs(expect).max())

    def test_prior_reversion_far_from_data(self):
        model = tiny_model(seed=13)
        mean, cov = predict_one_set(model, np.full((1, 2), 60.0))
        assert np.abs(mean).max() < 1e-6
        assert cov[0, 0] == pytest.approx(model.input_layer.kernel.sigma_h_sq,
                                          rel=1e-6)

    def test_matches_exact_gp_predict(self):
        model = tiny_model(seed=15)
        il = model.input_layer
        C = gram(model.X, model.X, il.kernel) + il.noise_var * np.eye(10)
        M1 = C @ il.mu_bar
        gpm = exact_gp_model(il.kernel, il.noise_var, model.X, M1)
        rng = np.random.default_rng(0)
        Xs = rng.normal(size=(6, 2))
        mean_a, cov_a = predict_one_set(model, Xs)
        mean_b, cov_b = two_gram_predict(
            model.X, il.kernel, exact_gp_chol(model.X, il.kernel, il.noise_var),
            gpm.input_layer.mu_bar, Xs)
        np.testing.assert_allclose(mean_a, mean_b, atol=1e-10)
        np.testing.assert_allclose(cov_a, cov_b, atol=1e-10)


    def test_stacked_sets_match_lone_calls(self):
        # 1024 input columns put the cross-Gram and the solve on OpenBLAS's
        # blocked kernels, which round a column the same in a stacked
        # product as alone
        rng = np.random.default_rng(23)
        model = tiny_model(seed=23, n=96, kappa=1024)
        model.input_layer.kernel = RBFParams(1.2,
                                             rng.uniform(0.5, 1.5, 1024) / 1024)
        Xs = rng.normal(size=(3, 30, 1024))
        mean, cov = predict_layer1(model, Xs)
        assert mean.shape == (3, 30, 2) and cov.shape == (3, 30, 30)
        for k in range(3):
            mean_k, cov_k = predict_one_set(model, Xs[k])
            np.testing.assert_array_equal(mean[k], mean_k)
            np.testing.assert_array_equal(cov[k], cov_k)

    def test_inputs_above_three_dimensions_rejected(self):
        with pytest.raises(ValueError, match="a stack"):
            predict_layer1(tiny_model(), np.zeros((2, 2, 3, 2)))

    def test_rebuilt_cache_reproduces_the_prediction(self):
        model = tiny_model(seed=19)
        Xs = np.random.default_rng(1).normal(size=(5, 2))
        mean_a, cov_a = predict_one_set(model, Xs)
        factors = deepgp.prediction_factors(model)
        # the cache keeps n weighted norms, not the scaled n x kappa inputs
        assert factors["input_norms"].shape == (1, model.X.shape[0])
        mean_o, cov_o = two_gram_predict(model.X, model.input_layer.kernel,
                                         factors["input_chol"],
                                         model.input_layer.mu_bar, Xs)
        assert rel_err(mean_a, mean_o) <= 1e-12
        assert rel_err(cov_a, cov_o) <= 1e-12
        model._pred_cache.clear()
        mean_b, cov_b = predict_one_set(model, Xs)
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
        Dmat = (np.linalg.inv(cache.Kuu)
                - np.linalg.inv(cache.Kuu + layer.beta * cache.phi2))
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
            factors = deepgp.prediction_factors(model)
            V, B = factors[f"layer{t}_V"], factors[f"layer{t}_B"]
            layer = model.hidden_layers[t]
            kern = layer.kernel
            _, phi1, T, _ = loop_phi_forward(kern, means, variances,
                                             layer.inducing.inputs)
            tr_term = np.einsum("tkl,kl->t", T, B @ B.T)
            quad = np.einsum("tkl,kj,lj->tj", T, V, V)
            mean_or = phi1 @ V
            var_or = np.maximum(kern.sigma_h_sq - tr_term[:, None] + quad
                                - mean_or * mean_or, 0.0) + 1.0 / layer.beta
            np.testing.assert_allclose(mean, mean_or, rtol=1e-12,
                                       atol=1e-12 * np.abs(mean_or).max())
            np.testing.assert_allclose(var, var_or, rtol=1e-12,
                                       atol=1e-12 * kern.sigma_h_sq)
            means = mean_or
            variances = var_or + 1e-3

    def test_contracted_posterior_is_psd_on_an_ill_conditioned_layer(
            self, monkeypatch):
        # a near-linear layer: a large signal variance, tiny ARD weights and
        # inducing inputs a hair from training latents make Kuu
        # ill-conditioned, so Phi2's roundoff, amplified through Kuu^-1,
        # turns Kuu^-1 - A^-1 formed as two inverses indefinite (eigenvalues
        # down to about -5 times the largest); B B^T stays PSD to rounding
        rng = np.random.default_rng(0)
        n, q, m = 60, 2, 12
        H = rng.normal(size=(n, q))
        Y = np.column_stack([np.sin(H[:, 0]), H[:, 0] * H[:, 1], H[:, 1]])
        Y += 0.01 * rng.normal(size=Y.shape)
        il = InputLayer(kernel=RBFParams(tau0_sq=1.0,
                                         lengthscale_inv=np.ones(2)),
                        noise_var=0.1, mu_bar=0.3 * rng.normal(size=(n, q)),
                        lam=np.full((n, q), 2.0))
        Z = H[rng.choice(n, m, replace=False)] + 1e-3 * rng.normal(size=(m, q))
        layer = LayerState(kernel=ARDParams(150.0, np.full(q, 2e-4)),
                           beta=5e3,
                           latent=VariationalLatent(H, np.full((n, q), 0.01)),
                           inducing=InducingSet(inputs=Z))
        model = DeepGPModel(X=rng.normal(size=(n, 2)), Y=Y, input_layer=il,
                            hidden_layers=[layer], dims=[q])
        seen, real = [], deepgp._pair_weights

        def spy(W):
            seen.append(W.copy())
            return real(W)

        monkeypatch.setattr(deepgp, "_pair_weights", spy)
        propagate(model, 0, (H[:5], np.full((5, q), 0.01)))
        assert len(seen) == 1 and seen[0].shape == (m, m)
        eig = np.linalg.eigvalsh(seen[0])
        assert eig[-1] > 0.0
        assert eig[0] >= -1e-12 * eig[-1]

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
    def test_marginal_variance_is_the_joint_diagonal(self):
        model = set_first_latent(tiny_model(seed=29))
        # test inputs away from the training rows, where sigma^2 - |v|^2
        # does not cancel
        Xs = np.random.default_rng(2).normal(size=(15, 2)) + 3.0
        mean, cov = predict_one_set(model, Xs)
        # predict's first layer alone: the same model with no sparse layer
        first = DeepGPModel(X=model.X, Y=model.Y, input_layer=model.input_layer,
                            hidden_layers=[], dims=model.dims[:1])
        mean_m, var_m = predict(first, Xs)
        np.testing.assert_array_equal(mean_m, mean)
        sigma2 = model.input_layer.kernel.sigma_h_sq
        v1 = np.diag(cov) + model.input_layer.noise_var
        assert np.abs(var_m - v1[:, None]).max() <= 1e-12 * sigma2
        # and predict chains those marginals through the sparse layers
        moments = (mean, np.repeat(v1[:, None], mean.shape[1], axis=1))
        for t in range(model.n_latents):
            moments = propagate(model, t, moments)
        for got, want in zip(predict(model, Xs), moments):
            assert rel_err(got, want) <= 1e-12

    def test_never_forms_a_test_by_test_array(self):
        n_star = 1500
        model = set_first_latent(tiny_model(seed=31))
        Xs = np.random.default_rng(3).normal(size=(n_star, 2))
        predict(model, Xs[:5])          # builds the prediction caches
        tracemalloc.start()
        try:
            predict(model, Xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n_star * n_star * 8

    def test_installed_factors_predict_bit_identically(self):
        model = set_first_latent(tiny_model(seed=37, dims=(2, 3)))
        Xs = np.random.default_rng(5).normal(size=(6, 2))
        factors = deepgp.prediction_factors(model)
        assert set(factors) == {"input_chol", "input_norms", "layer0_V",
                                "layer0_B", "layer1_V", "layer1_B"}
        mean_a, var_a = predict(model, Xs)
        # copies in C order, as a matrix container reads them back
        fresh = deepgp.model_from_arrays(
            {k: np.array(v, order="C")
             for k, v in deepgp.model_arrays(model).items()}, model.dims)
        assert fresh._pred_cache["input_chol"].flags.f_contiguous
        mean_b, var_b = predict(fresh, Xs)
        np.testing.assert_array_equal(mean_a, mean_b)
        np.testing.assert_array_equal(var_a, var_b)

    @pytest.mark.parametrize("call, Xs, error, message", [
        (predict, np.zeros((3, 5)), DimensionMismatchError, "predict columns"),
        (predict_layer1, np.zeros((1, 3, 5)), DimensionMismatchError,
         "predict columns"),
        (predict_layer1, np.zeros((2, 3, 5)), DimensionMismatchError,
         "predict columns"),
        (predict_layer1, np.zeros((3, 2)), ValueError, "expected a stack")],
        ids=["predict", "predict_layer1", "predict_layer1_stacked",
             "predict_layer1_one_set"])
    def test_column_check_comes_before_any_factor(self, monkeypatch, call, Xs,
                                                  error, message):
        model = set_first_latent(tiny_model(seed=43))
        calls = []

        def spy(name, real):
            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counted

        for name in ("chol_psd", "layer_bound"):
            monkeypatch.setattr(deepgp, name, spy(name, getattr(deepgp, name)))
        with pytest.raises(error, match=message):
            call(model, Xs)
        assert calls == []
        assert model._pred_cache == {}
        predict(model, model.X[:3])         # the spies do see a build
        assert calls == ["chol_psd", "layer_bound", "layer_bound"]

    def test_a_failed_build_leaves_no_factor(self, monkeypatch):
        model = set_first_latent(tiny_model(seed=41, dims=(2, 3)))
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("layer 1 is not factorable")
            return layer_bound(*args, **kwargs)

        monkeypatch.setattr(deepgp, "layer_bound", failing)
        with pytest.raises(np.linalg.LinAlgError, match="not factorable"):
            predict(model, model.X[:3])
        assert len(calls) == 2
        assert model._pred_cache == {}

    @pytest.mark.parametrize("edit, message", [
        (lambda f: f.pop("layer1_B"), "'layer1_B' is missing"),
        (lambda f: f.update(layer2_V=np.ones((3, 2))), "unknown .* 'layer2_V'"),
        (lambda f: f.update(input_norms=np.ones((10, 1))),
         r"'input_norms' has shape \(10, 1\), expected \(1, 10\)"),
        (lambda f: f.update(X=np.ones(10)),
         r"'X' has shape \(10,\), expected \('n', 'kappa'\)"),
        (lambda f: f.update(Y=np.ones((9, 2))),
         r"'Y' has shape \(9, 2\), expected \(10, 2\)"),
        (lambda f: f.update(b=np.ones((2, 2))),
         r"'b' has shape \(2, 2\), expected \(2,\)"),
        (lambda f: f.update(tau0_sq=np.ones(1)),
         r"'tau0_sq' has shape \(1,\), expected \(\)"),
        (lambda f: f.update(layer1_V=np.ones((3, 3))),
         r"'layer1_V' has shape \(3, 3\), expected \(3, 2\)")])
    def test_install_names_a_wrong_factor(self, edit, message):
        model = tiny_model(seed=37)
        arrays = deepgp.model_arrays(model)
        cached = dict(model._pred_cache)
        edit(arrays)
        with pytest.raises(ValueError, match=message):
            deepgp.model_from_arrays(arrays, model.dims)
        assert model._pred_cache == cached

    def test_training_fit_correlation_on_benchmark(self):
        X, Y, _, _ = benchmark_1d(seed=31)
        model = train_deep(X, Y, dims=[1], m_inducing=[25], iters=150, seed=3,
                           init_iters=150)
        mean, var = predict(model, X)
        r = np.corrcoef(mean.ravel(), Y.ravel())[0, 1]
        assert r > 0.95
        assert np.all(var > 0)


class TestModelArrays:
    @pytest.mark.parametrize("dims", [(2,), (2, 3), (2, 3, 2)],
                             ids=["1-layer", "2-layer", "3-layer"])
    def test_round_trip_is_exact(self, dims):
        model = set_first_latent(tiny_model(seed=53, dims=dims))
        arrays = deepgp.model_arrays(model)
        back = deepgp.model_from_arrays(arrays, model.dims)
        again = deepgp.model_arrays(back)
        assert again.keys() == arrays.keys()
        for name, value in arrays.items():
            assert np.array_equal(again[name], value), name
        Xs = np.random.default_rng(9).normal(size=(6, 2))
        for got, want in zip(predict(back, Xs), predict(model, Xs)):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(one_realization(back, Xs, 4),
                                      one_realization(model, Xs, 4))

    def test_one_row_block_is_taken_as_one_dimensional(self):
        model = tiny_model(seed=59)
        arrays = deepgp.model_arrays(model)
        rows = dict(arrays, b=arrays["b"][None, :],
                    weights1=arrays["weights1"][None, :])
        back = deepgp.model_from_arrays(rows, model.dims)
        np.testing.assert_array_equal(back.input_layer.kernel.weights,
                                      model.input_layer.kernel.weights)
        np.testing.assert_array_equal(back.hidden_layers[1].kernel.weights,
                                      model.hidden_layers[1].kernel.weights)

    def test_dims_fix_the_layer_count(self):
        model = tiny_model(seed=67, dims=(2, 3))
        arrays = deepgp.model_arrays(model)
        with pytest.raises(ValueError, match="model array 'Hu1' is missing"):
            deepgp.model_from_arrays(
                {k: v for k, v in arrays.items() if not k.endswith("1")
                 and not k.startswith("layer1")}, model.dims)
        with pytest.raises(ValueError, match="unknown model array 'Hu1'"):
            deepgp.model_from_arrays(arrays, model.dims[:1])
        with pytest.raises(ValueError, match="at least one latent"):
            deepgp.model_from_arrays(arrays, [])
