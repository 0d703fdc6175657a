"""The exact-GP input layer of :mod:`dgpuq.deepgp`: the fit that starts it
(``_input_fit`` and its forward and backward halves) and the first latent's
predictive, read from a model whose first latent is an exact GP."""

import numpy as np
import pytest
import scipy.linalg

from dgpuq import deepgp
from dgpuq.deepgp import predict_layer1
from dgpuq.kernels import RBFParams, gram, DimensionMismatchError
from helpers import (ard_case, central_diff, dense_gp_logml, dense_gp_predict,
                     exact_gp_chol, exact_gp_model, two_gram_predict)

LOG_2PI = np.log(2.0 * np.pi)


def random_case(rng, n=5, kappa=2, nu=2, noise=0.3):
    """(kernel, noise_var, X, Y) of a random exact GP."""
    X = rng.normal(size=(n, kappa))
    Y = rng.normal(size=(n, nu))
    kern = RBFParams(tau0_sq=rng.uniform(0.5, 2.0),
                     lengthscale_inv=rng.uniform(0.2, 1.5, kappa))
    return kern, noise, X, Y


def random_model(rng, **kwargs):
    return exact_gp_model(*random_case(rng, **kwargs))


def log_marginal(kern, noise_var, X, Y):
    return deepgp._input_fit_forward(kern, noise_var, np.asarray(X, float),
                                     np.asarray(Y, float))[0]


def log_marginal_grad(kern, noise_var, X, Y):
    """The fit's gradient as [d log tau0_sq, d log b, d log noise_var]."""
    g = deepgp._input_fit_backward(
        deepgp._input_fit_forward(kern, noise_var, X, Y)[1])
    return np.concatenate([[g["tau0_sq"]], g["b"], [g["noise_var"]]])


def oracle_predict(model, Xstar):
    """:func:`helpers.two_gram_predict` over the exact GP's own factor."""
    il = model.input_layer
    return two_gram_predict(model.X, il.kernel,
                            exact_gp_chol(model.X, il.kernel, il.noise_var),
                            il.mu_bar, Xstar)


class TestLogMarginal:
    def test_single_point_unit_variance(self):
        # k(x,x) + noise = 0.5 + 0.5 = 1, y = 0 -> -log(2 pi)/2 per column
        kern = RBFParams(tau0_sq=0.5, lengthscale_inv=np.array([1.0]))
        assert (log_marginal(kern, 0.5, [[0.0]], [[0.0, 0.0, 0.0]])
                == pytest.approx(-1.5 * LOG_2PI, abs=1e-12))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 2))
        Y = rng.normal(size=(6, 3))
        kern = RBFParams(tau0_sq=1.2, lengthscale_inv=np.array([0.5, 1.1]))
        a = log_marginal(kern, 0.2, X, Y)
        perm = rng.permutation(6)
        b = log_marginal(kern, 0.2, X[perm], Y[perm])
        assert a == pytest.approx(b, abs=1e-9)

    def test_matches_textbook_formula_n3(self):
        rng = np.random.default_rng(1)
        kern, noise, X, Y = random_case(rng, n=3, kappa=2, nu=2)
        expected = dense_gp_logml(gram(X, X, kern), noise, Y)
        assert log_marginal(kern, noise, X, Y) == pytest.approx(expected,
                                                                abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        kern0, noise, X, Y = random_case(rng, n=7, kappa=2, nu=2)
        g = log_marginal_grad(kern0, noise, X, Y)

        def fun(theta):
            kern = RBFParams(tau0_sq=np.exp(theta[0]),
                             lengthscale_inv=np.exp(theta[1:3]))
            return log_marginal(kern, float(np.exp(theta[3])), X, Y)

        theta0 = np.concatenate([[np.log(kern0.sigma_h_sq)],
                                 np.log(0.5 * kern0.weights),
                                 [np.log(noise)]])
        fd = central_diff(fun, theta0)
        rel = np.abs(g - fd) / (np.abs(fd) + 1e-8)
        assert rel.max() < 1e-4


class TestFit:
    def test_noise_free_data_drives_noise_down(self):
        rng = np.random.default_rng(3)
        X = np.linspace(0, 1, 40)[:, None]
        Y = np.sin(2 * np.pi * X)
        _, noise_var, _ = deepgp._input_fit(X, Y, 250)
        assert noise_var < 1e-3 * np.var(Y)

    def test_output_scale_doubling_scales_signal_variance(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, (30, 1))
        Y = np.sin(2 * np.pi * X) + 0.05 * rng.standard_normal((30, 1))
        k1 = deepgp._input_fit(X, Y, 150)[0]
        k2 = deepgp._input_fit(X, 2.0 * Y, 150)[0]
        ratio = k2.sigma_h_sq / k1.sigma_h_sq
        assert 2.0 <= ratio <= 6.0

    def test_objective_trace_nondecreasing(self, monkeypatch):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (20, 1))
        Y = np.sin(2 * np.pi * X) + 0.1 * rng.standard_normal((20, 1))
        traces = []
        real = deepgp.ascend

        def spied(*args):
            x, trace = real(*args)
            traces.append(trace)
            return x, trace

        monkeypatch.setattr(deepgp, "ascend", spied)
        deepgp._input_fit(X, Y, 60)
        (trace,) = traces
        assert trace.size > 1
        assert np.all(np.diff(trace) >= -1e-9)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two training points"):
            deepgp.train_deep(np.zeros((1, 1)), [[0.0, 1.0]], dims=[1],
                              m_inducing=[1])


class TestPredict:
    """Exact-GP prediction is the deep model's first latent
    (:func:`deepgp.predict_layer1` for the joint covariance,
    :func:`deepgp.predict` for the marginals), here of a model with no
    sparse layer."""

    def test_interpolation_limit(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(0, 1, (8, 1))
        Y = np.cos(X)
        kern = RBFParams(tau0_sq=1.0, lengthscale_inv=np.array([2.0]))
        model = exact_gp_model(kern, 1e-12, X, Y)
        mean, cov = predict_layer1(model, X[3:4])
        assert abs(mean[0, 0] - Y[3, 0]) < 1e-6
        assert cov[0, 0] < 1e-6

    def test_prior_reversion_far_away(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (8, 1))
        Y = rng.normal(size=(8, 1))
        kern = RBFParams(tau0_sq=1.7, lengthscale_inv=np.array([1.0]))
        model = exact_gp_model(kern, 0.1, X, Y)
        mean, cov = predict_layer1(model, [[50.0]])
        assert abs(mean[0, 0]) < 1e-6
        assert cov[0, 0] == pytest.approx(1.7, abs=1e-6)

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (3, 1))
        Y = rng.normal(size=(3, 1))
        kern = RBFParams(tau0_sq=1.0, lengthscale_inv=np.array([1.5]))
        model = exact_gp_model(kern, 0.2, X, Y)
        Xs = rng.uniform(0, 1, (4, 1))
        mean, cov = predict_layer1(model, Xs)
        K = gram(X, X, kern)
        Ks = gram(X, Xs, kern)
        Kss = gram(Xs, Xs, kern)
        m_or, c_or = dense_gp_predict(K, Ks, Kss, 0.2, Y)
        np.testing.assert_allclose(mean, m_or, atol=1e-10)
        np.testing.assert_allclose(cov, c_or, atol=1e-10)

    def test_cholesky_path_matches_naive_inverse_up_to_n20(self):
        rng = np.random.default_rng(9)
        for n in (5, 12, 20):
            model = random_model(rng, n=n, kappa=2, nu=2)
            Xs = rng.normal(size=(6, 2))
            mean, cov = predict_layer1(model, Xs)
            il = model.input_layer
            K = gram(model.X, model.X, il.kernel)
            Ks = gram(model.X, Xs, il.kernel)
            Kss = gram(Xs, Xs, il.kernel)
            m_or, c_or = dense_gp_predict(K, Ks, Kss, il.noise_var, model.Y)
            np.testing.assert_allclose(mean, m_or, atol=1e-8)
            np.testing.assert_allclose(cov, c_or, atol=1e-8)

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, n=12, kappa=2, nu=1, noise=0.05)
        Xs = rng.normal(size=(30, 2)) * 2.0
        _, cov = predict_layer1(model, Xs)
        bound = (model.input_layer.kernel.sigma_h_sq
                 + model.input_layer.noise_var)
        assert np.all(np.diag(cov) <= bound + 1e-10)

    def test_column_mismatch(self):
        rng = np.random.default_rng(11)
        model = random_model(rng)
        with pytest.raises(DimensionMismatchError):
            predict_layer1(model, np.zeros((2, 3)))

    def test_column_check_comes_before_any_gram(self, monkeypatch):
        rng = np.random.default_rng(12)
        model = random_model(rng)

        def no_product(*args):
            raise AssertionError("a Gram matrix was formed")

        monkeypatch.setattr(deepgp, "predictive_grams", no_product)
        with pytest.raises(DimensionMismatchError):
            predict_layer1(model, np.zeros((2, 3)))

    def test_marginal_column_check_comes_before_any_gram(self, monkeypatch):
        rng = np.random.default_rng(14)
        model = random_model(rng)

        def no_product(*args):
            raise AssertionError("a Gram matrix was formed")

        monkeypatch.setattr(deepgp, "cross_gram", no_product)
        with pytest.raises(DimensionMismatchError):
            deepgp.predict(model, np.zeros((2, 3)))


def weighted_model(rng, n, kappa, spread, offset=0.0):
    """Model on rows from :func:`helpers.ard_case`, shifted by ``offset``."""
    kern, cols = ard_case(rng, kappa, spread)
    X = rng.normal(size=(n, kappa)) * cols + offset
    return exact_gp_model(kern, 0.05, X, rng.normal(size=(n, 3))), cols


def rel_to_max(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestPredictAgainstTwoGramOracle:
    @pytest.mark.parametrize("n, kappa, n_star, spread",
                             [(2, 1, 1, False), (30, 4, 7, False),
                              (60, 50, 20, True), (120, 300, 40, True),
                              (80, 200, 120, False)])
    def test_matches_oracle(self, n, kappa, n_star, spread):
        rng = np.random.default_rng(n + kappa + n_star)
        model, cols = weighted_model(rng, n, kappa, spread)
        Xs = rng.normal(size=(n_star, kappa)) * cols
        mean, cov = predict_layer1(model, Xs)
        mean_or, cov_or = oracle_predict(model, Xs)
        assert rel_to_max(mean, mean_or) <= 1e-12
        assert rel_to_max(cov, cov_or) <= 1e-12
        np.testing.assert_array_equal(cov, cov.T)

    @pytest.mark.parametrize("n, kappa, n_star", [(40, 8, 10), (50, 3, 5),
                                                  (60, 20, 12)])
    def test_offset_inputs_stay_within_expanded_form_rounding(self, n, kappa,
                                                              n_star):
        # at |x| ~ 1e3 the expanded form sum w (x^2 + x*^2 - 2 x x*) loses
        # ~1e-9 relative whichever way x w x* is associated; bound both
        # predictors' distance from direct differences by the summation
        # error sigma^2 (kappa + 2) eps sum_k w_k (x_k^2 + x*_k^2), carried
        # through the model's own factor to first order
        rng = np.random.default_rng(kappa)
        model, _ = weighted_model(rng, n, kappa, False, offset=1e3)
        X, kern = model.X, model.input_layer.kernel
        alpha = model.input_layer.mu_bar
        Xs = rng.normal(size=(n_star, kappa)) + 1e3

        def direct(A, B):
            d = A[:, None, :] - B[None, :, :]
            return kern.sigma_h_sq * np.exp(-0.5 * (d * d) @ kern.weights)

        def rounding(A, B):
            aa, bb = (A * A) @ kern.weights, (B * B) @ kern.weights
            return (kern.sigma_h_sq * (kappa + 2) * np.finfo(float).eps
                    * (aa[:, None] + bb[None, :]))

        Linv = scipy.linalg.solve_triangular(
            exact_gp_chol(X, kern, model.input_layer.noise_var), np.eye(n),
            lower=True)
        Ks, Kss = direct(X, Xs), direct(Xs, Xs)
        v = Linv @ Ks
        mean_ref, cov_ref = Ks.T @ alpha, Kss - v.T @ v
        B = rounding(X, Xs)
        mean_tol = B.T @ np.abs(alpha)
        cov_tol = rounding(Xs, Xs) + 2.0 * (np.abs(Linv) @ B).T @ np.abs(v)
        for mean, cov in (predict_layer1(model, Xs), oracle_predict(model, Xs)):
            assert np.all(np.abs(mean - mean_ref) <= mean_tol)
            assert np.all(np.abs(cov - cov_ref) <= cov_tol)

    def test_model_carries_the_self_gram_norms(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, n=9, kappa=3)
        _, norms = gram(model.X, model.X, model.input_layer.kernel,
                        return_norms=True)
        carried = deepgp.prediction_factors(model)["input_norms"]
        np.testing.assert_array_equal(carried, norms[None, :])
        assert carried.shape == (1, 9)


class TestFitGramReuse:
    def test_gradient_from_the_built_gram_is_bit_identical(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(15, 3))
        Y = rng.normal(size=(15, 2))
        kern = RBFParams(tau0_sq=1.1, lengthscale_inv=rng.uniform(0.2, 1.5, 3))
        state = deepgp._input_fit_forward(kern, 0.1, X, Y)[1]
        fresh = state[:3] + (gram(X, X, kern),) + state[4:]
        a = deepgp._input_fit_backward(state)
        b = deepgp._input_fit_backward(fresh)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_one_gram_per_evaluation(self, monkeypatch):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(12, 2))
        Y = rng.normal(size=(12, 1))
        calls = {"gram": 0, "chol_psd": 0}
        for name in calls:
            def counted(*args, _f=getattr(deepgp, name), _n=name, **kwargs):
                calls[_n] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(deepgp, name, counted)
        deepgp._input_fit(X, Y, 8)
        # every build factors one Gram; no gradient forms another
        assert calls["gram"] == calls["chol_psd"] > 8
