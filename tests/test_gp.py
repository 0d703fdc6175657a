"""The exact-GP input layer of :mod:`dgpuq.deepgp`: the first latent's
predictive, read from a model whose first latent is an exact GP."""

import numpy as np
import pytest
import scipy.linalg

from dgpuq import deepgp
from dgpuq.kernels import RBFParams, gram, DimensionMismatchError
from helpers import (ard_case, dense_gp_predict, exact_gp_chol,
                     exact_gp_model, predict_one_set, two_gram_predict)


def random_case(rng, n=5, kappa=2, nu=2, noise=0.3):
    """(kernel, noise_var, X, Y) of a random exact GP."""
    X = rng.normal(size=(n, kappa))
    Y = rng.normal(size=(n, nu))
    kern = RBFParams(tau0_sq=rng.uniform(0.5, 2.0),
                     lengthscale_inv=rng.uniform(0.2, 1.5, kappa))
    return kern, noise, X, Y


def random_model(rng, **kwargs):
    return exact_gp_model(*random_case(rng, **kwargs))


def oracle_predict(model, Xstar):
    """:func:`helpers.two_gram_predict` over the exact GP's own factor."""
    il = model.input_layer
    return two_gram_predict(model.X, il.kernel,
                            exact_gp_chol(model.X, il.kernel, il.noise_var),
                            il.mu_bar, Xstar)


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
        mean, cov = predict_one_set(model, X[3:4])
        assert abs(mean[0, 0] - Y[3, 0]) < 1e-6
        assert cov[0, 0] < 1e-6

    def test_prior_reversion_far_away(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (8, 1))
        Y = rng.normal(size=(8, 1))
        kern = RBFParams(tau0_sq=1.7, lengthscale_inv=np.array([1.0]))
        model = exact_gp_model(kern, 0.1, X, Y)
        mean, cov = predict_one_set(model, [[50.0]])
        assert abs(mean[0, 0]) < 1e-6
        assert cov[0, 0] == pytest.approx(1.7, abs=1e-6)

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0, 1, (3, 1))
        Y = rng.normal(size=(3, 1))
        kern = RBFParams(tau0_sq=1.0, lengthscale_inv=np.array([1.5]))
        model = exact_gp_model(kern, 0.2, X, Y)
        Xs = rng.uniform(0, 1, (4, 1))
        mean, cov = predict_one_set(model, Xs)
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
            mean, cov = predict_one_set(model, Xs)
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
        _, cov = predict_one_set(model, Xs)
        bound = (model.input_layer.kernel.sigma_h_sq
                 + model.input_layer.noise_var)
        assert np.all(np.diag(cov) <= bound + 1e-10)

    def test_column_mismatch(self):
        rng = np.random.default_rng(11)
        model = random_model(rng)
        with pytest.raises(DimensionMismatchError):
            deepgp.predict_layer1(model, np.zeros((1, 2, 3)))

    def test_column_check_comes_before_any_gram(self, monkeypatch):
        rng = np.random.default_rng(12)
        model = random_model(rng)

        def no_product(*args):
            raise AssertionError("a Gram matrix was formed")

        monkeypatch.setattr(deepgp, "predictive_grams", no_product)
        with pytest.raises(DimensionMismatchError):
            deepgp.predict_layer1(model, np.zeros((1, 2, 3)))

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
        mean, cov = predict_one_set(model, Xs)
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
        for mean, cov in (predict_one_set(model, Xs),
                          oracle_predict(model, Xs)):
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
