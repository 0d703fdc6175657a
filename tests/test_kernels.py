import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dgpuq import kernels
from dgpuq.kernels import (RBFParams, ARDParams, gram, predictive_grams,
                           chol_psd, downdate, pairwise_sqdist,
                           DimensionMismatchError)
from helpers import (ard_case, ard_eval, gemm_self_gram, loop_gram, two_pass_gram,
                     two_pass_sqdist)

# frozen from the direct scalar oracle: exp(-0.5)
EXP_HALF = 0.6065306597126334


class TestRbfEval:
    def test_zero_distance_returns_signal_variance(self):
        p = RBFParams(tau0_sq=2.0, lengthscale_inv=np.array([1.0, 1.0]))
        assert ard_eval((0.3, 0.7), (0.3, 0.7), p) == pytest.approx(2.0, abs=0)

    def test_weight_zero_direction_ignored(self):
        p = RBFParams(tau0_sq=3.5, lengthscale_inv=np.array([0.0, 5.0]))
        assert ard_eval((1.0, 0.0), (0.0, 0.0), p) == pytest.approx(3.5, abs=0)

    def test_scalar_oracle(self):
        p = RBFParams(tau0_sq=1.0, lengthscale_inv=np.array([0.5]))
        assert ard_eval([1.0], [0.0], p) == pytest.approx(EXP_HALF, abs=1e-12)

    def test_dimension_mismatch_names_both_lengths(self):
        p = RBFParams(tau0_sq=1.0, lengthscale_inv=np.array([1.0, 1.0]))
        with pytest.raises(DimensionMismatchError) as err:
            ard_eval([1.0, 2.0], [1.0], p)
        assert err.value.expected == 2
        assert err.value.got == 1

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
           st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, a, b):
        p = RBFParams(tau0_sq=1.7, lengthscale_inv=np.array([0.3, 1.0, 2.0]))
        assert ard_eval(a, b, p) == ard_eval(b, a, p)


class TestArdEval:
    def test_same_point(self):
        p = ARDParams(sigma_h_sq=3.0, weights=np.array([1.0, 2.0]))
        assert ard_eval((0.1, -0.4), (0.1, -0.4), p) == pytest.approx(3.0, abs=0)

    def test_scalar_oracle(self):
        p = ARDParams(sigma_h_sq=1.0, weights=np.array([1.0]))
        assert ard_eval([1.0], [0.0], p) == pytest.approx(EXP_HALF, abs=1e-12)

    def test_zero_weight_makes_coordinate_irrelevant(self):
        p = ARDParams(sigma_h_sq=2.0, weights=np.array([0.0, 4.0]))
        a = ard_eval((0.0, 0.3), (0.0, 0.5), p)
        b = ard_eval((7.0, 0.3), (-2.0, 0.5), p)
        assert a == pytest.approx(b, abs=0)

    def test_dimension_mismatch(self):
        p = ARDParams(sigma_h_sq=1.0, weights=np.array([1.0]))
        with pytest.raises(DimensionMismatchError):
            ard_eval([1.0, 2.0], [0.0, 0.0], p)

    def test_boundedness_and_equality_condition(self):
        p = ARDParams(sigma_h_sq=1.3, weights=np.array([0.5, 2.0]))
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.normal(size=2 * 2).reshape(2, 2)
            v = ard_eval(a, b, p)
            assert 0.0 < v <= p.sigma_h_sq
            if not np.array_equal(a, b):
                assert v < p.sigma_h_sq


class TestGram:
    def test_single_row_gives_signal_variance(self):
        p = ARDParams(sigma_h_sq=2.5, weights=np.array([1.0]))
        G = gram([[0.3]], [[0.3]], p)
        assert G.shape == (1, 1)
        assert G[0, 0] == pytest.approx(2.5, abs=0)

    def test_symmetry_random_5x3(self):
        rng = np.random.default_rng(1)
        A = rng.normal(size=(5, 3))
        p = RBFParams(tau0_sq=1.2, lengthscale_inv=rng.uniform(0.1, 2.0, 3))
        G = gram(A, A, p)
        assert np.array_equal(G, G.T)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(4, 2))
        B = rng.normal(size=(3, 2))
        p = ARDParams(sigma_h_sq=0.7, weights=np.array([1.4, 0.2]))
        G = gram(A, B, p)
        assert G.shape == (4, 3)
        expected = loop_gram(A, B, lambda a, b: ard_eval(a, b, p))
        np.testing.assert_allclose(G, expected, rtol=0, atol=1e-12)

    def test_rbf_form_is_ard_with_doubled_weights(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(7, 3))
        B = rng.normal(size=(5, 3))
        b = rng.uniform(0.1, 2.0, 3)
        p = RBFParams(tau0_sq=1.3, lengthscale_inv=b)
        assert isinstance(p, ARDParams)
        np.testing.assert_array_equal(p.weights, 2.0 * b)
        # tau0_sq * exp(-(x - x')^T diag(b) (x - x')), bit for bit
        expected = 1.3 * np.exp(-pairwise_sqdist(A, B, b))
        np.testing.assert_array_equal(gram(A, B, p), expected)

    def test_column_mismatch(self):
        p = RBFParams(tau0_sq=1.0, lengthscale_inv=np.array([1.0, 1.0]))
        with pytest.raises(DimensionMismatchError):
            gram(np.zeros((2, 2)), np.zeros((2, 3)), p)

    def test_no_rows_give_an_empty_gram_silently(self, capfd):
        # BLAS reports an empty dsyrk output as an illegal argument
        p = ARDParams(sigma_h_sq=1.0, weights=np.ones(3))
        X = np.zeros((0, 3))
        assert gram(X, X, p).shape == (0, 0)
        A = np.ones((2, 3))
        _, norms = gram(A, A, p, return_norms=True)
        Ks, Kss = predictive_grams(A, norms, X[None], p)
        assert Ks.shape == (2, 0) and Kss.shape == (1, 0, 0)
        assert downdate(Kss[0], Ks.T).shape == (0, 0)
        assert capfd.readouterr() == ("", "")

    def test_matches_double_loop_oracle_at_input_layer_width(self):
        X, p = spread_rows(np.random.default_rng(8), 70, 4096, True)
        expected = loop_gram(X, X, lambda a, b: ard_eval(a, b, p))
        np.testing.assert_allclose(gram(X, X, p), expected, rtol=0,
                                   atol=1e-12 * p.sigma_h_sq)

    @given(st.integers(1, 40), st.integers(1, 64), st.booleans(),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_self_gram_is_exactly_symmetric_and_bounded(self, n, kappa, spread,
                                                        seed):
        rng = np.random.default_rng(seed)
        X, p = spread_rows(rng, n, kappa, spread)
        if kappa > 1:
            w = p.weights.copy()
            w[rng.integers(kappa)] = 0.0
            p = ARDParams(sigma_h_sq=p.sigma_h_sq, weights=w)
        K = gram(X, X, p)
        assert np.array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.full(n, p.sigma_h_sq))
        assert np.all(K > 0.0) and np.all(K <= p.sigma_h_sq)
        # a zero-weight column is scaled to zero before the product
        moved = X.copy()
        moved[:, p.weights == 0.0] = rng.normal(size=(n, 1)) * 100.0
        assert np.array_equal(gram(moved, moved, p), K)

    def test_self_gram_is_taken_by_identity(self, monkeypatch):
        # one object passed twice takes the dsyrk path; an equal copy and a
        # second view of the same buffer take the general product
        real, seen = kernels._syrk_sqdist, []

        def spy(*args):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, "_syrk_sqdist", spy)
        rng = np.random.default_rng(9)
        A = rng.normal(size=(6, 3))
        p = ARDParams(sigma_h_sq=1.7, weights=np.array([0.4, 1.1, 2.0]))
        K = gram(A, A, p)
        pairwise_sqdist(A, A, p.weights)
        assert len(seen) == 2
        assert np.array_equal(K, K.T)
        np.testing.assert_array_equal(np.diag(K), np.full(6, p.sigma_h_sq))
        gram(A, A.copy(), p)
        gram(A, A[:], p)
        pairwise_sqdist(A, A.copy(), p.weights)
        assert len(seen) == 2

    def test_ard_irrelevance_property(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(6, 3))
        p = ARDParams(sigma_h_sq=1.0, weights=np.array([0.8, 0.0, 1.5]))
        B = A.copy()
        B[:, 1] = rng.normal(size=6) * 100.0
        assert np.array_equal(gram(A, A, p), gram(B, B, p))


def spread_rows(rng, n, kappa, spread):
    p, cols = ard_case(rng, kappa, spread)
    return rng.normal(size=(n, kappa)) * cols, p


# the last shape spans several of the row blocks that reduce the norms
SHAPES = [(1, 1, False), (9, 3, False), (40, 64, True), (25, 300, True),
          (70, 4096, True)]


class TestOnePassPerOperand:
    @pytest.mark.parametrize("n, kappa, spread", SHAPES)
    def test_self_gram_bit_identical_to_two_pass_oracle(self, n, kappa, spread):
        X, p = spread_rows(np.random.default_rng(n + kappa), n, kappa, spread)
        K, norms = gram(X, X, p, return_norms=True)
        np.testing.assert_array_equal(K, two_pass_gram(X, X, p))
        np.testing.assert_array_equal(gram(X, X, p), K)
        np.testing.assert_array_equal(norms, np.sum((X * p.weights) * X, axis=1))
        np.testing.assert_array_equal(np.diag(K), np.full(n, p.sigma_h_sq))

    @pytest.mark.parametrize("n, kappa, spread", SHAPES)
    def test_self_gram_within_rounding_of_the_gemm_form(self, n, kappa, spread):
        X, p = spread_rows(np.random.default_rng(n + kappa), n, kappa, spread)
        np.testing.assert_allclose(gram(X, X, p), gemm_self_gram(X, p), rtol=0,
                                   atol=1e-13 * p.sigma_h_sq)

    @pytest.mark.parametrize("n, kappa, spread", SHAPES)
    def test_pairwise_sqdist_bit_identical_to_two_pass_oracle(self, n, kappa,
                                                              spread):
        rng = np.random.default_rng(n * kappa)
        X, p = spread_rows(rng, n, kappa, spread)
        B = rng.normal(size=(4, kappa))
        np.testing.assert_array_equal(pairwise_sqdist(X, X, p.weights),
                                      two_pass_sqdist(X, X, p.weights))
        np.testing.assert_array_equal(pairwise_sqdist(X, B, p.weights),
                                      two_pass_sqdist(X, B, p.weights))
        np.testing.assert_array_equal(gram(X, B, p), two_pass_gram(X, B, p))

    def test_self_gram_holds_one_scaled_copy(self):
        # the scaled operand is n x kappa; a second such temporary for the
        # weighted norms would put the peak near 2 n kappa doubles
        n, kappa = 300, 4096
        X, p = spread_rows(np.random.default_rng(5), n, kappa, False)
        gram(X, X, p)
        tracemalloc.start()
        try:
            gram(X, X, p, return_norms=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * kappa * 8

    def test_norms_only_for_a_self_gram(self):
        X = np.random.default_rng(4).normal(size=(5, 2))
        p = ARDParams(sigma_h_sq=1.0, weights=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="self-Gram"):
            gram(X, X.copy(), p, return_norms=True)
        # an equal copy is not the same array: no symmetrization is implied
        np.testing.assert_array_equal(gram(X, X.copy(), p),
                                      two_pass_gram(X, X.copy(), p))


class TestPredictiveGrams:
    @pytest.mark.parametrize("n, kappa, spread", SHAPES)
    def test_test_self_gram_bit_identical_to_gram(self, n, kappa, spread):
        rng = np.random.default_rng(100 + n)
        X, p = spread_rows(rng, n, kappa, spread)
        Xs, _ = spread_rows(rng, 7, kappa, spread)
        _, norms = gram(X, X, p, return_norms=True)
        Ks, (Kss,) = predictive_grams(X, norms, Xs[None], p)
        np.testing.assert_array_equal(Kss, gram(Xs, Xs, p))
        np.testing.assert_array_equal(Kss, Kss.T)
        assert Ks.shape == (n, 7)
        # only the association of x w x* differs from gram(X, Xs)
        np.testing.assert_allclose(Ks, gram(X, Xs, p), rtol=0,
                                   atol=1e-13 * p.sigma_h_sq)

    def test_column_mismatch(self):
        p = ARDParams(sigma_h_sq=1.0, weights=np.array([1.0, 1.0]))
        X = np.zeros((3, 2))
        with pytest.raises(DimensionMismatchError):
            predictive_grams(X, np.zeros(3), np.zeros((1, 2, 3)), p)


class TestCholPsd:
    def test_identity(self):
        L, jitter = chol_psd(np.eye(4))
        assert jitter == 0.0
        np.testing.assert_allclose(L, np.eye(4), atol=0)

    def test_rank_deficient_needs_jitter(self):
        M = np.array([[1.0, 1.0], [1.0, 1.0]])
        L, jitter = chol_psd(M)
        assert jitter > 0.0
        np.testing.assert_allclose(L @ L.T, M + jitter * np.eye(2), atol=1e-12)

    def test_random_spd_reconstruction(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6))
        M = A @ A.T + 6 * np.eye(6)
        L, jitter = chol_psd(M)
        assert jitter == 0.0
        rel = np.linalg.norm(L @ L.T - M) / np.linalg.norm(M)
        assert rel < 1e-10

    def test_asymmetric_rejected(self):
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            chol_psd(M)

    def test_one_ulp_asymmetry_rejected(self):
        # symmetric means exactly symmetric: -0.0 against +0.0 passes, one
        # entry one ulp off, past the first 64-row block, does not
        M = np.eye(150) * 4.0
        M[20, 3] = -0.0
        M[130, 20] = M[20, 130] = 0.5
        chol_psd(M)
        M[130, 20] = np.nextafter(0.5, 1.0)
        with pytest.raises(ValueError, match="not symmetric"):
            chol_psd(M)

    def test_jitter_leaves_the_input_unchanged(self):
        M = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        before = M.copy()
        _, jitter = chol_psd(M)
        assert jitter > 0.0
        np.testing.assert_array_equal(M, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (70, 3)])
    def test_non_finite_entry_rejected(self, bad, where):
        M = np.eye(80)
        M[where] = bad
        M[where[::-1]] = bad       # symmetric: only the value is wrong
        with pytest.raises(ValueError, match="NaN or infinite"):
            chol_psd(M)

    def test_hopeless_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            chol_psd(np.array([[-1.0, 0.0], [0.0, -1.0]]))

    def test_indefinite_matrix_raises(self):
        # eigenvalues -1 and 3: the exact factor and the jittered one both fail
        with pytest.raises(np.linalg.LinAlgError):
            chol_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_factor_is_lower_triangular_and_matches_numpy(self):
        rng = np.random.default_rng(6)
        A = rng.normal(size=(9, 9))
        M = A @ A.T + np.eye(9)
        L, jitter = chol_psd(M)
        assert jitter == 0.0
        np.testing.assert_array_equal(np.triu(L, 1), 0.0)
        np.testing.assert_allclose(L, np.linalg.cholesky(M), rtol=0,
                                   atol=1e-13 * np.abs(L).max())

    def test_one_jitter_and_no_larger(self):
        # the base jitter 1e-6 * mean(diag) = 5e-7 cannot lift the -2e-6;
        # ten times that jitter could, but there is no second try
        with pytest.raises(np.linalg.LinAlgError):
            chol_psd(np.diag([1.0, -2e-6]))

    def test_gram_plus_jitter_always_factorizes(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = rng.integers(2, 12)
            A = rng.normal(size=(n, 3)) * rng.uniform(0.01, 10)
            p = ARDParams(sigma_h_sq=rng.uniform(0.1, 10),
                          weights=rng.uniform(0.01, 5, 3))
            L, jitter = chol_psd(gram(A, A, p))
            assert np.all(np.isfinite(L))


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: gram(np.zeros((3, 2)), np.zeros((4, 2)),
                              ARDParams(1.0, np.ones(3))),
                 DimensionMismatchError,
                 "gram vs kernel dim: expected length 3, got 2",
                 id="gram-kernel-dim"),
    pytest.param(lambda: chol_psd(np.zeros((2, 3))), ValueError,
                 r"chol_psd needs a square matrix, got shape \(2, 3\)",
                 id="chol-psd-not-square")])
def test_bad_operand_raises_naming_it(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestParamValidation:
    def test_rbf_requires_positive_signal(self):
        with pytest.raises(ValueError):
            RBFParams(tau0_sq=0.0, lengthscale_inv=np.array([1.0]))

    def test_ard_rejects_all_zero_weights(self):
        with pytest.raises(ValueError):
            ARDParams(sigma_h_sq=1.0, weights=np.array([0.0, 0.0]))

    def test_ard_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            ARDParams(sigma_h_sq=1.0, weights=np.array([1.0, -0.1]))
