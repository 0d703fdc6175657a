import numpy as np
import pytest

from dgpuq import gp
from dgpuq.kernels import ARDParams, RBFParams, gram
from dgpuq.gplvm import (VariationalLatent, InducingSet, LayerState,
                         layer_bound, layer_bound_grads, latent_kl,
                         train_gplvm, effective_dims, _phi_forward,
                         _phi_backward, _elbo_forward, _elbo_backward, _spec,
                         _layer_state)
from helpers import (central_diff, mc_phi_oracle, loop_phi_forward,
                     loop_phi_backward)
from dgpuq.rng import rng_for


def elbo_grad(state, Y):
    """The ELBO gradient blocks: the backward half on the forward's cache."""
    return _elbo_backward(_elbo_forward(state, Y)[1])


def random_state(rng, n=6, q=2, m=3):
    """A random layer and its values in the GP-LVM spec's blocks."""
    values = {"sigma_h_sq": rng.uniform(0.5, 2.0),
              "weights": rng.uniform(0.3, 2.0, q),
              "mu_bar": rng.normal(size=(n, q)),
              "lam": rng.uniform(0.5, 4.0, (n, q)),
              "Hu": rng.normal(size=(m, q)),
              "beta": rng.uniform(1.0, 5.0)}
    return _layer_state(values), values


class TestPhiStats:
    def test_phi0_is_n_times_signal_variance(self):
        lat = VariationalLatent(means=np.zeros((3, 2)),
                                variances=np.full((3, 2), 0.5))
        phi0, _, _, _ = _phi_forward(ARDParams(2.0, np.ones(2)), lat.means,
                                     lat.variances, np.zeros((2, 2)))
        assert phi0 == pytest.approx(6.0, abs=0)

    def test_zero_variance_collapses_phi1_to_gram(self):
        rng = np.random.default_rng(0)
        means = rng.normal(size=(5, 3))
        Z = rng.normal(size=(4, 3))
        kern = ARDParams(1.3, rng.uniform(0.2, 2.0, 3))
        _, phi1, _, _ = _phi_forward(kern, means, np.full((5, 3), 1e-300), Z)
        np.testing.assert_allclose(phi1, gram(means, Z, kern), atol=1e-10)

    def test_matches_monte_carlo_quadrature(self):
        rng = np.random.default_rng(1)
        kern = ARDParams(1.7, np.array([0.8]))
        means = rng.normal(size=(2, 1))
        variances = rng.uniform(0.2, 1.0, (2, 1))
        Z = rng.normal(size=(2, 1))
        phi0, phi1, _, phi2 = _phi_forward(kern, means, variances, Z)
        phi1_mc, se1, phi2_rows, se2 = mc_phi_oracle(kern, means, variances, Z,
                                                     200000, seed=7)
        assert np.all(np.abs(phi1 - phi1_mc) < 3 * se1 + 1e-12)
        phi2_mc = phi2_rows.sum(axis=0)
        se2_tot = np.sqrt((se2 ** 2).sum(axis=0))
        assert np.all(np.abs(phi2 - phi2_mc) < 3 * se2_tot + 1e-12)
        # phi0 is exact: E[k(h,h)] = sigma_h_sq for every sample
        assert phi0 == pytest.approx(2 * 1.7, abs=1e-12)

    def test_phi2_symmetric_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n, q, m = rng.integers(2, 8), rng.integers(1, 4), rng.integers(2, 6)
            kern = ARDParams(rng.uniform(0.5, 3.0), rng.uniform(0.1, 2.0, q))
            _, _, _, phi2 = _phi_forward(kern, rng.normal(size=(n, q)),
                                         rng.uniform(0.05, 1.5, (n, q)),
                                         rng.normal(size=(m, q)))
            assert np.array_equal(phi2, phi2.T)
            assert np.linalg.eigvalsh(phi2).min() > -1e-10

    def test_overflowing_means_raise(self):
        # mu^2 overflows past 1.8e308: a trial point the line search rejects
        with pytest.raises(FloatingPointError):
            _phi_forward(ARDParams(1.0, np.ones(2)), np.full((3, 2), 1e160),
                         np.full((3, 2), 0.5), np.zeros((2, 2)))

    def test_overflowing_signal_variance_raises(self):
        # log T = 2 log(1e300) + ... = 1381 overflows exp: a rejected trial,
        # not an inf that scipy's finiteness check later calls a ValueError
        with pytest.raises(FloatingPointError):
            _phi_forward(ARDParams(1e300, np.ones(2)), np.zeros((3, 2)),
                         np.full((3, 2), 0.1), np.zeros((2, 2)))


def max_rel_err(a, b):
    """Largest entrywise difference relative to the largest oracle entry."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


class TestPhiMatrixForms:
    """The matrix-product Phi forward and backward against the loop forms."""

    @pytest.mark.parametrize("n, q, m, offset", [
        (7, 1, 4, 0.0),       # one latent dimension
        (6, 3, 1, 0.0),       # one inducing point
        (150, 8, 30, 0.0),    # the small-surrogate layer shape
        (220, 5, 16, 0.0),
        (40, 4, 7, 1e3),      # far from the origin: the centring guard
    ])
    def test_matches_loop_oracle(self, n, q, m, offset):
        rng = np.random.default_rng(n * 100 + q * 10 + m)
        kern = ARDParams(rng.uniform(0.5, 2.0), rng.uniform(0.1, 2.0, q))
        means = rng.normal(size=(n, q)) + offset
        variances = rng.uniform(0.05, 1.5, (n, q))
        Z = rng.normal(size=(m, q)) + offset
        got = _phi_forward(kern, means, variances, Z)
        want = loop_phi_forward(kern, means, variances, Z)
        for a, b in zip(got, want):
            assert max_rel_err(a, b) <= 1e-12
        W1 = rng.normal(size=(n, m))
        W2 = rng.normal(size=(m, m))
        W2 = W2 + W2.T
        g = _phi_backward(kern, means, variances, Z, got[1], got[2], W1, W2, -0.7)
        g_loop = loop_phi_backward(kern, means, variances, Z, want[1], want[2],
                                   W1, W2, -0.7)
        assert g.keys() == g_loop.keys()
        for key in g:
            assert max_rel_err(g[key], g_loop[key]) <= 1e-12, key


class TestElboLayer:
    def test_kl_zero_for_standard_normal(self):
        lat = VariationalLatent(np.zeros((4, 2)), np.ones((4, 2)))
        assert latent_kl(lat) == 0.0

    def test_full_inducing_tightness(self):
        rng = np.random.default_rng(3)
        n, q, nu = 12, 2, 3
        mu = rng.normal(size=(n, q))
        Y = rng.normal(size=(n, nu))
        kern = ARDParams(1.5, np.array([0.7, 1.2]))
        beta = 4.0
        # exact GP with the matching parameterization: b = w / 2
        gpm = gp.build_model(RBFParams(1.5, np.array([0.35, 0.6])),
                             1.0 / beta, mu, Y)
        exact = gp.log_marginal(gpm)
        lat = VariationalLatent(mu, np.full((n, q), 1e-12))
        bound, _ = layer_bound(kern, beta, lat, mu.copy(), Y)
        assert bound == pytest.approx(exact, abs=1e-6)

    def test_sparse_bound_below_exact_marginal(self):
        rng = np.random.default_rng(4)
        n, q, nu = 12, 2, 3
        mu = rng.normal(size=(n, q))
        Y = rng.normal(size=(n, nu))
        kern = ARDParams(1.5, np.array([0.7, 1.2]))
        beta = 4.0
        gpm = gp.build_model(RBFParams(1.5, np.array([0.35, 0.6])),
                             1.0 / beta, mu, Y)
        exact = gp.log_marginal(gpm)
        for m in (2, 5, 10):
            lat = VariationalLatent(mu, np.full((n, q), 1e-12))
            assert layer_bound(kern, beta, lat, mu[:m].copy(), Y)[0] <= exact + 1e-8

    def test_invariant_under_joint_permutation(self):
        rng = np.random.default_rng(5)
        st, _ = random_state(rng, n=8, q=2, m=4)
        Y = rng.normal(size=(8, 3))
        a = _elbo_forward(st, Y)[0]
        perm = rng.permutation(8)
        lat = VariationalLatent(st.latent.means[perm],
                                st.latent.variances[perm])
        st2 = LayerState(kernel=st.kernel, beta=st.beta, latent=lat,
                         inducing=st.inducing)
        assert a == pytest.approx(_elbo_forward(st2, Y[perm])[0], abs=1e-9)

    def test_indefinite_inner_matrix_raises(self):
        # equal latent rows make the whitened Phi2 rank one; roundoff leaves
        # eigenvalues near -1e-9 in its null space, which beta = 1e12 turns
        # into about -1e3 in I + beta * P2w
        n, q = 6, 2
        lat = VariationalLatent(np.tile([0.3, -0.2], (n, 1)),
                                np.full((n, q), 1e-9))
        g = np.linspace(-1.0, 1.0, 4)
        Z = np.array([[a, b] for a in g for b in g])
        Y = np.random.default_rng(0).normal(size=(n, 2))
        with pytest.raises(np.linalg.LinAlgError):
            layer_bound(ARDParams(1e3, np.ones(q)), 1e12, lat, Z, Y)


class TestElboGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        n, q, m, nu = 12, 2, 4, 3
        st, v0 = random_state(rng, n=n, q=q, m=m)
        Y = rng.normal(size=(n, nu))
        g = elbo_grad(st, Y)

        def build(name, v):
            return _elbo_forward(_layer_state({**v0, name: v}), Y)[0]

        for name in ("mu_bar", "lam", "Hu", "weights"):
            fd = central_diff(lambda v: build(name, v), v0[name])
            rel = np.abs(g[name] - fd) / (np.abs(fd) + 1e-8)
            assert rel.max() < 1e-4, name
        for name in ("sigma_h_sq", "beta"):
            fd = central_diff(lambda v: build(name, v[0]),
                              np.array([v0[name]]))[0]
            assert abs(g[name] - fd) / (abs(fd) + 1e-8) < 1e-4, name

    def test_stationarity_at_converged_optimum(self):
        # drive a small instance to an actual optimum, then the analytic
        # gradient must vanish there; the noise level keeps the optimum in
        # a well-conditioned regime
        import scipy.optimize
        rng = rng_for(20)
        h = rng.uniform(-1, 1, (20, 2))
        Y = np.column_stack([np.sin(2 * h[:, 0]), np.cos(2 * h[:, 1]),
                             h[:, 0] * h[:, 1]])
        Y = Y + 0.15 * rng.standard_normal(Y.shape)
        n, q, m = 20, 2, 10
        state, _ = train_gplvm(Y, q=q, m=m, iters=200, seed=1)
        spec = _spec(n, q, m)

        def neg(x):
            values = spec.unpack(x)
            st = _layer_state(values)
            f = _elbo_forward(st, Y)[0]
            g = elbo_grad(st, Y)
            gv = spec.flatten({name: g[name] * values[name] if log else g[name]
                               for name, _, log in spec.blocks})
            return -f, -gv

        x0 = spec.pack({"mu_bar": state.latent.means,
                        "lam": 1.0 / state.latent.variances - 1.0,
                        "Hu": state.inducing.inputs,
                        "sigma_h_sq": state.kernel.sigma_h_sq,
                        "weights": state.kernel.weights, "beta": state.beta})
        res = scipy.optimize.minimize(neg, x0, jac=True, method="L-BFGS-B",
                                      options={"maxiter": 2000, "gtol": 1e-9})
        f_opt, g_opt = neg(res.x)
        assert np.abs(g_opt).max() < 1e-3 * (1.0 + abs(f_opt))

    def test_switched_off_coordinate_has_zero_weight_gradient(self):
        # coordinate 1 carries no information: means and inducing inputs at
        # zero with vanishing variances; no direction is preferred, so the
        # weight gradient must vanish (with nonzero variances the smearing
        # factor still moves the bound, so the limit is required)
        rng = np.random.default_rng(7)
        n, q, m = 6, 2, 3
        mu = rng.normal(size=(n, q))
        mu[:, 1] = 0.0
        Z = rng.normal(size=(m, q))
        Z[:, 1] = 0.0
        S = rng.uniform(0.2, 0.8, (n, q))
        S[:, 1] = 1e-300
        kern = ARDParams(1.2, np.array([0.9, 1.1]))
        lat = VariationalLatent(mu, S)
        st = LayerState(kernel=kern, beta=2.0, latent=lat,
                        inducing=InducingSet(inputs=Z))
        g = elbo_grad(st, rng.normal(size=(n, 2)))
        assert abs(g["weights"][1]) < 1e-8


class TestTrainGplvm:
    def test_linear_embedding_ard_recovery(self):
        rng = rng_for(5)
        n = 60
        W_lat = rng.standard_normal((n, 2))
        Amix = rng.standard_normal((2, 10))
        Y = W_lat @ Amix + 0.05 * rng.standard_normal((n, 10))
        state, trace = train_gplvm(Y, q=5, m=25, iters=300, seed=11)
        w = np.sort(state.kernel.weights)[::-1]
        assert w[2] < 0.05 * w[0]
        assert len(effective_dims(state.kernel)) == 2

    def test_elbo_improves_and_is_monotone(self):
        rng = rng_for(6)
        Y = rng.standard_normal((20, 6)) @ rng.standard_normal((6, 6))
        state, trace = train_gplvm(Y, q=2, m=10, iters=80, seed=3)
        assert trace[-1] >= trace[0]
        assert np.all(np.diff(trace) >= -1e-6)

    def test_same_seed_bitwise_identical_traces(self):
        rng = rng_for(7)
        Y = rng.standard_normal((15, 5))
        _, t1 = train_gplvm(Y, q=2, m=8, iters=40, seed=9)
        _, t2 = train_gplvm(Y, q=2, m=8, iters=40, seed=9)
        assert np.array_equal(t1, t2)

    def test_degenerate_targets_rejected(self):
        with pytest.raises(ValueError):
            train_gplvm(np.ones((10, 4)), q=2, m=5, iters=10, seed=0)


class TestEffectiveDims:
    def test_uniform_weights_all_retained(self):
        assert effective_dims(ARDParams(1.0, np.ones(3))) == [0, 1, 2]

    def test_negligible_weight_dropped(self):
        assert effective_dims(ARDParams(1.0, np.array([1.0, 1e-6]))) == [0]
