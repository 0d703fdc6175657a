import warnings

import numpy as np
import pytest

from dgpuq.kernels import ARDParams, DimensionMismatchError, gram
from dgpuq.gplvm import (VariationalLatent, InducingSet, LayerState,
                         layer_bound, layer_bound_grads, latent_kl,
                         train_gplvm, effective_dims, _pairs, _phi_forward,
                         _phi_backward, _elbo_forward, _elbo_backward, _spec,
                         _layer_state, _chol_conditioned, RCOND_FLOOR)
from helpers import (central_diff, dense_gp_logml, mc_phi_oracle,
                     loop_phi_forward, loop_phi_backward)
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
        # T holds the distinct pairs k <= l only
        kk, ll = _pairs(m)
        want_pairs = (want[0], want[1], want[2][:, kk, ll], want[3])
        for a, b in zip(got, want_pairs):
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


    def test_phi2_is_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        n, q, m = 30, 4, 9
        kern = ARDParams(1.3, rng.uniform(0.1, 2.0, q))
        _, _, T, phi2 = _phi_forward(kern, rng.normal(size=(n, q)),
                                     rng.uniform(0.05, 1.5, (n, q)),
                                     rng.normal(size=(m, q)))
        assert T.shape == (n, m * (m + 1) // 2)
        np.testing.assert_array_equal(phi2, phi2.T)

    def test_backward_reads_the_symmetric_part_of_the_weight(self):
        # <W2, Phi2> = <(W2 + W2^T) / 2, Phi2> for any W2, as Phi2 is symmetric
        rng = np.random.default_rng(9)
        n, q, m = 20, 3, 6
        kern = ARDParams(0.9, rng.uniform(0.1, 2.0, q))
        means = rng.normal(size=(n, q))
        variances = rng.uniform(0.05, 1.5, (n, q))
        Z = rng.normal(size=(m, q))
        _, phi1, T, _ = _phi_forward(kern, means, variances, Z)
        W1, W2 = rng.normal(size=(n, m)), rng.normal(size=(m, m))
        g = _phi_backward(kern, means, variances, Z, phi1, T, W1, W2, 0.3)
        g_sym = _phi_backward(kern, means, variances, Z, phi1, T, W1,
                              0.5 * (W2 + W2.T), 0.3)
        for key in g:
            assert max_rel_err(g[key], g_sym[key]) <= 1e-13, key

    def test_backward_at_huge_variances_is_finite_without_a_warning(self):
        # gam = w S + 1 and rho = 2 w S + 1 near 1e160: their squares
        # overflow, so the backward must not form them
        rng = np.random.default_rng(10)
        n, q, m = 5, 2, 3
        kern = ARDParams(1.0, np.ones(q))
        means = rng.normal(size=(n, q))
        variances = np.full((n, q), 1e160)
        Z = rng.normal(size=(m, q))
        W1, W2 = rng.normal(size=(n, m)), rng.normal(size=(m, m))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, phi1, T, _ = _phi_forward(kern, means, variances, Z)
            g = _phi_backward(kern, means, variances, Z, phi1, T, W1, W2, 0.3)
        for key, value in g.items():
            assert np.all(np.isfinite(value)), key


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
        # the exact GP of Y on the latent means, with the layer's kernel
        exact = dense_gp_logml(gram(mu, mu, kern), 1.0 / beta, Y)
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
        exact = dense_gp_logml(gram(mu, mu, kern), 1.0 / beta, Y)
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


class TestSpectralJitter:
    """The jitter derivative of ``_chol_conditioned``'s spectral branch."""

    def test_jitter_derivative_along_the_top_eigenvector(self):
        # three small eigenvalues within the soft minimum's scale 1/t =
        # RCOND_FLOOR lam_max / 10 of each other, so the scale's dependence
        # on lam_max moves the jitter; on a diagonal matrix the jitter reads
        # exactly off the smallest diagonal entry
        e = np.array([1e-10, 3e-10, 6e-10, 1.0])

        def jitter(top):
            M = np.diag(np.append(e[:-1], top))
            _, Mj, djit = _chol_conditioned(M, 1e-10)
            return Mj[0, 0] - M[0, 0], djit

        jit, djit = jitter(1.0)
        assert jit > RCOND_FLOOR            # the spectral branch
        h = 1e-3
        fd = (jitter(1.0 + h)[0] - jitter(1.0 - h)[0]) / (2.0 * h)
        assert abs(djit[-1, -1] - fd) < 1e-6 * abs(fd)

    def test_bound_gradient_through_a_near_singular_kuu(self):
        # inducing inputs that nearly coincide make K_uu singular to
        # RCOND_FLOOR, so the bound takes the spectral branch
        rng = np.random.default_rng(5)
        n, q, m, nu = 40, 2, 10, 3
        mu = rng.normal(size=(n, q))
        Y = rng.normal(size=(n, nu))
        Z = mu[:m].copy()
        Z[1] = Z[0] + 1e-4
        Z[2] = Z[0] + 2e-4 * rng.normal(size=q)
        Z[3] = Z[4] + 1e-5
        latent = VariationalLatent(mu, np.full((n, q), 0.05))
        log_w = np.log([0.8, 1.1])

        def bound(lw):
            return layer_bound(ARDParams(1.3, np.exp(lw)), 50.0, latent, Z, Y)

        _, cache = bound(log_w)
        assert cache.djit is not None
        g = layer_bound_grads(cache)["weights"] * np.exp(log_w)
        # the bound's own rounding noise sets the step (stable from 1e-2
        # down to 1e-3)
        fd = central_diff(lambda lw: bound(lw)[0], log_w, eps=3e-3)
        assert np.abs(g - fd).max() < 5e-5 * np.abs(fd).max()


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


def layer_parts(n=4, q=2, m=3):
    """A valid sparse layer's parts, keyword by keyword."""
    return dict(kernel=ARDParams(1.0, np.ones(q)), beta=2.0,
                latent=VariationalLatent(np.zeros((n, q)), np.ones((n, q))),
                inducing=InducingSet(np.zeros((m, q))))


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: VariationalLatent(np.zeros((3, 2)), np.ones((3, 1))),
                 DimensionMismatchError, r"latent variances: expected length "
                 r"\(3, 2\), got \(3, 1\)", id="latent-shapes"),
    pytest.param(lambda: VariationalLatent(np.zeros((2, 2)),
                                           [[1.0, 0.0], [1.0, 1.0]]),
                 ValueError, "latent variances must be strictly positive",
                 id="latent-variance-zero"),
    pytest.param(lambda: InducingSet(np.zeros((0, 2))), ValueError,
                 "at least one inducing point", id="no-inducing-point"),
    pytest.param(lambda: LayerState(**dict(layer_parts(), beta=0.0)),
                 ValueError, "beta must be positive", id="beta-zero"),
    pytest.param(lambda: LayerState(**dict(
                     layer_parts(), kernel=ARDParams(1.0, np.ones(3)))),
                 DimensionMismatchError,
                 "kernel weights: expected length 2, got 3",
                 id="kernel-weights"),
    pytest.param(lambda: LayerState(**dict(
                     layer_parts(), inducing=InducingSet(np.zeros((3, 1))))),
                 DimensionMismatchError,
                 "inducing inputs: expected length 2, got 1",
                 id="inducing-columns"),
    pytest.param(lambda: train_gplvm(np.eye(5, 3), q=4, m=2,
                                     iters=200), ValueError,
                 r"1 <= q <= 3, got 4", id="q-above-outputs"),
    pytest.param(lambda: train_gplvm(np.eye(5, 3), q=0, m=2,
                                     iters=200), ValueError,
                 r"1 <= q <= 3, got 0", id="q-zero"),
    pytest.param(lambda: train_gplvm(np.eye(5, 3), q=2, m=6,
                                     iters=200), ValueError,
                 r"1 <= m <= 5, got 6", id="m-above-rows"),
    pytest.param(lambda: train_gplvm(np.eye(5, 3), q=2, m=0,
                                     iters=200), ValueError,
                 r"1 <= m <= 5, got 0", id="m-zero"),
    pytest.param(lambda: layer_bound(ARDParams(1.0, np.ones(2)), 2.0,
                                     layer_parts()["latent"], np.zeros((3, 2)),
                                     np.zeros((5, 2))),
                 DimensionMismatchError,
                 "layer outputs rows: expected length 4, got 5",
                 id="layer-output-rows")])
def test_bad_layer_part_or_size_raises_naming_it(build, error, message):
    with pytest.raises(error, match=message):
        build()


class TestEffectiveDims:
    def test_uniform_weights_all_retained(self):
        assert effective_dims(ARDParams(1.0, np.ones(3))) == [0, 1, 2]

    def test_negligible_weight_dropped(self):
        assert effective_dims(ARDParams(1.0, np.array([1.0, 1e-6]))) == [0]
