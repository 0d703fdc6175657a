import re

import numpy as np
import pytest

from dgpuq.random_field import (Grid2D, ExpCovSpec, KLExpansion, kle_decompose,
                                permeability, sample_permeability)
from dgpuq import uq
from dgpuq.deepgp import train_deep, predict, predict_layer1
from dgpuq.uq import (InputDistribution, sample_inputs, uq_report, mc_baseline,
                      kde_curve)
from dgpuq.rng import rng_for, MC_BASELINE_STREAM, UQ_STREAM
from helpers import loop_realizations, one_realization, predict_one_set

PAPER_COV = ExpCovSpec(s_g_sq=1.0, lambdas=(0.1, 0.1), mean=0.0)


@pytest.fixture(scope="module")
def dist8():
    kle = kle_decompose(Grid2D(8, 8), PAPER_COV, 10)
    return InputDistribution(kle=kle)


@pytest.fixture
def stream_keys(monkeypatch):
    """The arguments of every ``rng_for`` call made inside ``dgpuq.uq``."""
    keys = []

    def spied(*args):
        keys.append(args)
        return rng_for(*args)

    monkeypatch.setattr(uq, "rng_for", spied)
    return keys


@pytest.fixture(scope="module")
def small_model(dist8):
    """Tiny surrogate of the permeability -> column-mean map."""
    rng = rng_for(100)
    n = 40
    X = sample_inputs(dist8, n, seed=500)
    # cheap synthetic response standing in for the solver
    Y = np.column_stack([X.mean(axis=1), np.log(X).std(axis=1)])
    return train_deep(X, Y, dims=[2], m_inducing=[15], iters=40, seed=2,
                      init_iters=60)


@pytest.fixture(scope="module")
def dist32():
    return InputDistribution(kle=kle_decompose(Grid2D(32, 32), PAPER_COV, 10))


@pytest.fixture(scope="module")
def mid_model(dist32):
    """A surrogate on n = 96 fields of 1024 cells.  Its first-layer
    products are large enough for OpenBLAS's blocked kernels, which round a
    column the same in a stacked product as alone; on small_model's 64
    cells its AVX-512 small-matrix kernels do not."""
    X = sample_inputs(dist32, 96, seed=500)
    Y = np.column_stack([X.mean(axis=1), np.log(X).std(axis=1)])
    return train_deep(X, Y, dims=[2], m_inducing=[15], iters=10, seed=2,
                      init_iters=20)


class TestSampleInputs:
    def test_deterministic_per_seed(self, dist8):
        a = sample_inputs(dist8, 12, seed=7)
        b = sample_inputs(dist8, 12, seed=7)
        assert np.array_equal(a, b)
        c = sample_inputs(dist8, 12, seed=8)
        assert not np.array_equal(a, c)

    def test_paper_sample_size_shape(self, dist8):
        X = sample_inputs(dist8, 120, seed=1)
        assert X.shape == (120, 64)
        assert np.all(X > 0)

    def test_lognormal_mean_at_center(self, dist8):
        # column mean over many draws matches exp(m + var/2) within 3 SE
        n = 10000
        X = sample_inputs(dist8, n, seed=3)
        col = 8 * 4 + 4  # a near-center cell
        truncated_var = float(np.sum(dist8.kle.eigenfields[:, col] ** 2))
        expected = np.exp(dist8.kle.mean + 0.5 * truncated_var)
        se = X[:, col].std() / np.sqrt(n)
        assert abs(X[:, col].mean() - expected) < 3 * se

    @pytest.mark.parametrize("side, k_xi", [(8, 10), (32, 50)])
    def test_matches_per_row_permeability_loop(self, side, k_xi):
        dist = InputDistribution(kle=kle_decompose(Grid2D(side, side),
                                                   PAPER_COV, k_xi))
        X = sample_inputs(dist, 30, seed=21)
        xi = np.clip(rng_for(21).uniform(size=(30, k_xi)), 1e-15, 1 - 1e-15)
        loop = np.vstack([permeability(dist.kle, row) for row in xi])
        np.testing.assert_allclose(X, loop, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(X, sample_inputs(dist, 30, seed=21))

    def test_needs_two_samples(self, dist8):
        with pytest.raises(ValueError):
            sample_inputs(dist8, 1, seed=0)

    def test_mc_baseline_needs_two_samples(self, dist8):
        def simulator(K):
            raise AssertionError("no sample runs")

        with pytest.raises(ValueError, match="at least two samples"):
            mc_baseline(simulator, dist8, N=1, seed=0)


def cell_center(col, grid):
    """The (x, y) center of output column ``col``'s cell of ``grid``."""
    return ((col % grid.nx + 0.5) / grid.nx, (col // grid.nx + 0.5) / grid.ny)


class TestPropagateRealization:
    """One repeat's realization (``uq._realization``) from the first
    latent's joint predictive on one set of inputs."""

    def test_two_seeds_differ(self, small_model, dist8):
        Xp = sample_inputs(dist8, 10, seed=11)
        r1 = one_realization(small_model, Xp, 1)
        r2 = one_realization(small_model, Xp, 2)
        assert r1.shape == (10, 2)
        assert np.abs(r1 - r2).max() > 0

    def test_zero_variance_model_collapses_to_predict_mean(self):
        # handcrafted degenerate model: noise precisions pushed to infinity,
        # latents clamped, evaluation at the training inputs; all predictive
        # variances collapse and every realization equals the predict mean
        from dgpuq.kernels import RBFParams, ARDParams
        from dgpuq.gplvm import VariationalLatent, InducingSet, LayerState
        from dgpuq.deepgp import DeepGPModel, InputLayer
        import scipy.linalg
        from dgpuq.kernels import gram, chol_psd

        n = 10
        X = np.linspace(0, 1, n)[:, None]
        Y = 0.01 * np.sin(2 * np.pi * X)
        il_kern = RBFParams(tau0_sq=1e-7, lengthscale_inv=np.array([4.0]))
        C = gram(X, X, il_kern) + 1e-15 * np.eye(n)
        L, _ = chol_psd(C)
        mu_bar = scipy.linalg.cho_solve((L, True), X)
        il = InputLayer(kernel=il_kern, noise_var=1e-15, mu_bar=mu_bar,
                        lam=np.full((n, 1), 1e12))
        layer = LayerState(
            kernel=ARDParams(sigma_h_sq=1e-7, weights=np.array([4.0])),
            beta=1e14,
            latent=VariationalLatent(X.copy(), np.full((n, 1), 1e-300)),
            inducing=InducingSet(inputs=X.copy()))
        model = DeepGPModel(X=X, Y=Y, input_layer=il, hidden_layers=[layer],
                            dims=[1])
        mean, _ = predict(model, X)
        for seed in (1, 2):
            r = one_realization(model, X, seed)
            assert np.abs(r - mean).max() < 1e-6

    def test_indefinite_covariance_raises(self):
        # the mean diagonal -4.5 is not positive, so chol_psd raises without
        # a jitter; the draw must not go on from a clipped spectrum
        with pytest.raises(np.linalg.LinAlgError):
            uq._draw_gaussian(np.zeros((2, 1)), np.diag([1.0, -10.0]),
                              rng_for(0))

    def test_draw_from_a_near_degenerate_layer_factorizes(self):
        # sigma_h_sq = 1.5e8 with lengthscales near 30, as a short training
        # run can leave a layer: its conditional covariance is ~1e-7 of
        # sigma_h_sq, and forming it through the explicit Kuu^-1 - A^-1
        # lost positive definiteness by more than chol_psd's jitter
        from dgpuq.kernels import ARDParams, RBFParams
        from dgpuq.gplvm import VariationalLatent, InducingSet, LayerState
        from dgpuq.deepgp import DeepGPModel, InputLayer

        rng = np.random.default_rng(0)
        n, q, nu = 24, 2, 16
        Z = np.array([[0.1, 0.5], [-0.5, 0.5], [0.1, -0.2], [1.7, -0.3],
                      [-1.6, 0.0]])
        layer = LayerState(
            kernel=ARDParams(1.5e8, np.array([1.6e-3, 7.7e-4])), beta=0.024,
            latent=VariationalLatent(rng.uniform(-0.5, 1.0, (n, q)),
                                     np.full((n, q), 0.1)),
            inducing=InducingSet(Z))
        il = InputLayer(kernel=RBFParams(1.0, np.ones(1)), noise_var=0.1,
                        mu_bar=rng.normal(size=(n, q)), lam=np.ones((n, q)))
        model = DeepGPModel(X=rng.normal(size=(n, 1)),
                            Y=0.1 * rng.normal(size=(n, nu)), input_layer=il,
                            hidden_layers=[layer], dims=[q])
        for k in range(10):
            H = rng.uniform(-0.5, 1.0, (8, q))
            # a first-layer covariance of 1e-300 I: the draw is H to within
            # 1e-150, and the sparse layer's draw is what is checked
            r = uq._realization(model, H, 1e-300 * np.eye(8), rng_for(k))
            assert r.shape == (8, nu) and np.all(np.isfinite(r))

    def test_failed_first_layer_draw_names_the_layer(self, small_model):
        with pytest.raises(np.linalg.LinAlgError,
                           match="input layer propagation failed"):
            uq._realization(small_model, np.zeros((2, 2)),
                            np.diag([1.0, -10.0]), rng_for(0))

    def test_failed_sparse_layer_draw_names_the_layer(self, small_model,
                                                      dist8, monkeypatch):
        # an indefinite conditional covariance in the one sparse layer
        monkeypatch.setattr(uq, "downdate", lambda K, U: -np.eye(len(K)))
        with pytest.raises(np.linalg.LinAlgError,
                           match="layer 1 propagation failed"):
            one_realization(small_model, sample_inputs(dist8, 2, 1), 0)

    def test_realization_mean_matches_predict_mean(self, small_model, dist8):
        Xp = sample_inputs(dist8, 6, seed=13)
        mean, _ = predict(small_model, Xp)
        mean1, cov1 = predict_one_set(small_model, Xp)
        draws = np.stack([uq._realization(small_model, mean1, cov1, rng_for(s))
                          for s in range(200)])
        emp = draws.mean(axis=0)
        se = draws.std(axis=0) / np.sqrt(200)
        assert np.all(np.abs(emp - mean) < 3 * se + 1e-9)

    def test_without_subkeys_the_stream_is_the_seed_alone(self, dist8,
                                                          stream_keys):
        Xp = sample_inputs(dist8, 4, 17)
        assert stream_keys == [(17,)]
        np.testing.assert_array_equal(
            Xp, sample_permeability(dist8.kle, rng_for(17), 4))
        assert not np.array_equal(Xp, sample_inputs(dist8, 4, 17, UQ_STREAM))


class TestUqReport:
    def test_deterministic_and_nonnegative(self, small_model, dist8):
        rep1 = uq_report(small_model, dist8, n_prime=15, n_repeats=4, seed=3)
        rep2 = uq_report(small_model, dist8, n_prime=15, n_repeats=4, seed=3)
        assert np.array_equal(rep1.mean_of_mean, rep2.mean_of_mean)
        assert np.array_equal(rep1.errorbar_mean, rep2.errorbar_mean)
        assert np.all(rep1.errorbar_mean >= 0)
        assert np.all(rep1.errorbar_variance >= 0)
        assert np.all(rep1.mean_of_variance >= 0)

    def test_error_bars_shrink_with_repeats(self, small_model, dist8):
        rep25 = uq_report(small_model, dist8, n_prime=12, n_repeats=25, seed=5)
        rep100 = uq_report(small_model, dist8, n_prime=12, n_repeats=100, seed=5)
        ratio = np.median(rep25.errorbar_mean / rep100.errorbar_mean)
        assert ratio <= 1.0 / 0.7 * 2.0  # generous upper guard
        assert np.median(rep100.errorbar_mean) <= 0.7 * np.median(rep25.errorbar_mean)

    def test_pdf_integrates_to_one(self, small_model, dist8):
        rep = uq_report(small_model, dist8, n_prime=30, n_repeats=5, seed=7,
                        pdf_at=[(0.1, 0.1)], out_grid=Grid2D(2, 2))
        pdf = rep.pdf_points[0]
        assert pdf.column == 0
        mass = np.trapezoid(pdf.mean_density, pdf.abscissae)
        assert abs(mass - 1.0) < 1e-3
        assert np.all(pdf.lower >= 0)
        assert np.all(pdf.upper >= pdf.mean_density - 1e-12)

    def test_coordinate_locations_need_a_grid(self, small_model, dist8):
        with pytest.raises(ValueError):
            uq_report(small_model, dist8, n_prime=10, n_repeats=3, seed=9,
                      pdf_at=[(0.9, 0.1)], out_grid=None)

    @pytest.mark.parametrize("loc", [(-0.5, 0.5), (1.7, 0.2)])
    def test_locations_outside_the_unit_square_rejected(self, small_model,
                                                         dist8, loc):
        # on a 16 x 16 grid these used to wrap to columns 120 and 63
        with pytest.raises(ValueError, match=re.escape(str(loc))):
            uq_report(small_model, dist8, n_prime=10, n_repeats=3, seed=9,
                      pdf_at=[(0.5, 0.5), loc], out_grid=Grid2D(16, 16))

    def test_repeat_streams_derive_from_the_uq_stream(self, small_model, dist8,
                                                      stream_keys):
        uq_report(small_model, dist8, n_prime=5, n_repeats=3, seed=11)
        assert stream_keys == [(11, UQ_STREAM, j, k)
                               for j in range(3) for k in (0, 1)]

    @pytest.mark.parametrize("entry, label", [((0.9, 0.9), (0.9, 0.9))],
                             ids=["location"])
    def test_pdf_column_out_of_range_rejected(self, small_model, dist8,
                                              stream_keys, entry, label):
        # the model has two output columns, (0.9, 0.9) is column 15 of the
        # 4 x 4 grid; no repeat may run
        with pytest.raises(ValueError, match=re.escape(str(label))):
            uq_report(small_model, dist8, n_prime=10, n_repeats=3, seed=9,
                      pdf_at=[entry], out_grid=Grid2D(4, 4))
        assert stream_keys == []

    @pytest.mark.parametrize("entry", [1, np.int64(0), (0.5,), "ab"],
                             ids=["int", "numpy-int", "one-coordinate",
                                  "string"])
    def test_pdf_entry_that_is_not_a_point_rejected(self, small_model, dist8,
                                                    stream_keys, entry):
        # a bare column index is no longer a location, even one in range
        with pytest.raises(ValueError, match="is not an \\(x, y\\) point"):
            uq_report(small_model, dist8, n_prime=10, n_repeats=3, seed=9,
                      pdf_at=[(0.5, 0.5), entry], out_grid=Grid2D(4, 4))
        assert stream_keys == []

    def test_moments_are_population_form(self, small_model, dist8,
                                         monkeypatch):
        # every repeat sees the realization {0, 2}: mean 1, variance 1 with
        # divisor n' (the n' - 1 form would give 2), and no spread
        monkeypatch.setattr(uq, "_realization",
                            lambda *args: np.array([[0.0], [2.0]]))
        rep = uq_report(small_model, dist8, n_prime=2, n_repeats=3, seed=0)
        assert rep.mean_of_mean.tolist() == [1.0]
        assert rep.mean_of_variance.tolist() == [1.0]
        assert rep.errorbar_mean.tolist() == [0.0]
        assert rep.errorbar_variance.tolist() == [0.0]

    def test_blocks_match_the_per_repeat_loop(self, mid_model, dist32):
        # n = 96 and n' = 30 give blocks of 3, 3 and 1 repeats
        n_prime, n_repeats, seed = 30, 7, 6
        grid = Grid2D(2, 2)
        rep = uq_report(mid_model, dist32, n_prime, n_repeats, seed,
                        pdf_at=[cell_center(1, grid), cell_center(0, grid)],
                        out_grid=grid)
        loop = loop_realizations(mid_model, dist32, n_prime, n_repeats, seed)
        means = np.asarray([r.mean(axis=0) for r in loop])
        variances = np.asarray([r.var(axis=0) for r in loop])
        root_n = np.sqrt(n_repeats)
        expect = {"mean_of_mean": means.mean(axis=0),
                  "mean_of_variance": variances.mean(axis=0),
                  "errorbar_mean": 2.0 * means.std(axis=0) / root_n,
                  "errorbar_variance": 2.0 * variances.std(axis=0) / root_n}
        for name, value in expect.items():
            assert np.array_equal(getattr(rep, name), value), name
        assert [pdf.column for pdf in rep.pdf_points] == [1, 0]
        for pdf in rep.pdf_points:
            ref = uq._pdf_estimate(pdf.location, pdf.column,
                                   [r[:, pdf.column] for r in loop])
            for name in ("abscissae", "mean_density", "lower", "upper"):
                assert np.array_equal(getattr(pdf, name), getattr(ref, name))

    def test_one_first_layer_call_per_block(self, mid_model, dist32,
                                            monkeypatch):
        shapes = []

        def spied(model, X):
            shapes.append(np.shape(X))
            return predict_layer1(model, X)

        monkeypatch.setattr(uq, "predict_layer1", spied)
        uq_report(mid_model, dist32, n_prime=30, n_repeats=7, seed=6)
        assert shapes == [(3, 30, 1024), (3, 30, 1024), (1, 30, 1024)]

    def test_repeats_validated(self, small_model, dist8):
        with pytest.raises(ValueError):
            uq_report(small_model, dist8, n_prime=10, n_repeats=1, seed=0)


class TestMcBaseline:
    def test_constant_output_gives_zero_variance(self):
        grid = Grid2D(4, 4)
        kle = KLExpansion(eigenvalues=np.zeros(3),
                          eigenfields=np.zeros((3, 16)), mean=0.0, grid=grid)
        dist = InputDistribution(kle=kle)
        mean, var, _ = mc_baseline(lambda K: K, dist, N=8, seed=0)
        np.testing.assert_array_equal(mean, np.ones(16))
        np.testing.assert_array_equal(var, np.zeros(16))

    def test_mean_matches_loop_oracle(self, dist8):
        sim = lambda K: K[..., :5] * 2.0
        N = 20
        mean, var, _ = mc_baseline(sim, dist8, N=N, seed=4)
        rows = []
        for i in range(N):
            rng = rng_for(4, MC_BASELINE_STREAM, i)
            xi = np.clip(rng.uniform(size=dist8.kle.k_xi), 1e-15, 1 - 1e-15)
            from dgpuq.random_field import permeability
            rows.append(sim(permeability(dist8.kle, xi)))
        oracle = np.sum(rows, axis=0) / N
        assert np.abs(mean - oracle).max() < 1e-12

    def test_blocks_equal_the_loop_oracle_bit_for_bit(self, dist32):
        # 1024 cells: blocks of 8 rows, so N = 20 runs as 8, 8 and 4
        blocks = []

        def sim(K):
            blocks.append(len(K))
            return np.log(K[..., :7]) ** 2

        grid = Grid2D(4, 4)
        mean, var, pdfs = mc_baseline(sim, dist32, N=20, seed=6,
                                      pdf_at=[cell_center(3, grid)],
                                      out_grid=grid)
        assert blocks == [8, 8, 4]
        rows = np.array([sim(sample_permeability(
            dist32.kle, rng_for(6, MC_BASELINE_STREAM, i))) for i in range(20)])
        np.testing.assert_array_equal(mean, rows.mean(axis=0))
        np.testing.assert_array_equal(var, rows.var(axis=0))
        oracle = uq._pdf_estimate(cell_center(3, grid), 3, [rows[:, 3]])
        np.testing.assert_array_equal(pdfs[0].mean_density, oracle.mean_density)

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, FloatingPointError])
    def test_failing_row_in_a_later_block_is_named(self, dist32, error):
        bad = sample_permeability(dist32.kle, rng_for(6, MC_BASELINE_STREAM, 11))
        calls = []

        def sim(K):
            calls.append(len(K))
            if any(np.array_equal(row, bad) for row in K):
                raise error("no solution")
            return K[:, :2]

        with pytest.raises(error, match="^simulator failed at sample 11: "
                                        "no solution$"):
            mc_baseline(sim, dist32, N=20, seed=6)
        # the second block, then its rows one at a time up to sample 11
        assert calls == [8, 8, 1, 1, 1, 1]

    def test_value_error_in_a_block_propagates_unchanged(self, dist32):
        def sim(K):
            if len(K) > 1:
                raise ValueError("bad block")
            raise ValueError("bad row")

        with pytest.raises(ValueError, match="^bad row$"):
            mc_baseline(sim, dist32, N=20, seed=6)

    def test_variance_of_offset_outputs_matches_numpy(self, dist8):
        # a mean far above the spread: sum(y^2)/N - mean^2 cancels there
        sim = lambda K: 1e4 + 1e-3 * np.log(K[..., :3])
        N = 200
        _, var, _ = mc_baseline(sim, dist8, N=N, seed=0)
        rows = []
        for i in range(N):
            rng = rng_for(0, MC_BASELINE_STREAM, i)
            xi = np.clip(rng.uniform(size=dist8.kle.k_xi), 1e-15, 1 - 1e-15)
            rows.append(sim(permeability(dist8.kle, xi)))
        oracle = np.var(rows, axis=0)
        assert np.all(np.abs(var - oracle) <= 1e-12 * oracle)

    def test_minimal_run_and_pdf(self, dist8):
        grid = Grid2D(2, 2)
        mean, var, pdfs = mc_baseline(lambda K: K[..., :3], dist8, N=50, seed=5,
                                      pdf_at=[cell_center(1, grid)],
                                      out_grid=grid)
        assert mean.shape == (3,)
        assert np.all(var >= 0)
        assert len(pdfs) == 1 and pdfs[0].column == 1
        mass = np.trapezoid(pdfs[0].mean_density, pdfs[0].abscissae)
        assert abs(mass - 1.0) < 1e-3

    @pytest.mark.parametrize("col", [7])
    def test_pdf_column_out_of_range_rejected(self, dist8, col):
        runs = []

        def sim(K):
            runs.append(1)
            return K[..., :3]

        grid = Grid2D(4, 4)
        with pytest.raises(ValueError, match=f"selects output column {col},"):
            mc_baseline(sim, dist8, N=5, seed=0,
                        pdf_at=[cell_center(col, grid)], out_grid=grid)
        assert len(runs) == 1

    def test_simulator_failure_reports_index(self, dist8):
        def bad(K):
            raise np.linalg.LinAlgError("boom")
        with pytest.raises(np.linalg.LinAlgError, match="sample 0: boom"):
            mc_baseline(bad, dist8, N=3, seed=0)

    def test_simulator_bug_propagates_unwrapped(self, dist8):
        def bad(K):
            raise TypeError("boom")
        with pytest.raises(TypeError, match="^boom$"):
            mc_baseline(bad, dist8, N=3, seed=0)


class TestKde:
    def test_density_nonnegative_and_normalized(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=200)
        lo, hi = x.min(), x.max()
        margin = 0.1 * (hi - lo)
        grid = np.linspace(lo - margin, hi + margin, 256)
        dens = kde_curve(x, grid)
        assert np.all(dens >= 0)
        assert abs(np.trapezoid(dens, grid) - 1.0) < 1e-3
