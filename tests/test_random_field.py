import numpy as np
import pytest
import scipy.special

from dgpuq.random_field import (Grid2D, ExpCovSpec, kle_decompose,
                                sample_log_field, permeability,
                                sample_permeability, std_normal_inv_cdf,
                                _axis_modes)
from dgpuq.kernels import DimensionMismatchError
from helpers import phi_inv_bisect, dense_cov_matrix, dense_kle_decompose

# frozen from bisection on the erf series (helpers.phi_inv_bisect(0.975))
PHI_INV_0975 = 1.959963984540054

PAPER_COV = ExpCovSpec(s_g_sq=1.0, lambdas=(0.1, 0.1), mean=0.0)


class TestKleDecompose:
    def test_complete_basis_reproduces_trace(self):
        grid = Grid2D(8, 8)
        kle = kle_decompose(grid, PAPER_COV, grid.n_cells)
        # oracle: weighted trace of the dense covariance matrix
        C = dense_cov_matrix(grid.cell_centers(), PAPER_COV)
        trace = grid.cell_area * np.trace(C)
        assert abs(kle.eigenvalues.sum() - trace) / trace < 1e-8

    def test_eigenvalues_nonincreasing(self):
        kle = kle_decompose(Grid2D(16, 16), PAPER_COV, 50)
        assert np.all(np.diff(kle.eigenvalues) <= 1e-12)
        assert np.all(kle.eigenvalues >= 0)

    def test_truncated_reconstruction_bounded_by_exact(self):
        grid = Grid2D(8, 8)
        k_xi = 20
        kle = kle_decompose(grid, PAPER_COV, k_xi)
        C = dense_cov_matrix(grid.cell_centers(), PAPER_COV)
        recon_diag = np.sum(kle.eigenfields ** 2, axis=0)
        assert np.all(recon_diag <= np.diag(C) + 1e-8)
        full = kle_decompose(grid, PAPER_COV, grid.n_cells)
        captured = kle.eigenvalues.sum() / full.eigenvalues.sum()
        expected = full.eigenvalues[:k_xi].sum() / full.eigenvalues.sum()
        assert captured == pytest.approx(expected, rel=1e-10)

    def test_energy_fraction_nondecreasing_in_k(self):
        grid = Grid2D(8, 8)
        full = kle_decompose(grid, PAPER_COV, grid.n_cells)
        fractions = np.cumsum(full.eigenvalues) / full.eigenvalues.sum()
        assert np.all(np.diff(fractions) >= -1e-15)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            kle_decompose(Grid2D(4, 4), PAPER_COV, 17)


ORACLE_CASES = {
    "square": (Grid2D(8, 8), PAPER_COV),
    "anisotropic": (Grid2D(12, 20), ExpCovSpec(s_g_sq=1.0, lambdas=(0.1, 0.3))),
}


def _sign_changes(v):
    return int(np.sum(np.diff(np.sign(v)) != 0))


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
class TestKleAgainstDenseOracle:
    def test_full_spectrum_eigenvalues(self, case):
        grid, spec = ORACLE_CASES[case]
        kle = kle_decompose(grid, spec, grid.n_cells)
        dense = dense_kle_decompose(grid, spec, grid.n_cells)
        rel = np.abs(kle.eigenvalues - dense.eigenvalues) / dense.eigenvalues
        assert rel.max() <= 1e-12

    def test_truncated_covariance_wherever_no_tie_is_cut(self, case):
        grid, spec = ORACLE_CASES[case]
        dense = dense_kle_decompose(grid, spec, grid.n_cells)
        vals = dense.eigenvalues
        checked = 0
        for k in range(1, grid.n_cells + 1):
            if k < grid.n_cells and vals[k - 1] - vals[k] <= 1e-10 * vals[0]:
                continue
            E = kle_decompose(grid, spec, k).eigenfields
            Ed = dense.eigenfields[:k]
            assert np.abs(E.T @ E - Ed.T @ Ed).max() <= 1e-12 * spec.s_g_sq
            checked += 1
        assert checked >= grid.n_cells // 2

    def test_eigenfields_orthogonal_under_area_weighting(self, case):
        grid, spec = ORACLE_CASES[case]
        kle = kle_decompose(grid, spec, grid.n_cells)
        gram = grid.cell_area * kle.eigenfields @ kle.eigenfields.T
        err = np.abs(gram - np.diag(kle.eigenvalues)).max()
        assert err <= 1e-12 * kle.eigenvalues[0]


class TestKleTieBreakAndSign:
    def test_cut_tie_keeps_the_lower_y_mode(self):
        grid = Grid2D(8, 8)
        dense = dense_kle_decompose(grid, PAPER_COV, grid.n_cells)
        vals = dense.eigenvalues
        k = next(k for k in range(1, grid.n_cells)
                 if vals[k - 1] - vals[k] <= 1e-12 * vals[0])
        kept = kle_decompose(grid, PAPER_COV, k).eigenfields[-1]
        # the kept field lies in the dense tied eigenspace ...
        tied = dense.eigenfields[np.abs(vals - vals[k - 1]) <= 1e-12 * vals[0]]
        basis = np.linalg.qr(tied.T)[0]
        assert np.linalg.norm(kept - basis @ (basis.T @ kept)) \
            <= 1e-10 * np.linalg.norm(kept)
        # ... and is a product whose y-factor is the smoother 1-D mode
        u, s, vt = np.linalg.svd(grid.to_2d(kept))
        assert s[1] <= 1e-10 * s[0]
        assert _sign_changes(u[:, 0]) < _sign_changes(vt[0])

    def test_cli_default_cut_at_64(self):
        # k = 50 at 64^2 cuts the exactly tied pair of eigenvalues 50 and 51
        grid = Grid2D(64, 64)
        kle = kle_decompose(grid, PAPER_COV, 51)
        assert kle.eigenvalues[49] == kle.eigenvalues[50]
        kept = kle_decompose(grid, PAPER_COV, 50).eigenfields[-1]
        np.testing.assert_array_equal(kept, kle.eigenfields[49])
        u, s, vt = np.linalg.svd(grid.to_2d(kept))
        assert _sign_changes(u[:, 0]) < _sign_changes(vt[0])
        np.testing.assert_allclose(grid.to_2d(kle.eigenfields[50]),
                                   grid.to_2d(kept).T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 20, 64, 160])
    def test_first_entry_of_every_axis_mode_is_positive_and_clear(self, n):
        # the sign rule is well defined: no first entry is near zero
        _, vecs = _axis_modes(n, 0.1)
        assert np.all(vecs[0] >= 0.01 * np.abs(vecs).max(axis=0))

    def test_every_eigenfield_positive_at_the_first_cell(self):
        kle = kle_decompose(*ORACLE_CASES["anisotropic"], 240)
        assert np.all(kle.eigenfields[:, 0] > 0)


@pytest.fixture(scope="module")
def kle20():
    return kle_decompose(Grid2D(8, 8), PAPER_COV, 20)


@pytest.fixture(scope="module")
def kle10():
    return kle_decompose(Grid2D(8, 8), PAPER_COV, 10)


class TestSampleLogField:
    @pytest.fixture
    def kle(self, kle20):
        return kle20

    def test_zero_coefficients_give_paper_mean(self, kle):
        field = sample_log_field(kle, np.zeros(20))
        np.testing.assert_array_equal(field, np.zeros(kle.grid.n_cells))

    def test_linearity(self, kle):
        rng = np.random.default_rng(0)
        w1, w2 = rng.normal(size=(2, 20))
        lhs = sample_log_field(kle, w1 + w2)
        rhs = sample_log_field(kle, w1) + sample_log_field(kle, w2)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_basis_pickout(self, kle):
        w = np.zeros(20)
        w[7] = 1.0
        np.testing.assert_array_equal(sample_log_field(kle, w), kle.eigenfields[7])

    def test_length_mismatch(self, kle):
        with pytest.raises(DimensionMismatchError):
            sample_log_field(kle, np.zeros(19))

    def test_empirical_covariance_matches_truncated_analytic(self, kle):
        # 50k sampled fields against the truncated covariance at 5 point pairs
        rng = np.random.default_rng(42)
        n = 50000
        W = rng.standard_normal((n, 20))
        fields = W @ kle.eigenfields
        pairs = [(0, 0), (0, 9), (5, 40), (12, 63), (33, 34)]
        truncated = kle.eigenfields.T @ kle.eigenfields
        for i, j in pairs:
            prods = fields[:, i] * fields[:, j]
            emp = prods.mean()
            se = prods.std() / np.sqrt(n)
            assert abs(emp - truncated[i, j]) < 3.0 * se + 1e-12


class TestPermeability:
    @pytest.fixture
    def kle(self, kle10):
        return kle10

    def test_median_inputs_give_unit_field(self, kle):
        K = permeability(kle, np.full(10, 0.5))
        np.testing.assert_array_equal(K, np.ones(kle.grid.n_cells))

    def test_antisymmetry_product(self, kle):
        rng = np.random.default_rng(1)
        xi = rng.uniform(0.05, 0.95, 10)
        prod = permeability(kle, xi) * permeability(kle, 1.0 - xi)
        np.testing.assert_allclose(prod, np.exp(2.0 * kle.mean), rtol=1e-10)

    def test_round_trip_through_gaussian_coefficients(self, kle):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(10)
        xi = scipy.special.ndtr(w)
        expected = np.exp(sample_log_field(kle, w))
        K = permeability(kle, xi)
        np.testing.assert_allclose(K, expected, rtol=1e-9)

    def test_strictly_positive(self, kle):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xi = np.clip(rng.uniform(size=10), 1e-12, 1 - 1e-12)
            assert np.all(permeability(kle, xi) > 0)

    def test_boundary_rejected(self, kle):
        xi = np.full(10, 0.5)
        xi[3] = 1.0
        with pytest.raises(ValueError):
            permeability(kle, xi)


    def test_one_dimensional_call_is_unchanged(self, kle):
        # the single-field formula, frozen: exp(mean + PhiInv(xi) @ psi)
        xi = np.random.default_rng(4).uniform(0.01, 0.99, 10)
        expected = np.exp(kle.mean + scipy.special.ndtri(xi) @ kle.eigenfields)
        np.testing.assert_array_equal(permeability(kle, xi), expected)

    def test_block_of_rows_matches_row_loop(self, kle):
        xi = np.random.default_rng(5).uniform(0.01, 0.99, (7, 10))
        K = permeability(kle, xi)
        assert K.shape == (7, kle.grid.n_cells)
        loop = np.vstack([permeability(kle, row) for row in xi])
        np.testing.assert_allclose(K, loop, rtol=1e-13, atol=0)
        w = scipy.special.ndtri(xi)
        np.testing.assert_allclose(sample_log_field(kle, w),
                                   np.vstack([sample_log_field(kle, r)
                                              for r in w]),
                                   rtol=0, atol=1e-13)

    def test_block_column_mismatch(self, kle):
        with pytest.raises(DimensionMismatchError):
            permeability(kle, np.full((3, 9), 0.5))
        with pytest.raises(DimensionMismatchError):
            sample_log_field(kle, np.zeros((3, 11)))


class _EdgeUniforms:
    """A generator stand-in whose uniforms alternate 0 and 1."""

    def uniform(self, size):
        return np.arange(np.prod(size)).reshape(size) % 2.0


class TestSamplePermeability:
    def test_one_field_and_a_block_of_fields(self, kle10):
        xi = np.clip(np.random.default_rng(6).uniform(size=10), 1e-15,
                     1 - 1e-15)
        np.testing.assert_array_equal(
            sample_permeability(kle10, np.random.default_rng(6)),
            permeability(kle10, xi))
        xi = np.clip(np.random.default_rng(7).uniform(size=(4, 10)), 1e-15,
                     1 - 1e-15)
        K = sample_permeability(kle10, np.random.default_rng(7), rows=4)
        assert K.shape == (4, kle10.grid.n_cells)
        np.testing.assert_array_equal(K, permeability(kle10, xi))

    def test_uniforms_at_the_ends_are_clipped(self, kle10):
        # 0 and 1 would send the inverse normal CDF to -inf and +inf
        K = sample_permeability(kle10, _EdgeUniforms(), rows=3)
        assert np.all(np.isfinite(K)) and np.all(K > 0)


class TestStdNormalInvCdf:
    def test_median(self):
        assert std_normal_inv_cdf(0.5) == 0.0

    def test_antisymmetry(self):
        for u in (0.01, 0.2, 0.77, 0.999):
            assert std_normal_inv_cdf(u) == pytest.approx(
                -std_normal_inv_cdf(1.0 - u), abs=1e-12)

    def test_frozen_series_bisection_oracle(self):
        assert std_normal_inv_cdf(0.975) == pytest.approx(PHI_INV_0975, abs=1e-9)
        # the frozen constant itself comes from the erf-series bisection
        assert phi_inv_bisect(0.975) == pytest.approx(PHI_INV_0975, abs=1e-12)

    def test_round_trip_accuracy(self):
        for u in np.linspace(1e-6, 1 - 1e-6, 41):
            assert abs(scipy.special.ndtr(std_normal_inv_cdf(u)) - u) < 1e-9

    def test_open_interval_enforced(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                std_normal_inv_cdf(bad)


@pytest.mark.parametrize("kwargs, message", [
    pytest.param(dict(s_g_sq=0.0), "s_g_sq must be positive", id="s_g_sq-zero"),
    pytest.param(dict(s_g_sq=float("nan")), "s_g_sq must be positive",
                 id="s_g_sq-nan"),
    pytest.param(dict(lambdas=(0.1,)), "lambdas must be two positive",
                 id="one-lambda"),
    pytest.param(dict(lambdas=(0.1, -0.1)), "lambdas must be two positive",
                 id="negative-lambda")])
def test_bad_covariance_spec_raises_naming_it(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExpCovSpec(**kwargs)


class TestGrid2D:
    def test_cell_centers_convention(self):
        g = Grid2D(4, 2)
        c = g.cell_centers()
        # row-major with x fastest
        np.testing.assert_allclose(c[0], [0.125, 0.25])
        np.testing.assert_allclose(c[1], [0.375, 0.25])
        np.testing.assert_allclose(c[4], [0.125, 0.75])

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid2D(1, 8)
