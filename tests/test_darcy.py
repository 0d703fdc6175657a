import numpy as np
import pytest
from scipy.linalg.lapack import dpbtrf

from dgpuq import cli, darcy
from dgpuq.darcy import (SourceSpec, source_term, solve, restrict,
                         flux_divergence)
from dgpuq.random_field import (Grid2D, ExpCovSpec, kle_decompose,
                                sample_permeability)
from dgpuq.rng import rng_for
from helpers import sparse_tpfa_pressure


def rel_err(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def manufactured_error(N):
    """Relative L2 pressure error for K=1, f = 2 pi^2 cos(pi x) cos(pi y)."""
    grid = Grid2D(N, N)
    c = grid.cell_centers()
    f = 2.0 * np.pi ** 2 * np.cos(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1])
    sol = solve(grid, np.ones(grid.n_cells), f)
    p_exact = np.cos(np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1])
    return np.sqrt(np.sum((sol.pressure - p_exact) ** 2) / np.sum(p_exact ** 2))


class TestSourceTerm:
    def test_injection_corner(self):
        assert source_term((0.05, 0.05), SourceSpec(rate=10, width=1 / 8)) == -10.0

    def test_production_corner(self):
        assert source_term((0.95, 0.95), SourceSpec(rate=10, width=1 / 8)) == 10.0

    def test_outside_wells(self):
        assert source_term((0.5, 0.5), SourceSpec()) == 0.0

    def test_wells_balance_on_grid(self):
        for N in (16, 32, 64):
            f = source_term(Grid2D(N, N).cell_centers(), SourceSpec())
            assert f.sum() == 0.0

    def test_array_of_points_matches_point_by_point(self):
        spec = SourceSpec(rate=3.0, width=0.5)
        pts = Grid2D(12, 10).cell_centers()
        f = source_term(pts, spec)
        assert f.shape == (120,)
        np.testing.assert_array_equal(f, [source_term(p, spec) for p in pts])
        assert source_term(pts.reshape(10, 12, 2), spec).shape == (10, 12)
        assert f.sum() == 0.0 and np.count_nonzero(f) == 60

    def test_validation(self):
        with pytest.raises(ValueError):
            SourceSpec(rate=10, width=1.5)
        with pytest.raises(ValueError):
            SourceSpec(rate=-1, width=0.1)

    def test_overlapping_wells_rejected(self):
        # above one half the squares overlap: on 16 x 16 at width 0.6 the
        # source summed to 160
        with pytest.raises(ValueError, match="overlap"):
            SourceSpec(width=0.6)
        SourceSpec(width=0.5)


class TestSolve:
    def test_homogeneous_problem_is_zero(self):
        grid = Grid2D(16, 16)
        sol = solve(grid, np.ones(grid.n_cells), np.zeros(grid.n_cells))
        assert np.abs(sol.pressure).max() < 1e-12
        assert np.abs(sol.vel_x).max() < 1e-12
        assert np.abs(sol.vel_y).max() < 1e-12

    def test_manufactured_solution_64(self):
        assert manufactured_error(64) <= 0.02

    def test_grid_convergence_second_order(self):
        ratio = manufactured_error(32) / manufactured_error(64)
        assert 2.8 <= ratio <= 5.2

    def test_zero_mean_pressure(self):
        rng = np.random.default_rng(0)
        grid = Grid2D(16, 16)
        for _ in range(3):
            K = np.exp(rng.standard_normal(grid.n_cells))
            sol = solve(grid, K, SourceSpec())
            assert abs(sol.pressure.mean()) < 1e-10

    def test_conservation_identity(self):
        rng = np.random.default_rng(1)
        grid = Grid2D(24, 24)
        K = np.exp(0.8 * rng.standard_normal(grid.n_cells))
        spec = SourceSpec()
        sol = solve(grid, K, spec)
        div = flux_divergence(sol, K)
        assert np.abs(div - source_term(grid.cell_centers(), spec)).max() < 1e-8

    def test_conservation_identity_on_a_132_by_132_grid(self):
        rng = np.random.default_rng(1)
        grid = Grid2D(132, 132)
        K = np.exp(0.8 * rng.standard_normal(grid.n_cells))
        spec = SourceSpec()
        sol = solve(grid, K, spec)
        div = flux_divergence(sol, K)
        assert np.abs(div - source_term(grid.cell_centers(), spec)).max() < 1e-8

    def test_permutation_symmetry(self):
        rng = np.random.default_rng(2)
        grid = Grid2D(20, 20)
        K = np.exp(0.5 * rng.standard_normal(grid.n_cells))
        sol = solve(grid, K, SourceSpec())
        KT = grid.to_2d(K).T.ravel()
        solT = solve(grid, KT, SourceSpec())
        np.testing.assert_allclose(grid.to_2d(solT.pressure),
                                   grid.to_2d(sol.pressure).T, atol=1e-10)
        np.testing.assert_allclose(grid.to_2d(solT.vel_x),
                                   grid.to_2d(sol.vel_y).T, atol=1e-10)
        np.testing.assert_allclose(grid.to_2d(solT.vel_y),
                                   grid.to_2d(sol.vel_x).T, atol=1e-10)

    def test_wall_cells_average_a_zero_face_flux(self):
        # with K=1 and the symmetric wells, the velocity at a wall cell is
        # exactly half the single interior face flux next to it
        grid = Grid2D(12, 12)
        sol = solve(grid, np.ones(grid.n_cells), SourceSpec())
        p2d = grid.to_2d(sol.pressure)
        ux = grid.to_2d(sol.vel_x)
        interior_face = -(p2d[:, 1] - p2d[:, 0]) * grid.nx
        np.testing.assert_allclose(ux[:, 0], 0.5 * interior_face, atol=1e-12)

    def test_nonpositive_K_rejected(self):
        grid = Grid2D(8, 8)
        K = np.ones(grid.n_cells)
        K[5] = 0.0
        with pytest.raises(ValueError):
            solve(grid, K, SourceSpec())

    def test_wrong_size_K_rejected(self):
        with pytest.raises(ValueError):
            solve(Grid2D(8, 8), np.ones(63), SourceSpec())

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_K_rejected(self, bad):
        grid = Grid2D(8, 8)
        K = np.ones(grid.n_cells)
        K[9] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(grid, K, SourceSpec())

    def test_source_that_does_not_sum_to_zero_rejected(self):
        grid = Grid2D(8, 8)
        with pytest.raises(ValueError, match="not zero"):
            solve(grid, np.ones(grid.n_cells), np.ones(grid.n_cells))

    def test_source_field_of_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="source field size"):
            solve(Grid2D(8, 8), np.ones(64), np.zeros(63))

    def test_gen_data_with_overlapping_wells_exits_2(self, tmp_path):
        code = cli.main(["gen-data", "--n", "1", "--grid", "8", "--out-grid",
                         "4", "--kle", "4", "--width", "0.6",
                         "--out", str(tmp_path / "d")])
        assert code == 2
        assert not (tmp_path / "d").exists()

    def test_overflowing_transmissibility_rejected(self):
        # finite cells whose harmonic-mean product 2 Kw Ke overflows
        grid = Grid2D(8, 8)
        K = np.ones(grid.n_cells)
        K[9:11] = 1e300
        with pytest.raises(ValueError, match="overflow"):
            solve(grid, K, SourceSpec())


class TestBandedCholesky:
    @pytest.mark.parametrize("sigma", [0.8, 2.0])
    @pytest.mark.parametrize("nx,ny", [(16, 16), (12, 7), (7, 12), (33, 20),
                                       (2, 9), (9, 2), (5, 5), (9, 7)])
    def test_matches_the_sparse_lu_oracle(self, nx, ny, sigma):
        rng = np.random.default_rng(nx * 100 + ny)
        grid = Grid2D(nx, ny)
        K = np.exp(sigma * rng.standard_normal(grid.n_cells))
        f = rng.standard_normal(grid.n_cells)
        f -= f.mean()
        sol = solve(grid, K, f)
        assert rel_err(sol.pressure, sparse_tpfa_pressure(grid, K, f)) <= 1e-10

    @pytest.mark.parametrize("nx,ny", [(8, 8), (7, 9), (2, 9)])
    def test_factors_only_the_black_cells(self, monkeypatch, nx, ny):
        bands = []

        def spy(ab, **kw):
            bands.append(ab.shape)
            return dpbtrf(ab, **kw)

        monkeypatch.setattr(darcy, "dpbtrf", spy)
        grid = Grid2D(nx, ny)
        f = np.random.default_rng(8).standard_normal(grid.n_cells)
        solve(grid, np.ones(grid.n_cells), f - f.mean())
        assert bands == [(nx + 1, grid.n_cells // 2)]

    def test_cached_layout_and_well_source_are_read_only(self):
        grid = Grid2D(8, 8)
        assert not darcy._well_source(grid, SourceSpec()).flags.writeable
        assert not any(a.flags.writeable for a in darcy._red_black(grid))

    @pytest.mark.parametrize("nx,ny", [(12, 7), (33, 20)])
    def test_transpose_symmetry_on_non_square_grids(self, nx, ny):
        rng = np.random.default_rng(6)
        grid, gridT = Grid2D(nx, ny), Grid2D(ny, nx)
        K = np.exp(0.8 * rng.standard_normal(grid.n_cells))
        spec = SourceSpec(width=0.25)
        sol = solve(grid, K, spec)
        solT = solve(gridT, grid.to_2d(K).T.ravel(), spec)
        for a, b in ((solT.pressure, sol.pressure), (solT.vel_x, sol.vel_y),
                     (solT.vel_y, sol.vel_x)):
            assert rel_err(gridT.to_2d(a), grid.to_2d(b).T) <= 1e-10

    def test_failed_factorization_raises_and_exits_3(self, monkeypatch, tmp_path):
        monkeypatch.setattr(darcy, "dpbtrf", lambda ab, **kw: (ab, 1))
        grid = Grid2D(8, 8)
        with pytest.raises(np.linalg.LinAlgError, match="dpbtrf"):
            solve(grid, np.ones(grid.n_cells), SourceSpec())
        code = cli.main(["gen-data", "--n", "1", "--grid", "8", "--out-grid",
                         "4", "--kle", "4", "--out", str(tmp_path / "d")])
        assert code == 3


class TestExtremeContrast:
    # on an 8 x 8 grid cell 9 is red (ix + iy = 2) and cell 10 black

    @pytest.mark.parametrize("cell", [9, 10])
    def test_subnormal_permeability_solves_without_a_warning(self, cell):
        grid = Grid2D(8, 8)
        K = np.ones(grid.n_cells)
        K[cell] = 5e-324
        spec = SourceSpec()
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            sol = solve(grid, K, spec)
        assert np.all(np.isfinite(sol.pressure))
        div = flux_divergence(sol, K)
        assert np.abs(div - source_term(grid.cell_centers(), spec)).max() < 1e-8

    @pytest.mark.parametrize("value", [1e-300, 1e150])
    @pytest.mark.parametrize("cell", [9, 10])
    def test_matches_the_sparse_lu_oracle(self, cell, value):
        grid = Grid2D(8, 8)
        K = np.ones(grid.n_cells)
        K[cell] = value
        f = source_term(grid.cell_centers(), SourceSpec())
        assert rel_err(solve(grid, K, f).pressure,
                       sparse_tpfa_pressure(grid, K, f)) <= 1e-10

    def test_cells_with_no_conducting_face_raise(self):
        # every harmonic-mean product 2 Kw Ke underflows to zero
        grid = Grid2D(8, 8)
        with pytest.raises(np.linalg.LinAlgError):
            solve(grid, np.full(grid.n_cells, 1e-170), SourceSpec())

    def test_cut_off_well_raises(self):
        # both faces of the injection cell 0 underflow to zero: the pinned
        # matrix is singular, yet dpbtrf succeeds on rounding
        grid = Grid2D(8, 8)
        K = np.ones(grid.n_cells)
        K[[0, 1, 8]] = 1e-170
        with pytest.raises(np.linalg.LinAlgError,
                           match="misses the source by 10"):
            solve(grid, K, SourceSpec())


class TestStack:
    @pytest.mark.parametrize("sg", [1.0, 4.0])
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_rows_equal_single_solves_bit_for_bit(self, n, sg):
        grid = Grid2D(n, n)
        kle = kle_decompose(grid, ExpCovSpec(s_g_sq=sg, lambdas=(0.1, 0.1)), 10)
        K = sample_permeability(kle, rng_for(3, n), 5)
        stack = solve(grid, K, SourceSpec())
        coarse = restrict(stack.pressure, n, n, n // 2, n // 2)
        assert stack.pressure.shape == stack.vel_x.shape == (5, n * n)
        assert coarse.shape == (5, n * n // 4)
        div = flux_divergence(stack, K)
        for r, k in enumerate(K):
            one = solve(grid, k, SourceSpec())
            for name in ("pressure", "vel_x", "vel_y"):
                np.testing.assert_array_equal(getattr(stack, name)[r],
                                              getattr(one, name))
            np.testing.assert_array_equal(
                coarse[r], restrict(one.pressure, n, n, n // 2, n // 2))
            np.testing.assert_array_equal(div[r], flux_divergence(one, k))

    def test_a_stack_of_one_is_a_single_field(self):
        grid = Grid2D(8, 8)
        K = np.exp(np.random.default_rng(5).standard_normal(grid.n_cells))
        one, stack = solve(grid, K, SourceSpec()), solve(grid, K[None], SourceSpec())
        assert one.pressure.shape == (64,) and stack.pressure.shape == (1, 64)
        np.testing.assert_array_equal(stack.pressure[0], one.pressure)

    def test_a_failing_row_fails_the_stack(self):
        grid = Grid2D(8, 8)
        K = np.ones((3, grid.n_cells))
        K[1] = 1e-170
        with pytest.raises(np.linalg.LinAlgError):
            solve(grid, K, SourceSpec())

    @pytest.mark.parametrize("shape", [(2, 2, 64), (0, 64), ()])
    def test_not_a_field_or_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="one flat field or a stack"):
            solve(Grid2D(8, 8), np.ones(shape), SourceSpec())

    def test_restrict_rejects_a_field_of_the_wrong_size(self):
        with pytest.raises(ValueError, match="not one flat field"):
            restrict(np.zeros((2, 63)), 8, 8, 4, 4)


class TestRestrict:
    def test_constant_field_unchanged(self):
        f = np.full(64 * 64, 3.7)
        out = restrict(f, 64, 64, 32, 32)
        np.testing.assert_array_equal(out, np.full(32 * 32, 3.7))

    def test_block_mean_definition(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=64 * 64)
        out = restrict(f, 64, 64, 32, 32)
        f2 = f.reshape(64, 64)
        expected = np.empty((32, 32))
        for i in range(32):
            for j in range(32):
                expected[i, j] = f2[2 * i:2 * i + 2, 2 * j:2 * j + 2].mean()
        np.testing.assert_allclose(out, expected.ravel(), atol=1e-14)

    def test_composition(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=64 * 64)
        two_step = restrict(restrict(f, 64, 64, 32, 32), 32, 32, 16, 16)
        one_step = restrict(f, 64, 64, 16, 16)
        assert np.abs(two_step - one_step).max() < 1e-12

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            restrict(np.zeros(64 * 64), 64, 64, 48, 32)
