"""Single-phase Darcy pressure solver on a structured grid.

Cell-centered finite volume with two-point flux approximation and harmonic
averaging of the permeability at faces (the lowest-order mixed formulation
on rectangles reduces to this scheme).  No-flux boundary conditions are
natural: boundary faces simply carry zero flux.  The pure-Neumann system is
regularized by pinning one pressure degree of freedom and the solution is
shifted to zero area-weighted mean afterwards.  The reduced system is
symmetric positive definite and is factored directly with ``splu`` at every
grid size: on lognormal fields it was faster than Jacobi-preconditioned
conjugate gradients at every grid measured, up to 320 x 320.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .random_field import Grid2D

__all__ = ["SourceSpec", "DarcySolution", "source_term", "solve", "restrict"]


@dataclass(frozen=True)
class SourceSpec:
    """Square injection/production wells in opposite corners."""

    rate: float = 10.0
    width: float = 1.0 / 8.0

    def __post_init__(self):
        if not 0 < self.width < 1:
            raise ValueError("well width must lie in (0, 1)")
        if not self.rate > 0:
            raise ValueError("well rate must be positive")


@dataclass
class DarcySolution:
    """Pressure and cell-center velocities on the solve grid."""

    pressure: np.ndarray
    vel_x: np.ndarray
    vel_y: np.ndarray
    grid: Grid2D


def source_term(xs, spec: SourceSpec) -> float:
    """Well source at a point: -rate in the corner square near (0,0),
    +rate near (1,1), zero elsewhere."""
    x, y = float(xs[0]), float(xs[1])
    half = 0.5 * spec.width
    if abs(x - half) < half and abs(y - half) < half:
        return -spec.rate
    if abs(x - 1.0 + half) < half and abs(y - 1.0 + half) < half:
        return spec.rate
    return 0.0


def _source_field(grid: Grid2D, spec: SourceSpec) -> np.ndarray:
    centers = grid.cell_centers()
    half = 0.5 * spec.width
    x, y = centers[:, 0], centers[:, 1]
    f = np.zeros(grid.n_cells)
    f[(np.abs(x - half) < half) & (np.abs(y - half) < half)] = -spec.rate
    f[(np.abs(x - 1 + half) < half) & (np.abs(y - 1 + half) < half)] = spec.rate
    return f


def _face_transmissibilities(K2d: np.ndarray, hx: float, hy: float):
    # harmonic mean of K across each interior face, scaled by face area / distance
    Kw = K2d[:, :-1]
    Ke = K2d[:, 1:]
    tx = (2.0 * Kw * Ke / (Kw + Ke)) * (hy / hx)   # (ny, nx-1) vertical faces
    Ks = K2d[:-1, :]
    Kn = K2d[1:, :]
    ty = (2.0 * Ks * Kn / (Ks + Kn)) * (hx / hy)   # (ny-1, nx) horizontal faces
    return tx, ty


def _face_fluxes(K2d: np.ndarray, p2d: np.ndarray, hx: float, hy: float):
    """Darcy fluxes normal to every face, padded with the zero wall fluxes.

    Returns ``(ux, uy)`` of shapes (ny, nx + 1) and (ny + 1, nx): column i
    of ``ux`` is the face left of cell column i, row j of ``uy`` the face
    below cell row j.
    """
    ny, nx = K2d.shape
    ux = np.zeros((ny, nx + 1))
    ux[:, 1:-1] = -(2.0 * K2d[:, :-1] * K2d[:, 1:] / (K2d[:, :-1] + K2d[:, 1:])) \
        * (p2d[:, 1:] - p2d[:, :-1]) / hx
    uy = np.zeros((ny + 1, nx))
    uy[1:-1, :] = -(2.0 * K2d[:-1, :] * K2d[1:, :] / (K2d[:-1, :] + K2d[1:, :])) \
        * (p2d[1:, :] - p2d[:-1, :]) / hy
    return ux, uy


def solve(grid: Grid2D, K, source=None) -> DarcySolution:
    """Solve -div(K grad p) = f with no-flux walls and zero-mean pressure.

    Parameters
    ----------
    grid : Grid2D
    K : flat array of strictly positive cell permeabilities
    source : SourceSpec or flat array of cell-centered source values.
        Defaults to ``SourceSpec()``.  The source must integrate to zero for
        the pure-Neumann problem to be solvable.

    Returns
    -------
    DarcySolution with cell-center pressure and velocities.

    The pinned, reduced TPFA system is solved by sparse LU (``splu`` with
    the ``MMD_AT_PLUS_A`` ordering) on every grid.
    """
    K = np.asarray(K, dtype=float).ravel()
    if K.shape[0] != grid.n_cells:
        raise ValueError(f"K has {K.shape[0]} cells, grid needs {grid.n_cells}")
    if not np.all(K > 0):
        raise ValueError("permeability must be strictly positive everywhere")

    if source is None:
        source = SourceSpec()
    if isinstance(source, SourceSpec):
        f = _source_field(grid, source)
    else:
        f = np.asarray(source, dtype=float).ravel()
        if f.shape[0] != grid.n_cells:
            raise ValueError("source field size does not match grid")

    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    K2d = grid.to_2d(K)
    tx, ty = _face_transmissibilities(K2d, hx, hy)

    idx = np.arange(grid.n_cells).reshape(ny, nx)
    rows, cols, vals = [], [], []

    def add_faces(t, cell_a, cell_b):
        a, b, t = cell_a.ravel(), cell_b.ravel(), t.ravel()
        rows.append(a), cols.append(b), vals.append(-t)
        rows.append(b), cols.append(a), vals.append(-t)
        rows.append(a), cols.append(a), vals.append(t)
        rows.append(b), cols.append(b), vals.append(t)

    add_faces(tx, idx[:, :-1], idx[:, 1:])
    add_faces(ty, idx[:-1, :], idx[1:, :])

    A = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_cells, grid.n_cells))
    b = f * grid.cell_area

    # pin p[0] = 0 to remove the constant nullspace, solve the reduced SPD system
    A_red = A[1:, 1:].tocsc()
    b_red = b[1:]
    p = np.zeros(grid.n_cells)
    # the reduced matrix is SPD, so a symmetric fill-reducing ordering fits
    p[1:] = spla.splu(A_red, permc_spec="MMD_AT_PLUS_A").solve(b_red)

    p -= np.mean(p)  # uniform cells: area-weighted mean == arithmetic mean

    ux_pad, uy_pad = _face_fluxes(K2d, grid.to_2d(p), hx, hy)
    vel_x = 0.5 * (ux_pad[:, :-1] + ux_pad[:, 1:])
    vel_y = 0.5 * (uy_pad[:-1, :] + uy_pad[1:, :])

    return DarcySolution(pressure=p, vel_x=vel_x.ravel(), vel_y=vel_y.ravel(), grid=grid)


def flux_divergence(sol: DarcySolution, K) -> np.ndarray:
    """Discrete divergence of the TPFA flux per cell (for conservation checks)."""
    grid = sol.grid
    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    K2d = grid.to_2d(np.asarray(K, dtype=float).ravel())
    ux_pad, uy_pad = _face_fluxes(K2d, grid.to_2d(sol.pressure), hx, hy)
    div = (ux_pad[:, 1:] - ux_pad[:, :-1]) / hx + (uy_pad[1:, :] - uy_pad[:-1, :]) / hy
    return div.ravel()


def restrict(field, nx: int, ny: int, out_nx: int, out_ny: int) -> np.ndarray:
    """Coarsen a flat field by block cell-averaging."""
    if nx % out_nx or ny % out_ny:
        raise ValueError(
            f"grid {nx}x{ny} not divisible by output grid {out_nx}x{out_ny}")
    bx, by = nx // out_nx, ny // out_ny
    f = np.asarray(field, dtype=float).reshape(ny, nx)
    return f.reshape(out_ny, by, out_nx, bx).mean(axis=(1, 3)).ravel()
