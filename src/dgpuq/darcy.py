"""Single-phase Darcy pressure solver on a structured grid.

Cell-centered finite volume with two-point flux approximation and harmonic
averaging of the permeability at faces (the lowest-order mixed formulation
on rectangles reduces to this scheme).  No-flux boundary conditions are
natural: boundary faces simply carry zero flux.  The pure-Neumann system is
regularized by pinning one pressure degree of freedom and the solution is
shifted to zero area-weighted mean afterwards.

With cells numbered x-fastest, the pinned five-point matrix is SPD with
bandwidth ``nx`` and is solved by banded Cholesky: O(n nx^2) time and
(nx + 1) n memory for n cells.  Against SuperLU with a minimum-degree
ordering (one solve, one BLAS thread, 2-core Xeon) it is about 4x faster
at 32 x 32 and 2x at 64 x 64, and the two cross between 200 x 200 and
256 x 256; at 320 x 320 the band takes 0.37 s and 263 MB against 0.27 s
and about 69 MB of LU factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .random_field import Grid2D

__all__ = ["SourceSpec", "DarcySolution", "source_term", "solve", "restrict"]


@dataclass(frozen=True)
class SourceSpec:
    """Square injection/production wells in opposite corners.

    A width above one half would overlap the squares, and the source would
    no longer integrate to zero.
    """

    rate: float = 10.0
    width: float = 1.0 / 8.0

    def __post_init__(self):
        if not 0 < self.width <= 0.5:
            raise ValueError("well width must lie in (0, 0.5] so the wells "
                             "do not overlap")
        if not self.rate > 0:
            raise ValueError("well rate must be positive")


@dataclass
class DarcySolution:
    """Pressure and cell-center velocities on the solve grid."""

    pressure: np.ndarray
    vel_x: np.ndarray
    vel_y: np.ndarray
    grid: Grid2D


def source_term(xs, spec: SourceSpec):
    """Well source at points of shape (..., 2): -rate in the corner square
    near (0,0), +rate near (1,1), zero elsewhere.  A single point gives a
    float, an array of points an array of shape (...)."""
    xs = np.asarray(xs, dtype=float)
    x, y = xs[..., 0], xs[..., 1]
    half = 0.5 * spec.width
    near_0 = (np.abs(x - half) < half) & (np.abs(y - half) < half)
    near_1 = (np.abs(x - 1.0 + half) < half) & (np.abs(y - 1.0 + half) < half)
    f = np.where(near_0, -spec.rate, np.where(near_1, spec.rate, 0.0))
    return float(f) if f.ndim == 0 else f


def _face_transmissibilities(K2d: np.ndarray, hx: float, hy: float):
    """Transmissibility of every face: the harmonic mean of K across it,
    scaled by face area / distance, and zero on the no-flux walls.

    Returns ``(tw, ts)`` of shapes (ny, nx + 1) and (ny + 1, nx): column i
    of ``tw`` is the face left of cell column i, row j of ``ts`` the face
    below cell row j.  An overflow stays inf for ``solve`` to reject.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        Kw, Ke = K2d[:, :-1], K2d[:, 1:]
        tx = (2.0 * Kw * Ke / (Kw + Ke)) * (hy / hx)
        Ks, Kn = K2d[:-1, :], K2d[1:, :]
        ty = (2.0 * Ks * Kn / (Ks + Kn)) * (hx / hy)
    return np.pad(tx, ((0, 0), (1, 1))), np.pad(ty, ((1, 1), (0, 0)))


def _face_fluxes(tw: np.ndarray, ts: np.ndarray, p2d: np.ndarray,
                 hx: float, hy: float):
    """Darcy fluxes normal to every face, laid out as ``tw`` and ``ts``."""
    ux = -tw * np.diff(p2d, axis=1, prepend=0.0, append=0.0) / hy
    uy = -ts * np.diff(p2d, axis=0, prepend=0.0, append=0.0) / hx
    return ux, uy


def solve(grid: Grid2D, K, source) -> DarcySolution:
    """Solve -div(K grad p) = f with no-flux walls and zero-mean pressure.

    Parameters
    ----------
    grid : Grid2D
    K : flat array of finite, strictly positive cell permeabilities
    source : SourceSpec, or flat array of cell-centered source values.  The
        source must integrate to zero for the pure-Neumann problem to be
        solvable: ``|sum f| > 1e-12 * sum |f|`` raises ValueError.

    Returns
    -------
    DarcySolution with cell-center pressure and velocities.

    The matrix goes straight into LAPACK's upper band array, shape
    (nx + 1, n_cells): row ``nx`` holds the diagonal (each cell's summed face
    transmissibilities), row ``nx - 1`` minus the face left of each cell and
    row 0 minus the face below it.  Pinning p[0] drops band column 0;
    ``dpbtrf`` and ``dpbtrs`` factor and solve, and a failure raises
    ``np.linalg.LinAlgError`` naming the routine.
    """
    K = np.asarray(K, dtype=float).ravel()
    if K.shape[0] != grid.n_cells:
        raise ValueError(f"K has {K.shape[0]} cells, grid needs {grid.n_cells}")
    if not np.all(np.isfinite(K) & (K > 0)):
        raise ValueError("permeability must be finite and strictly positive everywhere")

    if isinstance(source, SourceSpec):
        f = source_term(grid.cell_centers(), source)
    else:
        f = np.asarray(source, dtype=float).ravel()
        if f.shape[0] != grid.n_cells:
            raise ValueError("source field size does not match grid")
    total = float(np.sum(f))
    if abs(total) > 1e-12 * np.sum(np.abs(f)):
        raise ValueError(f"source sums to {total:.6g}, not zero: the no-flux "
                         "problem has no solution")

    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    K2d = grid.to_2d(K)
    tw, ts = _face_transmissibilities(K2d, hx, hy)
    if not (np.all(np.isfinite(tw)) and np.all(np.isfinite(ts))):
        raise ValueError("face transmissibilities overflow: permeability too large")

    ab = np.zeros((nx + 1, grid.n_cells), order="F")
    ab[nx] = (tw[:, 1:] + tw[:, :-1] + ts[1:] + ts[:-1]).ravel()
    ab[nx - 1] = -tw[:, :-1].ravel()
    ab[0] = -ts[:-1].ravel()

    # pin p[0] = 0 to remove the constant nullspace: drop row and column 0
    chol, info = dpbtrf(ab[:, 1:], overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpbtrf failed on the TPFA band (info = {info})")
    p_red, info = dpbtrs(chol, f[1:] * grid.cell_area)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpbtrs failed on the TPFA band (info = {info})")
    p = np.zeros(grid.n_cells)
    p[1:] = p_red.ravel()

    p -= np.mean(p)  # uniform cells: area-weighted mean == arithmetic mean

    ux_pad, uy_pad = _face_fluxes(tw, ts, grid.to_2d(p), hx, hy)
    vel_x = 0.5 * (ux_pad[:, :-1] + ux_pad[:, 1:])
    vel_y = 0.5 * (uy_pad[:-1, :] + uy_pad[1:, :])

    return DarcySolution(pressure=p, vel_x=vel_x.ravel(), vel_y=vel_y.ravel(), grid=grid)


def flux_divergence(sol: DarcySolution, K) -> np.ndarray:
    """Discrete divergence of the TPFA flux per cell (for conservation checks)."""
    grid = sol.grid
    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    K2d = grid.to_2d(np.asarray(K, dtype=float).ravel())
    ux_pad, uy_pad = _face_fluxes(*_face_transmissibilities(K2d, hx, hy),
                                  grid.to_2d(sol.pressure), hx, hy)
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
