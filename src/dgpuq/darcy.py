"""Single-phase Darcy pressure solver on a structured grid.

Cell-centered finite volume with two-point flux approximation and harmonic
averaging of the permeability at faces (the lowest-order mixed formulation
on rectangles reduces to this scheme).  No-flux boundary conditions are
natural: boundary faces simply carry zero flux.  The pure-Neumann system is
regularized by pinning one pressure degree of freedom and the solution is
shifted to zero area-weighted mean afterwards.

The pinned five-point matrix is SPD and is solved by red-black Schur
complement and banded Cholesky (Saad, *Iterative Methods for Sparse Linear
Systems*, 2nd ed., sections 3.3.2 and 14.2).  Cells are coloured by the
parity of ix + iy.  The matrix couples red cells only to black ones, so its
red block is diagonal; eliminating the red cells leaves a nine-point
stencil on the black cells.  Numbered row-major, two grid rows hold exactly
nx black cells, so that stencil has bandwidth ``nx`` on n/2 unknowns: O(n
nx^2 / 2) time and (nx + 1) n / 2 memory for n cells, half the flops and
half the band of the five-point matrix.  Against SuperLU's factor and solve
of the pinned matrix with a minimum-degree ordering (one BLAS thread, 2-core
Xeon) a whole solve is 3-6x faster at 32 x 32 and 64 x 64 and about 2x from
128 x 128 to 256 x 256; at 320 x 320 the two are level, 0.39-0.47 s and
131 MB of band against 0.44-0.49 s and about 69 MB of LU factors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

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
    ny, nx = K2d.shape
    tw, ts = np.zeros((ny, nx + 1)), np.zeros((ny + 1, nx))
    with np.errstate(over="ignore", invalid="ignore"):
        Kw, Ke = K2d[:, :-1], K2d[:, 1:]
        tw[:, 1:-1] = (2.0 * Kw * Ke / (Kw + Ke)) * (hy / hx)
        Ks, Kn = K2d[:-1, :], K2d[1:, :]
        ts[1:-1] = (2.0 * Ks * Kn / (Ks + Kn)) * (hx / hy)
    return tw, ts


def _face_fluxes(tw: np.ndarray, ts: np.ndarray, p2d: np.ndarray,
                 hx: float, hy: float):
    """Darcy fluxes normal to every face, laid out as ``tw`` and ``ts``, and
    their divergence in each cell, shape (ny, nx)."""
    ux, uy = np.zeros_like(tw), np.zeros_like(ts)
    ux[:, 1:-1] = tw[:, 1:-1] * (p2d[:, :-1] - p2d[:, 1:]) / hy
    uy[1:-1] = ts[1:-1] * (p2d[:-1] - p2d[1:]) / hx
    return ux, uy, (ux[:, 1:] - ux[:, :-1]) / hx + (uy[1:] - uy[:-1]) / hy


class _RedBlack(NamedTuple):
    """Index layout of the red-black elimination on one grid.

    ``*_pad`` arrays are positions in the flat (ny + 2, nx + 2) grid with one
    cell of padding all round.  Every array is read-only.
    """

    red: np.ndarray        # the eliminated cells: every red cell but cell 0
    red_pad: np.ndarray
    red_nbrs: np.ndarray   # (4, n_red) padded positions of the W, E, S, N neighbours
    black: np.ndarray      # row-major: band column k holds black cell black[k]
    black_pad: np.ndarray
    band_rows: np.ndarray  # (5, n_black) lower-band position of each _STENCIL
    band_cols: np.ndarray  # entry; a missing neighbour goes to the spare
                           # column n_black


# (dx, dy) from a black cell to itself and to the four black cells before it
# in row-major order that the red elimination couples it to
_STENCIL = ((0, 0), (-2, 0), (0, -2), (-1, -1), (1, -1))


@functools.lru_cache(maxsize=8)
def _red_black(grid: Grid2D) -> _RedBlack:
    nx, ny = grid.nx, grid.ny
    iy, ix = np.divmod(np.arange(grid.n_cells), nx)
    is_red = (ix + iy) % 2 == 0
    red, black = np.flatnonzero(is_red)[1:], np.flatnonzero(~is_red)
    pad = (iy + 1) * (nx + 2) + ix + 1
    steps = np.array([[-1], [1], [-(nx + 2)], [nx + 2]])

    n_black = black.size
    k = np.arange(n_black)
    k_of = np.full((ny + 4, nx + 4), -1)  # black index, padded by two cells
    k_of[iy[black] + 2, ix[black] + 2] = k
    rows, cols = [], []
    for dx, dy in _STENCIL:
        k_nbr = k_of[iy[black] + 2 + dy, ix[black] + 2 + dx]
        there = k_nbr >= 0
        rows.append(np.where(there, k - k_nbr, 0))
        cols.append(np.where(there, k_nbr, n_black))

    layout = _RedBlack(red=red, red_pad=pad[red], red_nbrs=pad[red] + steps,
                       black=black, black_pad=pad[black],
                       band_rows=np.array(rows), band_cols=np.array(cols))
    for a in layout:
        a.flags.writeable = False
    return layout


def _check_zero_sum(f: np.ndarray):
    total = float(np.sum(f))
    if abs(total) > 1e-12 * np.sum(np.abs(f)):
        raise ValueError(f"source sums to {total:.6g}, not zero: the no-flux "
                         "problem has no solution")


@functools.lru_cache(maxsize=8)
def _well_source(grid: Grid2D, spec: SourceSpec) -> np.ndarray:
    """``source_term`` at the cell centers, checked once per grid and spec."""
    f = source_term(grid.cell_centers(), spec)
    _check_zero_sum(f)
    f.flags.writeable = False
    return f


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

    Cells are red where ix + iy is even, black where it is odd; the pinned
    cell 0 is red.  A red cell r couples only to black cells, with diagonal
    d_r, the sum of its face transmissibilities.  Eliminating every red cell
    but cell 0 leaves S = D_b - A_br D_r^-1 A_rb on the black cells: a
    nine-point stencil coupling each black cell to the black cells two steps
    along an axis and one step along a diagonal.  With the black cells
    numbered row-major S has bandwidth ``nx`` and goes straight into
    LAPACK's lower band array, shape (nx + 1, floor(n_cells / 2)): the
    diagonal in row 0, and the entry coupling black cell k to an earlier
    one k' at row k - k', column k'.  ``dpbtrf`` and ``dpbtrs`` factor and
    solve in lower storage, about 5 % faster than in upper storage at
    64 x 64 and 25 % at 128 x 128 (one BLAS thread), and a failure raises
    ``np.linalg.LinAlgError`` naming the routine.  Each red pressure
    then follows from its black neighbours, p_r = (a f_r + sum t p_b) / d_r
    with a the cell area.

    The elimination is written with the ratios t / d_r, which lie in
    [0, 1]: 1 / d_r itself overflows for a subnormal d_r.  A red cell with
    no conducting face (d_r = 0) makes the matrix singular and raises
    ``LinAlgError``, and so does a flux divergence that misses f by more
    than 1e-6 max|f|: faces that underflow to 0 can cut off a group of
    cells, and ``dpbtrf`` may still succeed on rounding.  A cut-off group
    whose own sources sum to zero still solves, at an arbitrary pressure
    level inside it.
    """
    K = np.asarray(K, dtype=float).ravel()
    if K.shape[0] != grid.n_cells:
        raise ValueError(f"K has {K.shape[0]} cells, grid needs {grid.n_cells}")
    if not np.all(np.isfinite(K) & (K > 0)):
        raise ValueError("permeability must be finite and strictly positive everywhere")

    if isinstance(source, SourceSpec):
        f = _well_source(grid, source)
    else:
        f = np.asarray(source, dtype=float).ravel()
        if f.shape[0] != grid.n_cells:
            raise ValueError("source field size does not match grid")
        _check_zero_sum(f)

    nx, ny, n = grid.nx, grid.ny, grid.n_cells
    hx, hy = 1.0 / nx, 1.0 / ny
    tw, ts = _face_transmissibilities(grid.to_2d(K), hx, hy)
    if not (np.all(np.isfinite(tw)) and np.all(np.isfinite(ts))):
        raise ValueError("face transmissibilities overflow: permeability too large")

    rb = _red_black(grid)
    t = np.stack([tw[:, :-1], tw[:, 1:], ts[:-1], ts[1:]])  # W, E, S, N faces
    d = t.sum(axis=0)
    d_red = d.ravel()[rb.red]
    if not (d_red > 0).all():
        raise np.linalg.LinAlgError("the TPFA matrix is singular: a red cell "
                                    "has no conducting face")
    # q: each face's t / d_r at the eliminated red cells, zero elsewhere
    q_red = np.take(t.reshape(4, n), rb.red, axis=1) / d_red
    q = np.zeros((4, (ny + 2) * (nx + 2)))
    q[:, rb.red_pad] = q_red
    qW, qE, qS, qN = q.reshape(4, ny + 2, nx + 2)
    tW, tE, tS, tN = t

    # every cell's neighbours in the padded arrays
    mid, west, east = np.s_[1:-1, 1:-1], np.s_[1:-1, :-2], np.s_[1:-1, 2:]
    south, north = np.s_[:-2, 1:-1], np.s_[2:, 1:-1]
    fa = np.zeros((ny + 2, nx + 2))
    fa[mid] = grid.to_2d(f) * grid.cell_area
    # the _STENCIL entries of S and the condensed right-hand side; they are
    # computed on every cell and kept on the black ones
    S_and_rhs = np.take(np.stack([
        d - (tW * qE[west] + tE * qW[east] + tS * qN[south] + tN * qS[north]),
        -tW * qW[west],
        -tS * qS[south],
        -(tW * qS[west] + tS * qW[south]),
        -(tE * qS[east] + tS * qE[south]),
        fa[mid] + qE[west] * fa[west] + qW[east] * fa[east]
        + qN[south] * fa[south] + qS[north] * fa[north],
    ]).reshape(6, n), rb.black, axis=1)

    n_black = rb.black.size
    ab = np.zeros((nx + 1, n_black + 1), order="F")
    ab[rb.band_rows, rb.band_cols] = S_and_rhs[:5]
    chol, info = dpbtrf(ab[:, :n_black], lower=1, overwrite_ab=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpbtrf failed on the TPFA band (info = {info})")
    p_black, info = dpbtrs(chol, S_and_rhs[5], lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpbtrs failed on the TPFA band (info = {info})")

    p_pad = np.zeros((ny + 2) * (nx + 2))
    p_pad[rb.black_pad] = p_black.ravel()
    p_pad[rb.red_pad] = (fa.ravel()[rb.red_pad] / d_red
                         + np.sum(q_red * p_pad[rb.red_nbrs], axis=0))
    p = p_pad.reshape(ny + 2, nx + 2)[mid].ravel()

    p -= np.mean(p)  # uniform cells: area-weighted mean == arithmetic mean

    ux_pad, uy_pad, div = _face_fluxes(tw, ts, grid.to_2d(p), hx, hy)
    miss = np.max(np.abs(div - grid.to_2d(f)))
    if not miss <= 1e-6 * np.max(np.abs(f)):
        raise np.linalg.LinAlgError(f"TPFA solve misses the source by {miss:.3g}")
    vel_x = 0.5 * (ux_pad[:, :-1] + ux_pad[:, 1:])
    vel_y = 0.5 * (uy_pad[:-1, :] + uy_pad[1:, :])

    return DarcySolution(pressure=p, vel_x=vel_x.ravel(), vel_y=vel_y.ravel(), grid=grid)


def flux_divergence(sol: DarcySolution, K) -> np.ndarray:
    """Discrete divergence of the TPFA flux per cell (for conservation checks)."""
    grid = sol.grid
    nx, ny = grid.nx, grid.ny
    hx, hy = 1.0 / nx, 1.0 / ny
    K2d = grid.to_2d(np.asarray(K, dtype=float).ravel())
    return _face_fluxes(*_face_transmissibilities(K2d, hx, hy),
                        grid.to_2d(sol.pressure), hx, hy)[2].ravel()


def restrict(field, nx: int, ny: int, out_nx: int, out_ny: int) -> np.ndarray:
    """Coarsen a flat field by block cell-averaging."""
    if nx % out_nx or ny % out_ny:
        raise ValueError(
            f"grid {nx}x{ny} not divisible by output grid {out_nx}x{out_ny}")
    bx, by = nx // out_nx, ny // out_ny
    f = np.asarray(field, dtype=float).reshape(ny, nx)
    return f.reshape(out_ny, by, out_nx, bx).mean(axis=(1, 3)).ravel()
