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

:func:`solve` takes one permeability field or a stack of them, one per row,
with one source for the whole stack; a single field is a stack of one.  The
Schur stencil and the condensed right-hand side are built on the black
cells only, for the whole stack at once: each black cell's faces and the
ratios t / d_r of the red cells around it are gathered through index arrays
cached per grid (``_red_black``).  Each row then gets its own ``dpbtrf`` and
``dpbtrs`` in one band buffer, zeroed between rows, and the red-cell
recovery, the mean shift, the flux check and the velocities run over the
whole stack.  Row r of a stack's solution is the solve of field r alone,
bit for bit.

On small grids a solve is mostly interpreter work around ``dpbtrf``, and a
stack shares that work among its rows.  Time per field against rows per
stack, as a fraction of the former one-field solve that built the stencil
on every cell (one BLAS thread, 2-core Xeon, s_g^2 = 1, two runs):

    grid         1 row      2          4          8          16
    16 x 16      0.91-0.92  0.62-0.63  0.43       0.31-0.32  0.26-0.27
    32 x 32      0.90-0.93  0.73-0.79  0.66-0.69  0.61-0.64  0.75-0.77
    64 x 64      0.93-0.97  0.90-0.93  0.90-0.92  1.06-1.07  1.03-1.05
    91 x 91      0.98-1.08  0.94-1.05  0.98-1.09  1.08-1.12  1.09-1.12
    128 x 128    0.94-0.97  0.93-0.97  0.96-1.06  0.97-1.18  1.02-1.21

Past 2^13 cells per stack the time per field stops falling and then rises,
so callers that solve many fields (``gen-data`` and ``uq.mc_baseline``)
stack ``max(1, STACK_CELLS // n_cells)`` of them: 8 at 32 x 32, 2 at
64 x 64 and one from 91 x 91 up.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .random_field import Grid2D

__all__ = ["SourceSpec", "DarcySolution", "source_term", "solve", "restrict",
           "flux_divergence"]

# cells per stack for callers that solve many fields: max(1, STACK_CELLS //
# n_cells) rows (the module docstring's table)
STACK_CELLS = 2 ** 13


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

    ``K2d`` has shape (..., ny, nx).  Returns ``(faces, tw, ts)``: ``faces``,
    shape (..., ny (nx + 1) + (ny + 1) nx), holds every face, and ``tw`` and
    ``ts`` are views of it of shapes (..., ny, nx + 1) and (..., ny + 1, nx):
    column i of ``tw`` is the face left of cell column i, row j of ``ts``
    the face below cell row j.  An overflow stays inf for ``solve`` to
    reject.
    """
    *stack, ny, nx = K2d.shape
    n_x = ny * (nx + 1)
    faces = np.zeros((*stack, n_x + (ny + 1) * nx))
    tw = faces[..., :n_x].reshape(*stack, ny, nx + 1)
    ts = faces[..., n_x:].reshape(*stack, ny + 1, nx)
    with np.errstate(over="ignore", invalid="ignore"):
        Kw, Ke = K2d[..., :-1], K2d[..., 1:]
        tw[..., 1:-1] = (2.0 * Kw * Ke / (Kw + Ke)) * (hy / hx)
        Ks, Kn = K2d[..., :-1, :], K2d[..., 1:, :]
        ts[..., 1:-1, :] = (2.0 * Ks * Kn / (Ks + Kn)) * (hx / hy)
    return faces, tw, ts


def _face_fluxes(tw: np.ndarray, ts: np.ndarray, p2d: np.ndarray,
                 hx: float, hy: float):
    """Darcy fluxes normal to every face, laid out as ``tw`` and ``ts``, and
    their divergence in each cell, shape (..., ny, nx)."""
    ux, uy = np.zeros_like(tw), np.zeros_like(ts)
    ux[..., 1:-1] = tw[..., 1:-1] * (p2d[..., :-1] - p2d[..., 1:]) / hy
    uy[..., 1:-1, :] = ts[..., 1:-1, :] * (p2d[..., :-1, :] - p2d[..., 1:, :]) / hx
    div = ((ux[..., 1:] - ux[..., :-1]) / hx
           + (uy[..., 1:, :] - uy[..., :-1, :]) / hy)
    return ux, uy, div


class _RedBlack(NamedTuple):
    """Gathers of the red-black elimination on one grid.

    Faces are positions in ``_face_transmissibilities``' ``faces``.  The
    red cells' ratios t / d_r sit in a (4, n_red + 1) array per stack row,
    W, E, S, N faces by eliminated red cell, whose last column is zero and
    stands in for any cell that is not eliminated.  Every array is
    read-only.
    """

    red: np.ndarray           # the eliminated cells: every red cell but cell 0
    red_faces: np.ndarray     # (4, n_red) their W, E, S, N faces
    red_nbrs: np.ndarray      # (4, n_red) black index of their W, E, S, N
                              # neighbours; n_black for a wall
    black: np.ndarray         # row-major: band column k holds black cell black[k]
    black_faces: np.ndarray   # (4, n_black) their W, E, S, N faces
    black_nbrs: np.ndarray    # (4, n_black) their W, E, S, N neighbour cells;
                              # n_cells for a wall
    black_ratios: np.ndarray  # (10, n_black) flat position in the ratios of
                              # each _RATIOS entry
    band: np.ndarray          # (5, n_black) flat position of each _STENCIL
                              # entry in a row's (n_black + 1, nx + 1) band
                              # buffer; a missing neighbour goes to the spare
                              # row n_black


# (dx, dy) of the W, E, S, N neighbours, in the order of their faces
_NBRS = ((-1, 0), (1, 0), (0, -1), (0, 1))
W, E, S, N = range(4)
# (face, neighbour) of each red-cell ratio the Schur stencil reads at a black
# cell: qE[W] is the ratio on the east face of the cell west of it
_RATIOS = ((E, W), (W, E), (N, S), (S, N), (W, W), (S, S), (S, W), (W, S),
           (S, E), (E, S))
# (dx, dy) from a black cell to itself and to the four black cells before it
# in row-major order that the red elimination couples it to
_STENCIL = ((0, 0), (-2, 0), (0, -2), (-1, -1), (1, -1))


@functools.lru_cache(maxsize=8)
def _red_black(grid: Grid2D) -> _RedBlack:
    nx, ny, n = grid.nx, grid.ny, grid.n_cells
    iy, ix = np.divmod(np.arange(n), nx)
    is_red = (ix + iy) % 2 == 0
    red, black = np.flatnonzero(is_red)[1:], np.flatnonzero(~is_red)
    n_red, n_black = red.size, black.size

    west = iy * (nx + 1) + ix
    south = ny * (nx + 1) + iy * nx + ix
    faces = np.array([west, west + 1, south, south + nx])
    nbrs = np.array([np.where((0 <= ix + dx) & (ix + dx < nx)
                              & (0 <= iy + dy) & (iy + dy < ny),
                              (iy + dy) * nx + ix + dx, n)
                     for dx, dy in _NBRS])
    # red and black index of every cell, and of the wall at index n
    red_of, black_of = np.full(n + 1, n_red), np.full(n + 1, n_black)
    red_of[red], black_of[black] = np.arange(n_red), np.arange(n_black)
    black_ratios = np.array([face * (n_red + 1) + red_of[nbrs[nbr, black]]
                             for face, nbr in _RATIOS])

    k = np.arange(n_black)
    k_of = np.full((ny + 4, nx + 4), -1)  # black index, padded by two cells
    k_of[iy[black] + 2, ix[black] + 2] = k
    band = []
    for dx, dy in _STENCIL:
        k_nbr = k_of[iy[black] + 2 + dy, ix[black] + 2 + dx]
        there = k_nbr >= 0
        # row k - k', column k' of the lower band, stored transposed
        band.append(np.where(there, k_nbr * (nx + 1) + k - k_nbr,
                             n_black * (nx + 1)))

    layout = _RedBlack(red=red, red_faces=faces[:, red],
                       red_nbrs=black_of[nbrs[:, red]], black=black,
                       black_faces=faces[:, black], black_nbrs=nbrs[:, black],
                       black_ratios=black_ratios, band=np.array(band))
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
    K : finite, strictly positive cell permeabilities: one flat field of
        shape (n_cells,), or a stack of fields of shape (s, n_cells), one
        per row
    source : SourceSpec, or flat array of cell-centered source values,
        shared by every row.  The source must integrate to zero for the
        pure-Neumann problem to be solvable: ``|sum f| > 1e-12 * sum |f|``
        raises ValueError.

    Returns
    -------
    DarcySolution with cell-center pressure and velocities, each of K's
    shape.  Row r of a stack's solution is bit for bit the solve of row r
    alone.

    Cells are red where ix + iy is even, black where it is odd; the pinned
    cell 0 is red.  A red cell r couples only to black cells, with diagonal
    d_r, the sum of its face transmissibilities.  Eliminating every red cell
    but cell 0 leaves S = D_b - A_br D_r^-1 A_rb on the black cells: a
    nine-point stencil coupling each black cell to the black cells two steps
    along an axis and one step along a diagonal.  With the black cells
    numbered row-major S has bandwidth ``nx`` and goes straight into
    LAPACK's lower band array, shape (nx + 1, floor(n_cells / 2)): the
    diagonal in row 0, and the entry coupling black cell k to an earlier
    one k' at row k - k', column k'.  The stencil and the condensed
    right-hand side are built on the black cells only, for the whole stack
    at once, from the per-grid gathers of ``_red_black``.  Each row then
    gets its own ``dpbtrf`` and ``dpbtrs``, which factor and solve in lower
    storage, about 5 % faster than in upper storage at 64 x 64 and 25 % at
    128 x 128 (one BLAS thread); a failure raises ``np.linalg.LinAlgError``
    naming the routine.  Each red pressure then follows from its black
    neighbours, p_r = (a f_r + sum t p_b) / d_r with a the cell area.

    The elimination is written with the ratios t / d_r, which lie in
    [0, 1]: 1 / d_r itself overflows for a subnormal d_r.  A red cell with
    no conducting face (d_r = 0) makes the matrix singular and raises
    ``LinAlgError``, and so does a flux divergence that misses f by more
    than 1e-6 max|f|: faces that underflow to 0 can cut off a group of
    cells, and ``dpbtrf`` may still succeed on rounding.  A cut-off group
    whose own sources sum to zero still solves, at an arbitrary pressure
    level inside it.  In a stack these checks cover every row, and the
    error does not say which row failed: solve the rows one at a time to
    find it.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim not in (1, 2) or K.size == 0:
        raise ValueError("K must be one flat field or a stack of them, one "
                         f"per row; got shape {K.shape}")
    if K.shape[-1] != grid.n_cells:
        raise ValueError(f"K has {K.shape[-1]} cells, grid needs {grid.n_cells}")
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
    Ks = K.reshape(-1, ny, nx)
    s = Ks.shape[0]
    faces, tw, ts = _face_transmissibilities(Ks, hx, hy)
    if not np.all(np.isfinite(faces)):
        raise ValueError("face transmissibilities overflow: permeability too large")

    rb = _red_black(grid)
    n_red, n_black = rb.red.size, rb.black.size
    t_red = np.take(faces, rb.red_faces, axis=1)        # (s, 4, n_red)
    d_red = t_red[:, W] + t_red[:, E] + t_red[:, S] + t_red[:, N]
    if not (d_red > 0).all():
        raise np.linalg.LinAlgError("the TPFA matrix is singular: a red cell "
                                    "has no conducting face")
    ratios = np.zeros((s, 4, n_red + 1))
    q_red = np.divide(t_red, d_red[:, None], out=ratios[..., :n_red])

    # at the black cells: their faces, the red ratios next to them (qEw is
    # qE[W], the ratio on the east face of the cell to the west) and the
    # area-weighted source around them
    tW, tE, tS, tN = np.take(faces, rb.black_faces, axis=1).transpose(1, 0, 2)
    qEw, qWe, qNs, qSn, qWw, qSs, qSw, qWs, qSe, qEs = np.take(
        ratios.reshape(s, -1), rb.black_ratios, axis=1).transpose(1, 0, 2)
    fa = f * grid.cell_area
    faW, faE, faS, faN = np.append(fa, 0.0)[rb.black_nbrs]
    stencil = np.empty((s, 5, n_black))
    stencil[:, 0] = (tW + tE + tS + tN
                     - (tW * qEw + tE * qWe + tS * qNs + tN * qSn))
    stencil[:, 1] = -tW * qWw
    stencil[:, 2] = -tS * qSs
    stencil[:, 3] = -(tW * qSw + tS * qWs)
    stencil[:, 4] = -(tE * qSe + tS * qEs)
    rhs = (fa[rb.black] + qEw * faW + qWe * faE + qNs * faS + qSn * faN)

    # one lower band, stored transposed so that band[:n_black].T is the
    # Fortran (nx + 1, n_black) array dpbtrf factors in place; it is zeroed
    # and filled again for each row
    band = np.empty((n_black + 1, nx + 1))
    p_black = np.zeros((s, n_black + 1))    # column n_black: a wall
    for r in range(s):
        band.fill(0.0)
        band.ravel()[rb.band] = stencil[r]
        chol, info = dpbtrf(band[:n_black].T, lower=1, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpbtrf failed on the TPFA band (info = {info})")
        x, info = dpbtrs(chol, rhs[r], lower=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpbtrs failed on the TPFA band (info = {info})")
        p_black[r, :n_black] = x.ravel()

    p = np.zeros((s, n))
    p[:, rb.black] = p_black[:, :n_black]
    p[:, rb.red] = (fa[rb.red] / d_red
                    + np.sum(q_red * np.take(p_black, rb.red_nbrs, axis=1),
                             axis=1))
    p -= np.mean(p, axis=1, keepdims=True)  # uniform cells: area-weighted
                                            # mean == arithmetic mean

    ux, uy, div = _face_fluxes(tw, ts, p.reshape(s, ny, nx), hx, hy)
    miss = np.max(np.abs(div - grid.to_2d(f)))
    if not miss <= 1e-6 * np.max(np.abs(f)):
        raise np.linalg.LinAlgError(f"TPFA solve misses the source by {miss:.3g}")
    vel_x = 0.5 * (ux[..., :-1] + ux[..., 1:])
    vel_y = 0.5 * (uy[..., :-1, :] + uy[..., 1:, :])

    return DarcySolution(pressure=p.reshape(K.shape),
                         vel_x=vel_x.reshape(K.shape),
                         vel_y=vel_y.reshape(K.shape), grid=grid)


def flux_divergence(sol: DarcySolution, K) -> np.ndarray:
    """Discrete divergence of the TPFA flux per cell (for conservation
    checks), of the solution's pressure shape."""
    grid = sol.grid
    hx, hy = 1.0 / grid.nx, 1.0 / grid.ny
    shape = np.shape(sol.pressure)
    K2d = np.reshape(np.asarray(K, dtype=float), shape[:-1] + (grid.ny, grid.nx))
    _, tw, ts = _face_transmissibilities(K2d, hx, hy)
    return _face_fluxes(tw, ts, np.reshape(sol.pressure, K2d.shape),
                        hx, hy)[2].reshape(shape)


def restrict(field, nx: int, ny: int, out_nx: int, out_ny: int) -> np.ndarray:
    """Coarsen by block cell-averaging a flat field of nx * ny cells, giving
    one of out_nx * out_ny, or a stack of them, one per row."""
    if nx % out_nx or ny % out_ny:
        raise ValueError(
            f"grid {nx}x{ny} not divisible by output grid {out_nx}x{out_ny}")
    f = np.asarray(field, dtype=float)
    if f.ndim not in (1, 2) or f.shape[-1] != nx * ny:
        raise ValueError(f"field of shape {f.shape} is not one flat field of "
                         f"{nx * ny} cells or a stack of them")
    bx, by = nx // out_nx, ny // out_ny
    coarse = f.reshape(-1, out_ny, by, out_nx, bx).mean(axis=(2, 4))
    return coarse.reshape(f.shape[:-1] + (out_nx * out_ny,))
