"""Log-normal permeability fields via a truncated Karhunen-Loeve expansion.

The underlying Gaussian field has an exponential covariance on the unit
square, exp(-|dx|/lambda_x - |dy|/lambda_y), which is separable.  The
covariance operator is discretized at cell centers with uniform Nystrom
weights (cell area).  On the uniform grid, with flat index iy * nx + ix, the
weighted operator factors as a Kronecker product,

    area * C = s_g^2 * (C_y / ny) kron (C_x / nx),

so its eigenpairs are products of the eigenpairs of two 1-D matrices
(nx x nx and ny x ny) and no n_cells x n_cells matrix is ever formed.  The
retained eigenpairs give a basis of scaled eigenfields so that a
standard-normal coefficient vector reproduces the truncated covariance.

Determinism: each 1-D eigenvector is signed so that its first entry is
positive, hence every eigenfield is positive at cell 0.  Modes are ranked by
a stable sort of the product eigenvalues, so exactly tied products keep the
one with the lower y-mode index first.  On square grids with equal
correlation lengths, modes (i, j) and (j, i) tie exactly; where the
truncation cuts such a pair, the kept member is the one whose y-factor is
the smoother 1-D mode.

A basis from a dense eigensolver of the full matrix differs from this one
in two ways only: inside tied eigenspaces, where the dense solver returns an
arbitrary direction, and in the sign of some modes, because a
largest-magnitude-entry-positive rule is decided by rounding between
mirrored entries.  Dataset manifests store the eigenfields, so datasets
written with the former dense basis still load and reproduce as written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

from .kernels import DimensionMismatchError

__all__ = [
    "Grid2D",
    "ExpCovSpec",
    "KLExpansion",
    "kle_decompose",
    "sample_log_field",
    "permeability",
    "sample_permeability",
    "std_normal_inv_cdf",
]


@dataclass(frozen=True)
class Grid2D:
    """Uniform cell-centered grid on the unit square.

    Fields are flattened row-major with x fastest: flat index = iy * nx + ix.
    Every module uses this convention.
    """

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return 1.0 / (self.nx * self.ny)

    def cell_centers(self) -> np.ndarray:
        """(n_cells, 2) array of cell-center coordinates, x fastest."""
        xs = (np.arange(self.nx) + 0.5) / self.nx
        ys = (np.arange(self.ny) + 0.5) / self.ny
        X, Y = np.meshgrid(xs, ys)  # row-major: Y varies along axis 0
        return np.column_stack([X.ravel(), Y.ravel()])

    def to_2d(self, flat: np.ndarray) -> np.ndarray:
        """Reshape a flat field to (ny, nx) with [iy, ix] indexing."""
        return np.asarray(flat).reshape(self.ny, self.nx)


@dataclass(frozen=True)
class ExpCovSpec:
    """Exponential covariance: variance, per-axis correlation lengths, mean."""

    s_g_sq: float = 1.0
    lambdas: tuple = (0.1, 0.1)
    mean: float = 0.0

    def __post_init__(self):
        if not self.s_g_sq > 0:
            raise ValueError("s_g_sq must be positive")
        if len(self.lambdas) != 2 or not all(l > 0 for l in self.lambdas):
            raise ValueError("lambdas must be two positive correlation lengths")


@dataclass
class KLExpansion:
    """Truncated Karhunen-Loeve basis for the log-permeability field.

    ``eigenfields[k]`` is the k-th eigenfunction evaluated at cell centers,
    scaled by sqrt(eigenvalue), so ``mean + w @ eigenfields`` with standard
    normal ``w`` has the truncated covariance of the target field.
    """

    eigenvalues: np.ndarray          # nonincreasing, >= 0, length k_xi
    eigenfields: np.ndarray          # (k_xi, nx*ny)
    mean: float
    grid: Grid2D

    @property
    def k_xi(self) -> int:
        return self.eigenvalues.shape[0]


def _axis_modes(n: int, lam: float):
    """Eigenpairs of the 1-D weighted operator exp(-|x_a - x_b| / lam) / n.

    Eigenvalues come nonincreasing and clipped at zero; each eigenvector
    column is signed so that its first entry is positive.
    """
    xs = (np.arange(n) + 0.5) / n
    C = np.exp(-np.abs(xs[:, None] - xs[None, :]) / lam)
    vals, vecs = np.linalg.eigh(C / n)
    vals, vecs = np.clip(vals[::-1], 0.0, None), vecs[:, ::-1]
    return vals, vecs * np.where(vecs[0] < 0, -1.0, 1.0)


def kle_decompose(grid: Grid2D, spec: ExpCovSpec, k_xi: int) -> KLExpansion:
    """Truncated KL basis from the Kronecker factors of the covariance.

    Nystrom discretization with uniform cell-area weights: eigenvalues are
    those of ``area * C = s_g^2 * (C_y / ny) kron (C_x / nx)``, i.e. the
    products ``s_g^2 * a_y[j] * a_x[i]`` of the 1-D eigenvalues, with
    eigenvector ``u_y[:, j] kron u_x[:, i]``.  Products are ranked with a
    stable sort over (j, i) in y-mode-major order, so among exactly tied
    eigenvalues the lower y-mode index j comes first; only the ``k_xi``
    retained eigenfields are built.  Each 1-D eigenvector has a positive
    first entry, so every eigenfield is positive at cell 0.  Eigenfunctions
    are unit discrete-L2 normalized and then scaled by sqrt(eigenvalue).
    """
    if k_xi < 1 or k_xi > grid.n_cells:
        raise ValueError(f"k_xi must be in [1, {grid.n_cells}], got {k_xi}")
    ax, ux = _axis_modes(grid.nx, spec.lambdas[0])
    ay, uy = _axis_modes(grid.ny, spec.lambdas[1])
    # the 1-D product is formed first so that mirrored pairs tie exactly
    products = spec.s_g_sq * np.outer(ay, ax).ravel()
    order = np.argsort(-products, kind="stable")[:k_xi]
    j, i = np.divmod(order, grid.nx)
    vals = products[order]
    vecs = (uy[:, j].T[:, :, None] * ux[:, i].T[:, None, :]).reshape(k_xi, -1)
    area = grid.cell_area
    # psi_k = sqrt(eigval) * unit-norm eigenvector / sqrt(area)
    fields = (np.sqrt(vals)[:, None] * vecs) / np.sqrt(area)
    return KLExpansion(eigenvalues=vals, eigenfields=fields, mean=spec.mean,
                       grid=grid)


def _coefficient_rows(name, kle: KLExpansion, c) -> np.ndarray:
    """Coefficients as one flat vector, or as a 2-D block of rows."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 2:
        c = c.ravel()
    if c.shape[-1] != kle.k_xi:
        raise DimensionMismatchError(name, kle.k_xi, c.shape[-1])
    return c


def sample_log_field(kle: KLExpansion, w) -> np.ndarray:
    """Evaluate mean + sum_k w_k psi_k at every cell center.

    ``w`` is one coefficient vector, giving one flat field, or a 2-D block
    with one coefficient vector per row, giving one field per row from a
    single matrix product.
    """
    w = _coefficient_rows("sample_log_field coefficients", kle, w)
    field = w @ kle.eigenfields
    field += kle.mean
    return field


def std_normal_inv_cdf(u):
    """Standard normal inverse CDF on the open interval (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("std_normal_inv_cdf requires 0 < u < 1")
    out = scipy.special.ndtri(u)
    return float(out) if out.ndim == 0 else out


def permeability(kle: KLExpansion, xi) -> np.ndarray:
    """Permeability field exp{mean + sum_k PhiInv(xi_k) psi_k}, xi in (0,1)^k.

    A 2-D ``xi`` holds one coefficient vector per row and returns one field
    per row, from one inverse CDF, one matrix product and one ``exp``.  The
    product's buffer takes the mean and the ``exp`` in place, so the fields
    are the only field-sized array made.
    """
    xi = _coefficient_rows("permeability coefficients", kle, xi)
    w = std_normal_inv_cdf(xi)
    field = sample_log_field(kle, w)
    return np.exp(field, out=field)


def sample_permeability(kle: KLExpansion, rng, rows=None) -> np.ndarray:
    """Permeability from KL coefficients drawn uniform on (0, 1) by ``rng``.

    ``rows=None`` draws one coefficient vector and returns one flat field;
    an integer draws that many and returns one field per row.
    """
    return permeability(kle, _uniform_coefficients(kle, rng, rows))


def _uniform_coefficients(kle: KLExpansion, rng, rows=None) -> np.ndarray:
    """The coefficients :func:`sample_permeability` draws: uniform on
    (0, 1), clipped away from 0 and 1 so that the inverse normal CDF stays
    finite; one vector, or ``rows`` of them."""
    xi = rng.uniform(size=kle.k_xi if rows is None else (rows, kle.k_xi))
    return np.clip(xi, 1e-15, 1.0 - 1e-15)
