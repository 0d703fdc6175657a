"""Monte Carlo uncertainty propagation through a trained deep GP.

One "realization" pushes a fresh sample of input fields through a random
draw of every layer: the first layer's values are drawn jointly from its
predictive Gaussian, each later layer draws function values from its
variational predictive conditioned on the drawn inputs, and the mapping is
then represented by the noise-free conditioning of those drawn values (so
re-evaluating at the same points returns the draw itself).  Repeating the
whole process gives samples of the Monte Carlo mean/variance estimators,
from which the mean-of-mean, mean-of-variance, error bars and pointwise
density estimates are assembled.  Plain Monte Carlo over the actual
simulator, run in blocks of samples (:func:`mc_baseline`), provides the
ground-truth reference.

:func:`uq_report` is the one propagation path.  It runs its repeats in
blocks of max(1, n // n'), n the model's training rows, so a block never
holds more input rows than the model's own X.  A block shares one
permeability call and one first-latent cross-Gram and triangular solve, so
the n x kappa training rows are read once per block, not per repeat; each
repeat keeps its own streams and every other step.  The outputs are those
of a per-repeat loop (:func:`sample_inputs`, a stack of one through
:func:`deepgp.predict_layer1`, then :func:`_realization`), bit for bit
wherever the BLAS kernel rounds a column of a product the same whatever
the product's width.  OpenBLAS's AVX-512 kernels do at n' = 120, the
paper's and the ``uq`` command's default (blocks of 2 to 10 sets of 4096
cells, and 4 sets of 1024).  At many other n' (100, say), and in products
small enough for their small-matrix path, they do not, and the outputs
move by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .darcy import STACK_CELLS
from .kernels import gram, chol_psd, downdate
from .random_field import (Grid2D, KLExpansion, permeability,
                           sample_permeability, _uniform_coefficients)
from .deepgp import DeepGPModel, predict_layer1, prediction_factors
from .optimize import _NUMERICAL_FAILURES
from .rng import rng_for, MC_BASELINE_STREAM, UQ_STREAM

__all__ = [
    "InputDistribution",
    "PdfEstimate",
    "UQReport",
    "sample_inputs",
    "uq_report",
    "mc_baseline",
    "kde_curve",
]

PDF_GRID_SIZE = 256


@dataclass
class InputDistribution:
    """Uniform coefficients mapped through the KL basis to permeability fields."""

    kle: KLExpansion


@dataclass(frozen=True)
class PdfEstimate:
    """Pointwise density estimate with a spread band across repeats."""

    location: tuple
    column: int
    abscissae: np.ndarray
    mean_density: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class UQReport:
    mean_of_mean: np.ndarray
    mean_of_variance: np.ndarray
    errorbar_mean: np.ndarray
    errorbar_variance: np.ndarray
    n_inner: int
    n_repeats: int
    pdf_points: list = field(default_factory=list)


def sample_inputs(dist: InputDistribution, n_prime: int, seed: int,
                  *subkeys: int) -> np.ndarray:
    """Draw permeability-field realizations, one per row, from the stream
    ``rng_for(seed, *subkeys)``.

    All rows come from one block call of
    :func:`random_field.sample_permeability`: one inverse normal CDF over
    the (n_prime, k_xi) uniforms, one matrix product with the eigenfields
    and one ``exp``.
    """
    _check_inner(n_prime)
    return sample_permeability(dist.kle, rng_for(seed, *subkeys), n_prime)


def _check_inner(n_prime):
    if n_prime < 2:
        raise ValueError("need at least two input samples")


def _draw_gaussian(mean, cov, rng):
    """Joint draw of one column set: mean (n, d) + chol(cov) @ N(0,1).

    A covariance that ``chol_psd`` cannot factor even with its jitter
    raises ``np.linalg.LinAlgError``.
    """
    z = rng.standard_normal(mean.shape)
    L, _ = chol_psd(cov)
    return mean + L @ z


def _realization(model: DeepGPModel, mean, cov, rng) -> np.ndarray:
    """A realization drawn by ``rng`` from the first latent's joint
    predictive ``(mean, cov)`` at n' inputs, then through every sparse
    layer: the final-layer values, shape (n', output dim)."""
    factors = prediction_factors(model)
    try:
        values = _draw_gaussian(mean, cov, rng)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"input layer propagation failed: {exc}") from exc
    for t, layer in enumerate(model.hidden_layers):
        try:
            Ksu = gram(values, layer.inducing.inputs, layer.kernel)
            mean = Ksu @ factors[f"layer{t}_V"]
            U = Ksu @ factors[f"layer{t}_B"]    # Ksu B B^T Kus = U U^T
            values = _draw_gaussian(
                mean, downdate(gram(values, values, layer.kernel), U), rng)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"layer {t + 1} propagation failed: {exc}") from exc
    return values


def _silverman_bandwidth(x) -> float:
    n = x.size
    std = float(np.std(x))
    iqr = float(np.subtract(*np.percentile(x, [75, 25])))
    a = min(std, iqr / 1.34) if iqr > 0 else std
    if a <= 0:
        a = max(abs(float(np.mean(x))), 1.0) * 1e-6
    return 0.9 * a * n ** (-0.2)


def kde_curve(values, abscissae) -> np.ndarray:
    """Gaussian kernel density with Silverman bandwidth on a fixed grid.

    Normalized over the grid by the trapezoid rule, which corrects the tail
    mass the finite grid would otherwise lose.
    """
    x = np.asarray(values, dtype=float).ravel()
    h = _silverman_bandwidth(x)
    z = (abscissae[:, None] - x[None, :]) / h
    dens = np.exp(-0.5 * z * z).sum(axis=1) / (x.size * h * np.sqrt(2.0 * np.pi))
    mass = np.trapezoid(dens, abscissae)
    if mass > 0:
        dens = dens / mass
    return dens


def _pdf_columns(pdf_at, out_grid: Grid2D):
    """``(location, column)`` for each ``(x, y)`` point of ``pdf_at``: the
    output column of the ``out_grid`` cell that holds it."""
    if out_grid is None:
        raise ValueError("pdf locations need out_grid")
    cols = []
    for loc in pdf_at:
        if np.ndim(loc) != 1 or len(loc) != 2:
            raise ValueError(f"pdf location {loc!r} is not an (x, y) point")
        x, y = float(loc[0]), float(loc[1])
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"pdf location ({x}, {y}) lies outside [0, 1]^2")
        ix = min(int(x * out_grid.nx), out_grid.nx - 1)
        iy = min(int(y * out_grid.ny), out_grid.ny - 1)
        cols.append(((x, y), iy * out_grid.nx + ix))
    return cols


def _check_pdf_columns(pdf_cols, width):
    """Raise ValueError naming the first PDF whose column is not in [0, width)."""
    for loc, col in pdf_cols:
        if not 0 <= col < width:
            raise ValueError(f"pdf location {loc} selects output column {col}, "
                             f"outside the {width} output columns")


def _pdf_estimate(loc, col, sample_sets) -> PdfEstimate:
    """Mean KDE of one output column over repeated sample sets.

    The grid spans every sample with a 10 % margin; the band is two
    standard deviations of the curves across the sets, so a single set
    gives lower = upper = its own curve.
    """
    all_vals = np.concatenate(sample_sets)
    lo, hi = float(all_vals.min()), float(all_vals.max())
    margin = 0.1 * max(hi - lo, 1e-12)
    grid = np.linspace(lo - margin, hi + margin, PDF_GRID_SIZE)
    curves = np.asarray([kde_curve(v, grid) for v in sample_sets])
    mean_curve = curves.mean(axis=0)
    band = 2.0 * curves.std(axis=0)
    return PdfEstimate(location=loc, column=col, abscissae=grid,
                       mean_density=mean_curve,
                       lower=np.clip(mean_curve - band, 0.0, None),
                       upper=mean_curve + band)


def uq_report(model: DeepGPModel, dist: InputDistribution, n_prime: int,
              n_repeats: int, seed: int, pdf_at=None,
              out_grid: Grid2D = None) -> UQReport:
    """Repeat the sampling/propagation process and aggregate the statistics.

    Each repeat draws a fresh input sample and a fresh posterior
    realization, repeat j from ``rng_for(seed, UQ_STREAM, j, 0)`` and
    ``rng_for(seed, UQ_STREAM, j, 1)``, and gives the realization's mean
    and population-form variance (divisor n_prime).  Error bars are two
    standard errors of the across-repeat average (they shrink like
    1/sqrt(n_repeats)); the PDF bands are two plain standard deviations
    across repeats.  Each ``pdf_at`` entry is an ``(x, y)`` point of the
    unit square, read at the ``out_grid`` cell that holds it.  The draws
    are noise-free: neither the input layer's noise_var nor a sparse
    layer's 1/beta enters them, while :func:`deepgp.predict` adds both to
    its variances.

    The repeats run in blocks of max(1, n // n_prime), n the rows of
    ``model.X``, which bounds a block's inputs by the model's own.  A block
    makes one :func:`random_field.permeability` call from its repeats'
    coefficients, each drawn from the repeat's own stream, and one stacked
    :func:`deepgp.predict_layer1`; each repeat then draws its own
    realization (:func:`_realization`).  The streams and outputs are
    those of a per-repeat loop, bit for bit where the BLAS kernel allows
    (see the module docstring).
    """
    if n_repeats < 2:
        raise ValueError("need at least two repeats")
    means, variances = [], []
    pdf_cols = _pdf_columns(pdf_at, out_grid) if pdf_at else []
    _check_pdf_columns(pdf_cols, model.Y.shape[1])
    _check_inner(n_prime)
    pdf_values = [[] for _ in pdf_cols]
    block = max(1, model.X.shape[0] // n_prime)
    for start in range(0, n_repeats, block):
        xi, rngs = [], []
        for j in range(start, min(start + block, n_repeats)):
            xi.append(_uniform_coefficients(
                dist.kle, rng_for(seed, UQ_STREAM, j, 0), n_prime))
            rngs.append(rng_for(seed, UQ_STREAM, j, 1))
        Xp = permeability(dist.kle, np.concatenate(xi))
        mean1, cov1 = predict_layer1(model,
                                     Xp.reshape(len(rngs), n_prime, -1))
        for mean, cov, rng in zip(mean1, cov1, rngs):
            realization = _realization(model, mean, cov, rng)
            means.append(realization.mean(axis=0))
            variances.append(realization.var(axis=0))
            for i, (_, col) in enumerate(pdf_cols):
                pdf_values[i].append(realization[:, col].copy())
    means = np.asarray(means)
    variances = np.asarray(variances)
    root_n = np.sqrt(n_repeats)
    report = UQReport(
        mean_of_mean=means.mean(axis=0),
        mean_of_variance=variances.mean(axis=0),
        errorbar_mean=2.0 * means.std(axis=0) / root_n,
        errorbar_variance=2.0 * variances.std(axis=0) / root_n,
        n_inner=int(n_prime),
        n_repeats=int(n_repeats),
    )
    report.pdf_points = [_pdf_estimate(loc, col, pdf_values[i])
                         for i, (loc, col) in enumerate(pdf_cols)]
    return report


def _simulate_blocks(simulator, kle: KLExpansion, N: int, seed: int,
                     stream: int):
    """Run ``simulator`` over samples 0, ..., N - 1 in blocks, yielding
    ``(start, K, Y)`` per block: its first sample index, its permeability
    fields ``K`` (rows, n_cells) and their outputs ``Y``, one row each.

    A block holds ``max(1, darcy.STACK_CELLS // n_cells)`` rows (8 at 32 x
    32, 2 at 64 x 64, 1 from 91 x 91 up), and sample ``i`` draws its field
    from ``rng_for(seed, stream, i)``.  ``simulator`` maps a block of rows
    to a block of outputs; see :func:`_simulate_block` for its failures.
    """
    size = max(1, STACK_CELLS // kle.grid.n_cells)
    for start in range(0, N, size):
        K = np.stack([sample_permeability(kle, rng_for(seed, stream, i))
                      for i in range(start, min(start + size, N))])
        yield start, K, _simulate_block(start, simulator, K)


def _simulate_block(start, simulator, K):
    """``simulator(K)`` for the block of samples start, start + 1, ....

    If the block raises a ValueError or a numerical failure
    (``optimize._NUMERICAL_FAILURES``), its rows run again one at a time,
    each as a block of one, so the first failing row raises what a
    per-sample loop would: a numerical failure is re-raised as its own type
    naming the sample, a ValueError propagates unchanged.  Any other
    exception propagates from the block.
    """
    if len(K) > 1:
        try:
            return simulator(K)
        except (ValueError, *_NUMERICAL_FAILURES):
            pass
    rows = []
    for j in range(len(K)):
        try:
            rows.append(simulator(K[j:j + 1]))
        except _NUMERICAL_FAILURES as exc:
            raise type(exc)(f"simulator failed at sample {start + j}: "
                            f"{exc}") from exc
    return np.concatenate(rows)


def mc_baseline(simulator, dist: InputDistribution, N: int, seed: int,
                pdf_at=None, out_grid: Grid2D = None):
    """Plain Monte Carlo over the actual simulator: the ground truth.

    ``simulator`` maps a block of permeability rows, shape (s, n_cells), to
    a block of output rows, shape (s, width).  Returns ``(mean, variance,
    pdfs)`` with the population-form variance and one density estimate per
    ``(x, y)`` location of ``pdf_at`` (as in :func:`uq_report`); a location
    whose ``out_grid`` cell is outside the output raises ValueError once
    the first block gives the output width.  All N output rows are
    kept (N * width * 8 bytes) for numpy's two-pass moments, which do not
    cancel on outputs far from zero mean.

    The samples run in the blocks of :func:`_simulate_blocks`, sample ``i``
    drawing its inputs from ``rng_for(seed, MC_BASELINE_STREAM, i)``, so
    the moments and PDFs are those of a per-sample loop, bit for bit, for a
    simulator whose rows do not depend on the block around them (as
    ``darcy.solve``'s do not).  A block that fails runs again one row at a
    time: a numerical failure names the first failing sample (``simulator
    failed at sample i: ...``), a ValueError propagates unchanged, and any
    other exception propagates from the block.
    """
    if N < 2:
        raise ValueError("need at least two samples")
    pdf_cols = _pdf_columns(pdf_at, out_grid) if pdf_at else []
    Y = None
    for start, K, y in _simulate_blocks(simulator, dist.kle, N, seed,
                                        MC_BASELINE_STREAM):
        y = np.asarray(y, dtype=float).reshape(len(K), -1)
        if Y is None:
            _check_pdf_columns(pdf_cols, y.shape[1])
            Y = np.empty((N, y.shape[1]))
        Y[start:start + len(K)] = y
    pdfs = [_pdf_estimate(loc, col, [Y[:, col]]) for loc, col in pdf_cols]
    return Y.mean(axis=0), Y.var(axis=0), pdfs
