"""Monte Carlo uncertainty propagation through a trained deep GP.

One "realization" pushes a fresh sample of input fields through a random
draw of every layer: the first layer's values are drawn jointly from its
predictive Gaussian, each later layer draws function values from its
variational predictive conditioned on the drawn inputs, and the mapping is
then represented by the noise-free conditioning of those drawn values (so
re-evaluating at the same points returns the draw itself).  Repeating the
whole process gives samples of the Monte Carlo mean/variance estimators,
from which the mean-of-mean, mean-of-variance, error bars and pointwise
density estimates are assembled.  A plain Monte Carlo loop over the actual
simulator provides the ground-truth reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import gram, chol_psd
from .random_field import Grid2D, KLExpansion, sample_permeability
from .deepgp import DeepGPModel, predict_layer1, _layer_pred_cache
from .rng import rng_for, MC_BASELINE_STREAM, UQ_STREAM

__all__ = [
    "InputDistribution",
    "PdfEstimate",
    "UQReport",
    "sample_inputs",
    "propagate_realization",
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
    if n_prime < 2:
        raise ValueError("need at least two input samples")
    return sample_permeability(dist.kle, rng_for(seed, *subkeys), n_prime)


def _draw_gaussian(mean, cov, rng):
    """Joint draw of one column set: mean (n, d) + chol(cov) @ N(0,1).

    A covariance that ``chol_psd`` cannot factor even at its largest jitter
    raises its ``SingularMatrixError``.
    """
    z = rng.standard_normal(mean.shape)
    if np.max(np.abs(cov)) == 0.0:
        return mean.copy()
    L, _ = chol_psd(cov)
    return mean + L @ z


def propagate_realization(model: DeepGPModel, Xprime, seed: int,
                          *subkeys: int) -> np.ndarray:
    """One posterior realization of the full stack evaluated at Xprime,
    drawn from the stream ``rng_for(seed, *subkeys)``.

    Returns the final-layer function values, shape (n', output dim).
    """
    Xprime = np.atleast_2d(np.asarray(Xprime, dtype=float))
    rng = rng_for(seed, *subkeys)
    try:
        values = _draw_gaussian(*predict_layer1(model, Xprime), rng)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"layer 1 propagation failed: {exc}") from exc
    for t in range(model.n_latents):
        cache = _layer_pred_cache(model, t)
        kern, Z = cache["kernel"], cache["Z"]
        try:
            Ksu = gram(values, Z, kern)
            mean = Ksu @ cache["V"]
            Kss = gram(values, values, kern)
            cov = Kss - Ksu @ cache["Dmat"] @ Ksu.T
            cov = 0.5 * (cov + cov.T)
            values = _draw_gaussian(mean, cov, rng)
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"layer {t + 2} propagation failed: {exc}") from exc
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
    cols = []
    for loc in pdf_at:
        if isinstance(loc, (int, np.integer)):
            cols.append((("col", int(loc)), int(loc)))
            continue
        if out_grid is None:
            raise ValueError("pdf locations given as coordinates need out_grid")
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
    across repeats.
    """
    if n_repeats < 2:
        raise ValueError("need at least two repeats")
    means, variances = [], []
    pdf_cols = _pdf_columns(pdf_at, out_grid) if pdf_at else []
    _check_pdf_columns(pdf_cols, model.Y.shape[1])
    pdf_values = [[] for _ in pdf_cols]
    for j in range(n_repeats):
        Xp = sample_inputs(dist, n_prime, seed, UQ_STREAM, j, 0)
        realization = propagate_realization(model, Xp, seed, UQ_STREAM, j, 1)
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


def mc_baseline(simulator, dist: InputDistribution, N: int, seed: int,
                pdf_at=None, out_grid: Grid2D = None):
    """Plain Monte Carlo over the actual simulator: the ground truth.

    ``simulator`` maps one permeability row to one output row.  Returns
    ``(mean, variance, pdfs)`` with the population-form variance and one
    density estimate per requested location; a location outside the
    output raises ValueError once the first sample gives the output width.
    All N output rows are kept (N * width * 8 bytes) for numpy's two-pass
    moments, which do not cancel on outputs far from zero mean.
    Sample ``i`` draws its inputs from ``rng_for(seed, MC_BASELINE_STREAM, i)``.
    """
    if N < 2:
        raise ValueError("need at least two samples")
    pdf_cols = _pdf_columns(pdf_at, out_grid) if pdf_at else []
    Y = None
    for i in range(N):
        K = sample_permeability(dist.kle, rng_for(seed, MC_BASELINE_STREAM, i))
        try:
            y = np.asarray(simulator(K), dtype=float).ravel()
        except Exception as exc:
            raise RuntimeError(f"simulator failed at sample {i}: {exc}") from exc
        if Y is None:
            _check_pdf_columns(pdf_cols, y.size)
            Y = np.empty((N, y.size))
        Y[i] = y
    pdfs = [_pdf_estimate(loc, col, [Y[:, col]]) for loc, col in pdf_cols]
    return Y.mean(axis=0), Y.var(axis=0), pdfs
