"""Aligning native-axis evidence onto the shared RPM grid.

Each estimator's values are scored at fixed RPM points: the RPM of each
point of its native axis, which the caller maps once per run. Per frame the
values are robust-standardized (median/IQR), oriented by the estimator's
sign (+1 score, -1 cost), weighted as exp(sign * beta * z), and each weighted
point is spread onto the grid with a truncated Gaussian kernel. The
aggregated mass is floored and log-normalized. The kernel spread depends
only on the RPM points, so it is one sparse (n_axis x G) matrix K per
estimator, and a (T, n_axis) block of frames aggregates as
exp(sign * beta * z) @ K.

No change-of-variables correction is applied when mapping reciprocal axes
(lag/quefrency) to RPM; the kernel aggregation operates on mapped point
locations as-is."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .grid import RpmGrid

# floor added to aggregated kernel mass so log-values stay finite everywhere;
# far below any curve's evidence scale
LIKELIHOOD_FLOOR = float(np.finfo(np.float64).tiny)
# added to the IQR so that an all-equal row standardizes to zeros, not NaN
EPS_NORM = 1e-10
# kernels are cut at this many bandwidths; the tail beyond is exp(-18) of the peak
KERNEL_TRUNCATION_SIGMAS = 6.0


@dataclass(frozen=True)
class CurveToGridConfig:
    beta: float = 1.0
    kernel_bandwidth_rpm: float = 0.5

    def __post_init__(self):
        for name in ("beta", "kernel_bandwidth_rpm"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"alignment.{name} must be positive and finite, got {v}")


def _quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """The q-quantile of each row of ``ordered``, sorted along its last axis, as
    ``np.percentile(..., 100 * q, keepdims=True)`` computes it: index
    q * (n - 1), and numpy's lerp between its neighbours, taken from the
    upper one where the fraction is at least 0.5."""
    n = ordered.shape[-1]
    at = q * (n - 1)
    lo = int(at)
    hi = min(lo + 1, n - 1)
    t = at - lo
    a, b = ordered[..., lo:lo + 1], ordered[..., hi:hi + 1]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def robust_standardize(values: np.ndarray) -> np.ndarray:
    """(values - median) / (IQR + EPS_NORM) along the last axis, quartiles by linear
    interpolation.

    Scale- and offset-robust: outliers move the quartiles little, and a
    degenerate all-equal input comes back as zeros rather than NaN. A block
    is standardized row by row. The quartiles are read off one sort of each
    row and equal ``np.percentile``'s (only the sign of a zero order
    statistic can differ); on 16-row blocks this took a half to a quarter
    of the time of ``np.percentile``.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot standardize an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot standardize non-finite values")
    ordered = np.sort(v, axis=-1)
    q1, med, q3 = (_quantile(ordered, q) for q in (0.25, 0.5, 0.75))
    return (v - med) / ((q3 - q1) + EPS_NORM)


def kernel_scatter(rpm: np.ndarray, grid: RpmGrid, cfg: CurveToGridConfig,
                   label: str = "evidence") -> sparse.csr_array:
    """Sparse (n_axis x G) K: row m is a Gaussian (bandwidth in RPM, truncated
    at KERNEL_TRUNCATION_SIGMAS) centered at ``rpm[m]``, the RPM of point m
    of an estimator's axis.

    Points whose kernel window misses the grid entirely get empty rows; if
    that is every point, the axis is disjoint from the grid, and the error
    names it by ``label``.
    """
    h = cfg.kernel_bandwidth_rpm
    radius = KERNEL_TRUNCATION_SIGMAS * h
    inside = np.nonzero((rpm >= grid.r_min - radius) & (rpm <= grid.r_max + radius))[0]
    if inside.size == 0:
        raise ValueError(
            f"{label} disjoint from grid: all {len(rpm)} points map "
            f"outside [{grid.r_min}, {grid.r_max}] RPM (+/- {radius:.3g} kernel reach)"
        )
    dr = grid.step
    half = int(np.ceil(radius / dr))
    centers = np.round((rpm[inside] - grid.r_min) / dr).astype(np.int64)
    idx = centers[:, None] + np.arange(-half, half + 1)[None, :]
    u = (grid.r_min + idx * dr - rpm[inside, None]) / h
    kern = np.where(np.abs(u) <= KERNEL_TRUNCATION_SIGMAS, np.exp(-0.5 * u * u), 0.0)
    valid = (idx >= 0) & (idx < grid.n_points)
    rows = np.broadcast_to(inside[:, None], idx.shape)[valid]
    return sparse.csr_array((kern[valid], (rows, idx[valid])),
                            shape=(len(rpm), grid.n_points))


def aligned_loglik(values: np.ndarray, sign: float, scatter: sparse.csr_array,
                   cfg: CurveToGridConfig) -> np.ndarray:
    """Normalized grid log-likelihood, (G,) or (T, G), of each frame's ``values``:
    one (N,) row or a (T, N) block of one estimator's evidence.

    Point m contributes exp(sign * beta * z[m]) times row m of ``scatter``, the
    :func:`kernel_scatter` of the same axis, where z is the robust-standardized
    row and ``sign`` is +1 for a score and -1 for a cost.
    """
    log_w = (sign * cfg.beta) * robust_standardize(values)
    # overall scale cancels in normalization; avoids exp overflow
    log_w -= log_w.max(axis=-1, keepdims=True)
    mass = np.exp(log_w) @ scatter
    mass += LIKELIHOOD_FLOOR
    # the logsumexp of log(mass) is the log of its row sum: no second exp
    log_total = np.log(mass.sum(axis=-1, keepdims=True))
    np.log(mass, out=mass)
    mass -= log_total
    return mass
