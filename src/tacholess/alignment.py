"""Aligning native-axis evidence curves onto the shared RPM grid.

The pipeline per curve: map the native axis to RPM, robust-standardize the
values (median/IQR), flip sign by polarity so low energy = plausible, weight
points by exp(-beta * energy), and spread each weighted point onto the grid
with a truncated Gaussian kernel. The aggregated mass is floored and
log-normalized. The kernel spread depends only on the axis, so it is one
sparse (n_axis x G) matrix K per estimator, and a (T, n_axis) block of
frames aggregates as exp(-beta * E) @ K.

No change-of-variables correction is applied when mapping reciprocal axes
(lag/quefrency) to RPM; the kernel aggregation operates on mapped point
locations as-is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .estimators import AxisType, EvidenceCurve, Polarity
from .grid import RpmGrid

# floor added to aggregated kernel mass so log-values stay finite everywhere;
# far below any curve's evidence scale
LIKELIHOOD_FLOOR = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class CurveToGridConfig:
    beta: float = 1.0
    kernel_bandwidth_rpm: float = 0.5
    eps_norm: float = 1e-10
    kernel_truncation_sigmas: float = 6.0

    def __post_init__(self):
        for name in ("beta", "kernel_bandwidth_rpm", "eps_norm", "kernel_truncation_sigmas"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"alignment.{name} must be positive and finite, got {v}")


def map_axis_to_rpm(z, axis_type: AxisType, sample_rate_hz: float):
    """Convert native axis coordinates to RPM.

    lag/quefrency (samples): 60 * fs / z; hz: 60 * z; rpm: identity.
    """
    z = np.asarray(z, dtype=np.float64)
    if axis_type in (AxisType.LAG, AxisType.QUEFRENCY):
        if np.any(z <= 0):
            raise ValueError(f"{axis_type.value} coordinates must be positive")
        return 60.0 * sample_rate_hz / z
    if axis_type is AxisType.HZ:
        if np.any(z < 0):
            raise ValueError("frequency coordinates must be non-negative")
        return 60.0 * z
    return z.copy()


def robust_standardize(values: np.ndarray, eps: float = 1e-10) -> np.ndarray:
    """(values - median) / (IQR + eps) along the last axis, quartiles by linear interpolation.

    Scale- and offset-robust: outliers move the quartiles little, and a
    degenerate all-equal input comes back as zeros rather than NaN. A block
    is standardized row by row.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot standardize an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot standardize non-finite values")
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0], axis=-1, keepdims=True)
    return (v - med) / ((q3 - q1) + eps)


def to_energy(standardized: np.ndarray, polarity: Polarity) -> np.ndarray:
    """Orient standardized values so that smaller energy means more plausible."""
    return -float(polarity.value) * np.asarray(standardized, dtype=np.float64)


def kernel_scatter(curve: EvidenceCurve, grid: RpmGrid, cfg: CurveToGridConfig,
                   sample_rate_hz: float) -> sparse.csr_array:
    """Sparse (n_axis x G) K: row m is a Gaussian (bandwidth in RPM, truncated
    at cfg.kernel_truncation_sigmas) centered at point m's mapped RPM.

    Points whose kernel window misses the grid entirely get empty rows; if
    that is every point, the curve is disjoint from the grid.
    """
    rpm = map_axis_to_rpm(curve.axis, curve.axis_type, sample_rate_hz)
    h = cfg.kernel_bandwidth_rpm
    radius = cfg.kernel_truncation_sigmas * h
    inside = np.nonzero((rpm >= grid.r_min - radius) & (rpm <= grid.r_max + radius))[0]
    if inside.size == 0:
        raise ValueError(
            f"curve '{curve.estimator_id}' disjoint from grid: all {len(rpm)} points map "
            f"outside [{grid.r_min}, {grid.r_max}] RPM (+/- {radius:.3g} kernel reach)"
        )
    dr = grid.step
    half = int(np.ceil(radius / dr))
    centers = np.round((rpm[inside] - grid.r_min) / dr).astype(np.int64)
    idx = centers[:, None] + np.arange(-half, half + 1)[None, :]
    u = (grid.r_min + idx * dr - rpm[inside, None]) / h
    kern = np.where(np.abs(u) <= cfg.kernel_truncation_sigmas,
                    np.exp(-0.5 * u * u), 0.0)
    valid = (idx >= 0) & (idx < grid.n_points)
    rows = np.broadcast_to(inside[:, None], idx.shape)[valid]
    return sparse.csr_array((kern[valid], (rows, idx[valid])),
                            shape=(len(rpm), grid.n_points))


def aligned_loglik(curve: EvidenceCurve, scatter: sparse.csr_array,
                   cfg: CurveToGridConfig) -> np.ndarray:
    """Normalized grid log-likelihood, (G,) or (T, G), of each frame of ``curve``.

    Point m contributes exp(-beta * E[m]) times row m of ``scatter``, the
    :func:`kernel_scatter` of the same axis.
    """
    energy = to_energy(robust_standardize(curve.values, cfg.eps_norm), curve.polarity)
    log_w = -cfg.beta * energy
    # overall scale cancels in normalization; avoids exp overflow
    log_w -= log_w.max(axis=-1, keepdims=True)
    mass = np.exp(log_w) @ scatter
    mass += LIKELIHOOD_FLOOR
    # the logsumexp of log(mass) is the log of its row sum: no second exp
    log_total = np.log(mass.sum(axis=-1, keepdims=True))
    np.log(mass, out=mass)
    mass -= log_total
    return mass
