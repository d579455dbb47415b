"""Independent naive oracles the fast implementations are checked against."""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import logsumexp

from tacholess import AxisType, EvidenceCurve, RpmGrid
from tacholess.alignment import LIKELIHOOD_FLOOR


def naive_difference(x: np.ndarray, tau_max: int) -> np.ndarray:
    """Direct O(n * tau) difference function."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    d = np.zeros(tau_max + 1)
    for tau in range(tau_max + 1):
        delta = x[: n - tau] - x[tau:]
        d[tau] = float(np.dot(delta, delta))
    return d


def naive_cmndf(d: np.ndarray) -> np.ndarray:
    """Reference cumulative-mean normalization of a difference function."""
    out = np.ones(len(d))
    running = 0.0
    for tau in range(1, len(d)):
        running += d[tau]
        out[tau] = d[tau] * tau / running if running > 0 else 1.0
    return out


def _mapped_weights(curve: EvidenceCurve, cfg, sample_rate_hz: float):
    """Standardize -> energy -> point weights, written independently."""
    v = curve.values
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0])
    standardized = (v - med) / ((q3 - q1) + cfg.eps_norm)
    energy = -float(curve.polarity.value) * standardized
    log_w = -cfg.beta * energy
    log_w = log_w - log_w.max()
    if curve.axis_type in (AxisType.LAG, AxisType.QUEFRENCY):
        rpm = 60.0 * sample_rate_hz / curve.axis
    elif curve.axis_type is AxisType.HZ:
        rpm = 60.0 * curve.axis
    else:
        rpm = curve.axis.astype(np.float64)
    return rpm, np.exp(log_w)


def naive_curve_to_grid(curve: EvidenceCurve, grid: RpmGrid, cfg,
                        sample_rate_hz: float, truncate: bool = True) -> np.ndarray:
    """Double-loop kernel aggregation; returns normalized log-likelihood values.

    With ``truncate=False`` the Gaussian kernel is evaluated everywhere
    (the untruncated reference for the truncation-error bound).
    """
    rpm, weights = _mapped_weights(curve, cfg, sample_rate_hz)
    h = cfg.kernel_bandwidth_rpm
    trunc = cfg.kernel_truncation_sigmas
    reach = trunc * h
    mass = np.zeros(grid.n_points)
    kept = 0
    for r, w in zip(rpm, weights):
        if r < grid.r_min - reach or r > grid.r_max + reach:
            continue
        kept += 1
        for g in range(grid.n_points):
            u = (grid.values[g] - r) / h
            if truncate and abs(u) > trunc:
                continue
            mass[g] += w * np.exp(-0.5 * u * u)
    if kept == 0:
        raise ValueError("curve disjoint from grid")
    log_values = np.log(mass + LIKELIHOOD_FLOOR)
    return log_values - logsumexp(log_values)


def naive_predict(mass: np.ndarray, sigmas: np.ndarray, grid: RpmGrid,
                  truncation_sigmas: float) -> np.ndarray:
    """Per-column renormalized truncated-Gaussian diffusion, one column at a time."""
    values = grid.values
    out = np.zeros(grid.n_points)
    for j in range(grid.n_points):
        if mass[j] == 0.0:
            continue
        u = (values - values[j]) / sigmas[j]
        col = np.where(np.abs(u) <= truncation_sigmas, np.exp(-0.5 * u * u), 0.0)
        out += mass[j] * col / col.sum()
    return out


def brute_force_path_score(scores, rpms, penalty: float) -> float:
    """Best total score over every candidate path (exhaustive enumeration)."""
    sizes = [len(s) for s in scores]
    best = -np.inf
    for path in itertools.product(*(range(k) for k in sizes)):
        total = scores[0][path[0]]
        for t in range(1, len(scores)):
            total += scores[t][path[t]]
            total -= penalty * abs(rpms[t][path[t]] - rpms[t - 1][path[t - 1]])
        if total > best:
            best = total
    return float(best)


def path_score(path, scores, rpms, penalty: float) -> float:
    total = scores[0][path[0]]
    for t in range(1, len(scores)):
        total += scores[t][path[t]]
        total -= penalty * abs(rpms[t][path[t]] - rpms[t - 1][path[t - 1]])
    return float(total)


def exhaustive_best_score(scores, rpms, penalty: float) -> float:
    """Score every path at once (vectorized but still full enumeration)."""
    sizes = [len(s) for s in scores]
    paths = np.array(list(itertools.product(*(range(k) for k in sizes))))
    total = np.zeros(len(paths))
    for t in range(len(scores)):
        total += np.asarray(scores[t])[paths[:, t]]
        if t > 0:
            total -= penalty * np.abs(np.asarray(rpms[t])[paths[:, t]]
                                      - np.asarray(rpms[t - 1])[paths[:, t - 1]])
    return float(total.max())


def discrete_gaussian_mass(grid: RpmGrid, mu: float, s: float) -> np.ndarray:
    m = np.exp(-0.5 * ((grid.values - mu) / s) ** 2)
    return m / m.sum()
