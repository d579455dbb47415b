"""Curvature-adaptive recursive Bayesian tracking on the RPM grid.

The state is a full posterior mass vector over the grid. Each step reads the
local log-posterior curvature to set a per-bin diffusion scale (sharp peak ->
narrow transitions, flat posterior -> wide), diffuses with per-column
renormalized truncated Gaussians (mass stays on the bounded grid), then
multiplies in the fused frame likelihood. Strictly online: outputs for frame t
depend only on frames 1..t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fusion import mass_entropy
from .grid import RpmGrid


@dataclass(frozen=True)
class TrackerConfig:
    sigma_min_rpm: float = 40.0
    sigma_max_rpm: float = 150.0
    eps_c: float = 1e-12
    eps_log: float = 1e-300
    kernel_truncation_sigmas: float = 6.0

    def __post_init__(self):
        if not 0 < self.sigma_min_rpm <= self.sigma_max_rpm:
            raise ValueError(
                f"need 0 < sigma_min <= sigma_max, got "
                f"[{self.sigma_min_rpm}, {self.sigma_max_rpm}]"
            )
        if self.eps_c <= 0 or self.eps_log <= 0:
            raise ValueError("eps_c and eps_log must be positive")
        if self.kernel_truncation_sigmas <= 0:
            raise ValueError("kernel_truncation_sigmas must be positive")


@dataclass(frozen=True)
class PosteriorState:
    """Posterior mass over the grid after frame ``frame_index`` (0 = prior)."""

    grid: RpmGrid
    mass: np.ndarray
    frame_index: int

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=np.float64)
        if m.shape != (self.grid.n_points,):
            raise ValueError(f"mass shape {m.shape} does not match grid ({self.grid.n_points},)")
        if np.any(m < 0) or not np.all(np.isfinite(m)):
            raise ValueError("posterior mass must be finite and non-negative")
        total = m.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"posterior mass sums to {total!r}, expected 1")
        m.flags.writeable = False
        object.__setattr__(self, "mass", m)


@dataclass(frozen=True)
class TrajectoryPoint:
    frame_index: int
    time_s: float
    map_rpm: float
    mmse_rpm: float
    sigma_rpm: float
    entropy_nats: float


def init_posterior(grid: RpmGrid) -> PosteriorState:
    """Uniform prior over the grid."""
    return PosteriorState(grid, np.full(grid.n_points, 1.0 / grid.n_points), 0)


def curvature_sigma(state: PosteriorState, cfg: TrackerConfig) -> np.ndarray:
    """Per-bin diffusion scale from local log-posterior curvature.

    l = log(mass + eps_log) is pre-smoothed with a 3-point moving average
    (2-point means at the ends), its second difference taken per grid step,
    and sigma^2 = clip(1 / (max(0, -l'') + eps_c), sigma_min^2, sigma_max^2).
    Boundary bins replicate the nearest interior curvature.
    """
    g = state.grid.n_points
    if g < 3:
        raise ValueError(f"curvature needs a grid of >= 3 points, got {g}")
    l = np.log(state.mass + cfg.eps_log)
    sm = np.empty_like(l)
    sm[1:-1] = (l[:-2] + l[1:-1] + l[2:]) / 3.0
    sm[0] = (l[0] + l[1]) / 2.0
    sm[-1] = (l[-2] + l[-1]) / 2.0
    dr2 = state.grid.step ** 2
    curv = np.empty_like(l)
    curv[1:-1] = (sm[2:] - 2.0 * sm[1:-1] + sm[:-2]) / dr2
    curv[0] = curv[1]
    curv[-1] = curv[-2]
    q = np.maximum(0.0, -curv)
    var = np.clip(1.0 / (q + cfg.eps_c), cfg.sigma_min_rpm ** 2, cfg.sigma_max_rpm ** 2)
    return np.sqrt(var)


def predict(state: PosteriorState, sigmas: np.ndarray,
            truncation_sigmas: float = 6.0) -> np.ndarray:
    """Diffuse posterior mass with per-bin Gaussian transition columns.

    Column j spreads mass[j] as a Gaussian of scale sigmas[j] truncated at
    ``truncation_sigmas``, renormalized over the bounded grid so no mass
    leaks off the ends. The columns sharing a sigma are one convolution of
    their scaled masses over the span they cover, so a lone column costs one
    kernel-wide add.
    """
    grid = state.grid
    g = grid.n_points
    dr = grid.step
    mass = state.mass
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.shape != (g,):
        raise ValueError(f"sigmas shape {sigmas.shape} does not match grid ({g},)")
    out = np.zeros(g)
    for s in np.unique(sigmas):
        cols = np.nonzero(sigmas == s)[0]
        cols = cols[mass[cols] > 0.0]
        if cols.size == 0:
            continue
        half = int(np.ceil(truncation_sigmas * s / dr))
        offs = np.arange(-half, half + 1)
        u = offs * (dr / s)
        kern = np.where(np.abs(u) <= truncation_sigmas, np.exp(-0.5 * u * u), 0.0)
        csum = np.concatenate(([0.0], np.cumsum(kern)))
        lo = np.maximum(-cols, -half)
        hi = np.minimum(g - 1 - cols, half)
        norm = csum[hi + half + 1] - csum[lo + half]
        first = cols[0]
        span = np.zeros(cols[-1] - first + 1)
        span[cols - first] = mass[cols] / norm
        # spread[k] lands on bin first - half + k; keep the part on the grid
        spread = np.convolve(span, kern)
        a = max(0, first - half)
        b = min(g, cols[-1] + half + 1)
        out[a:b] += spread[a - first + half : b - first + half]
    return out


def update(predicted_mass: np.ndarray, loglik: np.ndarray, grid: RpmGrid,
           cfg: TrackerConfig, frame_index: int) -> PosteriorState:
    """Bayes product of predicted mass and one frame's (G,) log-likelihood,
    in the log domain, max-shifted and normalized back to mass."""
    predicted_mass = np.asarray(predicted_mass, dtype=np.float64)
    for name, v in (("predicted mass", predicted_mass), ("log-likelihood", loglik)):
        if np.shape(v) != (grid.n_points,):
            raise ValueError(
                f"{name} shape {np.shape(v)} does not match grid ({grid.n_points},)"
            )
    log_post = np.log(predicted_mass + cfg.eps_log) + loglik
    mass = np.exp(log_post - log_post.max())
    mass /= mass.sum()
    return PosteriorState(grid, mass, frame_index)


def estimate(state: PosteriorState, time_s: float = float("nan")) -> TrajectoryPoint:
    """MAP (first max on ties), MMSE, posterior stddev, and entropy."""
    values = state.grid.values
    mass = state.mass
    mmse = float(mass @ values)
    var = float(mass @ (values - mmse) ** 2)
    return TrajectoryPoint(
        frame_index=state.frame_index,
        time_s=time_s,
        map_rpm=float(values[int(np.argmax(mass))]),
        mmse_rpm=mmse,
        sigma_rpm=float(np.sqrt(max(var, 0.0))),
        entropy_nats=mass_entropy(mass),
    )


def track(loglik: np.ndarray, grid: RpmGrid, cfg: TrackerConfig,
          times_s: Sequence[float] | None = None, return_posteriors: bool = False):
    """Run the filter over a (T, G) block of per-frame fused log-likelihoods.

    Returns the trajectory points, plus the per-frame posterior states when
    ``return_posteriors`` is set.
    """
    loglik = np.asarray(loglik, dtype=np.float64)
    if loglik.ndim != 2 or loglik.shape[1] != grid.n_points:
        raise ValueError(
            f"log-likelihood block {loglik.shape} does not match the tracking grid "
            f"(T, {grid.n_points})"
        )
    bad = np.flatnonzero(~np.isfinite(loglik).all(axis=1))
    if bad.size:
        raise ValueError(f"frame {bad[0] + 1} log-likelihood has non-finite values")
    if times_s is not None and len(times_s) != len(loglik):
        raise ValueError(f"{len(times_s)} times for {len(loglik)} frames")
    state = init_posterior(grid)
    points: list[TrajectoryPoint] = []
    posteriors: list[PosteriorState] = []
    for t, row in enumerate(loglik, start=1):
        sig = curvature_sigma(state, cfg)
        prior = predict(state, sig, cfg.kernel_truncation_sigmas)
        state = update(prior, row, grid, cfg, frame_index=t)
        when = float(times_s[t - 1]) if times_s is not None else float("nan")
        points.append(estimate(state, when))
        if return_posteriors:
            posteriors.append(state)
    if return_posteriors:
        return points, posteriors
    return points
