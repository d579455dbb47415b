"""Weighted log-linear pooling of grid log-likelihoods."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .grid import GridLogLikelihood, RpmGrid, logsumexp_rows

# probabilities are floored here before weighting so a zero bin cannot veto
LOG_PROB_FLOOR = float(np.log(1e-300))


@dataclass(frozen=True)
class FusionWeights:
    """Per-estimator pooling weights; estimators not listed default to 1.0."""

    weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for eid, w in self.weights.items():
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"fusion weight for '{eid}' must be >= 0 and finite, got {w}")

    def weight_for(self, estimator_id: str) -> float:
        return float(self.weights.get(estimator_id, 1.0))


def _require_shared_grid(likelihoods: Sequence[GridLogLikelihood]) -> RpmGrid:
    grid = likelihoods[0].grid
    for lik in likelihoods[1:]:
        g = lik.grid
        if (g.r_min, g.r_max, g.n_points) != (grid.r_min, grid.r_max, grid.n_points):
            raise ValueError(
                f"cannot fuse '{lik.estimator_id}': grid [{g.r_min}, {g.r_max}]x{g.n_points} "
                f"differs from [{grid.r_min}, {grid.r_max}]x{grid.n_points}"
            )
    return grid


def pool_logliks(estimator_ids: Sequence[str], log_values: Sequence[np.ndarray],
                 weights: FusionWeights) -> np.ndarray:
    """log L(g) = sum_i w_i * log p_i(g), renormalized along the last axis.

    ``log_values[i]`` holds estimator i's log-likelihoods for one frame (G,)
    or a block of frames (T, G), pooled row by row. A weight of zero drops
    that estimator exactly; at least one effective weight must be positive.
    """
    w = [weights.weight_for(eid) for eid in estimator_ids]
    if not any(wi > 0 for wi in w):
        raise ValueError("all fusion weights are zero for " + ", ".join(estimator_ids))
    acc = np.zeros(np.shape(log_values[0]))
    for wi, lv in zip(w, log_values):
        if wi > 0:
            acc += wi * np.maximum(lv, LOG_PROB_FLOOR)
    return acc - logsumexp_rows(acc)


def fuse_loglik(likelihoods: Sequence[GridLogLikelihood],
                weights: FusionWeights | None = None) -> GridLogLikelihood:
    """:func:`pool_logliks` of one frame's per-estimator likelihoods on a shared grid."""
    if not likelihoods:
        raise ValueError("fuse_loglik needs at least one likelihood")
    grid = _require_shared_grid(likelihoods)
    acc = pool_logliks([lik.estimator_id for lik in likelihoods],
                       [lik.log_values for lik in likelihoods], weights or FusionWeights())
    return GridLogLikelihood(grid=grid, log_values=acc, estimator_id="fused")


def mass_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats of a probability vector; 0*log(0) taken as 0."""
    p = np.asarray(p, dtype=np.float64)
    pos = p > 0
    return float(-np.sum(p[pos] * np.log(p[pos])))


def posterior_entropy(loglik: GridLogLikelihood) -> float:
    """Entropy of the normalized likelihood; high entropy flags conflicting frames."""
    return mass_entropy(loglik.probabilities())
