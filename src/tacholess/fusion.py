"""Weighted log-linear pooling of per-estimator grid log-likelihood arrays."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .grid import logsumexp_rows

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


def pool_logliks(estimator_ids: Sequence[str], log_values: Sequence[np.ndarray],
                 weights: FusionWeights) -> np.ndarray:
    """log L(g) = sum_i w_i * log p_i(g), renormalized along the last axis.

    ``log_values[i]`` holds estimator i's log-likelihoods for one frame (G,)
    or a block of frames (T, G), pooled row by row; there is one array per
    estimator and all share one shape. A weight of zero drops that estimator
    exactly; at least one effective weight must be positive.
    """
    w = [weights.weight_for(eid) for eid in estimator_ids]
    if not any(wi > 0 for wi in w):
        raise ValueError("all fusion weights are zero for " + ", ".join(estimator_ids))
    shapes = [np.shape(lv) for lv in log_values]
    if len(shapes) != len(w) or len(set(shapes)) > 1:
        raise ValueError(f"cannot pool log-likelihoods of shapes {shapes} for estimators "
                         f"{list(estimator_ids)}: need one array per estimator, all one shape")
    acc = np.zeros(shapes[0])
    for wi, lv in zip(w, log_values):
        if wi > 0:
            acc += wi * np.maximum(lv, LOG_PROB_FLOOR)
    return acc - logsumexp_rows(acc)


def mass_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats of a probability vector; 0*log(0) taken as 0."""
    p = np.asarray(p, dtype=np.float64)
    pos = p > 0
    return float(-np.sum(p[pos] * np.log(p[pos])))
