"""Weighted log-linear pooling of per-estimator grid log-likelihood arrays."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import logsumexp_rows

# probabilities are floored here before weighting so a zero bin cannot veto
LOG_PROB_FLOOR = float(np.log(1e-300))


def pool_logliks(log_values: Sequence[np.ndarray], weights: Sequence[float]) -> np.ndarray:
    """log L(g) = sum_i w_i * log p_i(g), renormalized along the last axis.

    ``log_values[i]`` holds estimator i's log-likelihoods for one frame (G,)
    or a block of frames (T, G), pooled row by row, and ``weights[i]`` its
    weight; all arrays share one shape. A weight of zero drops that estimator
    exactly; at least one weight must be positive.
    """
    if not any(w > 0 for w in weights):
        raise ValueError(f"all fusion weights are zero: {list(weights)}")
    shapes = [np.shape(lv) for lv in log_values]
    if len(shapes) != len(weights) or len(set(shapes)) > 1:
        raise ValueError(f"cannot pool log-likelihoods of shapes {shapes} with weights "
                         f"{list(weights)}: need one array per weight, all one shape")
    acc = np.zeros(shapes[0])
    for w, lv in zip(weights, log_values):
        if w > 0:
            acc += w * np.maximum(lv, LOG_PROB_FLOOR)
    return acc - logsumexp_rows(acc)


def mass_entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats of a probability vector; 0*log(0) taken as 0."""
    p = np.asarray(p, dtype=np.float64)
    pos = p > 0
    return float(-np.sum(p[pos] * np.log(p[pos])))
