"""Trajectory accuracy and stability metrics."""

from __future__ import annotations

import numpy as np

from .alignment import _quantile


def stability_metrics(estimated: np.ndarray) -> dict[str, float]:
    """Reference-free smoothness: jitter (population stddev of successive
    differences) and max_jump (largest absolute successive difference)."""
    e = np.asarray(estimated, dtype=np.float64)
    if e.ndim != 1 or e.size < 2:
        raise ValueError(f"need a 1-D trajectory of >= 2 frames, got shape {e.shape}")
    d = np.diff(e)
    return {"jitter": float(np.std(d)), "max_jump": float(np.max(np.abs(d)))}


def compute_metrics(estimated: np.ndarray, reference: np.ndarray) -> dict[str, float]:
    """RMSE, P95 of |error| (linear-interpolated percentile), jitter, max_jump."""
    e = np.asarray(estimated, dtype=np.float64)
    r = np.asarray(reference, dtype=np.float64)
    if e.shape != r.shape:
        raise ValueError(f"estimated {e.shape} and reference {r.shape} differ in shape")
    out = stability_metrics(e)
    err = e - r
    out["rmse"] = float(np.sqrt(np.mean(err ** 2)))
    # np.percentile's value, without the numpy.ma import that it costs
    out["p95"] = float(_quantile(np.sort(np.abs(err)), 0.95)[0])
    return out
