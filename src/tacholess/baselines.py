"""Reference methods: single-estimator picks, framewise fusion, Viterbi-STFT,
each read from what ``pipeline.evidence_chunks`` computes per chunk of frames."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import RpmGrid

PEAK_LOG_FLOOR = 1e-300


def single_estimator_pick(values: np.ndarray, sign: float, rpm: np.ndarray,
                          inside: np.ndarray) -> float | np.ndarray:
    """RPM of the best of an estimator's ``values`` among the axis points whose
    ``rpm`` lies ``inside`` the band: the largest of ``sign * values``, so a
    score's maximum or a cost's minimum. Ties go to the lower native
    coordinate (first occurrence on the ascending axis). One frame's (N,)
    values give one RPM, a block of frames one RPM per row.
    """
    return rpm[np.argmax(np.where(inside, sign * values, -np.inf), axis=-1)]


def framewise_trajectory(loglik: np.ndarray, grid: RpmGrid) -> np.ndarray:
    """Per-frame MMSE RPM of the fused (T, G) log-likelihood, no recursion
    (ablation baseline). Row by row: one (T, G) @ (G,) product rounds
    differently, by up to 3e-12 RPM."""
    if len(loglik) == 0:
        raise ValueError("framewise baseline needs at least one frame")
    return np.array([np.exp(row) @ grid.values for row in loglik])


def frame_peaks(mag: np.ndarray, nfft: int, sample_rate_hz: float,
                r_min: float, r_max: float, top_k: int) -> np.ndarray:
    """The STFT peak candidates of a chunk's :func:`magnitude_spectrum` ``mag``:
    an (n, k) structured array of fields ``log_mag`` and ``rpm``, a row per frame
    holding its top-k local maxima in [r_min, r_max] RPM, strongest first (the
    higher bin first on ties), refined by 3-point parabolic interpolation of
    the log-magnitude and clamped to the band in RPM, so that no candidate
    leaves it by a rounding. k is ``top_k``, or the band's bin count if
    smaller. A row with no local maximum in the band (silence, or a tone's
    faded tail) gets its largest in-band bin, the first on ties, as its one
    candidate. A row with fewer than k candidates is padded with
    in-band bins of ``log_mag`` -inf, which no Viterbi path takes; their
    ``rpm`` is finite, so a transition penalty to them stays finite."""
    f_lo, f_hi, df = r_min / 60.0, r_max / 60.0, sample_rate_hz / nfft
    lo = max(1, int(np.ceil(f_lo / df)))
    hi = min(mag.shape[-1] - 2, int(np.floor(f_hi / df)))
    if hi < lo:
        raise ValueError(f"band [{f_lo:.3g}, {f_hi:.3g}] Hz holds no spectral bins")
    seg = mag[:, lo:hi + 1]
    is_peak = (seg > mag[:, lo - 1:hi]) & (seg >= mag[:, lo + 1:hi + 2])
    peakless = ~is_peak.any(axis=1)
    is_peak[peakless, np.argmax(seg[peakless], axis=1)] = True
    # a stable ascending sort of the negated, bin-reversed magnitudes: strongest
    # first, the higher bin first on ties, and the non-peaks (+inf) last
    order = np.argsort(np.where(is_peak, -seg, np.inf)[:, ::-1], axis=1, kind="stable")
    idx = hi - order[:, :top_k]
    a, b, c = (np.log(np.take_along_axis(mag, idx + d, axis=1) + PEAK_LOG_FLOOR)
               for d in (-1, 0, 1))
    denom = a - 2.0 * b + c
    shift = np.where(np.abs(denom) > 0, 0.5 * (a - c) / np.where(denom == 0, 1.0, denom), 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    out = np.empty(idx.shape, dtype=[("log_mag", np.float64), ("rpm", np.float64)])
    out["log_mag"] = np.where(np.arange(idx.shape[1]) < is_peak.sum(axis=1, keepdims=True),
                              b, -np.inf)
    out["rpm"] = np.clip(60.0 * ((idx + shift) * df), r_min, r_max)
    return out


def viterbi_path(scores: Sequence[np.ndarray], rpms: Sequence[np.ndarray],
                 transition_penalty_per_rpm: float) -> list[int]:
    """Max-sum dynamic program over per-frame candidate sets.

    Maximizes sum_t scores[t][c_t] - penalty * sum_t |rpm_t - rpm_{t-1}|;
    returns one candidate index per frame. ``scores`` and ``rpms`` are
    sequences of per-frame rows, such as (T, K) arrays.
    """
    if len(scores) != len(rpms) or len(scores) == 0:
        raise ValueError("scores and rpms must be equal-length and non-empty")
    best = np.asarray(scores[0], dtype=np.float64).copy()
    parents: list[np.ndarray] = []
    for t in range(1, len(scores)):
        sc = np.asarray(scores[t], dtype=np.float64)
        step = best[:, None] - transition_penalty_per_rpm * np.abs(
            np.asarray(rpms[t - 1])[:, None] - np.asarray(rpms[t])[None, :]
        )
        arg = np.argmax(step, axis=0)
        parents.append(arg)
        best = step[arg, np.arange(len(sc))] + sc
    path = [int(np.argmax(best))]
    for arg in reversed(parents):
        path.append(int(arg[path[-1]]))
    path.reverse()
    return path


def viterbi_stft(candidates: np.ndarray, transition_penalty_per_rpm: float) -> np.ndarray:
    """STFT peak tracking: the RPM per frame of the Viterbi path through the
    (T, k) peak candidates of :func:`frame_peaks`, which trades peak
    magnitude against RPM jumps."""
    rpms = candidates["rpm"]
    path = viterbi_path(candidates["log_mag"], rpms, transition_penalty_per_rpm)
    return rpms[np.arange(len(rpms)), path]
