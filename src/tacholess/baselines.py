"""Reference methods: single-estimator picks, framewise fusion, Viterbi-STFT."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.fft import next_fast_len

from .alignment import map_axis_to_rpm
from .estimators import EvidenceCurve, Polarity, hann_window
from .grid import RpmGrid
from .ingest import FramingConfig, Signal, frame_signal, frame_times

PEAK_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class BaselineTrajectory:
    method: str
    frame_index: np.ndarray
    time_s: np.ndarray
    rpm: np.ndarray

    def __post_init__(self):
        if not (len(self.frame_index) == len(self.time_s) == len(self.rpm)):
            raise ValueError(f"baseline '{self.method}': column lengths differ")


def single_estimator_pick(curve: EvidenceCurve, r_min: float, r_max: float,
                          sample_rate_hz: float) -> float | np.ndarray:
    """Best native-axis candidate mapping inside [r_min, r_max], as RPM.

    Cost curves pick the minimum, score curves the maximum; ties go to the
    lower native coordinate (first occurrence on the ascending axis). A
    one-frame curve gives one RPM, a block of frames one RPM per row.
    """
    rpm = map_axis_to_rpm(curve.axis, curve.axis_type, sample_rate_hz)
    ok = (rpm >= r_min) & (rpm <= r_max)
    if not np.any(ok):
        raise ValueError(
            f"'{curve.estimator_id}': no candidate maps inside [{r_min}, {r_max}] RPM"
        )
    if curve.polarity is Polarity.COST:
        best = np.argmin(np.where(ok, curve.values, np.inf), axis=-1)
    else:
        best = np.argmax(np.where(ok, curve.values, -np.inf), axis=-1)
    return rpm[best]


def framewise_trajectory(loglik: np.ndarray, grid: RpmGrid,
                         times_s: Sequence[float]) -> BaselineTrajectory:
    """Per-frame MMSE of the fused (T, G) log-likelihood, no recursion (ablation baseline)."""
    if len(loglik) != len(times_s):
        raise ValueError(f"{len(times_s)} times for {len(loglik)} frames")
    if len(loglik) == 0:
        raise ValueError("framewise baseline needs at least one frame")
    rpm = np.array([np.exp(row) @ grid.values for row in loglik])
    return BaselineTrajectory(
        method="framewise",
        frame_index=np.arange(1, len(loglik) + 1),
        time_s=np.asarray(times_s, dtype=np.float64),
        rpm=rpm,
    )


def _frame_peaks(frame: np.ndarray, index: int, sample_rate_hz: float, f_lo: float,
                 f_hi: float, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k local spectral maxima of frame ``index`` (1-based) in [f_lo, f_hi]:
    (freqs_hz, magnitudes).

    Peak frequencies are refined by 3-point parabolic interpolation of the
    log-magnitude, then clamped to the band.
    """
    n = len(frame)
    nfft = next_fast_len(2 * n)
    mag = np.abs(np.fft.rfft(frame * hann_window(n), nfft))
    df = sample_rate_hz / nfft
    lo = max(1, int(np.ceil(f_lo / df)))
    hi = min(len(mag) - 2, int(np.floor(f_hi / df)))
    if hi < lo:
        raise ValueError(f"band [{f_lo:.3g}, {f_hi:.3g}] Hz holds no spectral bins")
    seg = mag[lo : hi + 1]
    is_peak = (seg > mag[lo - 1 : hi]) & (seg >= mag[lo + 1 : hi + 2])
    peak_idx = np.nonzero(is_peak)[0] + lo
    if peak_idx.size == 0:
        raise ValueError(
            f"no spectral peaks found in band [{f_lo:.3g}, {f_hi:.3g}] Hz "
            f"at frame {index}"
        )
    order = np.argsort(mag[peak_idx])[::-1][:top_k]
    peak_idx = peak_idx[order]
    logm = np.log(mag + PEAK_LOG_FLOOR)
    a, b, c = logm[peak_idx - 1], logm[peak_idx], logm[peak_idx + 1]
    denom = a - 2.0 * b + c
    shift = np.where(np.abs(denom) > 0, 0.5 * (a - c) / np.where(denom == 0, 1.0, denom), 0.0)
    shift = np.clip(shift, -0.5, 0.5)
    freqs = np.clip((peak_idx + shift) * df, f_lo, f_hi)
    return freqs, mag[peak_idx]


def viterbi_path(scores: Sequence[np.ndarray], rpms: Sequence[np.ndarray],
                 transition_penalty_per_rpm: float) -> list[int]:
    """Max-sum dynamic program over per-frame candidate sets.

    Maximizes sum_t scores[t][c_t] - penalty * sum_t |rpm_t - rpm_{t-1}|;
    returns one candidate index per frame.
    """
    if len(scores) != len(rpms) or not scores:
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


def viterbi_stft(signal: Signal, framing: FramingConfig, grid: RpmGrid,
                 transition_penalty_per_rpm: float = 0.02,
                 n_candidates_per_frame: int = 10) -> BaselineTrajectory:
    """STFT peak tracking: top-k spectral peaks per frame in the fundamental
    band, joined by a Viterbi pass trading peak magnitude against RPM jumps."""
    if not 0 <= transition_penalty_per_rpm < np.inf:
        raise ValueError(
            f"transition penalty must be finite and >= 0, got {transition_penalty_per_rpm}")
    if n_candidates_per_frame < 1:
        raise ValueError(f"need >= 1 candidate per frame, got {n_candidates_per_frame}")
    frames = frame_signal(signal, framing)
    f_lo, f_hi = grid.r_min / 60.0, grid.r_max / 60.0
    all_scores, all_rpms = [], []
    for index, frame in enumerate(frames, start=1):
        freqs, mags = _frame_peaks(frame, index, signal.sample_rate_hz, f_lo, f_hi,
                                   n_candidates_per_frame)
        all_scores.append(np.log(mags + PEAK_LOG_FLOOR))
        all_rpms.append(60.0 * freqs)
    path = viterbi_path(all_scores, all_rpms, transition_penalty_per_rpm)
    rpm = np.array([all_rpms[t][c] for t, c in enumerate(path)])
    return BaselineTrajectory(
        method="viterbi_stft",
        frame_index=np.arange(1, len(frames) + 1),
        time_s=frame_times(signal, framing),
        rpm=rpm,
    )
