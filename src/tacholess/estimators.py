"""Per-frame periodicity evidence on native axes.

Three frame-level estimators with deliberately different physics and axes:

* ``yin_curve``      cumulative-mean-normalized difference over integer lags (cost),
* ``cepstrum_curve`` real cepstrum over integer quefrencies (score),
* ``comb_curve``     harmonic comb magnitude over candidate frequencies in Hz (score).

Each takes one frame (N,) or a block of frames (T, N), runs its FFTs along
the last axis, and returns an :class:`EvidenceCurve` with one values row per
frame. Converting curves into grid log-likelihoods is the alignment module's
job.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy.fft import next_fast_len

CEPSTRUM_LOG_EPS = 1e-12


class AxisType(Enum):
    LAG = "lag"              # samples, speed = 60 * fs / axis
    QUEFRENCY = "quefrency"  # samples, speed = 60 * fs / axis
    HZ = "hz"                # speed = 60 * axis
    RPM = "rpm"              # already in RPM


class Polarity(Enum):
    """Whether small (COST) or large (SCORE) values indicate the speed hypothesis."""

    SCORE = 1
    COST = -1


@dataclass(frozen=True)
class EvidenceCurve:
    """Evidence on a native axis: ``values`` is one frame (n,) or a block of
    frames (T, n), one row per frame, all sharing ``axis``."""

    axis: np.ndarray
    values: np.ndarray
    axis_type: AxisType
    polarity: Polarity
    estimator_id: str

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if axis.ndim != 1 or values.ndim not in (1, 2) or values.shape[-1:] != axis.shape:
            raise ValueError(
                f"curve '{self.estimator_id}': axis {axis.shape} and values "
                f"{values.shape} must be 1-D and match along the last axis"
            )
        if axis.size < 2:
            raise ValueError(f"curve '{self.estimator_id}' needs >= 2 points, got {axis.size}")
        if not np.all(np.diff(axis) > 0):
            raise ValueError(f"curve '{self.estimator_id}': axis must be strictly increasing")
        if not np.all(np.isfinite(axis)) or not np.all(np.isfinite(values)):
            raise ValueError(f"curve '{self.estimator_id}' contains non-finite entries")
        axis.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.axis)


@lru_cache(maxsize=4)
def hann_window(n: int) -> np.ndarray:
    """Read-only ``np.hanning(n)``, built once per length."""
    w = np.hanning(n)
    w.flags.writeable = False
    return w


def lag_bounds(sample_rate_hz: float, r_min: float, r_max: float,
               frame_len: int) -> tuple[int, int]:
    """Integer lag/quefrency range covering [r_min, r_max] RPM, clamped to [2, frame_len//2]."""
    if r_min <= 0 or r_max <= r_min:
        raise ValueError(f"need 0 < r_min < r_max, got [{r_min}, {r_max}]")
    lo = max(2, int(np.floor(60.0 * sample_rate_hz / r_max)))
    hi = min(frame_len // 2, int(np.ceil(60.0 * sample_rate_hz / r_min)))
    if hi <= lo:
        raise ValueError(
            f"RPM range [{r_min}, {r_max}] maps to empty lag range "
            f"[{lo}, {hi}] at fs={sample_rate_hz}, frame_len={frame_len}"
        )
    return lo, hi


def _check_lag_range(tau_min: int, tau_max: int, frame_len: int, name: str) -> None:
    if not (2 <= tau_min < tau_max <= frame_len // 2):
        raise ValueError(
            f"{name}: need 2 <= min < max <= frame_len//2, "
            f"got [{tau_min}, {tau_max}] with frame_len={frame_len}"
        )


def difference_function(x: np.ndarray, tau_max: int) -> np.ndarray:
    """d(tau) = sum_{i=0..n-tau-1} (x[i] - x[i+tau])^2 for tau = 0..tau_max, via FFT.

    ``x`` is one frame or a block of frames along the last axis. Expanded
    into energy terms plus autocorrelation so the whole lag range costs two
    FFTs instead of an O(n * tau_max) scan.
    """
    x = np.asarray(x, dtype=np.float64)
    # differences cancel any constant offset, so centering changes nothing
    # mathematically but keeps FFT round-off from dominating a flat frame
    x = x - x.mean(axis=-1, keepdims=True)
    n = x.shape[-1]
    size = next_fast_len(n + tau_max)
    spec = np.fft.rfft(x, size, axis=-1)
    acf = np.fft.irfft(spec * np.conj(spec), size, axis=-1)[..., : tau_max + 1]
    cums = np.cumsum(x * x, axis=-1)
    cums = np.concatenate((np.zeros_like(cums[..., :1]), cums), axis=-1)
    taus = np.arange(tau_max + 1)
    d = cums[..., n - taus] + (cums[..., n:] - cums[..., taus]) - 2.0 * acf
    # FFT round-off can leave tiny negatives at near-perfect lags
    return np.maximum(d, 0.0)


def yin_curve(frames: np.ndarray, sample_rate_hz: float, tau_min: int,
              tau_max: int) -> EvidenceCurve:
    """Cumulative-mean-normalized difference d'(tau) over integer lags (cost curve).

    d'(tau) = d(tau) * tau / sum_{j<=tau} d(j), with d'(tau) = 1 where the
    running sum is zero (silent frame). Values are scale-invariant in the
    frame amplitude.
    """
    _check_lag_range(tau_min, tau_max, frames.shape[-1], "yin lag range")
    d = difference_function(frames, tau_max)
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    running = np.cumsum(d[..., 1:], axis=-1)
    dprime = np.ones_like(d)
    np.divide(d[..., 1:] * taus, running, out=dprime[..., 1:], where=running > 0)
    return EvidenceCurve(
        axis=np.arange(tau_min, tau_max + 1, dtype=np.float64),
        values=dprime[..., tau_min : tau_max + 1],
        axis_type=AxisType.LAG,
        polarity=Polarity.COST,
        estimator_id="yin",
    )


def cepstrum_curve(frames: np.ndarray, sample_rate_hz: float, q_min: int,
                   q_max: int) -> EvidenceCurve:
    """Real cepstrum of each Hann-windowed frame over integer quefrencies (score curve).

    c = IDFT(log(|DFT(w * x)| + eps)); a periodic excitation shows up as a
    rahmonic peak at its period in samples.
    """
    n = frames.shape[-1]
    _check_lag_range(q_min, q_max, n, "cepstrum quefrency range")
    mag = np.abs(np.fft.rfft(frames * hann_window(n), axis=-1))
    ceps = np.fft.irfft(np.log(mag + CEPSTRUM_LOG_EPS), n, axis=-1)
    return EvidenceCurve(
        axis=np.arange(q_min, q_max + 1, dtype=np.float64),
        values=ceps[..., q_min : q_max + 1],
        axis_type=AxisType.QUEFRENCY,
        polarity=Polarity.SCORE,
        estimator_id="cepstrum",
    )


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, fp)`` for every row of ``fp``, for x within [xp[0], xp[-1]]."""
    j = np.clip(np.searchsorted(xp, x, side="right") - 1, 0, len(xp) - 2)
    slope = (fp[..., j + 1] - fp[..., j]) / (xp[j + 1] - xp[j])
    return slope * (x - xp[j]) + fp[..., j]


def comb_curve(frames: np.ndarray, sample_rate_hz: float, f_min: float, f_max: float,
               n_candidates: int = 2048, n_harmonics: int = 5,
               zero_pad_factor: int = 2) -> EvidenceCurve:
    """Harmonic comb score h(f) = mean_m |X(m f)| on a uniform candidate grid in Hz.

    |X| is the magnitude spectrum of each Hann-windowed, zero-padded frame,
    read off harmonic positions by linear interpolation.
    """
    if not (0 < f_min < f_max):
        raise ValueError(f"need 0 < f_min < f_max, got [{f_min}, {f_max}]")
    if n_candidates < 2:
        raise ValueError(f"n_candidates must be >= 2, got {n_candidates}")
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
    if zero_pad_factor < 1:
        raise ValueError(f"zero_pad_factor must be >= 1, got {zero_pad_factor}")
    if f_max * n_harmonics >= sample_rate_hz / 2:
        raise ValueError(
            f"highest comb line {f_max * n_harmonics:.1f} Hz reaches Nyquist "
            f"({sample_rate_hz / 2:.1f} Hz); lower f_max or n_harmonics"
        )
    n = frames.shape[-1]
    nfft = next_fast_len(zero_pad_factor * n)
    mag = np.abs(np.fft.rfft(frames * hann_window(n), nfft, axis=-1))
    freqs = np.arange(mag.shape[-1]) * (sample_rate_hz / nfft)
    cands = np.linspace(f_min, f_max, n_candidates)
    score = sum(_interp_rows(m * cands, freqs, mag) for m in range(1, n_harmonics + 1))
    return EvidenceCurve(
        axis=cands,
        values=score / n_harmonics,
        axis_type=AxisType.HZ,
        polarity=Polarity.SCORE,
        estimator_id="comb",
    )
