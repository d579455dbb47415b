"""Per-frame periodicity evidence on native axes.

Three frame-level estimators with deliberately different physics and axes:

* ``yin_curve``      cumulative-mean-normalized difference over integer lags (cost),
* ``cepstrum_curve`` real cepstrum over integer quefrencies (score),
* ``comb_plan``      harmonic comb magnitude over candidate frequencies in Hz (score).

YIN and the cepstrum take one frame (N,) or a block of frames (T, N) and
run their FFTs along the last axis; the comb, planned once per run by
:func:`comb_plan`, reads the same frames' :func:`magnitude_spectrum`. Each
gives a plain values array with one row per frame. The caller chooses the
axis behind the values once per run (the lags ``tau_min..tau_max``, or the
comb's array of candidate frequencies) and maps that same axis to RPM:
``60 * fs / tau`` for lags and quefrencies, ``60 * f`` for frequencies.
``SIGN`` orients each estimator's values so that larger means more
plausible. Converting values into grid log-likelihoods is
the alignment module's job.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

CEPSTRUM_LOG_EPS = 1e-12
# +1 for a score (peaks mark the speed), -1 for a cost (dips mark it)
SIGN = {"yin": -1.0, "cepstrum": 1.0, "comb": 1.0}


@lru_cache(maxsize=16)
def next_fast_len(n: int, real: bool = False) -> int:
    """The smallest m >= n with no prime factor above 5 (``real``) or above 11:
    the lengths pocketfft transforms fastest, as ``scipy.fft.next_fast_len``
    picks them. A run asks for the same two lengths on every sub-block, so
    they are kept."""
    bound = 1 << (n - 1).bit_length()  # a power of two is smooth
    odd = [1]  # the odd smooth numbers up to bound
    for p in (3, 5) if real else (3, 5, 7, 11):
        grown = []
        for m in odd:
            while m <= bound:
                grown.append(m)
                m *= p
        odd = grown
    # each odd part times the least power of two that reaches n
    return min(m << (-(-n // m) - 1).bit_length() for m in odd)


@lru_cache(maxsize=4)
def hann_window(n: int) -> np.ndarray:
    """Read-only ``np.hanning(n)``, built once per length."""
    w = np.hanning(n)
    w.flags.writeable = False
    return w


def _check_lag_range(tau_min: int, tau_max: int, frame_len: int, name: str) -> None:
    if not (2 <= tau_min < tau_max <= frame_len // 2):
        raise ValueError(
            f"{name}: need 2 <= min < max <= frame_len//2, "
            f"got [{tau_min}, {tau_max}] with frame_len={frame_len}"
        )


def difference_function(x: np.ndarray, tau_max: int) -> np.ndarray:
    """d(tau) = sum_{i=0..n-tau-1} (x[i] - x[i+tau])^2 for tau = 0..tau_max, via FFT.

    ``x`` is one frame or a block of frames along the last axis, and
    0 <= tau_max <= n - 1. Expanded into energy terms plus autocorrelation so
    the whole lag range costs two FFTs instead of an O(n * tau_max) scan.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    if not 0 <= tau_max <= n - 1:
        raise ValueError(f"difference_function: need 0 <= tau_max <= n - 1, "
                         f"got tau_max={tau_max} with n={n}")
    # differences cancel any constant offset, so centering changes nothing
    # mathematically but keeps FFT round-off from dominating a flat frame
    x = x - x.mean(axis=-1, keepdims=True)
    # d(tau) = (E - tail(tau)) + (E - head(tau)) - 2 acf(tau), where head and
    # tail are the energies of the first and of the last tau samples (the
    # tail summed from the frame's end). They are taken before the FFT, so
    # that the centred copy is gone by the time the spectrum is squared
    zero = np.zeros(x.shape[:-1] + (1,))
    head = np.concatenate((zero, np.cumsum(x[..., :tau_max] ** 2, axis=-1)), axis=-1)
    tail = np.concatenate((zero, np.cumsum(x[..., : -tau_max - 1 : -1] ** 2, axis=-1)), axis=-1)
    energy = np.einsum("...i,...i->...", x, x)[..., None]
    # a 5-smooth length >= n + tau_max keeps the ACF linear at every lag read
    size = next_fast_len(n + tau_max, real=True)
    spec = np.fft.rfft(x, size, axis=-1)
    del x
    # |X|^2 computed into the conj array, as numpy computes spec * conj(spec)
    # where it elides the temporary (a block of 256 KiB or more): a new array
    # rounds the imaginary part otherwise, so the bits would depend on the
    # size of the block
    power = np.conj(spec)
    power *= spec
    del spec
    acf = np.fft.irfft(power, size, axis=-1)[..., : tau_max + 1]
    del power
    d = energy - tail
    d += energy - head
    d -= 2.0 * acf
    # FFT round-off can leave tiny negatives at near-perfect lags
    return np.maximum(d, 0.0, out=d)


def yin_curve(frames: np.ndarray, tau_min: int, tau_max: int) -> np.ndarray:
    """Cumulative-mean-normalized difference d'(tau) at lags tau_min..tau_max (cost curve).

    d'(tau) = d(tau) * tau / sum_{j<=tau} d(j), with d'(tau) = 1 where the
    running sum is zero (silent frame) and nan where it is not finite (an
    overflowing frame). Values are scale-invariant in the frame amplitude.
    """
    _check_lag_range(tau_min, tau_max, frames.shape[-1], "yin lag range")
    d = difference_function(frames, tau_max)
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    running = np.cumsum(d[..., 1:], axis=-1)
    dprime = np.ones_like(d)
    np.divide(d[..., 1:] * taus, running, out=dprime[..., 1:], where=running > 0)
    dprime[..., 1:][~np.isfinite(running)] = np.nan
    return dprime[..., tau_min : tau_max + 1]


def cepstrum_curve(frames: np.ndarray, q_min: int, q_max: int) -> np.ndarray:
    """Real cepstrum of each Hann-windowed frame at quefrencies q_min..q_max (score curve).

    c = IDFT(log(|DFT(w * x)| + eps)); a periodic excitation shows up as a
    rahmonic peak at its period in samples.
    """
    n = frames.shape[-1]
    _check_lag_range(q_min, q_max, n, "cepstrum quefrency range")
    mag = np.abs(np.fft.rfft(frames * hann_window(n), axis=-1))
    mag += CEPSTRUM_LOG_EPS
    ceps = np.fft.irfft(np.log(mag, out=mag), n, axis=-1)
    return ceps[..., q_min : q_max + 1].copy()  # a view would keep all of ceps alive


def spectrum_size(frame_len: int) -> int:
    """The FFT length of :func:`magnitude_spectrum` for frames of ``frame_len``."""
    return next_fast_len(2 * frame_len)


def magnitude_spectrum(frames: np.ndarray) -> tuple[np.ndarray, int]:
    """|DFT| of each Hann-windowed frame zero-padded to ``nfft = next_fast_len(2N)``,
    and nfft: the one spectrum that the comb and the STFT peak baseline read."""
    n = frames.shape[-1]
    nfft = spectrum_size(n)
    return np.abs(np.fft.rfft(frames * hann_window(n), nfft, axis=-1)), nfft


def comb_plan(nfft: int, sample_rate_hz: float, freqs: np.ndarray,
              n_harmonics: int = 5) -> Callable[[np.ndarray], np.ndarray]:
    """The harmonic comb h(f) = mean_m |X(m f)| at each frequency f of the (M,)
    array ``freqs`` of candidates in Hz, planned once: returns the function of a
    :func:`magnitude_spectrum` ``mag`` of length ``nfft`` (one frame or a block
    of frames) that gives one row of M scores per frame.

    |X| is read off the harmonic positions by linear interpolation between the
    two bins around each. Which bins, their spacing and each position's offset
    from the lower bin depend only on the run, so they are found here, and a
    call only gathers the two bins and interpolates, as ``np.interp`` does.
    """
    if n_harmonics < 1:
        raise ValueError(f"n_harmonics must be >= 1, got {n_harmonics}")
    if np.min(freqs) <= 0:
        raise ValueError(f"comb candidates must be > 0 Hz, got {np.min(freqs)}")
    if np.max(freqs) * n_harmonics >= sample_rate_hz / 2:
        raise ValueError(
            f"highest comb line {np.max(freqs) * n_harmonics:.1f} Hz reaches Nyquist "
            f"({sample_rate_hz / 2:.1f} Hz); lower the highest candidate or n_harmonics"
        )
    bins = np.arange(nfft // 2 + 1) * (sample_rate_hz / nfft)
    lines = np.arange(1, n_harmonics + 1)[:, None] * freqs  # (n_harmonics, M)
    below = np.clip(np.searchsorted(bins, lines, side="right") - 1, 0, len(bins) - 2)
    above = below + 1
    spacing = bins[above] - bins[below]
    offset = lines - bins[below]

    def comb(mag: np.ndarray) -> np.ndarray:
        lo = mag[..., below]
        score = mag[..., above]
        score -= lo
        score /= spacing
        score *= offset
        score += lo
        return score.sum(axis=-2) / n_harmonics

    return comb

