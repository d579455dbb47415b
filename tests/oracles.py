"""Independent naive oracles the fast implementations are checked against."""

from __future__ import annotations

import csv
import itertools
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.fft import next_fast_len
from scipy.special import logsumexp

from tacholess import RpmGrid, frame_signal, viterbi_path
from tacholess.alignment import EPS_NORM, KERNEL_TRUNCATION_SIGMAS, LIKELIHOOD_FLOOR
from tacholess.baselines import PEAK_LOG_FLOOR


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


# the native axes an estimator may score on
AXIS_KINDS = ("lag", "quefrency", "hz", "rpm")


def axis_rpm(rpm_targets: np.ndarray, kind: str, sample_rate_hz: float) -> np.ndarray:
    """RPM points of an ascending native axis through ``rpm_targets``: a lag or
    quefrency axis at 60 * fs / rpm, mapped back by 60 * fs / tau; an axis in
    Hz at rpm / 60, mapped back by 60 * f; an RPM axis as it is."""
    if kind in ("lag", "quefrency"):
        return 60.0 * sample_rate_hz / np.sort(60.0 * sample_rate_hz / rpm_targets)
    if kind == "hz":
        return 60.0 * (rpm_targets / 60.0)
    return rpm_targets


def _point_weights(values: np.ndarray, sign: float, cfg) -> np.ndarray:
    """Standardize -> energy -> point weights, written independently."""
    q1, med, q3 = np.percentile(values, [25.0, 50.0, 75.0])
    standardized = (values - med) / ((q3 - q1) + EPS_NORM)
    energy = -sign * standardized  # low energy = plausible
    log_w = -cfg.beta * energy
    return np.exp(log_w - log_w.max())


def naive_curve_to_grid(rpm: np.ndarray, values: np.ndarray, sign: float, grid: RpmGrid,
                        cfg, truncate: bool = True) -> np.ndarray:
    """Double-loop kernel aggregation of one frame's ``values`` at the points
    ``rpm``; returns normalized log-likelihood values.

    With ``truncate=False`` the Gaussian kernel is evaluated everywhere
    (the untruncated reference for the truncation-error bound).
    """
    weights = _point_weights(values, sign, cfg)
    h = cfg.kernel_bandwidth_rpm
    trunc = KERNEL_TRUNCATION_SIGMAS
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


def csr_kernel(rpm: np.ndarray, grid: RpmGrid, cfg) -> sparse.csr_array:
    """The (n_axis x G) kernel matrix as a scipy CSR array, one axis point at
    a time: row m holds the Gaussian of ``rpm[m]`` at every grid value within
    KERNEL_TRUNCATION_SIGMAS bandwidths of it."""
    h = cfg.kernel_bandwidth_rpm
    rows, cols, taps = [], [], []
    for m, r in enumerate(rpm):
        u = (grid.values - r) / h
        near = np.flatnonzero(np.abs(u) <= KERNEL_TRUNCATION_SIGMAS)
        rows.append(np.full(near.size, m))
        cols.append(near)
        taps.append(np.exp(-0.5 * u[near] ** 2))
    return sparse.csr_array((np.concatenate(taps), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(len(rpm), grid.n_points))


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


def naive_frame_peaks(signal, framing, grid: RpmGrid, k: int) -> tuple[list, list]:
    """STFT peak candidates one frame at a time: each frame's Hann-windowed
    ``rfft`` at ``next_fast_len(2N)``, its top-k local maxima in the grid's band
    with parabolic refinement of the log-magnitude, clamped to the grid in
    RPM; per frame, the (k,) or fewer log-magnitudes and RPMs, strongest first."""
    fs = signal.sample_rate_hz
    f_lo, f_hi = grid.r_min / 60.0, grid.r_max / 60.0
    n = framing.frame_len
    nfft = next_fast_len(2 * n)
    df = fs / nfft
    lo, hi = max(1, int(np.ceil(f_lo / df))), min(nfft // 2 - 1, int(np.floor(f_hi / df)))
    scores, rpms = [], []
    for frame in frame_signal(signal, framing):
        mag = np.abs(np.fft.rfft(frame * np.hanning(n), nfft))
        peaks = [i for i in range(lo, hi + 1) if mag[i - 1] < mag[i] >= mag[i + 1]]
        if not peaks:  # no local maximum in band: the band's largest bin, first on ties
            peaks = [lo + int(np.argmax(mag[lo:hi + 1]))]
        peaks = np.array(peaks)[np.argsort(mag[peaks])[::-1][:k]]
        logm = np.log(mag + PEAK_LOG_FLOOR)
        freqs = []
        for i in peaks:
            a, b, c = logm[i - 1], logm[i], logm[i + 1]
            denom = a - 2.0 * b + c
            shift = np.clip(0.5 * (a - c) / denom, -0.5, 0.5) if abs(denom) > 0 else 0.0
            freqs.append((i + shift) * df)
        scores.append(np.log(mag[peaks] + PEAK_LOG_FLOOR))
        rpms.append(np.clip(60.0 * np.array(freqs), grid.r_min, grid.r_max))
    return scores, rpms


def naive_viterbi_stft(signal, framing, grid: RpmGrid, penalty: float, k: int) -> np.ndarray:
    """STFT peak tracking: ``viterbi_path`` over every frame's (log-magnitude,
    RPM) candidates of :func:`naive_frame_peaks`; the RPM per frame."""
    scores, rpms = naive_frame_peaks(signal, framing, grid, k)
    path = viterbi_path(scores, rpms, penalty)
    return np.array([rpms[t][c] for t, c in enumerate(path)])


def discrete_gaussian_mass(grid: RpmGrid, mu: float, s: float) -> np.ndarray:
    m = np.exp(-0.5 * ((grid.values - mu) / s) ** 2)
    return m / m.sum()


def csv_writer_table(path: Path, header, rows) -> None:
    """A table the way ``csv.writer`` writes it, numbers formatted by f-strings:
    ints as ``str``, floats as ``f"{x:.9g}"``, strings as they are."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.9g}" if isinstance(v, float) else v for v in row])


def naive_write_tables(result, out_dir: Path, posteriors=None) -> None:
    """The CSV files of ``write_outputs``, one f-string per number;
    ``posteriors.csv`` too if the (G,) ``posteriors`` rows are given."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trajectory.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame_index", "time_s", "map_rpm", "mmse_rpm",
                    "sigma_rpm", "entropy_nats"])
        for pt in result.tracked:
            w.writerow([pt.frame_index, f"{pt.time_s:.9g}", f"{pt.map_rpm:.9g}",
                        f"{pt.mmse_rpm:.9g}", f"{pt.sigma_rpm:.9g}",
                        f"{pt.entropy_nats:.9g}"])
    for name, traj in result.baselines.items():
        with open(out / f"baseline_{name}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["frame_index", "time_s", "rpm"])
            for i, t, r in zip(traj.frame_index, traj.time_s, traj.rpm):
                w.writerow([int(i), f"{t:.9g}", f"{r:.9g}"])
    if result.reference is not None:
        with open(out / "ground_truth.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["frame_index", "time_s", "rpm_ref"])
            for i, (t, r) in enumerate(zip(result.times_s, result.reference), start=1):
                w.writerow([i, f"{t:.9g}", f"{r:.9g}"])
    if posteriors is not None:
        with open(out / "posteriors.csv", "w", newline="") as fh:
            fh.write(",".join(f"{v:.9g}" for v in result.config.grid.values) + "\n")
            for mass in posteriors:
                fh.write(",".join(f"{m:.9g}" for m in mass) + "\n")


# -- whole-block evidence: the estimators as they ran on a whole chunk at once,
# before the FFT stages ran in sub-blocks and freed their temporaries in place


def whole_block_yin(frames: np.ndarray, tau_min: int, tau_max: int) -> np.ndarray:
    """YIN's d'(tau) at lags tau_min..tau_max of a (T, N) block, in one pass."""
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    x = x - x.mean(axis=-1, keepdims=True)
    size = next_fast_len(n + tau_max, real=True)
    spec = np.fft.rfft(x, size, axis=-1)
    power = np.conj(spec)  # |X|^2 computed into the conj array, at any block size
    power *= spec
    acf = np.fft.irfft(power, size, axis=-1)[..., : tau_max + 1]
    zero = np.zeros(x.shape[:-1] + (1,))
    head = np.concatenate((zero, np.cumsum(x[..., :tau_max] ** 2, axis=-1)), axis=-1)
    tail = np.concatenate((zero, np.cumsum(x[..., : -tau_max - 1 : -1] ** 2, axis=-1)), axis=-1)
    energy = np.einsum("...i,...i->...", x, x)[..., None]
    d = np.maximum((energy - tail) + (energy - head) - 2.0 * acf, 0.0)
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    running = np.cumsum(d[..., 1:], axis=-1)
    dprime = np.ones_like(d)
    np.divide(d[..., 1:] * taus, running, out=dprime[..., 1:], where=running > 0)
    dprime[..., 1:][~np.isfinite(running)] = np.nan
    return dprime[..., tau_min : tau_max + 1]


def whole_block_cepstrum(frames: np.ndarray, q_min: int, q_max: int) -> np.ndarray:
    """The real cepstrum at quefrencies q_min..q_max of a (T, N) block, in one pass."""
    n = frames.shape[-1]
    mag = np.abs(np.fft.rfft(frames * np.hanning(n), axis=-1))
    return np.fft.irfft(np.log(mag + 1e-12), n, axis=-1)[..., q_min : q_max + 1]


def whole_block_spectrum(frames: np.ndarray) -> tuple[np.ndarray, int]:
    """|DFT| of a (T, N) block's Hann-windowed frames, zero-padded to a smooth
    length of at least 2N, and that length."""
    n = frames.shape[-1]
    nfft = next_fast_len(2 * n)
    return np.abs(np.fft.rfft(frames * np.hanning(n), nfft, axis=-1)), nfft


def whole_block_comb(mag: np.ndarray, nfft: int, sample_rate_hz: float, freqs: np.ndarray,
                     n_harmonics: int) -> np.ndarray:
    """mean_m |X(m f)| over the harmonics, each read off ``mag`` by linear
    interpolation that searches its bins on every call."""
    bins = np.arange(mag.shape[-1]) * (sample_rate_hz / nfft)

    def interp(x):
        j = np.clip(np.searchsorted(bins, x, side="right") - 1, 0, len(bins) - 2)
        slope = (mag[..., j + 1] - mag[..., j]) / (bins[j + 1] - bins[j])
        return slope * (x - bins[j]) + mag[..., j]

    return sum(interp(m * freqs) for m in range(1, n_harmonics + 1)) / n_harmonics


def naive_synthesize(spec) -> tuple[np.ndarray, np.ndarray]:
    """The samples and per-sample RPM of a ``ScenarioSpec``, each tone made as
    a fresh array and added to the sum."""
    n = int(round(spec.duration_s * spec.sample_rate_hz))
    rng = np.random.default_rng(spec.seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.n_harmonics)
    theta_sub, theta_int = rng.uniform(0.0, 2.0 * np.pi, size=2)
    t = np.arange(n) / spec.sample_rate_hz
    if spec.scenario == "S5":
        rpm = np.where(t < spec.jump_time_s, spec.base_rpm, spec.base_rpm + spec.jump_rpm)
    elif spec.scenario == "S0":
        rpm = np.full(n, spec.base_rpm)
    else:
        rpm = spec.base_rpm * (1.0 + spec.wobble_fraction
                               * np.sin(2.0 * np.pi * t / spec.wobble_period_s))
    phi = (2.0 * np.pi * np.concatenate(([0.0], np.cumsum(rpm[:-1] / 60.0)))
           / spec.sample_rate_hz)
    amps, detune = spec.amps(), spec.detuning_vector()
    x = np.zeros(n)
    for m in range(1, spec.n_harmonics + 1):
        x += amps[m - 1] * np.sin(m * (1.0 + detune[m - 1]) * phi + theta[m - 1])
    if spec.scenario == "S1":
        x += spec.sub_ratio * amps[0] * np.sin(0.5 * phi + theta_sub)
    if spec.scenario == "S3":
        x += spec.interference_level * amps[0] * np.sin(spec.alpha * phi + theta_int)
    if spec.snr_db is not None:
        noise_std = np.sqrt(float(np.mean(x * x)) / 10.0 ** (spec.snr_db / 10.0))
        x = x + rng.normal(0.0, noise_std, size=n)
    return x, rpm
