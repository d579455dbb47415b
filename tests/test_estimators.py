import numpy as np
import pytest
from scipy.fft import next_fast_len

from tacholess import (InputConfig, RunConfig, Signal, analyze,
                       estimators, evidence_chunks, save_signal)
from tacholess.estimators import (
    cepstrum_curve,
    comb_curve,
    difference_function,
    magnitude_spectrum,
    yin_curve,
)
from oracles import naive_cmndf, naive_difference


def harmonic_frame(n=1024, fs=8000.0, f0=200.0, n_harm=5):
    t = np.arange(n) / fs
    x = np.zeros(n)
    for m in range(1, n_harm + 1):
        x += np.sin(2.0 * np.pi * f0 * m * t + 0.3 * m) / m
    return x


def test_evidence_curve_validation(tmp_path):
    # the pipeline checks each chunk's curves once, and the run stops naming
    # the estimator, whether it is fused or only picked. Finite samples of
    # 1e305 overflow every estimator; at 1e304 only YIN's frame energies
    # overflow, so a picked YIN runs beside a fused estimator that stays finite
    def recording(amplitude):
        path = tmp_path / f"huge_{amplitude:g}.csv"
        x = amplitude * np.sin(2 * np.pi * 25.0 * np.arange(8192 + 3 * 128) / 12800.0)
        save_signal(Signal(x, 12800.0), path)
        return InputConfig(path=str(path), sample_rate_hz=12800.0)

    def only(name):  # fusion weights that pool this estimator alone
        return {eid: 0.0 for eid in ("yin", "cepstrum", "comb") if eid != name}

    cases = [(1e305, only(name), (), name) for name in ("yin", "cepstrum", "comb")]
    cases += [(1e305, only("yin"), ("yin",), "yin"), (1e304, only("cepstrum"), ("yin",), "yin"),
              (1e304, only("comb"), ("yin",), "yin")]
    for amplitude, weights, baselines, name in cases:
        cfg = RunConfig(scenario=None, input=recording(amplitude),
                        fusion_weights=weights, baselines=baselines)
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=f"curve '{name}' contains non-finite"):
            analyze(cfg)


def test_difference_function_matches_direct_sum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(64, 512))
        tau_max = int(rng.integers(8, n // 2))
        x = rng.normal(0.0, 1.0, n)
        fast = difference_function(x, tau_max)
        slow = naive_difference(x, tau_max)
        assert fast.shape == (tau_max + 1,)
        assert np.allclose(fast, slow, rtol=1e-9, atol=1e-8)
        assert np.all(fast >= 0.0)


def test_difference_function_on_a_block_matches_direct_sum():
    # rows of very different scale and a constant row, compared in units of
    # each row's scale so the tolerances mean the same on every row
    rng = np.random.default_rng(14)
    n = 96
    scales = np.array([1e-6, 1.0, 1e4, 1.0])
    block = rng.normal(0.0, 1.0, (4, n)) * scales[:, None]
    block[3] = 2.5
    for tau_max in (0, 1, n // 2, n - 1):
        fast = difference_function(block, tau_max)
        assert fast.shape == (4, tau_max + 1)
        for row, got, scale in zip(block, fast, scales):
            slow = naive_difference(row, tau_max)
            assert np.allclose(got / scale**2, slow / scale**2, rtol=1e-9, atol=1e-8)
        assert np.all(fast[3] == 0.0)
    # a narrowband frame, where the 5-smooth FFT length (17280) differs from
    # the 7-smooth one (17150)
    n, tau_max = 16384, 640
    assert next_fast_len(n + tau_max, real=True) != next_fast_len(n + tau_max)
    block = rng.normal(0.0, 1.0, (2, n))
    fast = difference_function(block, tau_max)
    for row, got in zip(block, fast):
        assert np.allclose(got, naive_difference(row, tau_max), rtol=1e-9, atol=1e-8)


@pytest.mark.parametrize("real", [True, False])
def test_next_fast_len_equals_scipys(real):
    want = [next_fast_len(n, real=real) for n in range(1, 70001)]
    assert [estimators.next_fast_len(n, real) for n in range(1, 70001)] == want


def test_evidence_finds_each_fft_length_once_per_run():
    # every sub-block asks for YIN's and the spectrum's FFT lengths again:
    # 40 frames are three chunks (16, 16, 8) and five sub-blocks, and the comb
    # plan asks for the spectrum's once more
    frames = np.random.default_rng(15).normal(0.0, 1.0, (40, 8192))
    estimators.next_fast_len.cache_clear()
    list(evidence_chunks(frames, 12800.0, RunConfig()))
    info = estimators.next_fast_len.cache_info()
    assert (info.misses, info.hits) == (2, 9)


def test_difference_function_rejects_tau_max_outside_the_frame():
    x = np.ones((2, 17))
    for bad in (-1, 17, 18):
        with pytest.raises(ValueError, match=f"tau_max={bad} with n=17"):
            difference_function(x, bad)
    assert difference_function(x, 16).shape == (2, 17)
    assert difference_function(x[0], 0).shape == (1,)


def test_yin_matches_naive_normalization():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(128, 512))
        tau_min = int(rng.integers(2, 10))
        tau_max = int(rng.integers(tau_min + 8, n // 2))
        x = rng.normal(0.0, 1.0, n)
        values = yin_curve(x, tau_min, tau_max)
        ref = naive_cmndf(naive_difference(x, tau_max))[tau_min:tau_max + 1]
        assert values.shape == (tau_max - tau_min + 1,)
        assert np.allclose(values, ref, rtol=1e-9, atol=1e-9)


def test_yin_dips_at_the_period():
    values = yin_curve(harmonic_frame(), 20, 100)
    best = 20 + np.argmin(values)
    assert abs(best - 40.0) <= 1.0  # 200 Hz at 8 kHz
    assert values.min() < 0.1


def test_yin_on_silence_is_flat_one():
    assert np.array_equal(yin_curve(np.zeros(256), 4, 64), np.ones(61))
    assert np.array_equal(yin_curve(np.full(256, 3.25), 4, 64), np.ones(61))


def test_yin_amplitude_invariance():
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, 400)
    a = yin_curve(x, 4, 150)
    b = yin_curve(8.0 * x, 4, 150)  # power-of-two scale
    assert np.allclose(a, b, rtol=1e-12, atol=0.0)
    c = yin_curve(3.7 * x, 4, 150)
    assert np.allclose(a, c, rtol=1e-9, atol=1e-9)


def test_yin_noise_stays_above_dip_threshold():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        assert yin_curve(rng.normal(0.0, 1.0, 2048), 20, 400).min() > 0.1


def test_yin_range_validation():
    frame = np.zeros(64)
    with pytest.raises(ValueError, match="lag range"):
        yin_curve(frame, 1, 20)
    with pytest.raises(ValueError, match="lag range"):
        yin_curve(frame, 4, 33)  # beyond frame_len // 2
    with pytest.raises(ValueError, match="lag range"):
        yin_curve(frame, 10, 10)


def test_cepstrum_peaks_at_period_in_samples():
    best = 20 + np.argmax(cepstrum_curve(harmonic_frame(), 20, 100))
    assert abs(best - 40.0) <= 1.0


def test_cepstrum_curve_owns_its_values():
    # a view into the (T, n) cepstrum would keep every quefrency alive with the curve
    frames = np.stack([harmonic_frame(), harmonic_frame(f0=250.0)])
    values = cepstrum_curve(frames, 20, 100)
    assert values.base is None and values.shape == (2, 81)
    assert np.array_equal(values[1], cepstrum_curve(frames[1], 20, 100))


def test_cepstrum_finite_on_silence():
    assert np.all(np.isfinite(cepstrum_curve(np.zeros(256), 4, 64)))


def test_comb_peaks_at_fundamental():
    frame = harmonic_frame(n=4096)
    freqs = np.linspace(50.0, 450.0, 801)
    values = comb_curve(*magnitude_spectrum(frame), 8000.0, freqs, n_harmonics=5)
    best = freqs[np.argmax(values)]
    assert abs(best - 200.0) <= 4.0  # within 2%


def test_comb_prefers_fundamental_over_half():
    frame = harmonic_frame(n=4096)
    freqs = np.linspace(50.0, 450.0, 801)
    values = comb_curve(*magnitude_spectrum(frame), 8000.0, freqs, n_harmonics=5)
    at = lambda f: values[np.argmin(np.abs(freqs - f))]
    # 1/m amplitudes: h(200) ~ mean(1,1/2,..,1/5), h(100) ~ (1 + 1/2)/5, ratio 1.52
    assert at(200.0) > 1.3 * at(100.0)


def test_comb_is_flat_on_noise():
    # broadband noise gives no comb candidate more than 3x the median response
    for seed in range(10):
        rng = np.random.default_rng(seed)
        frame = rng.normal(0.0, 1.0, 4096)
        values = comb_curve(*magnitude_spectrum(frame), 8000.0, np.linspace(50.0, 450.0, 801),
                            n_harmonics=5)
        assert values.max() <= 3.0 * np.median(values)


def test_comb_scales_linearly_and_zero_on_silence():
    frame = harmonic_frame(n=2048)
    freqs = np.linspace(50.0, 450.0, 101)
    a = comb_curve(*magnitude_spectrum(frame), 8000.0, freqs, n_harmonics=5)
    doubled = 2.0 * frame
    b = comb_curve(*magnitude_spectrum(doubled), 8000.0, freqs, n_harmonics=5)
    assert np.allclose(b, 2.0 * a, rtol=1e-9, atol=1e-12)
    z = comb_curve(*magnitude_spectrum(np.zeros(2048)), 8000.0, freqs, n_harmonics=5)
    assert np.array_equal(z, np.zeros(101))


def test_comb_nyquist_guard():
    frame = np.zeros(1024)
    with pytest.raises(ValueError, match="Nyquist"):
        # 4500 Hz > 4000
        comb_curve(*magnitude_spectrum(frame), 8000.0, np.linspace(50.0, 900.0, 9), n_harmonics=5)
    for freqs in (np.linspace(0.0, 450.0, 9), np.array([100.0, -50.0])):
        with pytest.raises(ValueError, match="comb candidates must be > 0 Hz"):
            comb_curve(*magnitude_spectrum(frame), 8000.0, freqs)
    with pytest.raises(ValueError, match="n_harmonics must be >= 1"):
        comb_curve(*magnitude_spectrum(frame), 8000.0, np.linspace(50.0, 450.0, 9), n_harmonics=0)


def test_block_rows_equal_one_frame_curves():
    rng = np.random.default_rng(14)
    fs = 8000.0
    block = rng.normal(0.0, 1.0, (5, 1024))
    block[1] = harmonic_frame(n=1024)
    block[3] = 0.0  # silent frame
    cases = [
        lambda x: yin_curve(x, 20, 400),
        lambda x: cepstrum_curve(x, 20, 400),
        lambda x: comb_curve(*magnitude_spectrum(x), fs, np.linspace(50.0, 450.0, 301)),
    ]
    for curve_of in cases:
        rows = curve_of(block)
        assert rows.ndim == 2 and len(rows) == 5
        for t in range(5):
            assert np.allclose(curve_of(block[t]), rows[t], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("frame_len, tau_min, tau_max", [(8192, 192, 2560), (2048, 320, 640)])
def test_a_frames_yin_is_the_same_bits_alone_and_in_a_block(frame_len, tau_min, tau_max):
    # the pipeline's lag ranges at the default framing (grid 300:4000, 12.8 kHz)
    # and on a 1200:2400 grid at frame_len 2048. The 8-row block's spectrum is
    # 691 and 173 kB, one row's 86 and 22 kB: numpy elides a temporary of
    # 256 KiB or more, and |X|^2 must round alike on both sides of that line
    rng = np.random.default_rng(27)
    block = rng.normal(0.0, 1.0, (8, frame_len))
    block[2] = harmonic_frame(n=frame_len)
    rows = yin_curve(block, tau_min, tau_max)
    for t in range(8):
        assert yin_curve(block[t], tau_min, tau_max).tobytes() == rows[t].tobytes()


def test_block_with_a_non_finite_frame_names_the_estimator():
    # the estimators return what they compute; the pipeline checks each chunk's
    # values once, naming the estimator. A NaN sample makes every curve of its
    # frame NaN, so the first estimator checked is named; a frame of 1e304
    # overflows YIN alone, which is named also when it only feeds a pick
    nan_frames = np.zeros((40, 8192))
    nan_frames[35, 7] = np.nan  # in the third chunk
    huge_frames = np.zeros((40, 8192))
    huge_frames[35] = 1e304 * np.sin(2 * np.pi * 25.0 * np.arange(8192) / 12800.0)
    for frames, weights, baselines, name in (
            (nan_frames, {"yin": 0.0}, (), "cepstrum"),
            (nan_frames, {"cepstrum": 0.0, "comb": 0.0}, ("cepstrum",), "yin"),
            (huge_frames, {"yin": 0.0, "cepstrum": 0.0}, ("yin",), "yin")):
        cfg = RunConfig(fusion_weights=weights, baselines=baselines)
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=f"curve '{name}' contains non-finite"):
            list(evidence_chunks(frames, 12800.0, cfg))
