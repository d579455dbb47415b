import numpy as np
import pytest

from tacholess import AxisType, EvidenceCurve, Polarity
from tacholess.estimators import (
    cepstrum_curve,
    comb_curve,
    difference_function,
    lag_bounds,
    yin_curve,
)
from oracles import naive_cmndf, naive_difference


def harmonic_frame(n=1024, fs=8000.0, f0=200.0, n_harm=5):
    t = np.arange(n) / fs
    x = np.zeros(n)
    for m in range(1, n_harm + 1):
        x += np.sin(2.0 * np.pi * f0 * m * t + 0.3 * m) / m
    return x


def test_evidence_curve_validation():
    ax = np.array([1.0, 2.0, 3.0])
    EvidenceCurve(estimator_id="x", axis=ax, values=np.zeros(3),
                  axis_type=AxisType.RPM, polarity=Polarity.SCORE)
    with pytest.raises(ValueError):
        EvidenceCurve(estimator_id="x", axis=ax[::-1].copy(), values=np.zeros(3),
                      axis_type=AxisType.RPM, polarity=Polarity.SCORE)
    with pytest.raises(ValueError):
        EvidenceCurve(estimator_id="x", axis=ax, values=np.zeros(2),
                      axis_type=AxisType.RPM, polarity=Polarity.SCORE)
    with pytest.raises(ValueError):
        EvidenceCurve(estimator_id="x", axis=np.array([1.0]), values=np.array([0.0]),
                      axis_type=AxisType.RPM, polarity=Polarity.SCORE)
    with pytest.raises(ValueError):
        EvidenceCurve(estimator_id="x", axis=ax, values=np.array([0.0, np.nan, 0.0]),
                      axis_type=AxisType.RPM, polarity=Polarity.SCORE)


def test_lag_bounds_default_configuration():
    # fs 12800, 300-4000 RPM, 8192-sample frames
    assert lag_bounds(12800.0, 300.0, 4000.0, 8192) == (192, 2560)
    # clamped below by 2 and above by frame_len // 2
    assert lag_bounds(8000.0, 20.0, 400000.0, 1024) == (2, 512)
    with pytest.raises(ValueError, match="empty lag range"):
        lag_bounds(8000.0, 3900.0, 4000.0, 64)


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


def test_yin_matches_naive_normalization():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(128, 512))
        tau_min = int(rng.integers(2, 10))
        tau_max = int(rng.integers(tau_min + 8, n // 2))
        x = rng.normal(0.0, 1.0, n)
        curve = yin_curve(x, 8000.0, tau_min, tau_max)
        ref = naive_cmndf(naive_difference(x, tau_max))[tau_min:tau_max + 1]
        assert np.allclose(curve.values, ref, rtol=1e-9, atol=1e-9)
        assert np.array_equal(curve.axis, np.arange(tau_min, tau_max + 1))
        assert curve.axis_type is AxisType.LAG
        assert curve.polarity is Polarity.COST


def test_yin_dips_at_the_period():
    curve = yin_curve(harmonic_frame(), 8000.0, 20, 100)
    best = curve.axis[np.argmin(curve.values)]
    assert abs(best - 40.0) <= 1.0  # 200 Hz at 8 kHz
    assert curve.values.min() < 0.1


def test_yin_on_silence_is_flat_one():
    curve = yin_curve(np.zeros(256), 8000.0, 4, 64)
    assert np.array_equal(curve.values, np.ones(61))
    dc = yin_curve(np.full(256, 3.25), 8000.0, 4, 64)
    assert np.array_equal(dc.values, np.ones(61))


def test_yin_amplitude_invariance():
    rng = np.random.default_rng(13)
    x = rng.normal(0.0, 1.0, 400)
    a = yin_curve(x, 8000.0, 4, 150)
    b = yin_curve(8.0 * x, 8000.0, 4, 150)  # power-of-two scale
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=0.0)
    c = yin_curve(3.7 * x, 8000.0, 4, 150)
    assert np.allclose(a.values, c.values, rtol=1e-9, atol=1e-9)


def test_yin_noise_stays_above_dip_threshold():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        curve = yin_curve(rng.normal(0.0, 1.0, 2048), 8000.0, 20, 400)
        assert curve.values.min() > 0.1


def test_yin_range_validation():
    frame = np.zeros(64)
    with pytest.raises(ValueError, match="lag range"):
        yin_curve(frame, 8000.0, 1, 20)
    with pytest.raises(ValueError, match="lag range"):
        yin_curve(frame, 8000.0, 4, 33)  # beyond frame_len // 2
    with pytest.raises(ValueError, match="lag range"):
        yin_curve(frame, 8000.0, 10, 10)


def test_cepstrum_peaks_at_period_in_samples():
    curve = cepstrum_curve(harmonic_frame(), 8000.0, 20, 100)
    assert curve.axis_type is AxisType.QUEFRENCY
    assert curve.polarity is Polarity.SCORE
    best = curve.axis[np.argmax(curve.values)]
    assert abs(best - 40.0) <= 1.0


def test_cepstrum_finite_on_silence():
    curve = cepstrum_curve(np.zeros(256), 8000.0, 4, 64)
    assert np.all(np.isfinite(curve.values))


def test_comb_peaks_at_fundamental():
    frame = harmonic_frame(n=4096)
    curve = comb_curve(frame, 8000.0, 50.0, 450.0, n_candidates=801, n_harmonics=5)
    assert curve.axis_type is AxisType.HZ
    best = curve.axis[np.argmax(curve.values)]
    assert abs(best - 200.0) <= 4.0  # within 2%


def test_comb_prefers_fundamental_over_half():
    frame = harmonic_frame(n=4096)
    curve = comb_curve(frame, 8000.0, 50.0, 450.0, n_candidates=801, n_harmonics=5)
    at = lambda f: curve.values[np.argmin(np.abs(curve.axis - f))]
    # 1/m amplitudes: h(200) ~ mean(1,1/2,..,1/5), h(100) ~ (1 + 1/2)/5, ratio 1.52
    assert at(200.0) > 1.3 * at(100.0)


def test_comb_is_flat_on_noise():
    # broadband noise gives no comb candidate more than 3x the median response
    for seed in range(10):
        rng = np.random.default_rng(seed)
        frame = rng.normal(0.0, 1.0, 4096)
        curve = comb_curve(frame, 8000.0, 50.0, 450.0, n_candidates=801,
                           n_harmonics=5)
        assert curve.values.max() <= 3.0 * np.median(curve.values)


def test_comb_scales_linearly_and_zero_on_silence():
    frame = harmonic_frame(n=2048)
    a = comb_curve(frame, 8000.0, 50.0, 450.0, n_candidates=101, n_harmonics=5)
    doubled = 2.0 * frame
    b = comb_curve(doubled, 8000.0, 50.0, 450.0, n_candidates=101, n_harmonics=5)
    assert np.allclose(b.values, 2.0 * a.values, rtol=1e-9, atol=1e-12)
    z = comb_curve(np.zeros(2048), 8000.0, 50.0, 450.0,
                   n_candidates=101, n_harmonics=5)
    assert np.array_equal(z.values, np.zeros(101))


def test_comb_nyquist_guard():
    frame = np.zeros(1024)
    with pytest.raises(ValueError, match="Nyquist"):
        comb_curve(frame, 8000.0, 50.0, 900.0, n_harmonics=5)  # 4500 Hz > 4000
    with pytest.raises(ValueError):
        comb_curve(frame, 8000.0, 450.0, 50.0)
    with pytest.raises(ValueError):
        comb_curve(frame, 8000.0, 50.0, 450.0, n_candidates=1)


def test_block_rows_equal_one_frame_curves():
    rng = np.random.default_rng(14)
    fs = 8000.0
    block = rng.normal(0.0, 1.0, (5, 1024))
    block[1] = harmonic_frame(n=1024)
    block[3] = 0.0  # silent frame
    cases = [
        lambda x: yin_curve(x, fs, 20, 400),
        lambda x: cepstrum_curve(x, fs, 20, 400),
        lambda x: comb_curve(x, fs, 50.0, 450.0, n_candidates=301),
    ]
    for curve_of in cases:
        curves = curve_of(block)
        assert curves.values.shape == (5, len(curves.axis))
        for t in range(5):
            one = curve_of(block[t])
            assert np.array_equal(one.axis, curves.axis)
            assert np.allclose(one.values, curves.values[t], rtol=1e-12, atol=1e-12)


def test_block_with_a_non_finite_frame_names_the_estimator():
    block = np.zeros((3, 256))
    block[1, 7] = np.nan
    with pytest.raises(ValueError, match="curve 'cepstrum' contains non-finite"):
        cepstrum_curve(block, 8000.0, 4, 64)
