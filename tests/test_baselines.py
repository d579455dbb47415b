import numpy as np
import pytest
from scipy.special import logsumexp

from tacholess import (
    FramingConfig,
    InputConfig,
    RpmGrid,
    RunConfig,
    ScenarioSpec,
    Signal,
    ViterbiConfig,
    analyze,
    frame_signal,
    framewise_trajectory,
    load_signal,
    magnitude_spectrum,
    save_signal,
    single_estimator_pick,
    viterbi_path,
)
from tacholess.baselines import frame_peaks
from oracles import (
    brute_force_path_score,
    discrete_gaussian_mass,
    naive_frame_peaks,
    naive_viterbi_stft,
    path_score,
)


def pick(values, sign, rpm, r_min=300.0, r_max=4000.0):
    rpm = np.asarray(rpm, float)
    return single_estimator_pick(np.asarray(values, float), sign, rpm,
                                 (rpm >= r_min) & (rpm <= r_max))


def test_pick_score_and_cost_orientations():
    assert pick([0.2, 0.9, 0.4], 1.0, [900.0, 1000.0, 1100.0]) == 1000.0
    assert pick([0.2, 0.9, 0.4], -1.0, [900.0, 1000.0, 1100.0]) == 900.0
    block = np.array([[0.2, 0.9, 0.4], [0.5, 0.1, 0.3]])
    assert np.array_equal(pick(block, -1.0, [900.0, 1000.0, 1100.0]), [900.0, 1000.0])


def test_pick_respects_the_feasible_band():
    # the global maxima sit outside [300, 4000] and must be ignored
    assert pick([9.0, 1.0, 8.0], 1.0, [200.0, 1000.0, 5000.0]) == 1000.0


def test_pick_tie_goes_to_lower_native_coordinate():
    assert pick([0.7, 0.3, 0.7], 1.0, [900.0, 1000.0, 1100.0]) == 900.0
    # on a lag axis the lower coordinate is the higher RPM
    lags = np.array([100.0, 200.0])
    assert pick([0.5, 0.5], -1.0, 60.0 * 12800.0 / lags, r_max=10000.0) == pytest.approx(7680.0)


def test_framewise_is_per_frame_mmse():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    rows = []
    for mu in (1050.0, 1100.0, 1150.0):
        lv = np.log(discrete_gaussian_mass(grid, mu, 10.0) + 1e-300)
        rows.append(lv - logsumexp(lv))
    rpm = framewise_trajectory(np.array(rows), grid)
    assert rpm.shape == (3,)
    assert np.allclose(rpm, [1050.0, 1100.0, 1150.0], atol=0.5)
    with pytest.raises(ValueError):
        framewise_trajectory(np.empty((0, 200)), grid)


def test_viterbi_zero_penalty_is_framewise_argmax():
    rng = np.random.default_rng(41)
    scores = [rng.normal(0.0, 1.0, 6) for _ in range(8)]
    rpms = [np.sort(rng.uniform(300.0, 4000.0, 6)) for _ in range(8)]
    path = viterbi_path(scores, rpms, 0.0)
    assert path == [int(np.argmax(s)) for s in scores]
    assert viterbi_path(np.array(scores), np.array(rpms), 0.0) == path  # (T, K) arrays


def test_viterbi_large_penalty_prefers_still_paths():
    # two candidates per frame at fixed RPMs; with a huge penalty the best
    # path never moves, even when single-frame scores say otherwise
    scores = [np.array([3.0, 0.0]), np.array([0.0, 5.0]), np.array([3.0, 0.0])]
    rpms = [np.array([1000.0, 2000.0])] * 3
    path = viterbi_path(scores, rpms, 1e6)
    assert path == [0, 0, 0]  # staying put at 6.0 total beats 5.0 at the middle
    assert viterbi_path(np.array(scores), np.array(rpms), 1e6) == path


def test_viterbi_matches_exhaustive_enumeration():
    rng = np.random.default_rng(42)
    pen = 0.02
    for _ in range(25):
        t = int(rng.integers(2, 7))
        scores = [rng.normal(0.0, 2.0, int(rng.integers(2, 9))) for _ in range(t)]
        rpms = [np.sort(rng.uniform(300.0, 4000.0, len(s))) for s in scores]
        path = viterbi_path(scores, rpms, pen)
        got = path_score(path, scores, rpms, pen)
        best = brute_force_path_score(scores, rpms, pen)
        assert got == pytest.approx(best, abs=1e-9)


def test_viterbi_validation():
    with pytest.raises(ValueError):
        viterbi_path([], [], 0.02)
    with pytest.raises(ValueError, match="non-empty"):
        viterbi_path(np.empty((0, 3)), np.empty((0, 3)), 0.02)
    with pytest.raises(ValueError):
        viterbi_path([np.zeros(3)], [np.zeros(3), np.zeros(3)], 0.02)


def tone_then_silence(fs=12800):
    """1 s of a 3600 RPM (60 Hz) tone, then 1 s of zeros."""
    tone = np.sin(2 * np.pi * 60.0 * np.arange(fs) / fs)
    return Signal(np.concatenate([tone, np.zeros(fs)]), float(fs))


def test_frame_peaks_pads_rows_with_fewer_than_top_k_maxima():
    # two equal maxima and a smaller one, then a row without any: the equal
    # pair goes higher bin first, and each row pads with -inf log-magnitudes
    mag = np.zeros((2, 64))
    mag[0, [10, 20, 30]] = [1.0, 0.5, 1.0]
    got = frame_peaks(mag, 126, 126.0, 300.0, 2400.0, 5)  # 1 Hz bins: band bins 5 .. 40
    assert got.shape == (2, 5) and got.dtype.names == ("log_mag", "rpm")
    assert np.array_equal(got["rpm"][0, :3], [1800.0, 600.0, 1200.0])
    assert np.array_equal(got["log_mag"][0, :3], np.log(np.array([1.0, 1.0, 0.5]) + 1e-300))
    assert np.array_equal(got["rpm"][1, :1], [300.0])  # the band's first bin: all tie at 0
    assert np.all(got["log_mag"][0, 3:] == -np.inf) and np.all(got["log_mag"][1, 1:] == -np.inf)
    assert np.all((got["rpm"] >= 300.0) & (got["rpm"] <= 2400.0))  # finite, in band

    # a tone's frames, its faded tail and silence: each row's real candidates
    # are the oracle's, the rest padding
    signal, framing, grid = tone_then_silence(), FramingConfig(), RunConfig().grid
    mag, nfft = magnitude_spectrum(frame_signal(signal, framing))
    got = frame_peaks(mag, nfft, signal.sample_rate_hz, grid.r_min, grid.r_max, 10)
    scores, rpms = naive_frame_peaks(signal, framing, grid, 10)
    counts = [len(s) for s in scores]
    assert got.shape == (len(scores), 10) and min(counts) == 1 and max(counts) == 10
    assert any(1 < n < 10 for n in counts)
    for row, score, rpm in zip(got, scores, rpms):
        n = len(score)
        assert np.array_equal(row["log_mag"][:n], score) and np.array_equal(row["rpm"][:n], rpm)
        assert np.all(row["log_mag"][n:] == -np.inf)
        # clamped in RPM: 60 * (the band edge in Hz) used to round an ulp past r_max
        assert np.all((row["rpm"] >= grid.r_min) & (row["rpm"] <= grid.r_max))
    assert np.any(got["rpm"] == grid.r_max)  # the faded tail's peaks clamp at the edge


def test_viterbi_stft_tracks_a_clean_tone():
    cfg = RunConfig(scenario=ScenarioSpec(scenario="S0", duration_s=1.0, seed=2),
                    baselines=("viterbi_stft",))
    result = analyze(cfg)
    traj, refs = result.baselines["viterbi_stft"], result.reference
    assert traj.dtype.names == ("frame_index", "time_s", "rpm")
    assert len(traj.rpm) == len(refs)
    assert np.max(np.abs(traj.rpm - refs)) < 2.0  # sub-bin via peak interpolation


def test_viterbi_stft_takes_the_band_maximum_of_a_peakless_frame(tmp_path):
    # 1 s of a 3600 RPM tone, then 1 s of zeros. From frame 100 on no frame has
    # a local maximum in the 5-66.7 Hz band: frame 100 holds only the tone's
    # last 128 samples, where the Hann window is below 0.0025, and later frames
    # are silent. Such a frame's one candidate is its largest in-band bin, the
    # first on ties: bin 7 of 0.78125 Hz (328.125 RPM) in a silent frame
    path = tmp_path / "tail.wav"
    save_signal(tone_then_silence(), path)
    cfg = RunConfig(scenario=None, input=InputConfig(path=str(path)),
                    baselines=("viterbi_stft",))
    rpm = analyze(cfg).baselines["viterbi_stft"].rpm
    expected = naive_viterbi_stft(load_signal(path), cfg.framing, cfg.grid,
                                  cfg.viterbi.transition_penalty_per_rpm,
                                  cfg.viterbi.n_candidates_per_frame)
    assert np.array_equal(rpm, expected)
    assert np.max(np.abs(rpm[:60] - 3600.0)) < 2.0
    assert np.all(rpm[100:] == 328.125)
    for penalty in (-1.0, np.nan, np.inf):  # NaN and inf used to act as penalty 0
        with pytest.raises(ValueError, match="finite and >= 0"):
            ViterbiConfig(transition_penalty_per_rpm=penalty)
    with pytest.raises(ValueError):
        ViterbiConfig(n_candidates_per_frame=0)
