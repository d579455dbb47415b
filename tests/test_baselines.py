import numpy as np
import pytest
from scipy.special import logsumexp

from tacholess import (
    AxisType,
    EvidenceCurve,
    FramingConfig,
    Polarity,
    RpmGrid,
    ScenarioSpec,
    framewise_trajectory,
    single_estimator_pick,
    synthesize,
    viterbi_path,
    viterbi_stft,
)
from oracles import (
    brute_force_path_score,
    discrete_gaussian_mass,
    path_score,
)


def curve(axis, values, axis_type=AxisType.RPM, polarity=Polarity.SCORE):
    return EvidenceCurve(estimator_id="t", axis=np.asarray(axis, float),
                         values=np.asarray(values, float),
                         axis_type=axis_type, polarity=polarity)


def test_pick_score_and_cost_orientations():
    c_score = curve([900.0, 1000.0, 1100.0], [0.2, 0.9, 0.4])
    assert single_estimator_pick(c_score, 300.0, 4000.0, 12800.0) == 1000.0
    c_cost = curve([900.0, 1000.0, 1100.0], [0.2, 0.9, 0.4],
                   polarity=Polarity.COST)
    assert single_estimator_pick(c_cost, 300.0, 4000.0, 12800.0) == 900.0


def test_pick_respects_the_feasible_band():
    c = curve([200.0, 1000.0, 5000.0], [9.0, 1.0, 8.0])
    # the global maxima sit outside [300, 4000] and must be ignored
    assert single_estimator_pick(c, 300.0, 4000.0, 12800.0) == 1000.0
    with pytest.raises(ValueError, match="no candidate maps inside"):
        single_estimator_pick(c, 1500.0, 2000.0, 12800.0)


def test_pick_tie_goes_to_lower_native_coordinate():
    c = curve([900.0, 1000.0, 1100.0], [0.7, 0.3, 0.7])
    assert single_estimator_pick(c, 300.0, 4000.0, 12800.0) == 900.0
    # on a lag axis the lower coordinate is the higher RPM
    lag = curve([100.0, 200.0], [0.5, 0.5], axis_type=AxisType.LAG,
                polarity=Polarity.COST)
    assert single_estimator_pick(lag, 300.0, 10000.0, 12800.0) == pytest.approx(7680.0)


def test_framewise_is_per_frame_mmse():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    rows = []
    for mu in (1050.0, 1100.0, 1150.0):
        lv = np.log(discrete_gaussian_mass(grid, mu, 10.0) + 1e-300)
        rows.append(lv - logsumexp(lv))
    traj = framewise_trajectory(np.array(rows), grid, [0.1, 0.2, 0.3])
    assert traj.method == "framewise"
    assert np.array_equal(traj.frame_index, [1, 2, 3])
    assert np.allclose(traj.rpm, [1050.0, 1100.0, 1150.0], atol=0.5)
    with pytest.raises(ValueError):
        framewise_trajectory(np.array(rows), grid, [0.1, 0.2])
    with pytest.raises(ValueError):
        framewise_trajectory(np.empty((0, 200)), grid, [])


def test_viterbi_zero_penalty_is_framewise_argmax():
    rng = np.random.default_rng(41)
    scores = [rng.normal(0.0, 1.0, 6) for _ in range(8)]
    rpms = [np.sort(rng.uniform(300.0, 4000.0, 6)) for _ in range(8)]
    path = viterbi_path(scores, rpms, 0.0)
    assert path == [int(np.argmax(s)) for s in scores]


def test_viterbi_large_penalty_prefers_still_paths():
    # two candidates per frame at fixed RPMs; with a huge penalty the best
    # path never moves, even when single-frame scores say otherwise
    scores = [np.array([3.0, 0.0]), np.array([0.0, 5.0]), np.array([3.0, 0.0])]
    rpms = [np.array([1000.0, 2000.0])] * 3
    path = viterbi_path(scores, rpms, 1e6)
    assert path == [0, 0, 0]  # staying put at 6.0 total beats 5.0 at the middle


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
    with pytest.raises(ValueError):
        viterbi_path([np.zeros(3)], [np.zeros(3), np.zeros(3)], 0.02)


def test_viterbi_stft_tracks_a_clean_tone():
    spec = ScenarioSpec(scenario="S0", duration_s=1.0, seed=2)
    sig, truth = synthesize(spec)
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    traj = viterbi_stft(sig, FramingConfig(), grid)
    refs = truth.frame_references(FramingConfig())
    assert traj.method == "viterbi_stft"
    assert len(traj.rpm) == len(refs)
    assert np.max(np.abs(traj.rpm - refs)) < 2.0  # sub-bin via peak interpolation


def test_viterbi_stft_needs_spectral_peaks():
    from tacholess.ingest import Signal
    flat = Signal(samples=np.zeros(12000), sample_rate_hz=12800.0)
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    with pytest.raises(ValueError, match="peaks"):
        viterbi_stft(flat, FramingConfig(), grid)
    spec = ScenarioSpec(scenario="S0", duration_s=1.0, seed=2)
    sig, _ = synthesize(spec)
    with pytest.raises(ValueError):
        viterbi_stft(sig, FramingConfig(), grid, transition_penalty_per_rpm=-1.0)
    with pytest.raises(ValueError):
        viterbi_stft(sig, FramingConfig(), grid, n_candidates_per_frame=0)
