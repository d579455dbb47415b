import ast
import contextlib
import csv
import inspect
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tacholess import (
    EstimatorSetConfig,
    FramingConfig,
    InputConfig,
    OutputConfig,
    RpmGrid,
    RunConfig,
    ScenarioSpec,
    analyze,
    metrics_json,
    run_benchmark,
    run_pipeline,
)
import tacholess
from tacholess import pipeline
from tacholess.cli import _config, _parse_grid, _parse_seeds, build_parser, main
from oracles import (csv_writer_table, naive_viterbi_stft, naive_write_tables, whole_block_comb,
                     whole_block_cepstrum, whole_block_spectrum, whole_block_yin)


def short_cfg(**kw):
    scenario = kw.pop("scenario", ScenarioSpec(scenario="S0", duration_s=0.8, seed=1))
    grid = kw.pop("grid", RpmGrid.from_step(1200.0, 1800.0, 1.0))
    return RunConfig(scenario=scenario, grid=grid, **kw)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_config_json_round_trip_is_a_fixed_point():
    cfg = short_cfg(fusion_weights={"yin": 0.5, "comb": 2.0},
                    baselines=("framewise", "comb"))
    text = cfg.to_json()
    again = RunConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text
    # to_dict holds tuples where the config does; from_dict takes them as it
    # takes JSON's lists
    d = cfg.to_dict()
    assert d["baselines"] == ("framewise", "comb")
    assert RunConfig.from_dict(d) == cfg
    default_text = RunConfig().to_json()
    assert RunConfig.from_json(default_text).to_json() == default_text


@settings(max_examples=300, deadline=None)
@given(st.floats(1.0, 5000.0), st.floats(0.05, 10.0), st.floats(1.5, 20000.0), st.booleans())
@example(304.6, 1.03, 1797.2, True)  # --grid 304.6:2155.7:1.03
def test_config_json_replays_the_grid_exactly(r_min, step, n_steps, one_decimal):
    # config.json holds the derived step (r_max - r_min) / (n - 1), so
    # rebuilding the grid from it must keep r_max, not move it by an ulp
    r_max = r_min + n_steps * step
    if one_decimal:
        r_min, r_max, step = round(r_min, 1), round(r_max, 1), round(step, 2)
        assume(round((r_max - r_min) / step) >= 1)
    cfg = RunConfig(grid=RpmGrid.from_step(r_min, r_max, step))
    again = RunConfig.from_json(cfg.to_json())
    assert again == cfg
    assert np.array_equal(again.grid.values, cfg.grid.values)


def test_config_from_partial_dicts():
    assert RunConfig.from_dict({}) == RunConfig()
    only_input = RunConfig.from_dict({"input": {"path": "a.csv", "sample_rate_hz": 10.0}})
    assert only_input.scenario is None and only_input.input.path == "a.csv"
    cfg = RunConfig.from_dict({"grid": {"r_min": 1200.0, "r_max": 1800.0, "step_rpm": 0.5},
                               "fusion_weights": {"cepstrum": 0, "comb": 0},
                               "estimators": {"comb_harmonics": 3}, "baselines": ["comb"]})
    assert cfg.grid.n_points == 1201
    assert cfg.fusion_weights == {"cepstrum": 0, "comb": 0} and cfg.baselines == ("comb",)
    assert cfg.estimators == EstimatorSetConfig(comb_harmonics=3)
    assert set(RunConfig().to_dict()["tracker"]) == {"sigma_min_rpm", "sigma_max_rpm"}
    assert set(RunConfig().to_dict()["alignment"]) == {"beta", "kernel_bandwidth_rpm"}
    # the numeric guards are module constants, not config keys
    with pytest.raises(ValueError, match=re.escape("config.tracker: unknown keys ['eps_c']")):
        RunConfig.from_dict({"tracker": {"eps_c": 1e-12}})


def test_config_validation_messages(tmp_path, capsys):
    # refused as the config is built, before any synthesis, with the key named
    for key, value, least in (("comb_candidates", 0, 2), ("comb_candidates", -3, 2),
                              ("comb_candidates", 1, 2), ("comb_harmonics", 0, 1)):
        message = f"estimators.{key} must be >= {least}, got {value}"
        with pytest.raises(ValueError, match=re.escape(message)):
            RunConfig(estimators=EstimatorSetConfig(**{key: value}))
        cfg_path = tmp_path / "estimators.json"
        cfg_path.write_text(json.dumps({"estimators": {key: value}}))
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(scenario=None, input=None)
    with pytest.raises(ValueError, match="exactly one"):
        RunConfig(scenario=ScenarioSpec(), input=InputConfig(path="x.wav"))
    with pytest.raises(ValueError, match="unknown estimator 'bogus'"):
        RunConfig(fusion_weights={"yin": 1.0, "bogus": 0.0})
    with pytest.raises(ValueError, match="every estimator has weight 0"):
        RunConfig(fusion_weights=dict.fromkeys(pipeline.ESTIMATOR_IDS, 0.0))
    with pytest.raises(ValueError, match="unknown method"):
        RunConfig(baselines=("bogus",))
    with pytest.raises(ValueError, match="unknown keys"):
        RunConfig.from_json('{"bogus": 1}')
    assert RunConfig(baselines=("framewise", "framewise")).baselines == ("framewise",)
    # an estimator has one weight, so none can be pooled twice: a JSON object
    # that repeats a key keeps its last value
    assert RunConfig.from_json('{"fusion_weights": {"yin": 0, "yin": 2}}').fusion_weights == {
        "yin": 2}


def test_config_rejects_unknown_fusion_weight_ids():
    # a misspelt id would otherwise leave the estimator it meant at weight 1.0
    with pytest.raises(ValueError, match="fusion_weights: unknown estimator 'yinn'"):
        RunConfig(fusion_weights={"yinn": 0.0, "comb": 5.0})
    assert RunConfig(fusion_weights={"yin": 0.0}).fusion_weights == {"yin": 0.0}


@pytest.mark.parametrize("weights, message", [
    ({"yin": -0.1}, "weight for 'yin' must be finite and >= 0, got -0.1"),
    ({"comb": np.nan}, "weight for 'comb' must be finite and >= 0, got nan"),
    ({"comb": np.inf}, "weight for 'comb' must be finite and >= 0, got inf"),
    ({"yin": 0.0, "cepstrum": 0, "comb": 0.0}, "every estimator has weight 0"),
    # -0.0 passes the sign check but pools nothing
    ({"yin": -0.0, "cepstrum": 0.0, "comb": 0.0}, "every estimator has weight 0"),
])
def test_config_refuses_bad_fusion_weights(tmp_path, capsys, weights, message):
    message = "fusion_weights: " + message
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig(fusion_weights=weights)
    # refused as the config is built, before any synthesis
    cfg_path = tmp_path / "weights.json"
    cfg_path.write_text(json.dumps({"fusion_weights": weights}))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_fusion_weights_default_to_one():
    # an estimator left out of fusion_weights pools at weight 1.0, so zero
    # weights for some estimators leave the rest to carry the run
    frames = np.random.default_rng(3).normal(0.0, 1.0, (4, 8192))

    def fused(weights):
        cfg = short_cfg(fusion_weights=weights, baselines=())
        return next(pipeline.evidence_chunks(frames, 12800.0, cfg))[0]

    assert np.array_equal(fused({"yin": 1.0, "cepstrum": 1.0, "comb": 1.0}), fused({}))
    assert np.array_equal(fused({"yin": 0.5, "comb": 1.0}), fused({"yin": 0.5}))
    assert not np.array_equal(fused({"yin": 0.5}), fused({}))
    assert RunConfig(fusion_weights={"yin": 0.0, "cepstrum": 0.0}).fusion_weights["yin"] == 0.0
    # the comb alone: weight 2 scales its log-likelihoods before renormalizing
    comb_only = fused({"yin": 0.0, "cepstrum": 0.0})
    assert np.isfinite(comb_only).all() and not np.array_equal(comb_only, fused({}))
    assert not np.array_equal(comb_only, fused({"yin": 0.0, "cepstrum": 0.0, "comb": 2.0}))


def test_an_estimator_of_weight_zero_is_computed_only_for_its_pick(monkeypatch):
    # weight 0 leaves YIN out of the pool, so its curves are not computed
    # unless its pick is requested, and never aligned
    yin_calls, aligned = [], []
    yin, align = tacholess.estimators.yin_curve, pipeline.aligned_loglik
    monkeypatch.setattr(tacholess.estimators, "yin_curve",
                        lambda *a: yin_calls.append(a) or yin(*a))
    monkeypatch.setattr(pipeline, "aligned_loglik",
                        lambda *a: aligned.append((a[1], align(*a))) or aligned[-1][1])
    frames = np.random.default_rng(3).normal(0.0, 1.0, (20, 8192))  # two chunks
    for baselines in ((), ("yin",)):
        yin_calls.clear()
        aligned.clear()
        cfg = short_cfg(fusion_weights={"yin": 0.0}, baselines=baselines)
        chunks = list(pipeline.evidence_chunks(frames, 12800.0, cfg))
        # each of the 20 frames once, a sub-block at a time
        assert sum(len(block) for block, _, _ in yin_calls) == (20 if baselines else 0)
        # per chunk, the cepstrum's rows and then the comb's
        assert [sign for sign, _ in aligned] == [tacholess.SIGN["cepstrum"],
                                                 tacholess.SIGN["comb"]] * 2
        for k, (fused, parts) in enumerate(chunks):
            rows = [r for _, r in aligned[2 * k:2 * k + 2]]
            assert np.array_equal(fused, pipeline.pool_logliks(rows, [1.0, 1.0]))
            assert set(parts) == set(baselines)


def test_the_spectrum_is_computed_once_per_sub_block_and_only_when_read(monkeypatch):
    # the comb and viterbi_stft read one magnitude spectrum per sub-block;
    # a run that needs neither computes none
    sizes = []
    spectrum = pipeline.magnitude_spectrum
    monkeypatch.setattr(pipeline, "magnitude_spectrum",
                        lambda block: sizes.append(len(block)) or spectrum(block))
    frames = np.random.default_rng(4).normal(0.0, 1.0, (20, 8192))  # chunks of 16 and 4
    for weights, baselines, want in (({"comb": 0.0}, ("yin", "cepstrum", "framewise"), []),
                                     ({}, ("comb", "viterbi_stft"), [8, 8, 4]),
                                     ({"comb": 0.0}, ("viterbi_stft",), [8, 8, 4])):
        sizes.clear()
        cfg = short_cfg(fusion_weights=weights, baselines=baselines)
        chunks = list(pipeline.evidence_chunks(frames, 12800.0, cfg))
        assert sizes == want, baselines
        assert all(set(parts) == set(baselines) for _, parts in chunks)


def test_lag_estimators_need_a_frame_that_covers_r_min():
    # 2048 samples at 12.8 kHz reach lag 1024, i.e. 750 RPM, above the 300 RPM
    # grid edge; lag 2560 is needed
    scenario = ScenarioSpec(scenario="S0", duration_s=0.5, base_rpm=600.0, seed=1)
    framing = FramingConfig(frame_len=2048, hop=128)
    cfg = RunConfig(scenario=scenario, framing=framing, baselines=())
    with pytest.raises(ValueError, match="frame_len >= 5120 or grid r_min >= 750"):
        analyze(cfg)
    comb_only = replace(cfg, fusion_weights={"yin": 0.0, "cepstrum": 0.0})
    assert len(analyze(comb_only).tracked) == 35
    with pytest.raises(ValueError, match="lag estimators cepstrum cannot cover"):
        analyze(replace(comb_only, baselines=("cepstrum",)))
    # the comb needs no lag range, which 256 samples at 12.8 kHz leave empty
    # on the default grid: lags 192 (4000 RPM) to 128
    tiny = replace(comb_only, framing=FramingConfig(frame_len=256, hop=128), baselines=("comb",))
    assert len(analyze(tiny).baselines["comb"]) == 49


def test_the_lag_range_spans_the_grid(monkeypatch):
    # tau_min = max(2, floor(60 fs / r_max)) and tau_max = ceil(60 fs / r_min):
    # 192..2560 at 12.8 kHz on the default grid, and lags from 2 where 60 fs /
    # r_max falls below 2. A grid that maps to no lag beyond 2 is refused
    seen = []
    yin = tacholess.estimators.yin_curve
    monkeypatch.setattr(tacholess.estimators, "yin_curve",
                        lambda x, lo, hi: seen.append((lo, hi)) or yin(x, lo, hi))
    weights = {"cepstrum": 0.0, "comb": 0.0}
    for fs, grid, frame_len, lags in ((12800.0, RpmGrid.from_step(300.0, 4000.0, 1.0), 8192,
                                       (192, 2560)),
                                      (1000.0, RpmGrid.from_step(20000.0, 40000.0, 100.0), 64,
                                       (2, 3))):
        seen.clear()
        cfg = RunConfig(grid=grid, fusion_weights=weights, baselines=())
        next(pipeline.evidence_chunks(np.zeros((2, frame_len)), fs, cfg))
        assert seen == [lags]
    cfg = RunConfig(grid=RpmGrid.from_step(3000.0, 4000.0, 10.0), fusion_weights=weights,
                    baselines=())
    with pytest.raises(ValueError, match=re.escape(
            "grid [3000.0, 4000.0] RPM maps to empty lag range [2, 2] at fs=100.0 Hz")):
        next(pipeline.evidence_chunks(np.zeros((2, 64)), 100.0, cfg))


def test_analyze_produces_aligned_series_and_metrics():
    cfg = short_cfg(baselines=("yin", "cepstrum", "comb", "framewise"))
    result = analyze(cfg)
    n = len(result.times_s)
    assert n == 17  # 0.8 s at 12800 Hz, 8192/128 framing
    assert len(result.tracked) == n
    assert result.reference is not None and len(result.reference) == n
    assert set(result.metrics) == {"tracked", "yin", "cepstrum", "comb", "framewise"}
    for vals in result.metrics.values():
        assert set(vals) == {"rmse", "p95", "jitter", "max_jump"}
    # clean constant-speed input: everything should sit near 1500
    assert abs(result.metrics["tracked"]["rmse"] - 0.0) < 30.0
    assert np.all(np.isfinite(result.tracked.mmse_rpm))


def test_analyze_is_deterministic():
    cfg = short_cfg()
    a = metrics_json(analyze(cfg))
    b = metrics_json(analyze(cfg))
    assert a == b
    payload = json.loads(a)
    assert payload["has_reference"] is True
    assert payload["n_frames"] == 17
    assert "tracked" in payload["methods"]


def test_chunk_size_does_not_change_results(monkeypatch):
    # 57 frames: one frame per chunk, the default chunking, and one chunk
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S3", duration_s=1.2, seed=2),
                    baselines=pipeline.BASELINE_IDS)
    assert pipeline.CHUNK_FRAMES < 57
    default = analyze(cfg)
    assert len(default.tracked) == 57
    for chunk in (1, 1000):
        monkeypatch.setattr(pipeline, "CHUNK_FRAMES", chunk)
        other = analyze(cfg)
        for attr in ("map_rpm", "mmse_rpm", "sigma_rpm"):
            a, b = default.tracked[attr], other.tracked[attr]
            assert np.max(np.abs(a - b)) <= 1e-9, (chunk, attr)
        assert set(other.baselines) == set(pipeline.BASELINE_IDS)
        for name, traj in default.baselines.items():
            assert np.max(np.abs(traj.rpm - other.baselines[name].rpm)) <= 1e-9, (chunk, name)


# the default fullband run, and narrowband-long's framing and grid
EVIDENCE_CFGS = {
    "fullband": RunConfig(scenario=ScenarioSpec(scenario="S3", duration_s=1.0, seed=1)),
    "narrowband": RunConfig(scenario=ScenarioSpec(scenario="S2", duration_s=2.0, seed=1),
                            framing=FramingConfig(frame_len=16384, hop=256),
                            grid=RpmGrid.from_step(1200.0, 2400.0, 1.0)),
}


def evidence_frames(cfg, n_frames):
    signal, _ = tacholess.synthesize(cfg.scenario, (cfg.grid.r_min, cfg.grid.r_max))
    frames = tacholess.frame_signal(signal, cfg.framing)
    assert len(frames) >= n_frames
    return frames[:n_frames], signal.sample_rate_hz


@pytest.mark.parametrize("name", EVIDENCE_CFGS)
@pytest.mark.parametrize("rows", [1, 5, 9, 16])
def test_sub_blocks_give_every_frame_its_whole_chunk_curves(monkeypatch, name, rows):
    # the FFT stages run SUB_FRAMES rows at a time; each frame's curves, picks
    # and peak candidates must be the bits that the whole chunk gave it at once
    cfg = replace(EVIDENCE_CFGS[name], baselines=pipeline.BASELINE_IDS)
    assert pipeline.SUB_FRAMES < pipeline.CHUNK_FRAMES == 16
    k = 0 if rows == 16 else 1  # chunk 1 of 16 + rows frames holds rows frames
    frames, fs = evidence_frames(cfg, 16 * k + rows)
    aligned = []
    align = pipeline.aligned_loglik
    monkeypatch.setattr(pipeline, "aligned_loglik",
                        lambda values, *a: aligned.append(values) or align(values, *a))
    fused, parts = pipeline._chunk_evidence(frames, fs, cfg)(k)

    block, grid = frames[16 * k:], cfg.grid
    tau_min, tau_max = int(np.floor(60.0 * fs / grid.r_max)), int(np.ceil(60.0 * fs / grid.r_min))
    freqs = np.linspace(grid.r_min / 60.0, grid.r_max / 60.0, cfg.estimators.comb_candidates)
    spectrum = whole_block_spectrum(block)
    expected = [whole_block_yin(block, tau_min, tau_max),
                whole_block_cepstrum(block, tau_min, tau_max),
                whole_block_comb(*spectrum, fs, freqs, cfg.estimators.comb_harmonics)]
    assert len(fused) == rows and len(aligned) == 3
    for got, want in zip(aligned, expected):
        assert got.tobytes() == want.tobytes()
    lags = 60.0 * fs / np.arange(tau_min, tau_max + 1, dtype=np.float64)
    for eid, values, rpm in zip(pipeline.ESTIMATOR_IDS, expected, (lags, lags, 60.0 * freqs)):
        inside = (rpm >= grid.r_min) & (rpm <= grid.r_max)
        pick = tacholess.single_estimator_pick(values, tacholess.SIGN[eid], rpm, inside)
        assert parts[eid].tobytes() == pick.tobytes()
    peaks = tacholess.baselines.frame_peaks(*spectrum, fs, grid.r_min, grid.r_max,
                                            cfg.viterbi.n_candidates_per_frame)
    assert parts["viterbi_stft"].tobytes() == peaks.tobytes()


@pytest.mark.parametrize("name", EVIDENCE_CFGS)
def test_one_chunk_of_evidence_holds_a_bounded_working_set(name):
    # a chunk's FFT stages, run on all 16 rows at once, peaked at 5.20 MB of
    # tracemalloc (fullband) and 8.74 MB (narrowband), when YIN held its
    # centred copy, spectrum and product together; in sub-blocks of 8 with
    # those freed in place they peak at 3.72 and 3.41 MB
    cfg = EVIDENCE_CFGS[name]
    frames, fs = evidence_frames(cfg, 32)
    evidence = pipeline._chunk_evidence(frames, fs, cfg)
    evidence(0)  # the window and the comb's plan are made by now; this fills caches
    tracemalloc.start()
    try:
        evidence(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.6e6, peak


def test_analyze_keeps_each_frame_reference_of_the_truth():
    # the per-sample truth is dropped before the chunks run; what is kept is
    # the truth's speed at each frame centre
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S5", duration_s=1.0, jump_time_s=0.6,
                                          jump_rpm=200.0, seed=2))
    _, truth = tacholess.synthesize(cfg.scenario, (cfg.grid.r_min, cfg.grid.r_max))
    result = analyze(cfg)
    assert len(result.reference) == len(result.tracked) == 37
    assert result.reference.tobytes() == truth.frame_references(cfg.framing).tobytes()


@pytest.mark.parametrize("n_samples, n_frames", [(8191, 0), (8192, 1), (8319, 1)])
def test_analyze_rejects_a_recording_of_fewer_than_two_frames(n_samples, n_frames):
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S0", duration_s=n_samples / 12800.0, seed=1))
    message = (f"{n_samples} samples give {n_frames} frame(s) at frame_len 8192, hop 128; "
               "need >= 2 frames, i.e. >= 8320 samples")
    with pytest.raises(ValueError, match=re.escape(message)):
        analyze(cfg)


def test_analyze_of_exactly_two_frames_gives_metrics():
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S0", duration_s=8320 / 12800.0, seed=1),
                    baselines=pipeline.BASELINE_IDS)
    result = analyze(cfg)
    assert len(result.times_s) == len(result.tracked) == 2
    for method in ("tracked", *pipeline.BASELINE_IDS):
        assert set(result.metrics[method]) == {"rmse", "p95", "jitter", "max_jump"}
        assert all(np.isfinite(v) for v in result.metrics[method].values())


def test_analyze_on_a_grid_the_curves_cannot_reach_raises():
    # at 1 kHz the lag lattice steps from 3000 RPM (lag 20) to 2857 RPM (lag
    # 21), so no lag maps into a 2900-2950 RPM grid
    cfg = RunConfig(scenario=ScenarioSpec(scenario="S0", duration_s=1.0, sample_rate_hz=1000.0,
                                          base_rpm=2925.0, seed=1),
                    framing=FramingConfig(frame_len=256, hop=128),
                    grid=RpmGrid.from_step(2900.0, 2950.0, 1.0))
    with pytest.raises(ValueError, match="curve 'yin' disjoint from grid"):
        analyze(cfg)


def test_streamed_analyze_equals_the_whole_array_path():
    # 87 frames: five full chunks and a partial one. The reference filters the
    # whole (T, G) array on this thread; analyze switches between its two
    # threads as often as the interpreter allows, to expose any shared state.
    # The second run computes the chunk spectrum for viterbi_stft alone
    for weights, baselines in (({}, pipeline.BASELINE_IDS),
                               ({"cepstrum": 0.0, "comb": 0.0},
                                ("yin", "framewise", "viterbi_stft"))):
        cfg = short_cfg(scenario=ScenarioSpec(scenario="S3", duration_s=1.5, seed=2),
                        fusion_weights=weights, baselines=baselines)
        rows = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            streamed = analyze(cfg, posterior_sink=rows.append)
        finally:
            sys.setswitchinterval(interval)

        signal, _ = tacholess.synthesize(cfg.scenario,
                                         rpm_bounds=(cfg.grid.r_min, cfg.grid.r_max))
        frames = tacholess.frame_signal(signal, cfg.framing)
        times = tacholess.frame_times(signal, cfg.framing)
        chunks = list(pipeline.evidence_chunks(frames, signal.sample_rate_hz, cfg))
        fused = np.concatenate([rows for rows, _ in chunks])
        posteriors = []
        tracked = tacholess.track(fused, cfg.grid, cfg.tracker, times, posteriors.append)
        rpm = {name: np.concatenate([picks[name] for _, picks in chunks])
               for name in pipeline.ESTIMATOR_IDS if name in baselines}
        rpm["framewise"] = tacholess.framewise_trajectory(fused, cfg.grid)
        rpm["viterbi_stft"] = naive_viterbi_stft(
            signal, cfg.framing, cfg.grid, cfg.viterbi.transition_penalty_per_rpm,
            cfg.viterbi.n_candidates_per_frame)

        for block, parts in chunks:
            assert np.array_equal(parts["framewise"],
                                  tacholess.framewise_trajectory(block, cfg.grid))
        assert len(streamed.tracked) == 87 and np.array_equal(streamed.tracked, tracked)
        assert np.array_equal(streamed.times_s, times)
        assert set(streamed.baselines) == set(baselines) == set(rpm)
        for name, values in rpm.items():
            traj = streamed.baselines[name]
            assert traj.dtype.names == ("frame_index", "time_s", "rpm"), name
            assert np.array_equal(traj.rpm, values), name
            assert np.array_equal(traj.time_s, streamed.tracked.time_s)
            assert np.array_equal(traj.frame_index, streamed.tracked.frame_index)
        assert streamed.tracked.frame_index.tolist() == list(range(1, 88))
        assert np.array_equal(streamed.tracked.time_s, times)
        assert len(rows) == 87
        for a, b in zip(rows, posteriors, strict=True):
            assert np.array_equal(a, b)


def test_estimator_rpm_points_are_fixed_once_per_run(monkeypatch):
    # each axis maps to RPM once per run: lags and quefrencies by 60 * fs / tau,
    # comb frequencies by 60 * f; every chunk aligns and picks on those points.
    # YIN and the cepstrum share the lag axis, so one scatter serves both
    seen = {"scatter": [], "built": [], "aligned": [], "pick": []}
    scatter, align, pick = (pipeline.kernel_scatter, pipeline.aligned_loglik,
                            pipeline.single_estimator_pick)

    def built_scatter(rpm, *a):
        seen["scatter"].append(rpm)
        seen["built"].append(scatter(rpm, *a))
        return seen["built"][-1]

    monkeypatch.setattr(pipeline, "kernel_scatter", built_scatter)
    monkeypatch.setattr(pipeline, "aligned_loglik",
                        lambda *a: seen["aligned"].append(a[2]) or align(*a))
    monkeypatch.setattr(pipeline, "single_estimator_pick",
                        lambda *a: seen["pick"].append(a[1:]) or pick(*a))
    cfg = short_cfg(baselines=("yin", "cepstrum", "comb"))
    fs = 12800.0
    frames = np.random.default_rng(5).normal(0.0, 1.0, (40, 8192))  # three chunks
    assert len(list(pipeline.evidence_chunks(frames, fs, cfg))) == 3
    lags = np.array([60.0 * fs / tau for tau in range(426, 641)])  # 1800 .. 1200 RPM
    comb = np.array([60.0 * f for f in np.linspace(1200.0 / 60.0, 1800.0 / 60.0, 2048)])
    assert len(seen["scatter"]) == 2 and len(seen["pick"]) == 9
    assert np.array_equal(seen["scatter"][0], lags) and np.array_equal(seen["scatter"][1], comb)
    lag_scatter, comb_scatter = seen["built"]
    # per chunk, yin, cepstrum and comb in ESTIMATOR_IDS order
    assert all(got is want for got, want in zip(seen["aligned"], [lag_scatter, lag_scatter,
                                                                   comb_scatter] * 3, strict=True))
    for name, rpm, picks in zip(("yin", "cepstrum", "comb"), (lags, lags, comb),
                                (seen["pick"][0::3], seen["pick"][1::3], seen["pick"][2::3])):
        for sign, pick_rpm, inside in picks:
            assert sign == tacholess.SIGN[name]
            assert pick_rpm is picks[0][1] and np.array_equal(pick_rpm, rpm)
            assert np.array_equal(inside, (rpm >= 1200.0) & (rpm <= 1800.0))


def test_a_pick_with_no_axis_point_inside_the_grid_is_refused():
    # 60 * (r / 60) rounds to just below r_min = 488.1 and just above r_max =
    # 490.6, so neither of two comb candidates lies inside the grid
    cfg = RunConfig(grid=RpmGrid.from_step(488.1, 490.6, 0.5),
                    estimators=EstimatorSetConfig(comb_candidates=2),
                    fusion_weights={"yin": 0.0, "cepstrum": 0.0},
                    baselines=("comb",))
    with pytest.raises(ValueError, match=r"'comb': no candidate maps inside \[488.1, 490.6\]"):
        next(pipeline.evidence_chunks(np.zeros((2, 8192)), 12800.0, cfg))


def test_importing_the_package_loads_no_scipy_fft():
    # the package runs on numpy alone: scipy.fft and scipy.special took about
    # 40 % of the import time, scipy.sparse (the alignment scatter) 0.20 of
    # 0.43 s, and scipy.io loaded it again for every WAV run. Nor does a run
    # load numpy.ma (8-12 ms and 1.7 MB), which np.unique and np.percentile
    # import: a scenario run computes its metrics against the ground truth.
    # The same holds for the files of a run with every output and baseline,
    # and for a benchmark sweep
    code = textwrap.dedent("""
        import sys, tempfile
        from pathlib import Path
        import numpy as np
        import tacholess
        from tacholess import InputConfig, OutputConfig, RpmGrid, RunConfig, ScenarioSpec, Signal

        grid = RpmGrid.from_step(1200.0, 1800.0, 1.0)

        def scipy_loaded(step):
            print(step, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))

        scipy_loaded("import")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.wav"
            tacholess.save_signal(Signal(np.linspace(-0.5, 0.5, 64), 12800.0), path)
            tacholess.load_signal(path)
            scipy_loaded("wav")
            tone = 0.5 * np.sin(2 * np.pi * 25.0 * np.arange(8192 + 3 * 128) / 12800.0)
            tacholess.save_signal(Signal(tone, 12800.0), path)
            tacholess.analyze(RunConfig(scenario=None, input=InputConfig(path=str(path)),
                                        grid=grid))
        scipy_loaded("file analyze")
        print("numpy.ma", "numpy.ma" in sys.modules)
        scenario = ScenarioSpec(scenario="S0", duration_s=0.8, seed=1)
        tacholess.analyze(RunConfig(scenario=scenario, grid=grid))
        scipy_loaded("analyze")
        print("numpy.ma", "numpy.ma" in sys.modules)
        with tempfile.TemporaryDirectory() as tmp:
            tacholess.run_pipeline(
                RunConfig(scenario=scenario, grid=grid, baselines=tacholess.pipeline.BASELINE_IDS,
                          output=OutputConfig(dump_posteriors=True, plot=True)), tmp)
            scipy_loaded("run_pipeline")
            print("numpy.ma", "numpy.ma" in sys.modules)
            tacholess.run_benchmark(RunConfig(scenario=scenario, grid=grid), ["S0"], [1], tmp)
        scipy_loaded("run_benchmark")
        print("numpy.ma", "numpy.ma" in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout == ("import []\nwav []\nfile analyze []\nnumpy.ma False\n"
                          "analyze []\nnumpy.ma False\nrun_pipeline []\nnumpy.ma False\n"
                          "run_benchmark []\nnumpy.ma False\n")


def test_importing_the_package_loads_no_multiprocessing():
    # multiprocessing and concurrent.futures.process were about 9 of the 35 ms
    # that importing the pipeline took; only run_benchmark with jobs > 1 needs them
    code = ("import sys, tacholess; print(sorted(m for m in sys.modules if m.startswith("
            "('multiprocessing', 'concurrent.futures.process'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout == "[]\n"


def test_star_import_gives_every_exported_name():
    # a stale __all__ entry makes the star import itself raise AttributeError
    namespace = {}
    exec("from tacholess import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(tacholess.__all__)


def test_errors_on_either_side_surface_from_analyze(monkeypatch):
    threads = threading.active_count()
    # evidence side: no lag maps into the grid (see the test above)
    cfg = RunConfig(scenario=ScenarioSpec(scenario="S0", duration_s=1.0, sample_rate_hz=1000.0,
                                          base_rpm=2925.0, seed=1),
                    framing=FramingConfig(frame_len=256, hop=128),
                    grid=RpmGrid.from_step(2900.0, 2950.0, 1.0))
    with pytest.raises(ValueError, match="curve 'yin' disjoint from grid"):
        analyze(cfg)
    assert threading.active_count() == threads

    # the chunk that starts at frame 33 fails on the evidence side, then
    # arrives at the tracker with a NaN in its first row; chunks may be
    # computed out of order and on either thread
    tracked_on = []
    real_setup, real_track = pipeline._chunk_evidence, pipeline.track

    def recorded_track(*args, **kwargs):
        tracked_on.append(threading.get_ident())
        return real_track(*args, **kwargs)

    def at_frame_33(change):
        def setup(*args):
            evidence = real_setup(*args)

            def chunk(k):
                rows, picks = evidence(k)
                return (change(rows) if k * pipeline.CHUNK_FRAMES + 1 == 33 else rows), picks
            return chunk
        return setup

    def fail(rows):
        raise ValueError("evidence failed at frame 33")

    def spoil(rows):
        rows[0, 5] = np.nan
        return rows

    monkeypatch.setattr(pipeline, "track", recorded_track)
    short = short_cfg(scenario=ScenarioSpec(scenario="S0", duration_s=1.5, seed=1))
    for change, message in ((fail, "evidence failed at frame 33"),
                            (spoil, "frame 33 log-likelihood has non-finite values")):
        monkeypatch.setattr(pipeline, "_chunk_evidence", at_frame_33(change))
        with pytest.raises(ValueError, match=message):
            analyze(short)
        assert threading.active_count() == threads
    assert len(tracked_on) == 2
    assert threading.get_ident() not in tracked_on  # the tracker runs on the worker


def test_the_worker_computes_chunks_while_the_calling_thread_lags(monkeypatch):
    # the calling thread's evidence sleeps, so the worker finds its next chunk
    # not ready and computes chunks itself; results stay those of one thread
    threads = threading.active_count()
    caller = threading.get_ident()
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S3", duration_s=1.5, seed=2),
                    baselines=pipeline.BASELINE_IDS)
    signal, _ = tacholess.synthesize(cfg.scenario, rpm_bounds=(cfg.grid.r_min, cfg.grid.r_max))
    frames = tacholess.frame_signal(signal, cfg.framing)
    times = tacholess.frame_times(signal, cfg.framing)
    chunks = list(pipeline.evidence_chunks(frames, signal.sample_rate_hz, cfg))
    fused = np.concatenate([rows for rows, _ in chunks])
    posteriors = []
    tracked = tacholess.track(fused, cfg.grid, cfg.tracker, times, posteriors.append)
    rpm = {name: np.concatenate([picks[name] for _, picks in chunks])
           for name in pipeline.ESTIMATOR_IDS}
    rpm["framewise"] = tacholess.framewise_trajectory(fused, cfg.grid)
    rpm["viterbi_stft"] = tacholess.viterbi_stft(
        np.concatenate([parts["viterbi_stft"] for _, parts in chunks]),
        cfg.viterbi.transition_penalty_per_rpm)

    real_yin = tacholess.estimators.yin_curve

    def slow_yin(*args):
        if threading.get_ident() == caller:
            time.sleep(0.05)
        return real_yin(*args)

    lock = threading.Lock()
    computing, computed, handed = [], [], []
    seen = []  # per chunk: (thread, chunks computing, chunks started but not handed over)
    real_setup, real_track = pipeline._chunk_evidence, pipeline.track

    def setup(*args):
        evidence = real_setup(*args)

        def chunk(k):
            with lock:
                computing.append(k)
                computed.append(k)
                seen.append((threading.get_ident(), len(computing), len(computed) - len(handed)))
            try:
                return evidence(k)
            finally:
                with lock:
                    computing.remove(k)
        return chunk

    def counted_track(blocks, *args, **kwargs):
        def received():
            for rows in blocks:
                with lock:
                    handed.append(len(rows))
                yield rows
        return real_track(received(), *args, **kwargs)

    monkeypatch.setattr(tacholess.estimators, "yin_curve", slow_yin)
    monkeypatch.setattr(pipeline, "_chunk_evidence", setup)
    monkeypatch.setattr(pipeline, "track", counted_track)
    rows = []
    result = analyze(cfg, posterior_sink=rows.append)

    assert threading.active_count() == threads
    assert len(chunks) == 6 and sorted(computed) == list(range(6))  # each chunk once
    assert handed == [len(rows) for rows, _ in chunks]
    assert any(thread != caller for thread, _, _ in seen)
    assert max(n for _, n, _ in seen) <= 2
    assert max(n for _, _, n in seen) <= pipeline.MAX_UNHANDED
    assert np.array_equal(result.tracked, tracked)
    for a, b in zip(rows, posteriors, strict=True):
        assert np.array_equal(a, b)
    assert set(result.baselines) == set(rpm)
    for name, values in rpm.items():
        assert np.array_equal(result.baselines[name].rpm, values), name


def test_a_run_raises_the_error_of_its_earliest_failing_chunk():
    # chunk 0 fails late and chunk 1 at once, each on whichever thread claims it
    threads = threading.active_count()
    computed = []

    def compute(k):
        computed.append(k)
        if k == 0:
            time.sleep(0.3)
        if k < 2:
            raise ValueError(f"chunk {k} failed")
        return k

    with pytest.raises(ValueError, match="chunk 0 failed"):
        pipeline._track_while_computing(6, compute, list)
    assert threading.active_count() == threads
    assert sorted(computed) == [0, 1]  # no chunk is claimed after a failure


def test_a_chunk_that_fails_while_the_worker_waits_for_it_is_raised():
    # each thread claims one of two chunks; the calling thread's fails late,
    # after the worker has handed over its own and waits for this one. The
    # run is on a thread of its own, with a time limit
    caller, outcome = [], []

    def compute(k):
        if threading.get_ident() != caller[0]:
            time.sleep(0.1)
            return k
        time.sleep(0.3)
        raise ValueError(f"chunk {k} failed")

    def run():
        caller.append(threading.get_ident())
        try:
            pipeline._track_while_computing(2, compute, list)
        except BaseException as exc:
            outcome.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "the run hangs"
    assert len(outcome) == 1 and str(outcome[0]) in ("chunk 0 failed", "chunk 1 failed"), outcome


def test_an_interrupt_on_the_calling_thread_stops_both_threads():
    threads = threading.active_count()
    caller = threading.get_ident()
    computed = []

    def compute(k):
        computed.append(k)
        time.sleep(0.01)
        if k >= 2 and threading.get_ident() == caller:
            raise KeyboardInterrupt
        return k

    with pytest.raises(KeyboardInterrupt):
        pipeline._track_while_computing(200, compute, list)
    assert threading.active_count() == threads
    assert len(computed) < 20  # of 200


def test_each_chunk_is_computed_once_and_handed_over_in_order_under_fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_chunks in (1, 2, 5, 200):
            computed = []

            def compute(k):
                computed.append(k)
                return k

            assert pipeline._track_while_computing(n_chunks, compute, list) == list(range(n_chunks))
            assert sorted(computed) == list(range(n_chunks))
    finally:
        sys.setswitchinterval(interval)


def test_the_worker_runs_in_the_callers_numpy_error_state():
    # chunks computed on the worker warn or raise as the caller asked
    def consume(chunks):
        return list(chunks), np.geterr()["over"], threading.get_ident()

    with np.errstate(over="raise"):
        chunks, over, thread = pipeline._track_while_computing(2, lambda k: k, consume)
    assert chunks == [0, 1] and over == "raise" and thread != threading.get_ident()


@pytest.mark.parametrize("dump_posteriors, bound", [(False, 0.5), (True, 1.5)])
def test_analyze_holds_no_recording_sized_array(dump_posteriors, bound):
    # the posterior rows are T x G x 8 bytes themselves; a sink that keeps them
    # reads about 1.3 of it at the peak, and a second stacked copy would read
    # >= 2. With the rows dropped, analyze stays under half the fused array
    cfg = RunConfig(scenario=ScenarioSpec(scenario="S1", duration_s=20.0, seed=1))
    kept = []
    tracemalloc.start()
    try:
        result = analyze(cfg, posterior_sink=kept.append if dump_posteriors else lambda row: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    fused_bytes = len(result.tracked) * cfg.grid.n_points * 8
    assert len(result.tracked) == 1937
    assert peak < bound * fused_bytes, (peak, fused_bytes)
    assert len(kept) == (len(result.tracked) if dump_posteriors else 0)


def test_run_pipeline_streams_the_posteriors_instead_of_holding_them(monkeypatch, tmp_path):
    # the 437 x 3701 posterior rows are 12.9 MB; held in memory until written
    # they raised the peak to 2.6 times that of the same run without them.
    # Chunks and tracker run in order on this thread, where the peak does not
    # depend on how two threads interleave, after a run that fills the caches
    monkeypatch.setattr(pipeline, "_track_while_computing",
                        lambda n_chunks, compute, consume: consume(map(compute, range(n_chunks))))
    cfgs = {dump: RunConfig(scenario=ScenarioSpec(scenario="S1", duration_s=5.0, seed=1),
                            output=OutputConfig(dump_posteriors=dump))
            for dump in (False, True)}
    run_pipeline(cfgs[True], tmp_path / "warm")
    peaks = {}
    for dump, cfg in cfgs.items():
        tracemalloc.start()
        try:
            result = run_pipeline(cfg, tmp_path / str(dump))
            peaks[dump] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.tracked) == 437
    assert (tmp_path / "True" / "posteriors.csv").read_bytes() == (
        tmp_path / "warm" / "posteriors.csv").read_bytes()
    assert peaks[True] <= 1.1 * peaks[False], peaks


def test_a_failed_run_leaves_no_posteriors_behind(monkeypatch, tmp_path):
    # chunk 2 fails on whichever thread computes it: run_pipeline raises what
    # analyze raises and writes no posteriors.csv
    real_setup = pipeline._chunk_evidence

    def setup(*args):
        evidence = real_setup(*args)

        def chunk(k):
            if k == 2:
                raise ValueError("evidence failed in chunk 2")
            return evidence(k)
        return chunk

    monkeypatch.setattr(pipeline, "_chunk_evidence", setup)
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S0", duration_s=1.5, seed=1),
                    output=OutputConfig(dump_posteriors=True))
    with pytest.raises(ValueError) as in_memory:
        analyze(cfg)
    with pytest.raises(ValueError) as written:
        run_pipeline(cfg, tmp_path / "run")
    assert str(written.value) == str(in_memory.value) == "evidence failed in chunk 2"
    assert not (tmp_path / "run").exists()  # made by the run, and left empty


def posterior_cfg(n_frames):
    # frame_len 8192, hop 128 at 12800 Hz: 437 frames is 5 s
    return short_cfg(scenario=ScenarioSpec(scenario="S0", seed=1,
                                           duration_s=(8192 + 128 * (n_frames - 1)) / 12800.0),
                     output=OutputConfig(dump_posteriors=True))


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
@pytest.mark.parametrize("n_frames", [2, 3, 17, 437])
def test_split_posteriors_equal_the_oracle(tmp_path, monkeypatch, n_frames, n_cpus):
    # fewer rows than a chunk, one more than a chunk, and a 5 s clip, whose
    # rows the writer formats as they reach its pipe. However many CPUs the
    # process may run on, one writer is started
    writers = []
    real_popen = subprocess.Popen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
    monkeypatch.setattr(subprocess, "Popen",
                        lambda *a, **kw: writers.append(real_popen(*a, **kw)) or writers[-1])
    cfg = posterior_cfg(n_frames)
    result = run_pipeline(cfg, tmp_path / "run")
    assert len(result.tracked) == n_frames
    assert len(writers) == 1 and writers[0].returncode == 0
    assert_no_child_process()
    rows = []
    naive_write_tables(analyze(cfg, posterior_sink=rows.append), tmp_path / "oracle", rows)
    assert ((tmp_path / "run" / "posteriors.csv").read_bytes()
            == (tmp_path / "oracle" / "posteriors.csv").read_bytes())


def test_the_posterior_writer_runs_on_the_standard_library_alone(tmp_path):
    # the writer file runs as the pipeline runs it, isolated and without site:
    # it formats the rows its stdin carries, whole rows from pieces that split
    # them, and imports neither os, numpy nor the package
    rows = np.array([[1200.0, 1200.5, 1201.0], [0.25, 0.5, 0.25], [-0.0, 5e-324, np.inf]])
    data = rows.tobytes()
    with open(tmp_path / "posteriors.csv", "wb") as table:
        writer = subprocess.Popen(
            [sys.executable, "-I", "-S", "-X", "importtime",
             str(Path(pipeline.__file__).with_name("posterior_writer.py")), "3"],
            stdin=subprocess.PIPE, stdout=table, stderr=subprocess.PIPE)
        for piece in (data[:5], data[5:24]):
            writer.stdin.write(piece)
            writer.stdin.flush()
            time.sleep(0.05)
        stderr = writer.communicate(data[24:])[1].decode()
    assert writer.returncode == 0
    imported = {line.rsplit("|", 1)[1].strip() for line in stderr.splitlines()}
    assert {"array"} <= imported and not {"os", "numpy", "tacholess", "site"} & imported
    assert (tmp_path / "posteriors.csv").read_bytes() == (
        b"1200,1200.5,1201\n0.25,0.5,0.25\n-0,4.94065646e-324,inf\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_a_dumping_run_opens_nothing_in_its_directory_but_posteriors_csv(tmp_path, monkeypatch):
    # an unnamed file in the output directory is absent from its listing and
    # shows among the open descriptors as "<dir>/#<inode> (deleted)"; at row
    # 10 of 40, the only file of the directory that the run holds open is
    # posteriors.csv
    out = Path(os.path.realpath(tmp_path)) / "run"
    real_analyze = pipeline.analyze
    opened = []

    def analyze(cfg, posterior_sink=None):
        def sink(row):
            posterior_sink(row)
            if next(rows) == 10:
                for fd in os.listdir("/proc/self/fd"):
                    with contextlib.suppress(OSError):  # a descriptor closed since the listing
                        opened.append(os.readlink(f"/proc/self/fd/{fd}"))

        rows = itertools.count(1)
        return real_analyze(cfg, posterior_sink=sink)

    monkeypatch.setattr(pipeline, "analyze", analyze)
    assert len(run_pipeline(posterior_cfg(40), out).tracked) == 40
    assert [p for p in opened if p.startswith(f"{out}/")] == [str(out / "posteriors.csv")]


def test_a_failing_posterior_writer_child_fails_the_run(tmp_path, monkeypatch):
    # the writer is killed as soon as it starts, as a writer that fails while
    # it formats would exit: the tracker's rows find its pipe closed, and the
    # run raises the child's exit code once the other outputs are written. No
    # child is left and posteriors.csv is removed
    def killed_at_start(*args, **kwargs):
        child = real_popen(*args, **kwargs)
        child.send_signal(signal.SIGTERM)
        return child

    real_popen = subprocess.Popen
    monkeypatch.setattr(subprocess, "Popen", killed_at_start)
    with pytest.raises(RuntimeError,
                       match=rf"^posteriors.csv: the writer exited with code {-signal.SIGTERM}$"):
        run_pipeline(posterior_cfg(40), tmp_path)
    assert_no_child_process()
    assert not (tmp_path / "posteriors.csv").exists()
    assert (tmp_path / "trajectory.csv").exists()


def test_a_posteriors_path_that_cannot_be_written_fails_before_analysis(tmp_path, monkeypatch,
                                                                         capsys):
    # posteriors.csv is a directory: the run opens it before the analysis and
    # fails there, with no child started and nothing written;
    # the command line prints one error line and exits 2
    def no_analysis(*args, **kwargs):
        raise AssertionError("analyze ran before posteriors.csv was opened")

    monkeypatch.setattr(pipeline, "analyze", no_analysis)
    monkeypatch.setattr(subprocess, "Popen", no_analysis)
    (tmp_path / "posteriors.csv").mkdir()
    with pytest.raises(IsADirectoryError):
        run_pipeline(posterior_cfg(40), tmp_path)
    assert main(["run", "--out", str(tmp_path), "--duration", "0.8", "--dump-posteriors"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "posteriors.csv" in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["posteriors.csv"]
    assert list((tmp_path / "posteriors.csv").iterdir()) == []


def test_an_interrupt_while_writing_posteriors_stops_the_children(tmp_path, monkeypatch):
    # an interrupt on the calling thread from chunk 5 on, while the writer
    # formats the rows of the chunks before it: the writer is killed, not
    # waited for, and its posteriors.csv removed
    real_setup = pipeline._chunk_evidence

    def setup(*args):
        evidence = real_setup(*args)

        def chunk(k):
            if k >= 5 and threading.current_thread() is threading.main_thread():
                raise KeyboardInterrupt
            return evidence(k)
        return chunk

    writers = []
    real_popen = subprocess.Popen
    monkeypatch.setattr(pipeline, "_chunk_evidence", setup)
    monkeypatch.setattr(subprocess, "Popen",
                        lambda *a, **kw: writers.append(real_popen(*a, **kw)) or writers[-1])
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_pipeline(posterior_cfg(437), tmp_path)
    assert time.perf_counter() - start < 30.0
    assert len(writers) == 1 and writers[0].returncode == -signal.SIGKILL
    assert_no_child_process()
    assert not (tmp_path / "posteriors.csv").exists()


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert set(ast.literal_eval(printed[0])) == {"rmse", "p95", "jitter", "max_jump"}
    assert 1400.0 < float(printed[1]) < 1600.0


def test_readme_lower_level_names_are_exported():
    assert [n for n in tacholess.__all__ if not hasattr(tacholess, n)] == []
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = re.search(r"^Lower-level pieces.*?\n\n", readme, flags=re.S | re.M).group(0)
    names = set()
    for span in re.findall(r"`([^`]+)`", paragraph):
        names.update([span] if span.isidentifier() else re.findall(r"(\w+)\(", span))
    assert {"kernel_scatter", "aligned_loglik", "pool_logliks", "track"} <= names
    assert names - set(tacholess.__all__) == set()


def test_run_pipeline_writes_expected_files(tmp_path):
    cfg = short_cfg(baselines=("framewise", "viterbi_stft"))
    result = run_pipeline(cfg, tmp_path)
    assert (tmp_path / "trajectory.csv").exists()
    assert (tmp_path / "baseline_framewise.csv").exists()
    assert (tmp_path / "baseline_viterbi_stft.csv").exists()
    assert (tmp_path / "ground_truth.csv").exists()
    assert (tmp_path / "metrics.json").exists()
    assert (tmp_path / "config.json").exists()
    rows = read_csv(tmp_path / "trajectory.csv")
    assert rows[0] == ["frame_index", "time_s", "map_rpm", "mmse_rpm",
                       "sigma_rpm", "entropy_nats"]
    assert len(rows) == 1 + len(result.times_s)
    assert float(rows[1][3]) == pytest.approx(result.tracked[0].mmse_rpm, rel=1e-6)
    saved_cfg = RunConfig.from_json((tmp_path / "config.json").read_text())
    assert saved_cfg == cfg


def test_posterior_dump_schema(tmp_path):
    from tacholess.pipeline import OutputConfig
    cfg = short_cfg(output=OutputConfig(dump_posteriors=True, plot=True))
    result = run_pipeline(cfg, tmp_path)
    rows = read_csv(tmp_path / "posteriors.csv")
    assert len(rows) == 1 + len(result.times_s)
    assert len(rows[0]) == cfg.grid.n_points  # header row carries the grid
    assert float(rows[0][0]) == 1200.0
    for row in rows[1:]:
        total = sum(float(v) for v in row)
        assert total == pytest.approx(1.0, abs=1e-4)
    svg = (tmp_path / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_output_tables_equal_the_csv_writer_rendering(tmp_path):
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S5", duration_s=1.0, jump_time_s=0.5, seed=2),
                    grid=RpmGrid.from_step(1200.0, 2400.0, 1.0), baselines=pipeline.BASELINE_IDS,
                    output=OutputConfig(dump_posteriors=True, plot=True))
    # run_pipeline pipes the posterior rows to its writer process; the
    # oracle renders those that the in-memory analyze hands to a list
    run_pipeline(cfg, tmp_path / "run")
    rows = []
    naive_write_tables(analyze(cfg, posterior_sink=rows.append), tmp_path / "oracle", rows)
    names = sorted(p.name for p in (tmp_path / "oracle").iterdir())
    assert names == sorted(["trajectory.csv", "ground_truth.csv", "posteriors.csv",
                            *(f"baseline_{b}.csv" for b in pipeline.BASELINE_IDS)])
    assert sorted(p.name for p in (tmp_path / "run").glob("*.csv")) == names
    for name in names:
        fast = (tmp_path / "run" / name).read_bytes()
        assert fast == (tmp_path / "oracle" / name).read_bytes(), name
    (tmp_path / "config.json").write_text(cfg.to_json())
    assert main(["synth", "--config", str(tmp_path / "config.json"), "--scenario", "S5",
                 "--seed", "2", "--out", str(tmp_path / "synth")]) == 0
    assert ((tmp_path / "synth" / "ground_truth_S5_seed2.csv").read_bytes()
            == (tmp_path / "run" / "ground_truth.csv").read_bytes())


# -0, the smallest subnormal, a subnormal, the smallest normal, 10 digits, 1e22, nan, inf
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1234567891.0, 1e22,
               float("nan"), float("inf")]


def test_write_table_matches_csv_writer_on_edge_values(tmp_path):
    rows = [["S1", 7, *EDGE_FLOATS], ["mean", -3, *(-x for x in EDGE_FLOATS)]]
    header = ["name", "n"] + [f"x{i}" for i in range(len(EDGE_FLOATS))]
    formats = ["%s", "%d"] + ["%.9g"] * len(EDGE_FLOATS)
    pipeline.write_table(tmp_path / "fast.csv", header, formats,
                         [[name.encode(), *rest] for name, *rest in rows])
    csv_writer_table(tmp_path / "naive.csv", header, rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "naive.csv").read_bytes()
    pipeline.write_table(tmp_path / "plain.csv", None, ["%.9g"] * len(EDGE_FLOATS),
                         [EDGE_FLOATS])
    expected = ",".join(f"{x:.9g}" for x in EDGE_FLOATS) + "\r\n"
    assert (tmp_path / "plain.csv").read_bytes() == expected.encode()
    assert expected == ("0,-0,4.94065646e-324,1e-310,2.22507386e-308,1,1.23456789e+09,1e+22,"
                        "nan,inf\r\n")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2**63, 2**63), st.floats(), st.floats(width=32)),
                min_size=1, max_size=5))
def test_write_table_matches_csv_writer_on_any_numbers(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("table")
    pipeline.write_table(tmp / "fast.csv", ["i", "x", "y"], ["%d", "%.9g", "%.9g"], rows)
    csv_writer_table(tmp / "naive.csv", ["i", "x", "y"], rows)
    assert (tmp / "fast.csv").read_bytes() == (tmp / "naive.csv").read_bytes()


def test_benchmark_table_layout(tmp_path):
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S0", duration_s=1.0, seed=1))
    table = run_benchmark(cfg, ["S0"], [1, 2], tmp_path)
    methods = ["yin", "cepstrum", "comb", "framewise", "viterbi_stft", "tracked"]
    keys = ["rmse", "p95", "jitter", "max_jump"]
    assert set(table) == {"S0"}
    assert list(table["S0"]) == methods
    assert all(list(table["S0"][m]) == keys for m in methods)
    wide = read_csv(tmp_path / "benchmark.csv")
    assert wide[0] == ["method", "S0_rmse", "S0_p95"]
    assert [r[0] for r in wide[1:]] == methods
    runs = read_csv(tmp_path / "benchmark_runs.csv")
    assert runs[0] == ["scenario", "seed", "method", *keys]
    assert len(runs) == 1 + 2 * len(methods)
    for m in methods:  # the returned means are those of the per-run rows
        for j, k in enumerate(keys):
            per_run = [float(r[3 + j]) for r in runs[1:] if r[2] == m]
            assert table["S0"][m][k] == pytest.approx(np.mean(per_run), rel=1e-8)
    assert (tmp_path / "benchmark.txt").read_text().count("\n") == 3 + len(methods)


def test_benchmark_is_deterministic(tmp_path, monkeypatch):
    # the pool's workers are spawned: this process runs other threads (numpy's
    # BLAS, pytest's watchdog), which a fork would copy mid-lock
    def no_fork():
        raise AssertionError("run_benchmark forked")

    cfg = short_cfg(scenario=ScenarioSpec(scenario="S1", duration_s=1.0, seed=1))
    run_benchmark(cfg, ["S1"], [1, 2], tmp_path / "a")
    monkeypatch.setattr(os, "fork", no_fork)
    run_benchmark(cfg, ["S1"], [1, 2], tmp_path / "b", jobs=2)  # each pool worker runs analyze
    for name in ("benchmark.csv", "benchmark_runs.csv", "benchmark.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_benchmark_runs_a_repeated_scenario_or_seed_once(tmp_path):
    # repeats used to run twice and give benchmark.csv two equal S1_* column pairs
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S1", duration_s=1.0, seed=1))
    once = run_benchmark(cfg, ["S1"], [1], tmp_path / "once")
    assert run_benchmark(cfg, ["S1", "S1"], [1, 1], tmp_path / "twice") == once
    for name in ("benchmark.csv", "benchmark_runs.csv", "benchmark.txt"):
        assert ((tmp_path / "once" / name).read_bytes()
                == (tmp_path / "twice" / name).read_bytes()), name


def test_benchmark_refuses_an_empty_sweep(tmp_path, capsys):
    # an empty sweep has nothing to average: no tables, no output directory
    cfg = short_cfg()
    for scenarios, seeds in ((["S0"], []), ([], [1])):
        with pytest.raises(ValueError, match="need at least one scenario and one seed"):
            run_benchmark(cfg, scenarios, seeds, tmp_path / "empty")
    assert main(["benchmark", "--out", str(tmp_path / "empty"), "--scenarios", ","]) == 2
    assert "need at least one scenario and one seed" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


def test_benchmark_checks_every_run_before_the_first(tmp_path, capsys, monkeypatch):
    # S5's jump at 2.5 s lies beyond a 1 s clip: refused before any analysis,
    # with no output directory, whichever scenarios come first
    def no_analysis(*args, **kwargs):
        raise AssertionError("a run started before every run's config was checked")

    monkeypatch.setattr(pipeline, "analyze", no_analysis)
    cfg = short_cfg(scenario=ScenarioSpec(duration_s=1.0))
    with pytest.raises(ValueError, match="jump_time_s"):
        run_benchmark(cfg, ["S0", "S1", "S2", "S3", "S4", "S5"], [1, 2, 3], tmp_path / "bench")
    assert main(["benchmark", "--out", str(tmp_path / "bench"), "--scenarios", "S0,S1,S2,S3,S4,S5",
                 "--seeds", "1..3", "--duration", "1.0"]) == 2
    assert "jump_time_s" in capsys.readouterr().err
    assert main(["benchmark", "--out", str(tmp_path / "bench"), "--scenarios", "S0,S7",
                 "--seeds", "1"]) == 2
    assert "unknown scenario 'S7'" in capsys.readouterr().err
    assert not (tmp_path / "bench").exists()


def test_benchmark_rows_follow_the_order_given(tmp_path):
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S0", duration_s=0.7, seed=1))
    run_benchmark(cfg, ["S1", "S0"], [2, 1], tmp_path)
    runs = read_csv(tmp_path / "benchmark_runs.csv")[1:]
    assert list(dict.fromkeys((r[0], r[1]) for r in runs)) == [
        ("S1", "2"), ("S1", "1"), ("S0", "2"), ("S0", "1")]
    assert read_csv(tmp_path / "benchmark.csv")[0] == ["method", "S1_rmse", "S1_p95",
                                                       "S0_rmse", "S0_p95"]


def test_benchmark_rows_match_analyze_with_framewise_only(tmp_path):
    # the sweep asks for every baseline; that must not move the tracked or the
    # framewise numbers, which are the paper's ablation
    cfg = short_cfg(scenario=ScenarioSpec(scenario="S0", duration_s=1.0, seed=1))
    run_benchmark(cfg, ["S0"], [1], tmp_path)
    rows = {r[2]: r[3:] for r in read_csv(tmp_path / "benchmark_runs.csv")[1:]}
    metrics = analyze(replace(cfg, baselines=("framewise",))).metrics
    for method in ("tracked", "framewise"):
        expected = [f"{metrics[method][k]:.9g}" for k in ("rmse", "p95", "jitter", "max_jump")]
        assert rows[method] == expected


def test_input_file_run_has_no_reference(tmp_path):
    from tacholess import save_signal, synthesize
    sig, _ = synthesize(ScenarioSpec(scenario="S0", duration_s=0.8, seed=1))
    path = tmp_path / "sig.csv"
    save_signal(sig, path)
    cfg = RunConfig(scenario=None,
                    input=InputConfig(path=str(path), sample_rate_hz=12800.0),
                    grid=RpmGrid.from_step(1200.0, 1800.0, 1.0))
    result = analyze(cfg)
    assert result.reference is None
    assert set(result.metrics["tracked"]) == {"jitter", "max_jump"}
    assert abs(result.tracked[-1].mmse_rpm - 1500.0) < 25.0


# -- command line ------------------------------------------------------------


def test_cli_parse_helpers():
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("1..4") == [1, 2, 3, 4]
    with pytest.raises(ValueError, match="empty seed range"):
        _parse_seeds("5..2")
    assert _parse_grid("300:4000:1") == {"r_min": 300.0, "r_max": 4000.0, "step_rpm": 1.0}
    with pytest.raises(ValueError, match="min:max:step"):
        _parse_grid("300:4000")


def test_cli_run_scenario(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["run", "--out", str(out), "--scenario", "S0", "--seed", "1",
                 "--duration", "0.8", "--grid", "1200:1800:1"])
    assert code == 0
    assert (out / "metrics.json").exists()
    text = capsys.readouterr().out
    assert "analyzed 17 frames" in text
    assert "tracked" in text


def test_cli_synth_then_run_wav(tmp_path, capsys):
    gen = tmp_path / "gen"
    code = main(["synth", "--out", str(gen), "--scenario", "S0", "--seed", "3",
                 "--duration", "0.8"])
    assert code == 0
    wav = gen / "signal_S0_seed3.wav"
    assert wav.exists()
    assert (gen / "ground_truth_S0_seed3.csv").exists()
    spec = json.loads((gen / "scenario_S0_seed3.json").read_text())
    assert spec["scenario"] == "S0" and spec["seed"] == 3

    out = tmp_path / "run"
    code = main(["run", "--out", str(out), "--input", str(wav),
                 "--grid", "1200:1800:1", "--baselines", "framewise"])
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["has_reference"] is False
    assert set(metrics["methods"]) == {"tracked", "framewise"}
    capsys.readouterr()
    # a rate other than the header's is refused, not recorded in config.json
    assert main(["run", "--out", str(tmp_path / "other"), "--input", str(wav),
                 "--sample-rate", "8000", "--grid", "1200:1800:1"]) == 2
    assert "differs from the WAV header's 12800.0 Hz" in capsys.readouterr().err
    assert not (tmp_path / "other").exists()


def test_cli_synth_csv_format(tmp_path):
    gen = tmp_path / "gen"
    assert main(["synth", "--out", str(gen), "--scenario", "S2", "--seed", "1",
                 "--duration", "0.7", "--format", "csv"]) == 0
    csv_path = gen / "signal_S2_seed1.csv"
    assert csv_path.exists()
    out = tmp_path / "run"
    assert main(["run", "--out", str(out), "--input", str(csv_path),
                 "--sample-rate", "12800", "--grid", "1200:1800:1"]) == 0
    # the file's "# sample_rate_hz=12800.0" line gives the rate
    assert main(["run", "--out", str(tmp_path / "read"), "--input", str(csv_path),
                 "--grid", "1200:1800:1"]) == 0
    assert ((tmp_path / "read" / "trajectory.csv").read_bytes()
            == (out / "trajectory.csv").read_bytes())


def test_cli_benchmark(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["benchmark", "--out", str(out), "--scenarios", "S0",
                 "--seeds", "1..2", "--duration", "1.0", "--grid", "1200:1800:1"])
    assert code == 0
    assert (out / "benchmark.txt").exists()
    printed = capsys.readouterr().out
    for method in ("yin", "cepstrum", "comb", "framewise", "viterbi_stft", "tracked"):
        assert method in printed


def test_run_refuses_an_out_path_that_is_a_file_before_analyzing(tmp_path, capsys, monkeypatch):
    def no_analysis(*args, **kwargs):
        raise AssertionError("analyze ran before the output directory was made")

    monkeypatch.setattr(pipeline, "analyze", no_analysis)
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for flags in ([], ["--dump-posteriors"]):
        assert main(["run", "--out", str(a_file), "--duration", "0.8", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err


def test_each_dotted_flag_names_a_config_key():
    # a flag whose dest is section.key sets that key of that section
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    dests = {a.dest for p in commands.values() for a in p._actions if "." in a.dest}
    assert len(dests) == 10
    for dest in dests:
        section, key = dest.split(".")
        assert key in inspect.signature(pipeline._SECTIONS[section]).parameters, dest
    args = parser.parse_args(["run", "--out", "o", "--input", "x.csv", "--format", "csv",
                              "--sample-rate", "100", "--frame", "64", "--hop", "8",
                              "--dump-posteriors", "--plot"])
    cfg = _config(args)
    assert cfg.scenario is None and cfg.input == InputConfig("x.csv", "csv", 100.0)
    assert cfg.framing == FramingConfig(frame_len=64, hop=8)
    assert cfg.output == OutputConfig(dump_posteriors=True, plot=True)
    args = parser.parse_args(["synth", "--out", "o", "--scenario", "S4", "--seed", "3",
                              "--duration", "2.5"])
    assert _config(args).scenario == ScenarioSpec(scenario="S4", seed=3, duration_s=2.5)


def test_cli_errors_exit_2(tmp_path, capsys):
    code = main(["run", "--out", str(tmp_path / "x"), "--scenario", "S5",
                 "--duration", "0.5"])
    assert code == 2  # jump time outside the shortened duration
    assert "error:" in capsys.readouterr().err
    code = main(["run", "--out", str(tmp_path / "y"), "--input",
                 str(tmp_path / "missing.wav")])
    assert code == 2
    code = main(["benchmark", "--out", str(tmp_path / "z"), "--scenarios", "S7",
                 "--seeds", "1"])
    assert code == 2
    for jobs in ("0", "-1"):
        code = main(["benchmark", "--out", str(tmp_path / "z"), "--scenarios", "S0",
                     "--seeds", "1", "--jobs", jobs])
        assert code == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
    code = main(["run", "--out", str(tmp_path / "w"), "--scenario", "S0",
                 "--duration", "0.8", "--baselines", "bogus"])
    assert code == 2
    capsys.readouterr()
    cfg_path = tmp_path / "odd_rate.json"
    cfg_path.write_text(RunConfig(scenario=ScenarioSpec(sample_rate_hz=12800.5)).to_json())
    code = main(["synth", "--out", str(tmp_path / "v"), "--config", str(cfg_path),
                 "--duration", "0.8", "--format", "wav"])
    assert code == 2
    assert "integer sample rate" in capsys.readouterr().err
    # JSON's Infinity parses to a float; it used to overflow in synthesize
    cfg_path = tmp_path / "endless.json"
    cfg_path.write_text(RunConfig().to_json().replace('"duration_s": 5.0', '"duration_s": Infinity'))
    code = main(["synth", "--out", str(tmp_path / "u"), "--config", str(cfg_path)])
    assert code == 2
    assert "duration_s must be positive and finite" in capsys.readouterr().err
    for name, value in (("alpha", float("inf")), ("snr_db", -float("inf"))):
        d = RunConfig().to_dict()
        d["scenario"][name] = value
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(d))
        code = main(["synth", "--out", str(tmp_path / "t"), "--config", str(cfg_path)])
        assert code == 2
        assert f"{name} must be finite" in capsys.readouterr().err
    for grid, name in (("300:inf:1", "r_max"), ("nan:4000:1", "r_min"),
                       ("300:4000:nan", "step_rpm")):
        assert main(["run", "--out", str(tmp_path / "g"), "--grid", grid]) == 2
        assert f"grid.{name} must be finite" in capsys.readouterr().err
    # a path that cannot be read or written is an error message, not a traceback
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    for argv, message in (
            (["run", "--out", str(a_file), "--duration", "0.8", "--grid", "1200:1800:1"],
             "File exists"),
            (["run", "--out", str(tmp_path / "s"), "--config", str(tmp_path)], "Is a directory"),
            (["synth", "--out", str(a_file / "sub"), "--duration", "0.8"], "Not a directory")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    # S4's per-harmonic detuning must have one entry per harmonic
    d = RunConfig(scenario=ScenarioSpec(scenario="S4")).to_dict()
    d["scenario"]["detuning"] = [0.0, 0.05]
    cfg_path = tmp_path / "short_detuning.json"
    cfg_path.write_text(json.dumps(d))
    assert main(["synth", "--out", str(tmp_path / "d"), "--config", str(cfg_path)]) == 2
    assert "detuning has 2 entries for 5 harmonics" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("section, value, message", [
    ("tracker", {"sigma_mn_rpm": 5.0}, "config.tracker: unknown keys ['sigma_mn_rpm']"),
    ("scenario", {"seed": 1, "bogus": 2}, "config.scenario: unknown keys ['bogus']"),
    ("grid", {"r_max": 4000.0}, "config.grid: missing keys ['r_min']"),
    # checked when the config is built, not after the whole analysis, and
    # also when viterbi_stft is not requested
    ("viterbi", {"transition_penalty_per_rpm": -1},
     "transition penalty must be finite and >= 0, got -1"),
    ("viterbi", {"transition_penalty_per_rpm": float("nan")},
     "transition penalty must be finite and >= 0, got nan"),
    ("viterbi", {"transition_penalty_per_rpm": float("inf")},
     "transition penalty must be finite and >= 0, got inf"),
    ("viterbi", {"n_candidates_per_frame": 0}, "need >= 1 candidate per frame, got 0"),
    ("estimators", {"comb_zero_pad": 2}, "config.estimators: unknown keys ['comb_zero_pad']"),
    # pooling is decided by fusion_weights: 0 leaves an estimator out
    ("estimators", {"enabled": ["cepstrum", "comb"]},
     "config.estimators: unknown keys ['enabled']"),
])
def test_config_rejects_bad_keys_inside_a_section(tmp_path, capsys, section, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig.from_dict({section: value})
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig.from_json(json.dumps({section: value}))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({section: value}))
    for command in ("synth", "run"):
        assert main([command, "--out", str(tmp_path / command), "--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("d, message", [
    (5, "config: expected a JSON object, got 5"),
    ([1], "config: expected a JSON object, got [1]"),
    ({"tracker": 5}, "config.tracker: expected a JSON object, got 5"),
    ({"framing": None}, "config.framing: expected FramingConfig, got None"),
    ({"grid": {"r_min": "300", "r_max": 4000}}, "config.grid.r_min: expected float, got '300'"),
    ({"fusion_weights": {"yin": "a"}}, "config.fusion_weights: expected dict[str, float]"),
    ({"framing": {"frame_len": 8192.0}}, "config.framing.frame_len: expected int, got 8192.0"),
    ({"viterbi": {"n_candidates_per_frame": 2.5}},
     "config.viterbi.n_candidates_per_frame: expected int, got 2.5"),
    ({"tracker": {"sigma_min_rpm": True}},
     "config.tracker.sigma_min_rpm: expected float, got True"),
    ({"output": {"plot": 1}}, "config.output.plot: expected bool, got 1"),
    ({"baselines": "comb"}, "config.baselines: expected tuple[str, ...], got 'comb'"),
    ({"scenario": {"harmonic_amps": [1.0, "x"], "n_harmonics": 2}},
     "config.scenario.harmonic_amps: expected tuple[float, ...] | None"),
    # integers past the float range broke np.isfinite and float(), and a float
    # field's integer past 2**64 broke np.isfinite too
    ({"grid": {"r_min": 10**400, "r_max": 4000}}, "config.grid.r_min: expected float, got 1"),
    ({"framing": {"frame_len": 10**400}}, "config.framing.frame_len: expected int, got 1"),
    ({"tracker": {"sigma_min_rpm": 10**30}},
     "config.tracker.sigma_min_rpm: expected float, got 1"),
])
def test_config_rejects_values_of_the_wrong_json_type(tmp_path, capsys, d, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        RunConfig.from_dict(d)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(d))
    assert main(["synth", "--out", str(tmp_path / "s"), "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err


def test_config_takes_ints_for_floats_and_lists_for_tuples():
    cfg = RunConfig.from_dict({"grid": {"r_min": 1200, "r_max": 1800},
                               "fusion_weights": {"yin": 2},
                               "scenario": {"harmonic_amps": [1, 0.5], "n_harmonics": 2}})
    assert (cfg.grid.r_min, cfg.grid.step, cfg.grid.n_points) == (1200, 1.0, 601)
    assert cfg.scenario.harmonic_amps == (1.0, 0.5) and cfg.fusion_weights == {"yin": 2}


def test_cli_replays_a_file_run_from_its_config(tmp_path):
    gen = tmp_path / "gen"
    assert main(["synth", "--out", str(gen), "--scenario", "S2", "--seed", "1",
                 "--duration", "0.7"]) == 0
    first, again = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--input", str(gen / "signal_S2_seed1.wav"), "--out", str(first),
                 "--grid", "1200:1800:1"]) == 0
    # the replay used to synthesize the default S0 clip in place of the file
    assert main(["run", "--config", str(first / "config.json"), "--out", str(again)]) == 0
    trajectory = (first / "trajectory.csv").read_bytes()
    assert (again / "trajectory.csv").read_bytes() == trajectory
    assert json.loads((again / "metrics.json").read_text())["has_reference"] is False
    # a scenario flag over a config naming an input is ambiguous, not a synthesis
    assert main(["run", "--config", str(first / "config.json"), "--scenario", "S3",
                 "--out", str(tmp_path / "c")]) == 2


def test_cli_input_flag_keeps_the_config_input_section(tmp_path):
    gen = tmp_path / "gen"
    assert main(["synth", "--out", str(gen), "--scenario", "S0", "--seed", "1",
                 "--duration", "0.7", "--format", "csv"]) == 0
    csv_path = gen / "signal_S0_seed1.csv"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"input": {"path": "elsewhere.csv", "sample_rate_hz": 12800},
                                    "grid": {"r_min": 1200, "r_max": 1800}}))
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_path), "--input", str(csv_path),
                 "--out", str(out)]) == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["input"] == {"path": str(csv_path), "format": None, "sample_rate_hz": 12800}
    assert saved["scenario"] is None


def test_cli_synth_takes_the_scenario_from_its_config(tmp_path):
    cfg_path = tmp_path / "s3.json"
    cfg_path.write_text(json.dumps({"scenario": {"scenario": "S3", "seed": 7, "duration_s": 0.7}}))
    cases = (([], "S3_seed7"), (["--seed", "0"], "S3_seed0"), (None, "S0_seed0"))
    for extra, stem in cases:
        out = tmp_path / stem
        config = ["--duration", "0.7"] if extra is None else ["--config", str(cfg_path), *extra]
        assert main(["synth", "--out", str(out), *config]) == 0
        assert (out / f"signal_{stem}.wav").exists()
        spec = json.loads((out / f"scenario_{stem}.json").read_text())
        assert spec["scenario"] + "_seed" + str(spec["seed"]) == stem
