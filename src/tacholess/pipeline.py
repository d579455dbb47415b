"""End-to-end runs: config, orchestration, output files, benchmark, ablation.

A run is: resolve input (scenario synthesis or file) -> frame -> evidence
curves -> grid log-likelihoods -> fused likelihood, chunk by chunk of frames
-> tracked trajectory, plus any requested baselines, then metrics against
the ground truth when one exists.
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .alignment import CurveToGridConfig, aligned_loglik, kernel_scatter
from .baselines import (BaselineTrajectory, framewise_trajectory,
                        single_estimator_pick, viterbi_stft)
from .estimators import cepstrum_curve, comb_curve, lag_bounds, yin_curve
from .fusion import FusionWeights, pool_logliks
from .grid import RpmGrid
from .ingest import FramingConfig, Signal, frame_signal, frame_times, load_signal
from .metrics import compute_metrics, stability_metrics
from .plotting import write_trajectory_svg
from .synth import GroundTruth, ScenarioSpec, synthesize
from .tracker import PosteriorState, TrackerConfig, TrajectoryPoint, track

ESTIMATOR_IDS = ("yin", "cepstrum", "comb")
BASELINE_IDS = ("yin", "cepstrum", "comb", "framewise", "viterbi_stft")
BENCHMARK_METHODS = ("yin", "cepstrum", "comb", "tracked")
# frames per evidence/alignment/fusion step: working memory is O(CHUNK_FRAMES x G)
CHUNK_FRAMES = 32


@dataclass(frozen=True)
class InputConfig:
    path: str
    format: str | None = None
    sample_rate_hz: float | None = None


@dataclass(frozen=True)
class EstimatorSetConfig:
    enabled: tuple[str, ...] = ESTIMATOR_IDS
    comb_candidates: int = 2048
    comb_harmonics: int = 5
    comb_zero_pad: int = 2

    def __post_init__(self):
        if not self.enabled:
            raise ValueError("estimators.enabled: at least one estimator is required")
        for name in self.enabled:
            if name not in ESTIMATOR_IDS:
                raise ValueError(
                    f"estimators.enabled: unknown estimator '{name}' "
                    f"(expected one of {', '.join(ESTIMATOR_IDS)})"
                )
        object.__setattr__(self, "enabled", tuple(self.enabled))


@dataclass(frozen=True)
class ViterbiConfig:
    transition_penalty_per_rpm: float = 0.02
    n_candidates_per_frame: int = 10


@dataclass(frozen=True)
class OutputConfig:
    dump_posteriors: bool = False
    plot: bool = False


@dataclass(frozen=True)
class RunConfig:
    scenario: ScenarioSpec | None = field(default_factory=ScenarioSpec)
    input: InputConfig | None = None
    framing: FramingConfig = field(default_factory=FramingConfig)
    grid: RpmGrid = field(default_factory=lambda: RpmGrid.from_step(300.0, 4000.0, 1.0))
    alignment: CurveToGridConfig = field(default_factory=CurveToGridConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    estimators: EstimatorSetConfig = field(default_factory=EstimatorSetConfig)
    viterbi: ViterbiConfig = field(default_factory=ViterbiConfig)
    fusion_weights: dict[str, float] = field(default_factory=dict)
    baselines: tuple[str, ...] = ("framewise",)
    output: OutputConfig = field(default_factory=OutputConfig)

    def __post_init__(self):
        if (self.scenario is None) == (self.input is None):
            raise ValueError("config must set exactly one of 'scenario' or 'input'")
        for name in self.baselines:
            if name not in BASELINE_IDS:
                raise ValueError(
                    f"baselines: unknown method '{name}' "
                    f"(expected one of {', '.join(BASELINE_IDS)})"
                )
        object.__setattr__(self, "baselines", tuple(dict.fromkeys(self.baselines)))
        FusionWeights(self.fusion_weights)  # validates values

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        grid = {"r_min": self.grid.r_min, "r_max": self.grid.r_max, "step_rpm": self.grid.step}
        return {**_plain(self), "grid": grid}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
        kw = {k: _SECTIONS[k](**v) if k in _SECTIONS and v is not None else v
              for k, v in d.items() if k != "scenario"}
        if d.get("scenario") is not None:
            kw["scenario"] = ScenarioSpec.from_dict(d["scenario"])
        elif d.get("input") is not None:
            kw["scenario"] = None
        if "grid" in d:
            g = d["grid"]
            kw["grid"] = RpmGrid.from_step(g["r_min"], g["r_max"], g.get("step_rpm", 1.0))
        return cls(**kw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


# sections of RunConfig that are flat dataclasses, built from their JSON objects
_SECTIONS = {"input": InputConfig, "framing": FramingConfig, "alignment": CurveToGridConfig,
             "tracker": TrackerConfig, "estimators": EstimatorSetConfig,
             "viterbi": ViterbiConfig, "output": OutputConfig}


def _plain(value: Any) -> Any:
    """A config value as JSON data: dataclasses as dicts, tuples as lists, dicts sorted."""
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return dict(sorted(value.items()))
    return value


# -- evidence computation ---------------------------------------------------


def fused_evidence(frames: np.ndarray, sample_rate_hz: float,
                   cfg: RunConfig) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Fused (T, G) grid log-likelihood of a (T, N) block of frames, and the
    RPM per frame of each pick baseline in ``cfg.baselines``, computed
    CHUNK_FRAMES frames at a time.

    Each estimator's scatter matrix is built once; only the fused rows outlive
    their chunk.
    """
    if len(frames) == 0:
        raise ValueError("no frames to analyze")
    grid, fs, est = cfg.grid, sample_rate_hz, cfg.estimators
    tau_min, tau_max = lag_bounds(fs, grid.r_min, grid.r_max, frames.shape[1])
    evaluate = {
        "yin": lambda x: yin_curve(x, fs, tau_min, tau_max),
        "cepstrum": lambda x: cepstrum_curve(x, fs, tau_min, tau_max),
        "comb": lambda x: comb_curve(x, fs, grid.r_min / 60.0, grid.r_max / 60.0,
                                     est.comb_candidates, est.comb_harmonics,
                                     est.comb_zero_pad),
    }
    weights = FusionWeights(cfg.fusion_weights)
    picks = {name: [] for name in cfg.baselines if name in ESTIMATOR_IDS}
    scatter = {}
    fused = np.empty((len(frames), grid.n_points))
    for start in range(0, len(frames), CHUNK_FRAMES):
        block = frames[start:start + CHUNK_FRAMES]
        curves = {eid: evaluate[eid](block) for eid in dict.fromkeys([*est.enabled, *picks])}
        for name, rpm in picks.items():
            rpm.append(single_estimator_pick(curves[name], grid.r_min, grid.r_max, fs))
        if not scatter:
            scatter = {eid: kernel_scatter(curves[eid], grid, cfg.alignment, fs)
                       for eid in est.enabled}
        logliks = [aligned_loglik(curves[eid], scatter[eid], cfg.alignment) for eid in est.enabled]
        fused[start:start + len(block)] = pool_logliks(est.enabled, logliks, weights)
    return fused, {name: np.concatenate(rpm) for name, rpm in picks.items()}


# -- analysis ---------------------------------------------------------------


@dataclass
class AnalysisResult:
    config: RunConfig
    times_s: np.ndarray
    tracked: list[TrajectoryPoint]
    baselines: dict[str, BaselineTrajectory]
    reference: np.ndarray | None
    metrics: dict[str, dict[str, float]]
    posteriors: list[PosteriorState] | None = None

    def tracked_rpm(self) -> np.ndarray:
        return np.array([p.mmse_rpm for p in self.tracked])


def _resolve_input(cfg: RunConfig) -> tuple[Signal, GroundTruth | None]:
    if cfg.scenario is not None:
        return synthesize(cfg.scenario, rpm_bounds=(cfg.grid.r_min, cfg.grid.r_max))
    sig = load_signal(cfg.input.path, cfg.input.format, cfg.input.sample_rate_hz)
    return sig, None


def analyze(cfg: RunConfig) -> AnalysisResult:
    """Run the full pipeline in memory (no files written)."""
    signal, truth = _resolve_input(cfg)
    frames = frame_signal(signal, cfg.framing)
    times = frame_times(signal, cfg.framing)
    fused, picks = fused_evidence(frames, signal.sample_rate_hz, cfg)

    if cfg.output.dump_posteriors:
        tracked, posteriors = track(fused, cfg.grid, cfg.tracker, times,
                                    return_posteriors=True)
    else:
        tracked = track(fused, cfg.grid, cfg.tracker, times)
        posteriors = None

    baselines: dict[str, BaselineTrajectory] = {}
    for name in cfg.baselines:
        if name in picks:
            baselines[name] = BaselineTrajectory(
                method=name, frame_index=np.arange(1, len(frames) + 1),
                time_s=times.copy(), rpm=picks[name])
        elif name == "framewise":
            baselines[name] = framewise_trajectory(fused, cfg.grid, times)
        elif name == "viterbi_stft":
            baselines[name] = viterbi_stft(
                signal, cfg.framing, cfg.grid,
                transition_penalty_per_rpm=cfg.viterbi.transition_penalty_per_rpm,
                n_candidates_per_frame=cfg.viterbi.n_candidates_per_frame)

    reference = truth.frame_references(cfg.framing) if truth is not None else None

    metrics: dict[str, dict[str, float]] = {}
    series = {"tracked": np.array([p.mmse_rpm for p in tracked])}
    for name, traj in baselines.items():
        series[name] = traj.rpm
    for name, rpm in series.items():
        if reference is not None:
            metrics[name] = compute_metrics(rpm, reference)
        else:
            metrics[name] = stability_metrics(rpm)

    return AnalysisResult(config=cfg, times_s=times, tracked=tracked,
                          baselines=baselines, reference=reference,
                          metrics=metrics, posteriors=posteriors)


# -- output files -----------------------------------------------------------


def metrics_json(result: AnalysisResult) -> str:
    payload = {
        "methods": {m: {k: v for k, v in sorted(vals.items())}
                    for m, vals in sorted(result.metrics.items())},
        "n_frames": len(result.times_s),
        "has_reference": result.reference is not None,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_outputs(result: AnalysisResult, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}

    p = out / "trajectory.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame_index", "time_s", "map_rpm", "mmse_rpm",
                    "sigma_rpm", "entropy_nats"])
        for pt in result.tracked:
            w.writerow([pt.frame_index, f"{pt.time_s:.9g}", f"{pt.map_rpm:.9g}",
                        f"{pt.mmse_rpm:.9g}", f"{pt.sigma_rpm:.9g}",
                        f"{pt.entropy_nats:.9g}"])
    paths["trajectory"] = p

    for name, traj in result.baselines.items():
        p = out / f"baseline_{name}.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["frame_index", "time_s", "rpm"])
            for i, t, r in zip(traj.frame_index, traj.time_s, traj.rpm):
                w.writerow([int(i), f"{t:.9g}", f"{r:.9g}"])
        paths[f"baseline_{name}"] = p

    if result.reference is not None:
        p = out / "ground_truth.csv"
        with open(p, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["frame_index", "time_s", "rpm_ref"])
            for i, (t, r) in enumerate(zip(result.times_s, result.reference), start=1):
                w.writerow([i, f"{t:.9g}", f"{r:.9g}"])
        paths["ground_truth"] = p

    p = out / "metrics.json"
    p.write_text(metrics_json(result))
    paths["metrics"] = p

    p = out / "config.json"
    p.write_text(result.config.to_json())
    paths["config"] = p

    if result.posteriors is not None:
        p = out / "posteriors.csv"
        with open(p, "w", newline="") as fh:
            fh.write(",".join(f"{v:.9g}" for v in result.config.grid.values) + "\n")
            for state in result.posteriors:
                fh.write(",".join(f"{m:.9g}" for m in state.mass) + "\n")
        paths["posteriors"] = p

    if result.config.output.plot:
        p = out / "trajectory.svg"
        series = {"tracked": np.array([pt.mmse_rpm for pt in result.tracked])}
        for name, traj in result.baselines.items():
            series[name] = traj.rpm
        band_lo = np.array([pt.mmse_rpm - pt.sigma_rpm for pt in result.tracked])
        band_hi = np.array([pt.mmse_rpm + pt.sigma_rpm for pt in result.tracked])
        write_trajectory_svg(p, result.times_s, series, band=(band_lo, band_hi),
                             reference=result.reference)
        paths["plot"] = p

    return paths


def run_pipeline(cfg: RunConfig, out_dir: str | Path) -> AnalysisResult:
    """analyze() plus the output files; returns the in-memory result."""
    result = analyze(cfg)
    write_outputs(result, out_dir)
    return result


# -- benchmark and ablation -------------------------------------------------


def _scenario_config(base: RunConfig, scenario: str, seed: int,
                     baselines: tuple[str, ...]) -> RunConfig:
    template = base.scenario if base.scenario is not None else ScenarioSpec()
    spec = replace(template, scenario=scenario, seed=seed)
    return replace(base, scenario=spec, input=None, baselines=baselines,
                   output=OutputConfig())


def _benchmark_worker(args: tuple[dict, str, int]) -> tuple[str, int, dict]:
    cfg_dict, scenario, seed = args
    cfg = _scenario_config(RunConfig.from_dict(cfg_dict), scenario, seed,
                           baselines=("yin", "cepstrum", "comb"))
    result = analyze(cfg)
    return scenario, seed, result.metrics


def run_benchmark(cfg: RunConfig, scenarios: Sequence[str], seeds: Sequence[int],
                  out_dir: str | Path, jobs: int = 1) -> dict[str, dict[str, dict[str, float]]]:
    """Scenario x seed sweep; emits per-run rows plus a mean RMSE/P95 table.

    Returns {scenario: {method: {"rmse": mean, "p95": mean}}} and writes
    benchmark_runs.csv, benchmark.csv (wide table) and benchmark.txt.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    work = [(cfg.to_dict(), sc, int(seed)) for sc in scenarios for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_benchmark_worker, work))
    else:
        raw = [_benchmark_worker(item) for item in work]
    raw.sort(key=lambda r: (scenarios.index(r[0]), r[1]))

    with open(out / "benchmark_runs.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scenario", "seed", "method", "rmse", "p95", "jitter", "max_jump"])
        for scenario, seed, metrics in raw:
            for method in BENCHMARK_METHODS:
                m = metrics[method]
                w.writerow([scenario, seed, method] +
                           [f"{m[k]:.9g}" for k in ("rmse", "p95", "jitter", "max_jump")])

    table: dict[str, dict[str, dict[str, float]]] = {}
    for scenario in scenarios:
        per_scenario = [m for sc, _, m in raw if sc == scenario]
        table[scenario] = {}
        for method in BENCHMARK_METHODS:
            table[scenario][method] = {
                "rmse": float(np.mean([m[method]["rmse"] for m in per_scenario])),
                "p95": float(np.mean([m[method]["p95"] for m in per_scenario])),
            }

    with open(out / "benchmark.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["method"]
        for sc in scenarios:
            header += [f"{sc}_rmse", f"{sc}_p95"]
        w.writerow(header)
        for method in BENCHMARK_METHODS:
            row = [method]
            for sc in scenarios:
                row += [f"{table[sc][method]['rmse']:.9g}",
                        f"{table[sc][method]['p95']:.9g}"]
            w.writerow(row)

    lines = [f"mean over {len(seeds)} seed(s); RMSE / P95 in RPM", ""]
    head = f"{'method':<12}" + "".join(f"{sc + ' RMSE':>12}{sc + ' P95':>12}" for sc in scenarios)
    lines.append(head)
    for method in BENCHMARK_METHODS:
        row = f"{method:<12}"
        for sc in scenarios:
            row += f"{table[sc][method]['rmse']:>12.1f}{table[sc][method]['p95']:>12.1f}"
        lines.append(row)
    (out / "benchmark.txt").write_text("\n".join(lines) + "\n")
    return table


def run_ablation(cfg: RunConfig, scenario: str, seeds: Sequence[int],
                 out_dir: str | Path) -> dict[str, dict[str, float]]:
    """Tracked vs framewise fusion on one scenario over seeds.

    Writes ablation.csv (per-seed rows plus means) and returns the means.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    keys = ("rmse", "p95", "jitter", "max_jump")
    rows = []
    for seed in seeds:
        run_cfg = _scenario_config(cfg, scenario, int(seed), baselines=("framewise",))
        result = analyze(run_cfg)
        rows.append((int(seed), result.metrics["tracked"], result.metrics["framewise"]))

    means = {
        method: {k: float(np.mean([r[i + 1][k] for r in rows])) for k in keys}
        for i, method in enumerate(("tracked", "framewise"))
    }
    with open(out / "ablation.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed"] + [f"tracked_{k}" for k in keys] + [f"framewise_{k}" for k in keys])
        for seed, tr, fwise in rows:
            w.writerow([seed] + [f"{tr[k]:.9g}" for k in keys] + [f"{fwise[k]:.9g}" for k in keys])
        w.writerow(["mean"] + [f"{means['tracked'][k]:.9g}" for k in keys] +
                   [f"{means['framewise'][k]:.9g}" for k in keys])
    return means
