"""Command line interface: run, synth, benchmark, ablate."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .grid import RpmGrid
from .ingest import FramingConfig, frame_times
from .pipeline import InputConfig, OutputConfig, RunConfig
from .synth import SCENARIOS, ScenarioSpec, synthesize
from .ingest import save_signal


def _parse_seeds(text: str) -> list[int]:
    """'7' -> [7]; '1..20' -> [1, ..., 20]."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        a, b = int(lo), int(hi)
        if b < a:
            raise ValueError(f"empty seed range '{text}'")
        return list(range(a, b + 1))
    return [int(text)]


def _parse_grid(text: str) -> RpmGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid expects min:max:step, got '{text}'")
    return RpmGrid.from_step(float(parts[0]), float(parts[1]), float(parts[2]))


def _load_config(path: str | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return RunConfig.from_json(Path(path).read_text())


def _apply_common_overrides(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "grid", None):
        cfg = replace(cfg, grid=_parse_grid(args.grid))
    framing = cfg.framing
    if getattr(args, "frame", None):
        framing = FramingConfig(frame_len=args.frame, hop=framing.hop)
    if getattr(args, "hop", None):
        framing = FramingConfig(frame_len=framing.frame_len, hop=args.hop)
    if framing is not cfg.framing:
        cfg = replace(cfg, framing=framing)
    return cfg


def _scenario_from_args(cfg: RunConfig, args: argparse.Namespace) -> ScenarioSpec:
    spec = cfg.scenario if cfg.scenario is not None else ScenarioSpec()
    kw = {}
    if getattr(args, "scenario", None):
        kw["scenario"] = args.scenario
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    if getattr(args, "duration", None) is not None:
        kw["duration_s"] = args.duration
    return replace(spec, **kw) if kw else spec


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_common_overrides(_load_config(args.config), args)
    if args.input:
        cfg = replace(cfg, scenario=None,
                      input=InputConfig(path=args.input, format=args.format,
                                        sample_rate_hz=args.sample_rate))
    else:
        cfg = replace(cfg, input=None, scenario=_scenario_from_args(cfg, args))
    if args.baselines is not None:
        names = tuple(b for b in args.baselines.split(",") if b)
        cfg = replace(cfg, baselines=names)
    out_flags = cfg.output
    if args.dump_posteriors:
        out_flags = replace(out_flags, dump_posteriors=True)
    if args.plot:
        out_flags = replace(out_flags, plot=True)
    cfg = replace(cfg, output=out_flags)

    result = pipeline.run_pipeline(cfg, args.out)
    print(f"analyzed {len(result.times_s)} frames -> {args.out}")
    for method in sorted(result.metrics):
        vals = result.metrics[method]
        parts = ", ".join(f"{k}={v:.2f}" for k, v in sorted(vals.items()))
        print(f"  {method:<12} {parts}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _apply_common_overrides(_load_config(args.config), args)
    spec = _scenario_from_args(cfg, args)
    signal, truth = synthesize(spec, rpm_bounds=(cfg.grid.r_min, cfg.grid.r_max))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sig_path = out / f"signal_{spec.scenario}_seed{spec.seed}.{args.format}"
    save_signal(signal, sig_path, args.format)
    refs = truth.frame_references(cfg.framing)
    times = frame_times(signal, cfg.framing)
    truth_path = out / f"ground_truth_{spec.scenario}_seed{spec.seed}.csv"
    with open(truth_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame_index", "time_s", "rpm_ref"])
        for i, (t, rpm) in enumerate(zip(times, refs), start=1):
            w.writerow([i, f"{t:.9g}", f"{rpm:.9g}"])
    spec_path = out / f"scenario_{spec.scenario}_seed{spec.seed}.json"
    spec_path.write_text(json.dumps(spec.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {sig_path}, {truth_path}, {spec_path}")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = _apply_common_overrides(_load_config(args.config), args)
    if args.duration is not None:
        template = cfg.scenario if cfg.scenario is not None else ScenarioSpec()
        cfg = replace(cfg, scenario=replace(template, duration_s=args.duration), input=None)
    scenarios = [s for s in args.scenarios.split(",") if s]
    for s in scenarios:
        if s not in SCENARIOS:
            raise ValueError(f"--scenarios: unknown scenario '{s}'")
    seeds = _parse_seeds(args.seeds)
    table = pipeline.run_benchmark(cfg, scenarios, seeds, args.out, jobs=args.jobs)
    print((Path(args.out) / "benchmark.txt").read_text(), end="")
    del table
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _apply_common_overrides(_load_config(args.config), args)
    seeds = _parse_seeds(args.seeds)
    means = pipeline.run_ablation(cfg, args.scenario, seeds, args.out)
    print(f"{args.scenario} over {len(seeds)} seed(s), means:")
    for method in ("tracked", "framewise"):
        parts = ", ".join(f"{k}={v:.2f}" for k, v in sorted(means[method].items()))
        print(f"  {method:<10} {parts}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tacholess",
        description="RPM estimation from vibration signals without a tachometer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file (defaults apply when absent)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--grid", help="RPM grid as min:max:step (default 300:4000:1)")
        p.add_argument("--frame", type=int, help="frame length in samples")
        p.add_argument("--hop", type=int, help="hop in samples")

    run = sub.add_parser("run", help="analyze one signal or synthetic scenario")
    add_common(run)
    run.add_argument("--input", help="input WAV/CSV file (otherwise a scenario is synthesized)")
    run.add_argument("--format", choices=["wav", "csv"], help="input format override")
    run.add_argument("--sample-rate", type=float, help="sample rate for CSV input")
    run.add_argument("--scenario", choices=SCENARIOS, help="synthetic scenario code")
    run.add_argument("--seed", type=int, help="scenario seed")
    run.add_argument("--duration", type=float, help="scenario duration in seconds")
    run.add_argument("--baselines",
                     help="comma list of yin,cepstrum,comb,framewise,viterbi_stft")
    run.add_argument("--dump-posteriors", action="store_true",
                     help="also write per-frame posterior rows (posteriors.csv)")
    run.add_argument("--plot", action="store_true", help="write trajectory.svg")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="write a synthetic scenario to disk")
    add_common(synth)
    synth.add_argument("--scenario", choices=SCENARIOS, default="S0")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--duration", type=float, help="duration in seconds")
    synth.add_argument("--format", choices=["wav", "csv"], default="wav")
    synth.set_defaults(func=_cmd_synth)

    bench = sub.add_parser("benchmark", help="scenario x seed sweep with mean RMSE/P95 table")
    add_common(bench)
    bench.add_argument("--scenarios", default="S1,S2,S3,S4", help="comma list (default S1..S4)")
    bench.add_argument("--seeds", default="1..20", help="seed or inclusive range a..b")
    bench.add_argument("--duration", type=float, help="per-run duration in seconds")
    bench.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    bench.set_defaults(func=_cmd_benchmark)

    ablate = sub.add_parser("ablate", help="tracked vs framewise fusion on one scenario")
    add_common(ablate)
    ablate.add_argument("--scenario", choices=SCENARIOS, default="S5")
    ablate.add_argument("--seeds", default="1..10")
    ablate.set_defaults(func=_cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
