"""Command line interface: run, synth, benchmark.

``benchmark`` sweeps scenarios x seeds over the tracker and every baseline;
its ``framewise`` rows are the ablation of the tracker's temporal propagation.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import pipeline
from .ingest import frame_times, save_signal
from .pipeline import RunConfig
from .synth import SCENARIOS, synthesize


def _parse_seeds(text: str) -> list[int]:
    """'7' -> [7]; '1..20' -> [1, ..., 20]."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        a, b = int(lo), int(hi)
        if b < a:
            raise ValueError(f"empty seed range '{text}'")
        return list(range(a, b + 1))
    return [int(text)]


def _parse_grid(text: str) -> dict[str, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--grid expects min:max:step, got '{text}'")
    return dict(zip(("r_min", "r_max", "step_rpm"), map(float, parts)))


def _config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` JSON (or ``{}``) with each given flag written over its key:
    the flag of dest ``section.key``, which defaults to None, sets that key."""
    d = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(d, dict):
        return RunConfig.from_dict(d)  # raises: the config is not a JSON object
    flags = {k: v for k, v in vars(args).items() if v is not None}
    if args.command != "run":
        d.pop("input", None)  # synth and benchmark always synthesize
    elif "input.path" in flags:
        d["scenario"] = None  # a scenario flag as well makes the run ambiguous
    for dest, value in flags.items():
        section, dotted, key = dest.partition(".")
        old = d.get(section)
        if dotted and (old is None or isinstance(old, dict)):  # else from_dict rejects it
            d[section] = {**(old or {}), key: value}
    if "grid" in flags:
        d["grid"] = _parse_grid(flags["grid"])
    if "baselines" in flags:
        d["baselines"] = [b for b in flags["baselines"].split(",") if b]
    return RunConfig.from_dict(d)


def _cmd_run(args: argparse.Namespace) -> int:
    result = pipeline.run_pipeline(_config(args), args.out)
    print(f"analyzed {len(result.times_s)} frames -> {args.out}")
    for method in sorted(result.metrics):
        parts = ", ".join(f"{k}={v:.2f}" for k, v in sorted(result.metrics[method].items()))
        print(f"  {method:<12} {parts}")
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cfg = _config(args)
    spec = cfg.scenario
    signal, truth = synthesize(spec, rpm_bounds=(cfg.grid.r_min, cfg.grid.r_max))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    sig_path = out / f"signal_{spec.scenario}_seed{spec.seed}.{args.format}"
    save_signal(signal, sig_path, args.format)
    truth_path = pipeline.write_ground_truth(
        out / f"ground_truth_{spec.scenario}_seed{spec.seed}.csv",
        frame_times(signal, cfg.framing), truth.frame_references(cfg.framing))
    spec_path = out / f"scenario_{spec.scenario}_seed{spec.seed}.json"
    spec_path.write_text(json.dumps(asdict(spec), indent=2, sort_keys=True) + "\n")
    print(f"wrote {sig_path}, {truth_path}, {spec_path}")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    scenarios = [s for s in args.scenarios.split(",") if s]
    pipeline.run_benchmark(_config(args), scenarios, _parse_seeds(args.seeds), args.out,
                           jobs=args.jobs)
    print((Path(args.out) / "benchmark.txt").read_text(), end="")
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
        p.add_argument("--frame", dest="framing.frame_len", type=int,
                       help="frame length in samples")
        p.add_argument("--hop", dest="framing.hop", type=int, help="hop in samples")
        p.add_argument("--duration", dest="scenario.duration_s", type=float,
                       help="scenario duration in seconds")

    run = sub.add_parser("run", help="analyze one signal or synthetic scenario")
    add_common(run)
    run.add_argument("--input", dest="input.path",
                     help="input WAV/CSV file (otherwise a scenario is synthesized)")
    run.add_argument("--format", dest="input.format", choices=["wav", "csv"],
                     help="input format override")
    run.add_argument("--sample-rate", dest="input.sample_rate_hz", type=float,
                     help="sample rate for CSV input")
    run.add_argument("--scenario", dest="scenario.scenario", choices=SCENARIOS,
                     help="synthetic scenario code")
    run.add_argument("--seed", dest="scenario.seed", type=int, help="scenario seed")
    run.add_argument("--baselines", help=f"comma list of {','.join(pipeline.BASELINE_IDS)}")
    run.add_argument("--dump-posteriors", dest="output.dump_posteriors", action="store_true",
                     default=None, help="also write per-frame posterior rows (posteriors.csv)")
    run.add_argument("--plot", dest="output.plot", action="store_true", default=None,
                     help="write trajectory.svg")
    run.set_defaults(func=_cmd_run)

    synth = sub.add_parser("synth", help="write a synthetic scenario to disk")
    add_common(synth)
    synth.add_argument("--scenario", dest="scenario.scenario", choices=SCENARIOS,
                       help="scenario code (default S0)")
    synth.add_argument("--seed", dest="scenario.seed", type=int, help="scenario seed (default 0)")
    synth.add_argument("--format", choices=["wav", "csv"], default="wav")
    synth.set_defaults(func=_cmd_synth)

    bench = sub.add_parser("benchmark", help="scenario x seed sweep of every method")
    add_common(bench)
    bench.add_argument("--scenarios", default="S1,S2,S3,S4", help="comma list (default S1..S4)")
    bench.add_argument("--seeds", default="1..20", help="seed or inclusive range a..b")
    bench.add_argument("--jobs", type=int, default=1, help="worker processes, at most the CPUs")
    bench.set_defaults(func=_cmd_benchmark)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
