"""Benchmark workloads: seed-derived clip lists built through the public API.

A workload is a fixed list of clips. Clip seeds are the run's seed and the
ones after it, so the same seed always gives the same clips, and the clip set
never depends on how fast the program runs. Why each workload exists is
written up in README.md next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from tacholess import (FramingConfig, InputConfig, OutputConfig, RpmGrid,
                       RunConfig, ScenarioSpec, pipeline, save_signal,
                       synthesize)


# seeds_per_scenario sets the first pass of a run. fullband-5s needs three
# seeds for a steady p95_tracked (S5 accuracy varies by seed); the others are
# steady with two, which keeps a 20 s clip run near --seconds.
@dataclass(frozen=True)
class WorkloadSpec:
    scenarios: tuple[str, ...]
    duration_s: float
    seeds_per_scenario: int
    base: RunConfig
    from_wav: bool = False
    # clip length of the short variant used by the yardstick and the smoke test
    short_duration_s: float = 1.5


WORKLOADS: dict[str, WorkloadSpec] = {
    "fullband-5s": WorkloadSpec(
        scenarios=("S0", "S3", "S5"), duration_s=5.0, seeds_per_scenario=3,
        base=RunConfig()),
    "narrowband-long": WorkloadSpec(
        scenarios=("S2", "S4"), duration_s=20.0, seeds_per_scenario=2,
        base=RunConfig(framing=FramingConfig(frame_len=16384, hop=256),
                       grid=RpmGrid.from_step(1200.0, 2400.0, 1.0)),
        short_duration_s=3.0),
    "wav-outputs": WorkloadSpec(
        scenarios=("S3", "S5"), duration_s=5.0, seeds_per_scenario=2,
        base=RunConfig(baselines=pipeline.BASELINE_IDS,
                       output=OutputConfig(dump_posteriors=True, plot=True)),
        from_wav=True),
}


@dataclass(frozen=True)
class Clip:
    label: str
    config: RunConfig
    duration_s: float
    n_samples: int
    reference: np.ndarray  # true RPM at each frame centre, kept by the benchmark


@dataclass(frozen=True)
class Workload:
    name: str
    clips: tuple[Clip, ...]
    writes_outputs: bool

    def call(self, clip: Clip, out_dir: Path):
        """One closed-loop request: the public entry point on one clip."""
        if self.writes_outputs:
            return pipeline.run_pipeline(clip.config, out_dir)
        return pipeline.analyze(clip.config)


def build(name: str, seed: int, workdir: Path, short: bool = False) -> Workload:
    """Build the configs of every clip and write any input files into workdir.

    Clips go round the scenarios once per seed. ``short`` gives one seed per
    scenario on short clips. S5 steps at half the clip length, which is the
    scenario's default 2.5 s on 5 s clips.
    """
    spec = WORKLOADS[name]
    duration = spec.short_duration_s if short else spec.duration_s
    n_seeds = 1 if short else spec.seeds_per_scenario
    grid = spec.base.grid
    clips = []
    for k in range(n_seeds):
        for scenario in spec.scenarios:
            scen = ScenarioSpec(scenario=scenario, seed=seed + k, duration_s=duration,
                                jump_time_s=duration / 2)
            signal, truth = synthesize(scen, rpm_bounds=(grid.r_min, grid.r_max))
            label = f"{scenario}-seed{seed + k}"
            if spec.from_wav:
                wav = workdir / f"{label}.wav"
                save_signal(signal, wav)
                cfg = replace(spec.base, scenario=None, input=InputConfig(path=str(wav)))
            else:
                cfg = replace(spec.base, scenario=scen)
            clips.append(Clip(label=label, config=cfg, duration_s=duration,
                              n_samples=len(signal),
                              reference=truth.frame_references(cfg.framing)))
    return Workload(name=name, clips=tuple(clips), writes_outputs=spec.from_wav)
