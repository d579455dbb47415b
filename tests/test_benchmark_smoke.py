"""The benchmark's smoke test, run as the benchmark runs it: a separate
process started from the repository root. The benchmark drives the public
entry points and wraps `frame_signal` and `predict`, so a change to what
they take or return shows up here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the benchmark's yardstick: each workload's short seed-1 clips against the
# (MAP, MMSE) trajectories stored in perfbench/reference.json
YARDSTICK = """
import json, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
from run import prepare
prepare(Path.cwd())
from bench import max_abs_drpm
from workloads import WORKLOADS
print(json.dumps({name: max_abs_drpm(name, Path(sys.argv[1])) for name in WORKLOADS}))
"""


# names the benchmark's tracer wraps that no longer exist in the program; the
# estimators are called as tacholess.estimators.*, which the tracer does not wrap
STALE_TRACED_NAMES = {"tacholess.pipeline.curve_to_grid_loglik",
                      "tacholess.pipeline.fuse_loglik", "grid.GridLogLikelihood",
                      "tacholess.baselines.frame_signal", "tacholess.pipeline.yin_curve",
                      "tacholess.pipeline.cepstrum_curve", "tacholess.pipeline.comb_curve"}


def test_the_tracer_finds_every_name_it_wraps(monkeypatch):
    # a renamed layer function would leave its span empty in the traced
    # benchmark without any error, so the set of missing names is pinned
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    from tacholess import RpmGrid, RunConfig, ScenarioSpec, analyze

    cfg = RunConfig(scenario=ScenarioSpec(scenario="S0", duration_s=0.8, seed=1),
                    grid=RpmGrid.from_step(1200.0, 1800.0, 1.0))
    with spans.Tracer() as tracer:
        n = len(tracer.entry(lambda: analyze(cfg)).tracked)
    assert set(tracer.missing) <= STALE_TRACED_NAMES
    assert tracer.restored()
    for step in ("curvature", "predict", "update", "estimate"):
        assert tracer.calls[f"tracker.{step}"] == n == 17, step
    assert tracer.counts["predict_calls"] == n


@pytest.mark.slow
def test_benchmark_smoke_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_trajectories_stay_within_1e_9_rpm_of_the_reference(tmp_path):
    # the stated tolerance for changes that reorder floating-point work;
    # max_abs_drpm reads -1 when a trajectory changed length
    proc = subprocess.run([sys.executable, "-c", YARDSTICK, str(tmp_path)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    drpm = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(drpm) == ["fullband-5s", "narrowband-long", "wav-outputs"]
    for name, value in drpm.items():
        assert 0.0 <= value <= 1e-9, (name, value)
