"""Measured runs of one workload.

One process, one client in a closed loop: each clip's entry call starts when
the previous one has returned and been checked. An untraced run gives the
end-to-end metrics; a traced run gives the per-layer ones. run.py is the
command-line entry; smoke.py calls run_workload directly on short clips.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checks import accuracy, check_files, check_result, trajectory
from spans import Tracer
from workloads import WORKLOADS, Workload, build

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
YARDSTICK_SEED = 1
BUSY_SPANS = ("estimators.yin", "estimators.cepstrum", "estimators.comb", "alignment",
              "fusion", "tracker.loop", "tracker.curvature", "tracker.predict",
              "tracker.update", "tracker.estimate", "ingest.load", "ingest.frame",
              "synth", "baselines.pick", "baselines.framewise", "baselines.viterbi_stft",
              "metrics", "pipeline.write", "plotting")
RMSE_METHODS = ("yin", "cepstrum", "comb", "framewise", "viterbi_stft")


class SpeedProbe:
    """Fixed numpy and Python work, independent of tacholess, timed next to
    every timed call.

    The host is shared, and its speed drifts by a third within minutes. A
    probe of this kind slows with it: over 110 fullband clips its time
    tracked the clip time with correlation 0.7-0.8, and dividing each clip's
    time by the probe's cut the spread (IQR / median) of 9-clip medians from
    0.17 to 0.05. End-to-end times are therefore reported in reference seconds,
    ``wall * REFERENCE_S / probe``: the time the call would take while the
    probe takes REFERENCE_S, about its median between clips on the 2-core
    host the benchmark was defined on. Raw wall times are printed beside them.
    """

    REFERENCE_S = 0.080

    def __init__(self):
        rng = np.random.default_rng(0)
        self._frames = rng.standard_normal((32, 8192))
        self._values = rng.standard_normal(3701 * 40)
        self._list = self._values[:20000].tolist()

    def start(self) -> None:
        """Time the probe ahead of the first call to be scaled."""
        self._before = self._time()

    def to_reference(self, wall: float) -> float:
        """Reference seconds of a call that just took ``wall`` seconds, scaled
        by the mean of the probe times right before and right after it."""
        after = self._time()
        scaled = wall * 2 * self.REFERENCE_S / (self._before + after)
        self._before = after
        return scaled

    def _time(self) -> float:
        v = self._values
        start = time.perf_counter()
        for _ in range(16):
            np.abs(np.fft.rfft(self._frames, axis=1)).sum()
            np.exp(-0.5 * v * v).sum()
            np.convolve(v[:3701], v[:1801])
            np.bincount((np.abs(v) * 100).astype(np.int64) % 3701, weights=v, minlength=3701)
            acc = 0.0
            for x in self._list:
                acc += x
        return time.perf_counter() - start


class Log:
    """Outcomes of one run: calls attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        """Count one entry call; it failed if it has any problem."""
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += [f"{label}: {p}" for p in problems]


def timed_call(wl: Workload, clip, out: Path, tracer: Tracer | None = None):
    """One entry call and its checks: (wall seconds, result or None, problems)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = wl.call(clip, out)
        else:
            with tracer:
                result = tracer.entry(lambda: wl.call(clip, out))
        wall = time.perf_counter() - start
    except Exception as exc:  # a failing clip is counted and the run goes on
        return time.perf_counter() - start, None, [f"raised {exc!r}"]
    finally:
        if tracer is not None and not tracer.restored():
            raise RuntimeError("traced module attributes were not restored")
    problems = check_result(result, clip)
    if wl.writes_outputs:
        problems += check_files(out, clip)
    return wall, result, problems


def setup_seconds(name: str, seed: int, work: Path, probe: SpeedProbe) -> float:
    """Median time, in reference seconds, of a fresh interpreter importing
    tacholess and building the workload's configs and input files
    (setup_probe.py)."""
    walls, scaled = [], []
    probe.start()
    for i in range(SETUP_REPEATS):
        target = work / f"setup{i}"
        target.mkdir()
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
                        str(target)], check=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        shutil.rmtree(target)
        scaled.append(probe.to_reference(walls[-1]))
    print(f"setup_s raw wall = {statistics.median(walls):.6g} s")
    return statistics.median(scaled)


def yardstick_trajectories(name: str, work: Path) -> dict[str, np.ndarray]:
    """Tracked (MAP, MMSE) trajectories of the workload's short seed-1 clips."""
    work = work / "yardstick"
    work.mkdir()
    try:
        wl = build(name, YARDSTICK_SEED, work, short=True)
        return {clip.label: trajectory(wl.call(clip, work / "out")) for clip in wl.clips}
    finally:
        shutil.rmtree(work)


def max_abs_drpm(name: str, work: Path) -> float:
    """Largest |dRPM| against reference.json; -1 if a trajectory changed length."""
    stored = json.loads((HERE / "reference.json").read_text())[name]
    worst = 0.0
    for label, traj in yardstick_trajectories(name, work).items():
        want = np.array(stored[label])
        if want.shape != traj.shape:
            return -1.0
        worst = max(worst, float(np.max(np.abs(traj - want))))
    return worst


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else -1.0


def _untraced(wl: Workload, seconds: float, work: Path, log: Log, probe: SpeedProbe) -> dict:
    """Cycle the clip list for ``seconds``, always completing one full pass.

    Accuracy comes from the first pass, so it never depends on speed; a
    repeated clip must give the same trajectory as its first run.
    """
    walls, scaled, audio_s = [], [], 0.0
    first: dict[str, np.ndarray] = {}
    p95: dict[str, float] = {}
    rmse: dict[str, float] = {}
    probe.start()
    start = time.perf_counter()
    i = 0
    while True:
        clip = wl.clips[i % len(wl.clips)]
        out = work / f"out{i}"
        wall, result, problems = timed_call(wl, clip, out)
        scaled.append(probe.to_reference(wall))
        shutil.rmtree(out, ignore_errors=True)
        if not problems:
            traj = trajectory(result)
            if clip.label not in first:
                first[clip.label] = traj
                rmse[clip.label], p95[clip.label] = accuracy(traj[:, 1], clip.reference)
            elif not np.array_equal(first[clip.label], traj):
                problems.append("repeat gave a different trajectory")
        log.record(clip.label, problems)
        walls.append(wall)
        audio_s += clip.duration_s
        i += 1
        if i >= len(wl.clips) and time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    for label in rmse:
        print(f"accuracy {label}: rmse {rmse[label]:.4g} RPM, p95 {p95[label]:.4g} RPM")
    print(f"rmse_tracked = {_mean(list(rmse.values())):.6g} RPM (mean over {len(rmse)} clips)")
    print(f"clip_s_p50 over {len(walls)} clips; raw wall seconds: "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"raw wall: clip_s_p50 = {statistics.median(walls):.6g} s, "
          f"rtf = {audio_s / sum(walls):.6g} s/s; host speed factor "
          f"{statistics.median(w / r for w, r in zip(walls, scaled)):.4g}")
    return {
        "clip_s_p50": statistics.median(scaled),
        "rtf": audio_s / sum(scaled),
        "p95_tracked": _mean(list(p95.values())),
    }


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _traced(wl: Workload, seconds: float, work: Path, log: Log) -> dict:
    """Run each clip untraced and traced, alternating which goes first.

    Stops after ``seconds`` but not before every scenario has been traced once.
    """
    tracer = Tracer()
    untraced_s = 0.0
    bytes_written = 0
    rmse: dict[str, list[float]] = {m: [] for m in ("tracked", *RMSE_METHODS)}
    n_scenarios = len(WORKLOADS[wl.name].scenarios)
    start = time.perf_counter()
    n = 0
    while True:
        clip = wl.clips[n % len(wl.clips)]
        pair_start = time.perf_counter()
        calls = {}
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            out = work / f"out{n}{'t' if traced else 'u'}"
            wall, result, problems = timed_call(wl, clip, out, tracer if traced else None)
            if traced:
                bytes_written += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
            else:
                untraced_s += wall
            shutil.rmtree(out, ignore_errors=True)
            calls[traced] = (result, problems)
        (plain, plain_problems), (traced_result, traced_problems) = calls[False], calls[True]
        if not plain_problems:
            rmse["tracked"].append(accuracy(trajectory(plain)[:, 1], clip.reference)[0])
            for method, traj in plain.baselines.items():
                if method in rmse:
                    rmse[method].append(accuracy(traj.rpm, clip.reference)[0])
            if not traced_problems and not np.array_equal(trajectory(plain),
                                                          trajectory(traced_result)):
                traced_problems.append("tracing changed the trajectory")
        log.record(clip.label, plain_problems)
        log.record(clip.label + " (traced)", traced_problems)
        n += 1
        pair_s = time.perf_counter() - pair_start
        if n >= n_scenarios and time.perf_counter() - start + pair_s > seconds:
            break
    if tracer.missing:
        print(f"trace: not wrapped (attribute gone): {', '.join(tracer.missing)}")
    if abs(tracer.accounted_s() - tracer.entry_s) > 1e-6 * max(tracer.entry_s, 1.0):
        log.problems.append("trace: span self times plus glue do not add up to the entry time")

    metrics = {f"{span}.busy_s": tracer.self_s[span] / n for span in BUSY_SPANS}
    metrics.update({
        "estimators.points": tracer.counts["estimators.points"] / n,
        "alignment.calls": tracer.calls["alignment"] / n,
        "alignment.call_p50_ms": _percentile(tracer.durations["alignment"], 50) * 1e3,
        "alignment.call_p99_ms": _percentile(tracer.durations["alignment"], 99) * 1e3,
        "grid.loglik_objects": tracer.counts["grid.loglik_objects"] / n,
        "tracker.step_p50_ms": _percentile(tracer.step_ms, 50),
        "tracker.step_p99_ms": _percentile(tracer.step_ms, 99),
        "tracker.predict.sigma_groups":
            tracer.counts["sigma_groups"] / max(tracer.counts["predict_calls"], 1),
        "ingest.frames": tracer.counts["ingest.frames"] / n,
        "pipeline.bytes_written": bytes_written / n,
        "pipeline.glue_s": tracer.glue_s / n,
        "pipeline.entry_s": tracer.entry_s / n,
        "memory.frame_arrays_mb": tracer.counts["frame_array_bytes"] / n / 2**20,
        "trace.overhead_frac": (tracer.entry_s - untraced_s) / untraced_s,
        "accuracy.rmse_tracked": _mean(rmse.pop("tracked")),
    })
    metrics.update({f"baselines.rmse.{m}": (_mean(v) if v else 0.0) for m, v in rmse.items()})
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 short: bool = False) -> tuple[dict, dict]:
    """Returns (result object as printed, metric values by name)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload '{name}' (expected one of {', '.join(WORKLOADS)})")
    work = root / ".perfbench_work" / f"run-{name}-{seed}-{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        log = Log()
        values: dict[str, float] = {}
        if not trace:
            probe = SpeedProbe()
            values["setup_s"] = setup_seconds(name, seed, work, probe)
        wl = build(name, seed, work, short=short)
        drpm = max_abs_drpm(name, work)
        print(f"yardstick: pipeline.max_abs_drpm = {drpm:.6g} RPM")
        if trace:
            values.update(_traced(wl, seconds, work, log))
            values["pipeline.max_abs_drpm"] = drpm
            values["pipeline.failed_frac"] = log.failed / log.attempted
        else:
            values.update(_untraced(wl, seconds, work, log, probe))
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for problem in log.problems:
            print(f"FAILED {problem}")
        print(f"failed_frac = {log.failed}/{log.attempted}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there
    result = {"correct": not log.problems, "attempted": log.attempted, "failed": log.failed}
    return result, values
