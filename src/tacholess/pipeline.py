"""End-to-end runs: config, orchestration, output files, benchmark sweep.

A run is: resolve input (scenario synthesis or file) -> frame -> evidence
curves -> grid log-likelihoods -> fused likelihood, chunk by chunk of frames
-> tracked trajectory, plus any requested baselines, then metrics against
the ground truth when one exists. The fused chunks stream into the tracker,
so memory is O(chunk x G) plus the per-frame outputs, and the estimators'
FFTs run a sub-block of a chunk at a time. Two threads share the
work: the calling thread computes evidence chunks in order, and a worker
thread tracks them in order and, whenever its next chunk is not ready,
computes a later chunk itself instead of waiting. Each chunk is a Future
holding its rows or its error, and a semaphore bounds the chunks computed
ahead of the tracker; a run raises the error of its earliest failing chunk.
With posteriors dumped, `run_pipeline` pipes each posterior row to a child
process started before the analysis (`posterior_writer.py`), which formats
them into its stdout, `posteriors.csv`, as they arrive.
"""

from __future__ import annotations

import contextlib
import contextvars
import inspect
import json
import subprocess
import sys
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, get_args, get_origin, get_type_hints

import numpy as np

from . import estimators
from .alignment import CurveToGridConfig, aligned_loglik, kernel_scatter
from .baselines import frame_peaks, framewise_trajectory, single_estimator_pick, viterbi_stft
from .estimators import SIGN, magnitude_spectrum
from .fusion import pool_logliks
from .grid import RpmGrid
from .ingest import FramingConfig, Signal, frame_signal, frame_times, load_signal
from .metrics import compute_metrics, stability_metrics
from .plotting import write_trajectory_svg
from .synth import GroundTruth, ScenarioSpec, synthesize
from .tracker import TrackerConfig, track

ESTIMATOR_IDS = ("yin", "cepstrum", "comb")
BASELINE_IDS = (*ESTIMATOR_IDS, "framewise", "viterbi_stft")
# frames per evidence/alignment/fusion step: working memory is O(CHUNK_FRAMES x G).
# Both threads compute chunks, and each thread's allocator arena keeps its own
# chunk's temporaries: on a 2-core host, benchmark peak RSS read 115 MB on
# narrowband-long and 100-105 MB on fullband-5s with 32-frame chunks, 94-97
# and 86-89 MB with 16 at the same speed, and 96-98 and 89-91 MB when only the
# calling thread computed chunks of 32
CHUNK_FRAMES = 16
# frames per FFT stage (YIN, the cepstrum, the magnitude spectrum and what
# reads it) within a chunk: their temporaries are rows x FFT length, the
# largest arrays of a run, and each of the two threads holds a set. A chunk of
# more rows is split as evenly as can be, so a sub-block has one row only
# when its chunk has: numpy gives a one-row block's energy (einsum) other
# bits than the same row of a larger block
SUB_FRAMES = 8
# chunks claimed by either thread but not yet handed to the tracker. The
# calling thread waits at this count while the worker computes a chunk: per
# 20 s narrowband-long clip it waited 0.6 s at 2, 0.01-0.06 s at 3 and none
# in four of five runs at 4, the smallest count that keeps both threads busy
MAX_UNHANDED = 4


def _require_known(section: str, kind: str, names: Iterable[str], known: Sequence[str]) -> None:
    for name in names:
        if name not in known:
            raise ValueError(f"{section}: unknown {kind} '{name}' "
                             f"(expected one of {', '.join(known)})")


@dataclass(frozen=True)
class InputConfig:
    path: str
    format: str | None = None
    sample_rate_hz: float | None = None


@dataclass(frozen=True)
class EstimatorSetConfig:
    comb_candidates: int = 2048
    comb_harmonics: int = 5

    def __post_init__(self):
        for key, least in (("comb_candidates", 2), ("comb_harmonics", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"estimators.{key} must be >= {least}, got {getattr(self, key)}")


@dataclass(frozen=True)
class ViterbiConfig:
    transition_penalty_per_rpm: float = 0.02
    n_candidates_per_frame: int = 10

    def __post_init__(self):
        if not 0 <= self.transition_penalty_per_rpm < np.inf:
            raise ValueError(f"transition penalty must be finite and >= 0, "
                             f"got {self.transition_penalty_per_rpm}")
        if self.n_candidates_per_frame < 1:
            raise ValueError(f"need >= 1 candidate per frame, got {self.n_candidates_per_frame}")


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
        _require_known("baselines", "method", self.baselines, BASELINE_IDS)
        object.__setattr__(self, "baselines", tuple(dict.fromkeys(self.baselines)))
        _require_known("fusion_weights", "estimator", self.fusion_weights, ESTIMATOR_IDS)
        for eid, w in self.fusion_weights.items():
            if not 0 <= w < np.inf:
                raise ValueError(f"fusion_weights: weight for '{eid}' must be finite and >= 0, "
                                 f"got {w}")
        if not any(self.fusion_weights.get(eid, 1.0) > 0 for eid in ESTIMATOR_IDS):
            raise ValueError("fusion_weights: every estimator has weight 0")

    # -- JSON round trip ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        grid = {"r_min": self.grid.r_min, "r_max": self.grid.r_max, "step_rpm": self.grid.step}
        return {**asdict(self), "grid": grid}

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "RunConfig":
        if not isinstance(d, dict):
            return _build("config", cls, d)  # raises: not a JSON object
        kw = {k: _build(f"config.{k}", _SECTIONS[k], v) if k in _SECTIONS and v is not None else v
              for k, v in d.items()}
        if kw.get("scenario") is None:  # absent or null: the input file, else the default
            kw["scenario"] = None if kw.get("input") is not None else ScenarioSpec()
        return _build("config", cls, kw)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


# how each section of RunConfig is built from its JSON object's keys
_SECTIONS = {"scenario": ScenarioSpec, "input": InputConfig, "framing": FramingConfig,
             "grid": RpmGrid.from_step, "alignment": CurveToGridConfig, "tracker": TrackerConfig,
             "estimators": EstimatorSetConfig, "viterbi": ViterbiConfig, "output": OutputConfig}


def _build(section: str, make: Callable[..., Any], d: Any) -> Any:
    """``make(**d)``, after a ValueError naming ``section`` if ``d`` is not a JSON
    object, has a key that ``make`` does not take, lacks one that ``make`` has no
    default for, or holds a value that does not fit the key's annotation."""
    if not isinstance(d, dict):
        raise ValueError(f"{section}: expected a JSON object, got {d!r}")
    params = inspect.signature(make).parameters
    required = {name for name, p in params.items() if p.default is p.empty}
    for kind, keys in (("unknown", set(d) - set(params)), ("missing", required - set(d))):
        if keys:
            raise ValueError(f"{section}: {kind} keys {sorted(keys)}")
    hints = get_type_hints(make)
    for key, value in d.items():
        if not _fits(value, hints[key]):
            hint = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
            raise ValueError(f"{section}.{key}: expected {hint}, got {value!r}")
    return make(**d)


def _fits(value: Any, hint: Any) -> bool:
    """Whether a JSON value fits a type annotation: an int fits a float, a list a
    tuple, and a bool no number."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if origin is dict:  # JSON keys are strings
        return isinstance(value, dict) and all(_fits(v, args[1]) for v in value.values())
    if args:  # a union such as float | None
        return any(_fits(value, h) for h in args)
    if isinstance(value, bool) and hint is not bool:
        return False
    if isinstance(value, int) and hint in (int, float):
        # a float field takes the ints a float holds exactly (numpy ufuncs take
        # no int past 2**64), an int field those within the float range
        return abs(value) <= (2**53 if hint is float else sys.float_info.max)
    return isinstance(value, (int, float) if hint is float else hint)


# -- evidence computation ---------------------------------------------------


def _chunk_evidence(frames: np.ndarray, sample_rate_hz: float,
                    cfg: RunConfig) -> Callable[[int], tuple[np.ndarray, dict[str, Any]]]:
    """The per-run setup of :func:`evidence_chunks`; returns the function of
    the chunk index k that computes chunk k (frames ``k * CHUNK_FRAMES``
    onwards) as :func:`evidence_chunks` yields it. Chunks may be computed in
    any order and on any thread.
    """
    if len(frames) == 0:
        raise ValueError("no frames to analyze")
    grid, fs, est = cfg.grid, sample_rate_hz, cfg.estimators
    frame_len = frames.shape[1]
    freqs = np.linspace(grid.r_min / 60.0, grid.r_max / 60.0, est.comb_candidates)
    rpm = {"comb": 60.0 * freqs}
    pooled = {eid: w for eid in ESTIMATOR_IDS if (w := cfg.fusion_weights.get(eid, 1.0)) > 0}
    picked = [name for name in cfg.baselines if name in ESTIMATOR_IDS]
    computed = list(dict.fromkeys([*pooled, *picked]))
    lagged = [eid for eid in ("yin", "cepstrum") if eid in computed]
    if lagged:
        # the lags whose 60 * fs / tau RPM spans the grid
        tau_min = max(2, int(np.floor(60.0 * fs / grid.r_max)))
        tau_max = int(np.ceil(60.0 * fs / grid.r_min))
        if tau_max > frame_len // 2:
            raise ValueError(
                f"lag estimators {', '.join(lagged)} cannot cover grid r_min {grid.r_min} RPM "
                f"(lag {tau_max} at fs={fs} Hz) with frame_len {frame_len}, which reaches lag "
                f"{frame_len // 2}; use frame_len >= {2 * tau_max} or grid r_min >= "
                f"{int(np.ceil(60.0 * fs / (frame_len // 2)))}"
            )
        if tau_max <= tau_min:
            raise ValueError(f"grid [{grid.r_min}, {grid.r_max}] RPM maps to empty lag range "
                             f"[{tau_min}, {tau_max}] at fs={fs} Hz")
        rpm["yin"] = rpm["cepstrum"] = 60.0 * fs / np.arange(tau_min, tau_max + 1,
                                                             dtype=np.float64)
    if "comb" in computed:
        comb = estimators.comb_plan(estimators.spectrum_size(frame_len), fs, freqs,
                                    est.comb_harmonics)
    inside = {}
    for name in picked:
        inside[name] = (rpm[name] >= grid.r_min) & (rpm[name] <= grid.r_max)
        if not inside[name].any():
            raise ValueError(f"'{name}': no candidate maps inside "
                             f"[{grid.r_min}, {grid.r_max}] RPM")
    scatter = {}
    shared = [eid for eid in lagged if eid in pooled]
    if shared:  # yin and the cepstrum share the lag axis, and so its scatter
        scatter = dict.fromkeys(shared, kernel_scatter(rpm["yin"], grid, cfg.alignment,
                                                       f"curve '{shared[0]}'"))
    if "comb" in pooled:
        scatter["comb"] = kernel_scatter(rpm["comb"], grid, cfg.alignment, "curve 'comb'")
    peaks = "viterbi_stft" in cfg.baselines

    def sub_block(block: np.ndarray) -> dict[str, np.ndarray]:
        # the estimators are called through the module, where a profiler can wrap them
        rows = {}
        if "yin" in computed:
            rows["yin"] = estimators.yin_curve(block, tau_min, tau_max)
        if "cepstrum" in computed:
            rows["cepstrum"] = estimators.cepstrum_curve(block, tau_min, tau_max)
        if "comb" in computed or peaks:  # one spectrum, freed with its sub-block
            mag, nfft = magnitude_spectrum(block)
            if "comb" in computed:
                rows["comb"] = comb(mag)
            if peaks:
                rows["viterbi_stft"] = frame_peaks(mag, nfft, fs, grid.r_min, grid.r_max,
                                                   cfg.viterbi.n_candidates_per_frame)
        return rows

    def evidence(k: int) -> tuple[np.ndarray, dict[str, Any]]:
        block = frames[k * CHUNK_FRAMES:(k + 1) * CHUNK_FRAMES]
        # split as evenly as can be, so that no sub-block has one row unless
        # the chunk has (see SUB_FRAMES)
        n_sub = -(-len(block) // SUB_FRAMES)
        cuts = [len(block) * i // n_sub for i in range(n_sub + 1)]
        subs = [sub_block(block[a:b]) for a, b in zip(cuts, cuts[1:])]
        rows = {key: np.concatenate([sub[key] for sub in subs]) for key in subs[0]}
        del subs
        for eid in computed:
            # a finite but huge recording can overflow every estimator
            if not np.isfinite(rows[eid]).all():
                raise ValueError(f"curve '{eid}' contains non-finite entries")
        parts = {name: single_estimator_pick(rows[name], SIGN[name], rpm[name], inside[name])
                 for name in picked}
        if peaks:
            parts["viterbi_stft"] = rows["viterbi_stft"]
        logliks = [aligned_loglik(rows[eid], SIGN[eid], scatter[eid], cfg.alignment)
                   for eid in pooled]
        fused = pool_logliks(logliks, list(pooled.values()))
        if "framewise" in cfg.baselines:
            parts["framewise"] = framewise_trajectory(fused, grid)
        return fused, parts

    return evidence


def _n_chunks(n_frames: int) -> int:
    return -(-n_frames // CHUNK_FRAMES)


def evidence_chunks(frames: np.ndarray, sample_rate_hz: float,
                    cfg: RunConfig) -> Iterator[tuple[np.ndarray, dict[str, Any]]]:
    """Fused grid log-likelihood of a (T, N) block of frames, CHUNK_FRAMES
    frames at a time: yields each chunk's fused (n, G) rows and, for each
    baseline in ``cfg.baselines``, its part for the chunk's frames, an array
    with a row per frame: the RPM of each pick and of ``framewise``, and
    under ``viterbi_stft`` the (n, k) peak candidates of :func:`frame_peaks`.

    The estimators of positive ``fusion_weights`` are pooled in ESTIMATOR_IDS
    order; one of weight 0 is computed only for its pick, and never aligned.
    Each estimator's axis is the same in every frame, so its RPM points, its
    scatter matrix, each pick's band mask and the comb's harmonic positions
    are made once per run; YIN and the cepstrum share one lag axis and one
    scatter. The FFT stages (YIN, the cepstrum, and the magnitude spectrum
    with the comb and ``viterbi_stft``'s peaks that read it) run on
    SUB_FRAMES rows at a time, which bounds their temporaries; the spectrum
    is computed once per sub-block, and only if the comb or ``viterbi_stft``
    reads it. Alignment and pooling run on the whole chunk, and nothing
    outlives its chunk.
    """
    evidence = _chunk_evidence(frames, sample_rate_hz, cfg)
    for k in range(_n_chunks(len(frames))):
        yield evidence(k)


def _track_while_computing(n_chunks: int, compute: Callable[[int], Any],
                           consume: Callable[[Iterator[Any]], Any]) -> Any:
    """``consume(chunks)`` run on one worker thread, where ``chunks`` yields
    ``compute(k)`` for k = 0 .. n_chunks - 1 in order; returns what
    ``consume`` returns.

    Both threads claim the lowest unclaimed chunk and compute it: this thread
    one chunk after another, the worker whenever its next chunk is not
    computed yet, so neither waits while there is a chunk to compute. At most
    MAX_UNHANDED chunks are claimed and not yet handed to ``consume``. Each
    chunk is a Future that holds its result or its error until it is handed
    over, so a run raises the error of its earliest failing chunk, whichever
    thread computed it. The worker has finished when this returns.

    The evidence stays on this thread and ``consume`` on the worker: the other
    way round (chunks queued on a pool, taken back with ``Future.cancel``), a
    20 s narrowband analyze on a 2-core host read 112-117k minor page faults
    against 16-32k, as glibc trims the evidence temporaries' non-main arena
    and faults them in again (1.5k with MALLOC_ARENA_MAX=1).
    """
    chunks = {k: Future() for k in range(n_chunks)}  # deleted once handed over
    unclaimed, claiming = iter(range(n_chunks)), threading.Lock()
    room = threading.Semaphore(MAX_UNHANDED)  # taken by each claim, given back by each hand-over

    def claim() -> int | None:
        with claiming:
            return next(unclaimed, None)

    def drain() -> list[int]:
        with claiming:
            return list(unclaimed)

    def make(k: int) -> None:
        try:
            chunks[k].set_result(compute(k))
        except BaseException as exc:  # raised where chunk k is handed over
            chunks[k].set_exception(exc)
            drain()  # every earlier chunk is claimed, and no later one is needed
            if not isinstance(exc, Exception):
                raise

    def in_order() -> Iterator[Any]:
        for k in range(n_chunks):
            # without room, chunk k is claimed already
            while not chunks[k].done() and room.acquire(blocking=False):
                if (j := claim()) is None:
                    break
                make(j)
            item = chunks[k].result()  # kept until done: the thread computing it sets it
            del chunks[k]
            room.release()
            yield item

    def run():
        try:
            return consume(in_order())
        finally:  # the calling thread claims no more chunks, nor waits for room
            drain()
            room.release()

    with ThreadPoolExecutor(max_workers=1) as pool:
        # in this thread's context, so that the caller's np.errstate holds there too
        consuming = pool.submit(contextvars.copy_context().run, run)
        try:
            while room.acquire() and (k := claim()) is not None:
                make(k)
        except BaseException as exc:  # an interrupt: the worker stops at the first unclaimed chunk
            for k in drain():
                chunks[k].set_exception(exc)
            raise
        return consuming.result()


# -- analysis ---------------------------------------------------------------


@dataclass
class AnalysisResult:
    config: RunConfig
    times_s: np.ndarray
    # one row per frame: frame_index, time_s, map_rpm, mmse_rpm, sigma_rpm,
    # entropy_nats; read a column (tracked.mmse_rpm) or a row (tracked[-1])
    tracked: np.recarray
    # per method, one row per frame: frame_index, time_s, rpm
    baselines: dict[str, np.recarray]
    reference: np.ndarray | None
    metrics: dict[str, dict[str, float]]


def _resolve_input(cfg: RunConfig) -> tuple[Signal, GroundTruth | None]:
    if cfg.scenario is not None:
        return synthesize(cfg.scenario, rpm_bounds=(cfg.grid.r_min, cfg.grid.r_max))
    sig = load_signal(cfg.input.path, cfg.input.format, cfg.input.sample_rate_hz)
    return sig, None


def analyze(cfg: RunConfig,
            posterior_sink: Callable[[np.ndarray], Any] | None = None) -> AnalysisResult:
    """Run the full pipeline in memory (no files written).

    The tracker filters the fused rows chunk by chunk, in order, on one
    worker thread while the calling thread computes evidence chunks; when
    its next chunk is not ready the worker computes a later one itself
    rather than wait. An error is raised in frame order: that of the
    earliest chunk whose evidence or tracking fails, whichever thread
    computed it. No (T, G) array of the recording is built. Each frame's
    (G,) posterior row goes to ``posterior_sink``, if given, in frame order
    on the tracker's thread.
    """
    signal, truth = _resolve_input(cfg)
    framing = cfg.framing
    times = frame_times(signal, framing)
    if len(times) < 2:  # a trajectory's metrics need two frames
        raise ValueError(f"{len(signal)} samples give {len(times)} frame(s) at frame_len "
                         f"{framing.frame_len}, hop {framing.hop}; need >= 2 frames, i.e. "
                         f">= {framing.frame_len + framing.hop} samples")
    # the truth's per-sample speeds are 8 bytes a sample; only each frame's is kept
    reference = truth.frame_references(framing) if truth is not None else None
    del truth
    frames = frame_signal(signal, framing)
    evidence = _chunk_evidence(frames, signal.sample_rate_hz, cfg)
    n_chunks = _n_chunks(len(frames))
    parts: list[Any] = [None] * n_chunks  # each chunk's baseline parts, by chunk index

    def fused_rows(k):
        fused, parts[k] = evidence(k)
        return fused

    tracked = _track_while_computing(
        n_chunks, fused_rows,
        lambda blocks: track(blocks, cfg.grid, cfg.tracker, times, posterior_sink=posterior_sink))

    baselines = {}
    for name in cfg.baselines:
        rpm = np.concatenate([p[name] for p in parts])
        if name == "viterbi_stft":
            rpm = viterbi_stft(rpm, cfg.viterbi.transition_penalty_per_rpm)
        baselines[name] = np.rec.fromarrays([tracked.frame_index, tracked.time_s, rpm],
                                            names=("frame_index", "time_s", "rpm"))

    metrics: dict[str, dict[str, float]] = {}
    series = {"tracked": tracked.mmse_rpm, **{name: b.rpm for name, b in baselines.items()}}
    for name, rpm in series.items():
        if reference is not None:
            metrics[name] = compute_metrics(rpm, reference)
        else:
            metrics[name] = stability_metrics(rpm)

    return AnalysisResult(config=cfg, times_s=times, tracked=tracked,
                          baselines=baselines, reference=reference, metrics=metrics)


# -- output files -----------------------------------------------------------


def metrics_json(result: AnalysisResult) -> str:
    payload = {
        "methods": result.metrics,
        "n_frames": len(result.times_s),
        "has_reference": result.reference is not None,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_table(path: Path, header: Sequence[str] | None, formats: Sequence[str],
                rows: Iterable[Sequence[Any]]) -> Path:
    """Write ``header`` (if any) and then one comma-separated line per row.

    Each row is formatted by one bytes ``%`` template of ``formats`` ("%d",
    "%.9g", or "%s" for a bytes field), built once, so a row costs one
    C-level call. On 3701-field posterior rows bytes formatting was faster
    than str formatting, and str formatting left peak RSS a few MB higher.
    For fields that need no quoting the bytes, ``\\r\\n`` line ends included,
    equal those of ``csv.writer`` with ``f"{x:.9g}"`` numbers, including -0,
    subnormals, nan and +-inf.
    """
    template = (",".join(formats) + "\r\n").encode()
    with open(path, "wb") as fh:
        if header is not None:
            fh.write((",".join(header) + "\r\n").encode())
        for row in rows:
            fh.write(template % tuple(row))
    return path


def write_ground_truth(path: Path, times_s: np.ndarray, reference: np.ndarray) -> Path:
    """Per-frame reference RPM as ``frame_index,time_s,rpm_ref``."""
    return write_table(path, ["frame_index", "time_s", "rpm_ref"], ["%d", "%.9g", "%.9g"],
                       zip(range(1, len(times_s) + 1), times_s.tolist(), reference.tolist()))


def write_outputs(result: AnalysisResult, out_dir: str | Path) -> None:
    """Write the run's tables, metrics, config and any plot into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tracked = result.tracked
    tables = {"trajectory": tracked,
              **{f"baseline_{name}": rows for name, rows in result.baselines.items()}}
    for key, rows in tables.items():  # an int frame_index, then floats
        write_table(out / f"{key}.csv", rows.dtype.names,
                    ["%d"] + ["%.9g"] * (len(rows.dtype.names) - 1), rows.tolist())

    if result.reference is not None:
        write_ground_truth(out / "ground_truth.csv", result.times_s, result.reference)

    (out / "metrics.json").write_text(metrics_json(result))
    (out / "config.json").write_text(result.config.to_json())

    if result.config.output.plot:
        series = {"tracked": tracked.mmse_rpm,
                  **{name: b.rpm for name, b in result.baselines.items()}}
        band = (tracked.mmse_rpm - tracked.sigma_rpm, tracked.mmse_rpm + tracked.sigma_rpm)
        write_trajectory_svg(out / "trajectory.svg", result.times_s, series, band=band,
                             reference=result.reference)


@contextlib.contextmanager
def _posterior_table(path: Path, grid: RpmGrid) -> Iterator[Callable[[np.ndarray], None]]:
    """Open ``path`` and yield a posterior sink that pipes each row's float64
    bytes, after the grid row, to a child process (``posterior_writer.py``)
    that formats them into its stdout, the open ``path``. On leaving, the
    pipe is closed and the child waited for; a child that failed raises a
    RuntimeError naming its exit code. An error or interrupt kills and reaps
    the child. A table that was not written whole is removed."""
    table = open(path, "wb")
    try:
        with table:
            # -S: site imports what site-packages' .pth files name (a start took
            # 32 ms against 7 ms); in a new session, so that a terminal's
            # interrupt reaches this process alone, which then stops the child
            writer = subprocess.Popen(
                [sys.executable, "-I", "-S", str(Path(__file__).with_name("posterior_writer.py")),
                 str(grid.n_points)],
                stdin=subprocess.PIPE, stdout=table, start_new_session=True)
            try:
                # the child formats a default-grid row in about 1 ms and the
                # tracker makes one in about 0.5 ms, in bursts of a chunk: a
                # 64 KiB pipe holds two such rows and stalled the tracker (a 5 s
                # wav-outputs clip took 0.79-0.86 s against 0.73-0.76 s), 1 MiB
                # holds 35. Where the size cannot be set, the run is only slower
                with contextlib.suppress(AttributeError, OSError):
                    import fcntl
                    fcntl.fcntl(writer.stdin.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)

                def sink(row: np.ndarray) -> None:
                    # a child that has exited fails the run once it is reaped
                    with contextlib.suppress(BrokenPipeError):
                        writer.stdin.write(row)

                sink(grid.values)
                yield sink
                with contextlib.suppress(BrokenPipeError):
                    writer.stdin.close()  # the child formats the rest and exits
                if writer.wait() != 0:
                    raise RuntimeError(f"posteriors.csv: the writer exited with code "
                                       f"{writer.returncode}")
            except BaseException:
                writer.kill()  # before its stdin ends, so that it stops where it is
                writer.wait()
                with contextlib.suppress(BrokenPipeError):
                    writer.stdin.close()
                raise
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def run_pipeline(cfg: RunConfig, out_dir: str | Path) -> AnalysisResult:
    """analyze() plus the output files; returns the in-memory result.

    ``out_dir`` is made first. With ``output.dump_posteriors``,
    ``posteriors.csv`` is opened before the analysis, so a path that cannot
    be written fails first, and the tracker pipes each posterior row to a
    child process that formats the table while the analysis runs (see
    ``_posterior_table``), so the run holds no (T, G) array. A failed run
    removes ``out_dir`` if it made it and wrote nothing there.
    """
    out = Path(out_dir)
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    try:
        with (_posterior_table(out / "posteriors.csv", cfg.grid) if cfg.output.dump_posteriors
              else contextlib.nullcontext()) as sink:
            result = analyze(cfg, posterior_sink=sink)
            write_outputs(result, out)
        return result
    except BaseException:
        if made and not any(out.iterdir()):
            out.rmdir()
        raise


# -- benchmark sweep --------------------------------------------------------


def _benchmark_worker(cfg: RunConfig) -> dict[str, dict[str, float]]:
    return analyze(cfg).metrics


def run_benchmark(cfg: RunConfig, scenarios: Sequence[str], seeds: Sequence[int],
                  out_dir: str | Path, jobs: int = 1) -> dict[str, dict[str, dict[str, float]]]:
    """Scenario x seed sweep of the tracker and every baseline.

    The ``framewise`` rows are the ablation: the same fused evidence without
    the tracker's temporal propagation. Returns {scenario: {method: {key:
    mean over seeds}}} for the keys of benchmark_runs.csv (one row per run
    and method, scenario by scenario, then seed by seed in the order given),
    and writes the mean RMSE/P95 per scenario to benchmark.csv (wide table)
    and benchmark.txt. A repeated scenario or seed runs once. With ``jobs``
    > 1 the runs share that many spawned worker processes, each running
    :func:`analyze` on two threads; more jobs than CPUs only adds contention.
    A script that calls this with ``jobs`` > 1 needs the usual ``if __name__
    == "__main__":`` guard, as each worker imports the script's main module.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    scenarios, seeds = list(dict.fromkeys(scenarios)), list(dict.fromkeys(map(int, seeds)))
    if not scenarios or not seeds:
        raise ValueError(f"need at least one scenario and one seed, got {len(scenarios)} "
                         f"scenarios and {len(seeds)} seeds")
    # every run's config is built, and so checked, before the first run
    template = cfg.scenario if cfg.scenario is not None else ScenarioSpec()
    work = {(sc, seed): replace(cfg, scenario=replace(template, scenario=sc, seed=seed),
                                input=None, baselines=BASELINE_IDS, output=OutputConfig())
            for sc in scenarios for seed in seeds}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if jobs > 1:
        # imported here: multiprocessing is about a quarter of the import time
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        # spawned: a fork would copy this process's other threads (BLAS's) mid-lock
        with ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("spawn")) as pool:
            results = list(pool.map(_benchmark_worker, work.values()))
    else:
        results = list(map(_benchmark_worker, work.values()))
    raw = [(sc, seed, metrics) for (sc, seed), metrics in zip(work, results)]

    methods = (*BASELINE_IDS, "tracked")
    keys = ("rmse", "p95", "jitter", "max_jump")
    write_table(out / "benchmark_runs.csv", ["scenario", "seed", "method", *keys],
                ["%s", "%d", "%s"] + ["%.9g"] * len(keys),
                ([scenario.encode(), seed, method.encode()] + [metrics[method][k] for k in keys]
                 for scenario, seed, metrics in raw for method in methods))

    table = {sc: {method: {k: float(np.mean([m[method][k] for s, _, m in raw if s == sc]))
                           for k in keys}
                  for method in methods}
             for sc in scenarios}

    columns = [(sc, k) for sc in scenarios for k in ("rmse", "p95")]
    write_table(out / "benchmark.csv", ["method"] + [f"{sc}_{k}" for sc, k in columns],
                ["%s"] + ["%.9g"] * len(columns),
                ([method.encode()] + [table[sc][method][k] for sc, k in columns]
                 for method in methods))

    lines = [f"mean over {len(seeds)} seed(s); RMSE / P95 in RPM", ""]
    head = f"{'method':<12}" + "".join(f"{sc + ' RMSE':>12}{sc + ' P95':>12}" for sc in scenarios)
    lines.append(head)
    for method in methods:
        row = f"{method:<12}"
        for sc in scenarios:
            row += f"{table[sc][method]['rmse']:>12.1f}{table[sc][method]['p95']:>12.1f}"
        lines.append(row)
    (out / "benchmark.txt").write_text("\n".join(lines) + "\n")
    return table
