"""Per-layer timing by wrapping the module attributes the pipeline calls through.

``pipeline.analyze`` reaches each layer through names bound in
``tacholess.pipeline`` (and the tracker loop through names in
``tacholess.tracker``), so replacing those attributes with timing wrappers
records a span around every call into a layer without changing the program.
A span's self time is its duration minus the time of the spans it encloses,
so the self times of all spans plus the glue (entry-call time outside any
span) add up to the traced entry-call time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from tacholess import baselines, grid, pipeline, tracker


def _points(tr, args, result):
    tr.counts["estimators.points"] += len(result.axis)
    tr.counts["frame_array_bytes"] += result.axis.nbytes + result.values.nbytes


def _fused(tr, args, result):
    tr.counts["frame_array_bytes"] += result.log_values.nbytes


def _frames(tr, args, result):
    tr.counts["ingest.frames"] += len(result)


def _sigma_groups(tr, args, result):
    tr.counts["sigma_groups"] += np.unique(args[1]).size
    tr.counts["predict_calls"] += 1


# (module, attribute, span name, hook run after the call with (tracer, args, result))
TARGETS = (
    (pipeline, "synthesize", "synth", None),
    (pipeline, "load_signal", "ingest.load", None),
    (pipeline, "frame_signal", "ingest.frame", _frames),
    (baselines, "frame_signal", "ingest.frame", _frames),
    (pipeline, "yin_curve", "estimators.yin", _points),
    (pipeline, "cepstrum_curve", "estimators.cepstrum", _points),
    (pipeline, "comb_curve", "estimators.comb", _points),
    (pipeline, "curve_to_grid_loglik", "alignment", None),
    (pipeline, "fuse_loglik", "fusion", _fused),
    (pipeline, "track", "tracker.loop", None),
    (tracker, "curvature_sigma", "tracker.curvature", None),
    (tracker, "predict", "tracker.predict", _sigma_groups),
    (tracker, "update", "tracker.update", None),
    (tracker, "estimate", "tracker.estimate", None),
    (pipeline, "single_estimator_pick", "baselines.pick", None),
    (pipeline, "framewise_trajectory", "baselines.framewise", None),
    (pipeline, "viterbi_stft", "baselines.viterbi_stft", None),
    (pipeline, "compute_metrics", "metrics", None),
    (pipeline, "stability_metrics", "metrics", None),
    (pipeline, "write_outputs", "pipeline.write", None),
    (pipeline, "write_trajectory_svg", "plotting", None),
)


class Tracer:
    """Installs the wrappers on enter and puts the originals back on exit."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.step_ms: list[float] = []
        self.step_start: float | None = None
        self.glue_s = 0.0
        self.entry_s = 0.0
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # [enclosed child time] per open span
        self._top_s = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        self._saved = []
        self.missing = []
        for module, attr, name, hook in TARGETS:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))
        cls = getattr(grid, "GridLogLikelihood", None)
        if cls is None:
            self.missing.append("grid.GridLogLikelihood")
            return self
        original_post_init = cls.__post_init__
        self._saved.append((cls, "__post_init__", original_post_init))
        counts = self.counts

        def counted_post_init(obj):
            counts["grid.loglik_objects"] += 1
            original_post_init(obj)

        cls.__post_init__ = counted_post_init
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        return False

    def restored(self) -> bool:
        """True when every patched attribute holds its original object again."""
        return all(getattr(owner, attr) is original for owner, attr, original in self._saved)

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, name, hook):
        stack = self._stack
        keep = name == "alignment"  # every call's duration is kept for percentiles
        begins_step = name == "tracker.curvature"
        ends_step = name == "tracker.estimate"

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            stack.append([0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                (child,) = stack.pop()
                dur = end - start
                self.self_s[name] += dur - child
                self.calls[name] += 1
                if keep:
                    self.durations[name].append(dur)
                if stack:
                    stack[-1][0] += dur
                else:
                    self._top_s += dur
            if begins_step:
                self.step_start = start
            elif ends_step and self.step_start is not None:
                self.step_ms.append((end - self.step_start) * 1e3)
                self.step_start = None
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def entry(self, call):
        """Run one traced entry call, charging time outside every span to glue."""
        top_before = self._top_s
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        self.entry_s += wall
        self.glue_s += wall - (self._top_s - top_before)
        return result

    def accounted_s(self) -> float:
        """Self time of every span plus glue; equals entry_s up to rounding."""
        return sum(self.self_s.values()) + self.glue_s
