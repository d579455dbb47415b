"""Tacho-less RPM estimation from vibration signals.

Heterogeneous per-frame periodicity evidence (lag-domain difference, real
cepstrum, harmonic comb) is aligned onto one shared RPM grid, pooled
log-linearly, and tracked by a curvature-adaptive recursive grid filter.
"""

from .alignment import CurveToGridConfig, aligned_loglik, kernel_scatter, robust_standardize
from .baselines import framewise_trajectory, single_estimator_pick, viterbi_path, viterbi_stft
from .estimators import (SIGN, cepstrum_curve, comb_plan, difference_function,
                         magnitude_spectrum, yin_curve)
from .fusion import mass_entropy, pool_logliks
from .grid import RpmGrid
from .ingest import (FramingConfig, Signal, frame_signal, frame_times,
                     load_signal, n_frames, save_signal)
from .metrics import compute_metrics, stability_metrics
from .pipeline import (AnalysisResult, EstimatorSetConfig, InputConfig,
                       OutputConfig, RunConfig, ViterbiConfig, analyze,
                       evidence_chunks, metrics_json, run_benchmark,
                       run_pipeline)
from .synth import SCENARIOS, GroundTruth, ScenarioSpec, synthesize
from .tracker import TrackerConfig, curvature_sigma, estimate, predict, track, update

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult", "CurveToGridConfig", "EstimatorSetConfig", "FramingConfig",
    "GroundTruth", "InputConfig", "OutputConfig",
    "RpmGrid", "RunConfig", "SCENARIOS", "SIGN", "ScenarioSpec", "Signal", "TrackerConfig",
    "ViterbiConfig", "aligned_loglik", "analyze", "cepstrum_curve", "comb_plan",
    "compute_metrics", "curvature_sigma",
    "difference_function", "estimate", "evidence_chunks", "frame_signal", "frame_times",
    "framewise_trajectory", "kernel_scatter", "load_signal",
    "magnitude_spectrum", "mass_entropy", "metrics_json", "n_frames",
    "pool_logliks", "predict", "robust_standardize", "run_benchmark",
    "run_pipeline", "save_signal", "single_estimator_pick", "stability_metrics",
    "synthesize", "track", "update", "viterbi_path",
    "viterbi_stft", "yin_curve",
]
