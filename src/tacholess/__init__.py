"""Tacho-less RPM estimation from vibration signals.

Heterogeneous per-frame periodicity evidence (lag-domain difference, real
cepstrum, harmonic comb) is aligned onto one shared RPM grid, pooled
log-linearly, and tracked by a curvature-adaptive recursive grid filter.
"""

from .alignment import (CurveToGridConfig, curve_to_grid_loglik, map_axis_to_rpm,
                        robust_standardize, to_energy)
from .baselines import (BaselineTrajectory, framewise_trajectory,
                        single_estimator_pick, viterbi_path, viterbi_stft)
from .estimators import (AxisType, EvidenceCurve, Polarity, cepstrum_curve,
                         comb_curve, difference_function, lag_bounds, yin_curve)
from .fusion import FusionWeights, fuse_loglik, mass_entropy, posterior_entropy
from .grid import GridLogLikelihood, RpmGrid
from .ingest import (FramingConfig, Signal, frame_signal, frame_times,
                     load_signal, n_frames, save_signal)
from .metrics import compute_metrics, stability_metrics
from .pipeline import (AnalysisResult, EstimatorSetConfig, InputConfig,
                       OutputConfig, RunConfig, ViterbiConfig, analyze,
                       metrics_json, run_ablation, run_benchmark, run_pipeline)
from .synth import SCENARIOS, GroundTruth, ScenarioSpec, synthesize
from .tracker import (PosteriorState, TrackerConfig, TrajectoryPoint,
                      curvature_sigma, estimate, init_posterior, predict,
                      track, update)

__version__ = "0.1.0"

__all__ = [
    "AnalysisResult", "AxisType", "BaselineTrajectory", "CurveToGridConfig",
    "EstimatorSetConfig", "EvidenceCurve", "FramingConfig",
    "FusionWeights", "GridLogLikelihood", "GroundTruth", "InputConfig",
    "OutputConfig", "Polarity", "PosteriorState", "RpmGrid", "RunConfig",
    "SCENARIOS", "ScenarioSpec", "Signal", "TrackerConfig", "TrajectoryPoint",
    "ViterbiConfig", "analyze", "cepstrum_curve", "comb_curve",
    "compute_metrics", "curvature_sigma", "curve_to_grid_loglik",
    "difference_function", "estimate", "frame_signal", "frame_times",
    "framewise_trajectory", "fuse_loglik", "init_posterior", "lag_bounds",
    "load_signal", "map_axis_to_rpm", "mass_entropy", "metrics_json", "n_frames",
    "posterior_entropy", "predict", "robust_standardize", "run_ablation", "run_benchmark",
    "run_pipeline", "save_signal", "single_estimator_pick", "stability_metrics",
    "synthesize", "to_energy", "track", "update", "viterbi_path",
    "viterbi_stft", "yin_curve",
]
