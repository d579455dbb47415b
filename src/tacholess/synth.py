"""Synthetic vibration benchmark scenarios with exact ground truth.

Scenario codes:

* S0  clean constant-speed harmonic series (no stressor)
* S1  adds a half-order subharmonic (octave ambiguity stress)
* S2  additive white Gaussian noise at a target SNR
* S3  strong periodic interference at a non-integer multiple of the fundamental
* S4  per-harmonic detuning (inharmonicity)
* S5  phase-continuous step change in speed

S1-S4 ride a slow +/-1% sinusoidal wobble on the base speed; S5 uses a step
trajectory. Harmonic phases are initialized from the seed so every scenario
varies across seeds; noise (when enabled) is drawn after the phases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import FramingConfig, Signal, n_frames

SCENARIOS = ("S0", "S1", "S2", "S3", "S4", "S5")

_DEFAULT_DETUNING = (0.0, 0.012, -0.015, 0.018, -0.02)


@dataclass(frozen=True)
class ScenarioSpec:
    scenario: str = "S0"
    duration_s: float = 5.0
    sample_rate_hz: float = 12800.0
    base_rpm: float = 1500.0
    n_harmonics: int = 5
    harmonic_amps: tuple[float, ...] | None = None  # default 1/m rolloff
    seed: int = 0
    wobble_fraction: float = 0.01
    wobble_period_s: float = 2.0
    sub_ratio: float = 0.4            # S1: subharmonic amplitude relative to fundamental
    snr_db: float | None = None       # S2 stressor; optional noise floor elsewhere
    interference_level: float = 2.0   # S3: interferer amplitude relative to fundamental
    alpha: float = 3.7                # S3: interferer order, must be non-integer
    detuning: tuple[float, ...] | None = None  # S4: per-harmonic relative shifts
    jump_rpm: float = 600.0           # S5
    jump_time_s: float = 2.5          # S5

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario '{self.scenario}' (expected one of {SCENARIOS})")
        for name in ("duration_s", "sample_rate_hz", "base_rpm", "wobble_period_s"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("alpha", "snr_db"):
            v = getattr(self, name)
            if v is not None and not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.n_harmonics < 1:
            raise ValueError(f"n_harmonics must be >= 1, got {self.n_harmonics}")
        for name in ("harmonic_amps", "detuning"):
            v = getattr(self, name)
            if v is not None and len(v) != self.n_harmonics:
                raise ValueError(f"{name} has {len(v)} entries for {self.n_harmonics} harmonics")
        if not 0 <= self.wobble_fraction < 1:
            raise ValueError(f"wobble_fraction must be in [0, 1), got {self.wobble_fraction}")
        if self.scenario == "S2" and self.snr_db is None:
            object.__setattr__(self, "snr_db", 0.0)
        if self.scenario == "S3" and abs(self.alpha - round(self.alpha)) < 1e-6:
            raise ValueError(f"alpha must be a non-integer order, got {self.alpha}")
        if self.scenario == "S5" and not 0 < self.jump_time_s < self.duration_s:
            raise ValueError(
                f"jump_time_s must fall inside (0, {self.duration_s}), got {self.jump_time_s}"
            )
        for name in ("harmonic_amps", "detuning"):  # JSON lists become tuples
            if getattr(self, name) is not None:
                object.__setattr__(self, name, tuple(map(float, getattr(self, name))))

    def amps(self) -> np.ndarray:
        if self.harmonic_amps is not None:
            return np.asarray(self.harmonic_amps, dtype=np.float64)
        return 1.0 / np.arange(1, self.n_harmonics + 1)

    def detuning_vector(self) -> np.ndarray:
        if self.scenario != "S4":
            return np.zeros(self.n_harmonics)
        src = self.detuning if self.detuning is not None else _DEFAULT_DETUNING
        out = np.zeros(self.n_harmonics)
        take = min(len(src), self.n_harmonics)
        out[:take] = src[:take]
        return out


@dataclass(frozen=True)
class GroundTruth:
    """Dense per-sample speed trajectory in RPM."""

    sample_rate_hz: float
    rpm_samples: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rpm_samples, dtype=np.float64)
        r.flags.writeable = False
        object.__setattr__(self, "rpm_samples", r)

    def frame_references(self, framing: FramingConfig) -> np.ndarray:
        """Reference speed at each frame center."""
        nfr = n_frames(len(self.rpm_samples), framing)
        if nfr == 0:
            raise ValueError("trajectory shorter than one frame")
        centers = np.arange(nfr) * framing.hop + framing.frame_len // 2
        return self.rpm_samples[centers].copy()


def _trajectory(spec: ScenarioSpec, n: int) -> np.ndarray:
    t = np.arange(n) / spec.sample_rate_hz
    if spec.scenario == "S5":
        return np.where(t < spec.jump_time_s, spec.base_rpm, spec.base_rpm + spec.jump_rpm)
    if spec.scenario == "S0":
        return np.full(n, spec.base_rpm)
    wobble = spec.wobble_fraction * np.sin(2.0 * np.pi * t / spec.wobble_period_s)
    return spec.base_rpm * (1.0 + wobble)


def synthesize(spec: ScenarioSpec,
               rpm_bounds: tuple[float, float] = (300.0, 4000.0)) -> tuple[Signal, GroundTruth]:
    """Render the scenario waveform and its ground-truth trajectory.

    The fundamental phase is the cumulative sum of the instantaneous frequency
    at sample resolution (so S5 steps stay phase-continuous); harmonic m uses
    m times that phase, scaled by (1 + detuning_m) under S4.
    """
    n = int(round(spec.duration_s * spec.sample_rate_hz))
    if n < 2:
        raise ValueError(f"duration {spec.duration_s}s at {spec.sample_rate_hz}Hz is too short")
    rng = np.random.default_rng(spec.seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=spec.n_harmonics)
    theta_sub, theta_int = rng.uniform(0.0, 2.0 * np.pi, size=2)

    rpm = _trajectory(spec, n)
    lo, hi = rpm_bounds
    if rpm.min() < lo or rpm.max() > hi:
        raise ValueError(
            f"trajectory exits RPM bounds [{lo}, {hi}]: spans "
            f"[{rpm.min():.1f}, {rpm.max():.1f}]"
        )

    f0 = rpm / 60.0
    phi = 2.0 * np.pi * np.concatenate(([0.0], np.cumsum(f0[:-1]))) / spec.sample_rate_hz
    amps = spec.amps()
    detune = spec.detuning_vector()
    # each tone amp * sin(order * phi + phase) is added to x as it was
    # evaluated, factor by factor, but in one buffer, not one array per step
    tones = [(amps[m - 1], m * (1.0 + detune[m - 1]), theta[m - 1])
             for m in range(1, spec.n_harmonics + 1)]
    if spec.scenario == "S1":
        tones.append((spec.sub_ratio * amps[0], 0.5, theta_sub))
    if spec.scenario == "S3":
        tones.append((spec.interference_level * amps[0], spec.alpha, theta_int))
    x, tone = np.zeros(n), np.empty(n)
    for amp, order, phase in tones:
        np.multiply(order, phi, out=tone)
        tone += phase
        np.sin(tone, out=tone)
        tone *= amp
        x += tone
    del tone
    if spec.snr_db is not None:
        power = float(np.mean(x * x))
        noise_std = np.sqrt(power / 10.0 ** (spec.snr_db / 10.0))
        x += rng.normal(0.0, noise_std, size=n)
    return Signal(x, spec.sample_rate_hz), GroundTruth(spec.sample_rate_hz, rpm)
