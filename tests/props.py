"""Randomized invariant checks shared by the module tests (small case counts)
and the acceptance suite (1000+ cases per invariant)."""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from tacholess import (
    AxisType,
    CurveToGridConfig,
    EvidenceCurve,
    FramingConfig,
    FusionWeights,
    GridLogLikelihood,
    Polarity,
    PosteriorState,
    RpmGrid,
    ScenarioSpec,
    TrackerConfig,
    curve_to_grid_loglik,
    curvature_sigma,
    frame_signal,
    fuse_loglik,
    mass_entropy,
    n_frames,
    posterior_entropy,
    predict,
    robust_standardize,
    synthesize,
    track,
    update,
)
from tacholess.ingest import Signal
from tacholess.synth import SCENARIOS


def _random_grid(rng: np.random.Generator) -> RpmGrid:
    r_min = float(rng.uniform(200.0, 1500.0))
    span = float(rng.uniform(30.0, 400.0))
    g = int(rng.integers(8, 64))
    return RpmGrid(r_min=r_min, r_max=r_min + span, n_points=g)


def _random_curve(rng: np.random.Generator, grid: RpmGrid) -> EvidenceCurve:
    k = int(rng.integers(3, 24))
    axis = np.sort(rng.uniform(grid.r_min, grid.r_max, k))
    axis += np.arange(k) * 1e-6  # strictly increasing even after sort ties
    values = rng.normal(0.0, 1.0, k)
    polarity = Polarity.COST if rng.integers(2) else Polarity.SCORE
    return EvidenceCurve(estimator_id="prop", axis=axis, values=values,
                         axis_type=AxisType.RPM, polarity=polarity)


def _random_log_values(rng: np.random.Generator, grid: RpmGrid) -> np.ndarray:
    raw = rng.normal(0.0, 2.0, grid.n_points)
    return raw - logsumexp(raw)


def _random_loglik(rng: np.random.Generator, grid: RpmGrid,
                   estimator_id: str = "prop") -> GridLogLikelihood:
    return GridLogLikelihood(estimator_id=estimator_id, grid=grid,
                             log_values=_random_log_values(rng, grid))


def _random_state(rng: np.random.Generator, grid: RpmGrid) -> PosteriorState:
    mass = rng.dirichlet(np.full(grid.n_points, 0.6))
    mass = mass / mass.sum()
    return PosteriorState(grid=grid, mass=mass, frame_index=1)


def check_standardize(n_cases: int, seed: int = 101) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        k = int(rng.integers(4, 80))
        v = rng.normal(0.0, float(rng.uniform(0.05, 50.0)), k)
        out = robust_standardize(v)
        assert np.all(np.isfinite(out))
        assert abs(float(np.median(out))) < 1e-9
        a = float(rng.uniform(0.5, 20.0))
        b = float(rng.normal(0.0, 10.0))
        shifted = robust_standardize(a * v + b)
        assert np.allclose(shifted, out, atol=1e-6)


def check_curve_to_grid(n_cases: int, seed: int = 202) -> None:
    cfg = CurveToGridConfig()
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        grid = _random_grid(rng)
        curve = _random_curve(rng, grid)
        lik = curve_to_grid_loglik(curve, grid, cfg, sample_rate_hz=12800.0)
        assert np.all(np.isfinite(lik.log_values))
        assert abs(float(logsumexp(lik.log_values))) < 1e-9
        again = curve_to_grid_loglik(curve, grid, cfg, sample_rate_hz=12800.0)
        assert np.array_equal(lik.log_values, again.log_values)


def check_fusion(n_cases: int, seed: int = 303) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        grid = _random_grid(rng)
        k = int(rng.integers(1, 5))
        liks = [_random_loglik(rng, grid, f"e{i}") for i in range(k)]
        w = {f"e{i}": float(rng.uniform(0.0, 3.0)) for i in range(k)}
        w["e0"] = max(w["e0"], 0.5)  # keep at least one positive weight
        fused = fuse_loglik(liks, FusionWeights(w))
        assert abs(float(logsumexp(fused.log_values))) < 1e-9
        assert np.all(np.isfinite(fused.log_values))
        dropped = [lik for lik in liks if w[lik.estimator_id] > 0.0]
        positive = FusionWeights({k_: v for k_, v in w.items() if v > 0.0})
        assert np.array_equal(fuse_loglik(dropped, positive).log_values,
                              fused.log_values)


def check_entropy(n_cases: int, seed: int = 404) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        g = int(rng.integers(2, 400))
        p = rng.dirichlet(np.full(g, float(rng.uniform(0.2, 5.0))))
        h = mass_entropy(p)
        assert -1e-12 <= h <= np.log(g) + 1e-12
        grid = RpmGrid(r_min=300.0, r_max=300.0 + g, n_points=g)
        raw = rng.normal(0.0, 1.0, g)
        lik = GridLogLikelihood(estimator_id="prop", grid=grid,
                                log_values=raw - logsumexp(raw))
        assert -1e-12 <= posterior_entropy(lik) <= np.log(g) + 1e-12


def check_sigma_bounds(n_cases: int, seed: int = 505) -> None:
    cfg = TrackerConfig()
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        grid = _random_grid(rng)
        state = _random_state(rng, grid)
        sig = curvature_sigma(state, cfg)
        assert sig.shape == (grid.n_points,)
        assert np.all(sig >= cfg.sigma_min_rpm)
        assert np.all(sig <= cfg.sigma_max_rpm)


def check_predict_mass(n_cases: int, seed: int = 606) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        grid = _random_grid(rng)
        state = _random_state(rng, grid)
        sig = rng.uniform(40.0, 150.0, grid.n_points)
        out = predict(state, sig)
        assert np.all(out >= 0.0)
        assert abs(float(out.sum()) - 1.0) < 1e-9


def check_update(n_cases: int, seed: int = 707) -> None:
    cfg = TrackerConfig()
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        grid = _random_grid(rng)
        predicted = rng.dirichlet(np.full(grid.n_points, 0.8))
        lik = _random_log_values(rng, grid)
        state = update(predicted, lik, grid, cfg, frame_index=1)
        assert np.all(state.mass >= 0.0)
        assert abs(float(state.mass.sum()) - 1.0) < 1e-9


def check_track_causal(n_cases: int, seed: int = 808) -> None:
    cfg = TrackerConfig()
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        grid = _random_grid(rng)
        t = int(rng.integers(2, 7))
        liks = np.array([_random_log_values(rng, grid) for _ in range(t)])
        times = [0.01 * k for k in range(t)]
        full = track(liks, grid, cfg, times_s=times)
        cut = int(rng.integers(1, t))
        prefix = track(liks[:cut], grid, cfg, times_s=times[:cut])
        for a, b in zip(prefix, full[:cut]):
            assert a == b  # bit-identical: later frames cannot touch earlier output


def check_synth_determinism(n_cases: int, seed: int = 909) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        scenario = SCENARIOS[int(rng.integers(len(SCENARIOS)))]
        spec = ScenarioSpec(scenario=scenario, duration_s=0.05,
                            sample_rate_hz=8000.0,
                            base_rpm=float(rng.uniform(900.0, 2400.0)),
                            seed=int(rng.integers(0, 2**31)),
                            jump_time_s=0.025)
        sig_a, truth_a = synthesize(spec)
        sig_b, truth_b = synthesize(spec)
        assert np.array_equal(sig_a.samples, sig_b.samples)
        assert np.array_equal(truth_a.rpm_samples, truth_b.rpm_samples)
        other = ScenarioSpec.from_dict({**spec.to_dict(), "seed": spec.seed + 1})
        sig_c, _ = synthesize(other)
        assert not np.array_equal(sig_a.samples, sig_c.samples)


def check_framing(n_cases: int, seed: int = 111) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        frame_len = int(rng.integers(4, 256))
        hop = int(rng.integers(1, frame_len + 1))
        extra = int(rng.integers(0, 4 * frame_len))
        total = frame_len + extra
        signal = Signal(samples=rng.normal(0.0, 1.0, total), sample_rate_hz=1000.0)
        framing = FramingConfig(frame_len=frame_len, hop=hop)
        frames = frame_signal(signal, framing)
        assert len(frames) == n_frames(total, framing) == (total - frame_len) // hop + 1
        assert frames.shape[1] == frame_len
        assert np.shares_memory(frames, signal.samples) and not frames.flags.writeable
        for k, frame in enumerate(frames):
            assert np.array_equal(frame, signal.samples[k * hop : k * hop + frame_len])
        assert len(frames) * hop + frame_len > total  # no frame dropped


PROPERTY_CHECKS = (
    ("robust standardization", check_standardize),
    ("curve-to-grid normalization", check_curve_to_grid),
    ("fusion pooling", check_fusion),
    ("entropy bounds", check_entropy),
    ("curvature sigma clipping", check_sigma_bounds),
    ("predict mass conservation", check_predict_mass),
    ("update normalization", check_update),
    ("tracker causality", check_track_causal),
    ("synthesis determinism", check_synth_determinism),
    ("framing layout", check_framing),
)
