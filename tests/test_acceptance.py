"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and asserts
the same condition, so the suite is green exactly when every line is green.
The heavyweight sweeps sit at the end of the file.
"""

import time

import numpy as np
from scipy.special import logsumexp

from tacholess import (
    AxisType,
    CurveToGridConfig,
    EvidenceCurve,
    Polarity,
    PosteriorState,
    RpmGrid,
    RunConfig,
    ScenarioSpec,
    TrackerConfig,
    analyze,
    compute_metrics,
    curvature_sigma,
    curve_to_grid_loglik,
    estimate,
    framewise_trajectory,
    predict,
    run_benchmark,
    track,
    update,
    viterbi_path,
)
from oracles import (
    discrete_gaussian_mass,
    exhaustive_best_score,
    naive_curve_to_grid,
    naive_predict,
    path_score,
)
from props import PROPERTY_CHECKS

GRID = RpmGrid.from_step(300.0, 4000.0, 1.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _loglik(mass: np.ndarray) -> np.ndarray:
    lv = np.log(mass + 1e-300)
    return lv - logsumexp(lv)


def test_c01_randomized_invariants():
    t0 = time.perf_counter()
    failures = []
    for label, check in PROPERTY_CHECKS:
        try:
            check(1000)
        except AssertionError as exc:
            failures.append(f"{label}: {exc}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    detail = f"{len(PROPERTY_CHECKS)} invariants x 1000 cases in {elapsed:.1f}s"
    if failures:
        detail += "; failed: " + "; ".join(failures)
    _report("C1 randomized invariants", ok, detail)


def test_c02_oracle_equivalence():
    cfg = CurveToGridConfig()
    rng = np.random.default_rng(1002)
    fs = 12800.0
    worst_align = 0.0
    for _ in range(100):
        g = int(rng.integers(40, 201))
        r_min = float(rng.uniform(400.0, 2000.0))
        grid = RpmGrid(r_min=r_min, r_max=r_min + float(rng.uniform(50.0, 300.0)),
                       n_points=g)
        k = int(rng.integers(4, 40))
        rpm_targets = np.sort(rng.uniform(grid.r_min - 5.0, grid.r_max + 5.0, k))
        rpm_targets += np.arange(k) * 1e-9
        axis_type = list(AxisType)[int(rng.integers(4))]
        if axis_type in (AxisType.LAG, AxisType.QUEFRENCY):
            axis = np.sort(60.0 * fs / rpm_targets)
        elif axis_type is AxisType.HZ:
            axis = rpm_targets / 60.0
        else:
            axis = rpm_targets
        curve = EvidenceCurve(
            estimator_id="t", axis=axis, values=rng.normal(0.0, 1.5, k),
            axis_type=axis_type,
            polarity=Polarity.COST if rng.integers(2) else Polarity.SCORE)
        lik = curve_to_grid_loglik(curve, grid, cfg, fs)
        ref = naive_curve_to_grid(curve, grid, cfg, fs)
        worst_align = max(worst_align, float(np.max(np.abs(lik.log_values - ref))))

    worst_pred = 0.0
    for _ in range(100):
        g = int(rng.integers(20, 201))
        r_min = float(rng.uniform(400.0, 2000.0))
        grid = RpmGrid(r_min=r_min, r_max=r_min + float(rng.uniform(40.0, 400.0)),
                       n_points=g)
        mass = rng.dirichlet(np.full(g, 0.7))
        state = PosteriorState(grid=grid, mass=mass / mass.sum(), frame_index=1)
        sig = rng.uniform(40.0, 150.0, g)
        if rng.integers(2):
            sig = np.full(g, float(rng.uniform(40.0, 150.0)))  # one sigma group
        out = predict(state, sig, truncation_sigmas=6.0)
        ref = naive_predict(state.mass, sig, grid, 6.0)
        scale = np.maximum(np.abs(ref), 1e-300)
        worst_pred = max(worst_pred, float(np.max(np.abs(out - ref) / scale)))

    ok = worst_align <= 1e-9 and worst_pred <= 1e-9
    _report("C2 naive-oracle equivalence", ok,
            f"100+100 instances, max |dlog| {worst_align:.2e}, "
            f"max rel predict err {worst_pred:.2e}")


def test_c03_gaussian_product_closed_form():
    cfg = TrackerConfig()
    cases = [(1500.0, 60.0, 1580.0, 80.0), (2200.0, 50.0, 2150.0, 50.0),
             (900.0, 120.0, 1050.0, 45.0), (3400.0, 70.0, 3300.0, 140.0)]
    worst_mu = worst_s = 0.0
    for prior_mu, prior_s, lik_mu, lik_s in cases:
        prior = discrete_gaussian_mass(GRID, prior_mu, prior_s)
        lik = _loglik(discrete_gaussian_mass(GRID, lik_mu, lik_s))
        pt = estimate(update(prior, lik, GRID, cfg, frame_index=1))
        w = (1.0 / prior_s**2) / (1.0 / prior_s**2 + 1.0 / lik_s**2)
        mu = w * prior_mu + (1.0 - w) * lik_mu
        s = np.sqrt(1.0 / (1.0 / prior_s**2 + 1.0 / lik_s**2))
        worst_mu = max(worst_mu, abs(pt.mmse_rpm - mu))
        worst_s = max(worst_s, abs(pt.sigma_rpm - s))
    tol = 2.0 * GRID.step
    ok = worst_mu <= tol and worst_s <= tol
    _report("C3 Bayes update conjugacy", ok,
            f"{len(cases)} Gaussian products, max |dmu| {worst_mu:.3f} RPM, "
            f"max |dsigma| {worst_s:.3f} RPM vs closed form, tol {tol:.1f}")


def test_c04_curvature_calibration():
    cfg = TrackerConfig()
    rel_errs = []
    for s in (50.0, 80.0, 120.0):
        mass = discrete_gaussian_mass(GRID, 2000.0, s)
        sig = curvature_sigma(PosteriorState(grid=GRID, mass=mass, frame_index=1), cfg)
        mode = int(np.argmax(mass))
        rel_errs.append(abs(sig[mode] - s) / s)
    sharp = discrete_gaussian_mass(GRID, 2000.0, 1.0)
    sig_sharp = curvature_sigma(PosteriorState(grid=GRID, mass=sharp, frame_index=1), cfg)
    lo_clip = sig_sharp[int(np.argmax(sharp))]
    uniform = PosteriorState(grid=GRID, mass=np.full(GRID.n_points, 1.0 / GRID.n_points),
                             frame_index=1)
    hi_clip = curvature_sigma(uniform, cfg)
    ok = (max(rel_errs) <= 0.10 and lo_clip == 40.0 and np.all(hi_clip == 150.0))
    _report("C4 curvature-to-sigma calibration", ok,
            f"recovered 50/80/120 within {100 * max(rel_errs):.2f}%, "
            f"clips at {lo_clip:.0f} and {float(hi_clip[0]):.0f}")


def test_c05_constant_speed_convergence():
    t0 = time.perf_counter()
    cfg = RunConfig(scenario=ScenarioSpec(scenario="S0", seed=1), baselines=())
    result = analyze(cfg)
    elapsed = time.perf_counter() - t0
    rpm = result.tracked_rpm()
    err_after_settle = np.abs(rpm[5:] - result.reference[5:])
    worst = float(err_after_settle.max())
    ok = worst <= 5.0 and elapsed < 60.0
    _report("C5 clean constant-speed run", ok,
            f"{len(rpm)} frames, max |err| after frame 5 = {worst:.2f} RPM, "
            f"{elapsed:.1f}s wall")


def test_c06_interference_robustness():
    seeds = range(1, 11)
    p95 = {"tracked": [], "comb": [], "yin": []}
    for seed in seeds:
        cfg = RunConfig(scenario=ScenarioSpec(scenario="S3", seed=seed),
                        baselines=("yin", "comb"))
        result = analyze(cfg)
        for method in p95:
            p95[method].append(result.metrics[method]["p95"])
    mean = {m: float(np.mean(v)) for m, v in p95.items()}
    ok = (mean["tracked"] <= mean["comb"]
          and mean["tracked"] <= 0.5 * mean["yin"])
    _report("C6 interference robustness", ok,
            f"mean P95 over 10 seeds: tracked {mean['tracked']:.1f}, "
            f"comb {mean['comb']:.1f}, yin {mean['yin']:.1f} RPM")


def test_c07_step_change_stability():
    seeds = range(1, 11)
    p95 = {"tracked": [], "framewise": []}
    rmse = {"tracked": [], "framewise": []}
    for seed in seeds:
        cfg = RunConfig(scenario=ScenarioSpec(scenario="S5", seed=seed),
                        baselines=("framewise",))
        result = analyze(cfg)
        for method in p95:
            p95[method].append(result.metrics[method]["p95"])
            rmse[method].append(result.metrics[method]["rmse"])
    mean_p95 = {m: float(np.mean(v)) for m, v in p95.items()}
    mean_rmse = {m: float(np.mean(v)) for m, v in rmse.items()}
    ok = mean_p95["tracked"] <= 0.7 * mean_p95["framewise"]
    _report("C7 speed-step stability", ok,
            f"mean P95 over 10 seeds: tracked {mean_p95['tracked']:.1f} vs "
            f"framewise {mean_p95['framewise']:.1f} RPM (RMSE "
            f"{mean_rmse['tracked']:.1f} vs {mean_rmse['framewise']:.1f}; the "
            f"tracker may lose RMSE at the step, only P95 is gated)")


def test_c08_corrupted_burst_recovery():
    from tacholess.ingest import frame_signal, frame_times
    from tacholess.pipeline import fused_evidence
    from tacholess import synthesize

    cfg = RunConfig(scenario=ScenarioSpec(scenario="S0", seed=3), grid=GRID)
    signal, _ = synthesize(cfg.scenario, rpm_bounds=(GRID.r_min, GRID.r_max))
    frames = frame_signal(signal, cfg.framing)
    times = frame_times(signal, cfg.framing)
    fused, _ = fused_evidence(frames, signal.sample_rate_hz, cfg)

    # three consecutive frames replaced by confident nonsense at 3000 RPM
    bogus = 0.5 * discrete_gaussian_mass(GRID, 3000.0, 50.0) \
        + 0.5 / GRID.n_points
    for idx in (199, 200, 201):
        fused[idx] = _loglik(bogus)

    tracked = track(fused, GRID, cfg.tracker, times)
    tracked_rpm = np.array([p.mmse_rpm for p in tracked])
    frame_rpm = framewise_trajectory(fused, GRID, times).rpm
    ref = np.full(len(fused), 1500.0)
    m_tracked = compute_metrics(tracked_rpm, ref)
    m_frame = compute_metrics(frame_rpm, ref)
    jitter_ratio = m_tracked["jitter"] / m_frame["jitter"]
    jump_ratio = m_tracked["max_jump"] / m_frame["max_jump"]
    ok = jitter_ratio <= 0.3 and jump_ratio <= 0.3
    _report("C8 corrupted-burst recovery", ok,
            f"jitter ratio {jitter_ratio:.3f}, max-jump ratio {jump_ratio:.3f} "
            f"(tracked jitter {m_tracked['jitter']:.2f} vs framewise "
            f"{m_frame['jitter']:.2f} RPM)")


def test_c09_viterbi_equals_exhaustive():
    rng = np.random.default_rng(1009)
    pen = 0.02
    worst = 0.0
    for _ in range(200):
        t = int(rng.integers(2, 7))
        scores = [rng.normal(0.0, 2.0, int(rng.integers(2, 9))) for _ in range(t)]
        rpms = [np.sort(rng.uniform(300.0, 4000.0, len(s))) for s in scores]
        path = viterbi_path(scores, rpms, pen)
        got = path_score(path, scores, rpms, pen)
        best = exhaustive_best_score(scores, rpms, pen)
        worst = max(worst, abs(got - best))
    ok = worst <= 1e-9
    _report("C9 dynamic program optimality", ok,
            f"200 instances up to 6 frames x 8 candidates, max score gap {worst:.2e}")


def test_c10_benchmark_sweep(tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig()
    scenarios = ["S1", "S2", "S3", "S4"]
    seeds = list(range(1, 21))
    table = run_benchmark(cfg, scenarios, seeds, tmp_path / "full", jobs=1)
    elapsed = time.perf_counter() - t0

    import csv
    with open(tmp_path / "full" / "benchmark.csv") as fh:
        rows = list(csv.reader(fh))
    header_ok = rows[0] == ["method"] + [f"{sc}_{k}" for sc in scenarios
                                         for k in ("rmse", "p95")]
    methods_ok = [r[0] for r in rows[1:]] == ["yin", "cepstrum", "comb", "tracked"]
    values_ok = all(np.isfinite(float(v)) for r in rows[1:] for v in r[1:])
    with open(tmp_path / "full" / "benchmark_runs.csv") as fh:
        n_run_rows = sum(1 for _ in fh) - 1
    shape_ok = header_ok and methods_ok and values_ok and n_run_rows == 4 * 20 * 4

    run_benchmark(cfg, ["S1"], [1, 2], tmp_path / "det_a", jobs=1)
    run_benchmark(cfg, ["S1"], [1, 2], tmp_path / "det_b", jobs=1)
    det_ok = all(
        (tmp_path / "det_a" / n).read_bytes() == (tmp_path / "det_b" / n).read_bytes()
        for n in ("benchmark.csv", "benchmark_runs.csv", "benchmark.txt"))

    ok = shape_ok and det_ok and elapsed < 1800.0
    tracked = table["S1"]["tracked"]
    _report("C10 benchmark sweep", ok,
            f"4 scenarios x 20 seeds in {elapsed / 60.0:.1f} min, table complete, "
            f"deterministic rerun identical; e.g. S1 tracked RMSE "
            f"{tracked['rmse']:.1f} / P95 {tracked['p95']:.1f} RPM")
