import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from tacholess import (
    RpmGrid,
    RunConfig,
    ScenarioSpec,
    TrackerConfig,
    analyze,
    curvature_sigma,
    estimate,
    evidence_chunks,
    frame_signal,
    predict,
    synthesize,
    track,
    update,
)
from tacholess import tracker
from oracles import dense_block_predict, discrete_gaussian_mass, naive_predict
from props import (
    check_predict_mass,
    check_sigma_bounds,
    check_track_causal,
    check_update,
)


def loglik_from_mass(mass):
    lv = np.log(mass + 1e-300)
    return lv - logsumexp(lv)


def uniform(grid):
    return np.full(grid.n_points, 1.0 / grid.n_points)


def test_config_defaults_and_validation():
    cfg = TrackerConfig()
    assert cfg.sigma_min_rpm == 40.0
    assert cfg.sigma_max_rpm == 150.0
    assert set(vars(cfg)) == {"sigma_min_rpm", "sigma_max_rpm"}
    with pytest.raises(ValueError):
        TrackerConfig(sigma_min_rpm=200.0, sigma_max_rpm=150.0)


@pytest.mark.parametrize("name, value", [("sigma_max_rpm", np.inf), ("sigma_min_rpm", np.nan)])
def test_config_rejects_non_finite_and_non_positive_values(name, value):
    with pytest.raises(ValueError, match=f"tracker.{name} must be positive and finite"):
        TrackerConfig(**{name: value})


@pytest.mark.parametrize("bad", [np.nan, 0.0, -5.0, np.inf])
def test_predict_rejects_a_bad_sigma_naming_its_bin(bad):
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    sigmas = np.full(200, 40.0)
    sigmas[[57, 120]] = bad
    with pytest.raises(ValueError, match="sigma at bin 57 .*positive and finite"):
        predict(uniform(grid), sigmas, grid)


def test_uniform_estimate_reference_values():
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    map_rpm, mmse_rpm, sigma_rpm, entropy_nats = estimate(uniform(grid), grid)
    assert mmse_rpm == pytest.approx(2150.0, abs=1e-9)
    ref_sigma = np.sqrt(np.mean((grid.values - 2150.0) ** 2))
    assert sigma_rpm == pytest.approx(ref_sigma, abs=1e-9)
    assert abs(sigma_rpm - 1068.4) < 1.0
    assert entropy_nats == pytest.approx(np.log(3701.0), abs=1e-12)
    assert map_rpm == 300.0  # ties resolve to the first grid point


def test_map_tie_breaks_to_first_maximum():
    grid = RpmGrid(r_min=300.0, r_max=399.0, n_points=100)
    mass = np.full(100, 0.4 / 98)
    mass[30] = 0.3
    mass[70] = 0.3
    assert estimate(mass, grid)[0] == grid.values[30]


def test_curvature_sigma_on_discrete_gaussians():
    cfg = TrackerConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    for s in (50.0, 80.0, 120.0):
        mass = discrete_gaussian_mass(grid, 2000.0, s)
        sig = curvature_sigma(mass, grid, cfg)
        mode = int(np.argmax(mass))
        # -d2/dr2 of a Gaussian log-density at its mode is exactly 1/s^2
        assert sig[mode] == pytest.approx(s, rel=1e-6)


def test_curvature_sigma_clips_both_ends():
    cfg = TrackerConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    sharp = discrete_gaussian_mass(grid, 2000.0, 1.0)
    sig = curvature_sigma(sharp, grid, cfg)
    assert sig[int(np.argmax(sharp))] == 40.0
    assert np.all(curvature_sigma(uniform(grid), grid, cfg) == 150.0)


def test_curvature_needs_three_points():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=300.0, r_max=400.0, n_points=2)
    with pytest.raises(ValueError, match=">= 3"):
        curvature_sigma(np.array([0.5, 0.5]), grid, cfg)


def test_sigma_bounds_property():
    check_sigma_bounds(40)


def test_predict_delta_becomes_discrete_gaussian():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    mass = np.zeros(200)
    mass[100] = 1.0
    out = predict(mass, np.full(200, 40.0), grid)
    ref = np.exp(-0.5 * ((grid.values - grid.values[100]) / 40.0) ** 2)
    ref[np.abs(grid.values - grid.values[100]) > 6.0 * 40.0] = 0.0
    ref /= ref.sum()
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-15)


def test_predict_keeps_uniform_interior_exactly_uniform():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    out = predict(uniform(grid), np.full(200, 5.0), grid)
    # beyond twice the kernel reach from either edge the column renormalization
    # cancels exactly and the uniform prior is a fixed point
    reach = int(np.ceil(6.0 * 5.0 / grid.step))
    interior = out[2 * reach:-2 * reach]
    assert np.allclose(interior, 1.0 / 200, rtol=1e-9, atol=0.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-12)
    # edge bins lose the inflow that phantom off-grid neighbours would supply,
    # while column renormalization pushes that surplus a little further inside
    assert out[0] < 1.0 / 200
    assert out[-1] == pytest.approx(out[0], rel=1e-9)
    assert out[:2 * reach].max() > 1.0 / 200


def test_predict_matches_column_oracle():
    rng = np.random.default_rng(31)
    cases = []
    for G in (50, 120, 200):
        grid = RpmGrid(r_min=900.0, r_max=900.0 + (G - 1) * 1.5, n_points=G)
        cases.append((grid, rng.dirichlet(np.full(G, 0.7)), rng.uniform(40.0, 150.0, G)))
    # sigma groups of at least _BLOCK = 64 columns take the block-Toeplitz
    # path, smaller ones the direct convolution. Grids of 50 (smaller than a
    # block) and 1000 bins (not a multiple of one) with two interleaved values
    for G in (50, 1000):
        grid = RpmGrid(r_min=900.0, r_max=900.0 + (G - 1) * 1.5, n_points=G)
        cases.append((grid, rng.dirichlet(np.full(G, 0.7)),
                      np.where(rng.random(G) < 0.5, 40.0, 150.0)))
    grid = RpmGrid(r_min=900.0, r_max=900.0 + 199 * 1.5, n_points=200)
    # a kernel wider than the grid: half-width 600 bins on 200
    cases.append((grid, rng.dirichlet(np.full(200, 0.7)), np.full(200, 150.0)))
    # one wide group holding both edge bins around a narrow interior block
    sig = np.full(200, 97.0)
    sig[70:130] = 41.5
    cases.append((grid, rng.dirichlet(np.full(200, 0.7)), sig))
    # groups of exactly 64 and 63 columns, one on each side of the path choice
    grid = RpmGrid.from_step(300.0, 699.0, 1.0)
    sig = np.full(400, 150.0)
    sig[rng.choice(400, 127, replace=False)] = np.repeat([55.0, 70.0], [64, 63])
    cases.append((grid, rng.dirichlet(np.full(400, 0.7)), sig))
    # the sigma layout of real runs on the default grid: the two clip values
    # over interleaved, non-contiguous column sets, plus singleton values at
    # both ends and mid-grid. Bins beyond the peak's reach hold mass hundreds
    # of decades below it, and are held to the same relative tolerance.
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    g = grid.n_points
    sig = np.where(rng.random(g) < 0.5, 40.0, 150.0)
    sig[0], sig[g // 2], sig[-1] = 61.3, 97.0, 122.5
    cases.append((grid, discrete_gaussian_mass(grid, 640.0, 30.0) + 1e-250, sig))
    for grid, mass, sig in cases:
        mass = mass / mass.sum()
        out = predict(mass, sig, grid)
        ref = naive_predict(mass, sig, grid, 6.0)
        assert np.allclose(out, ref, rtol=1e-9, atol=1e-300)


def test_predict_grouped_convolution_path_matches_oracle():
    # one sigma shared by every column of a larger grid
    rng = np.random.default_rng(32)
    grid = RpmGrid.from_step(300.0, 700.0, 1.0)
    mass = rng.dirichlet(np.full(grid.n_points, 0.5))
    mass = mass / mass.sum()
    sig = np.full(grid.n_points, 55.0)
    out = predict(mass, sig, grid)
    ref = naive_predict(mass, sig, grid, 6.0)
    assert np.allclose(out, ref, rtol=1e-9, atol=1e-300)


def test_predict_matches_column_oracle_on_real_run_layouts():
    # the sigma layouts of a real run (every 10th posterior row of a fullband
    # S3 clip) and a random layout of many sigma groups on the default grid
    cfg = RunConfig(scenario=ScenarioSpec(scenario="S3", duration_s=1.5, seed=1))
    grid = cfg.grid
    rows = []
    analyze(cfg, posterior_sink=rows.append)
    assert len(rows) == 87
    cases = [(mass, curvature_sigma(mass, grid, cfg.tracker)) for mass in rows[::10]]
    rng = np.random.default_rng(35)
    g = grid.n_points
    sig = rng.choice([40.0, 47.5, 63.0, 88.0, 120.0, 150.0], g)
    sig[rng.choice(g, 9, replace=False)] = rng.uniform(40.0, 150.0, 9)
    sig[1500:1700] = 150.0  # a contiguous run beside the interleaved groups
    cases.append((rng.dirichlet(np.full(g, 0.7)), sig))
    for mass, sig in cases:
        ref = naive_predict(mass, sig, grid, 6.0)
        assert np.allclose(predict(mass, sig, grid), ref, rtol=1e-9, atol=1e-300)


def test_predict_on_many_threads_at_once_equals_one_thread():
    # the cached blocks and column norms of a sigma are shared by every
    # thread: predicts of one sigma on several threads at once must each
    # give what they give on one thread
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    rng = np.random.default_rng(36)
    cases = [(m / m.sum(), np.where(rng.random(grid.n_points) < 0.5, 40.0, 150.0))
             for m in rng.dirichlet(np.full(grid.n_points, 0.7), 6)]
    want = [predict(m, s, grid) for m, s in cases]
    errors = []

    def run(k):
        for _ in range(20):
            m, s = cases[k]
            if not np.array_equal(predict(m, s, grid), want[k]):
                errors.append(k)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(cases))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_predict_caches_operators_only_for_sigma_groups_of_a_block():
    # Each frame of a real run has the two clip values over most bins plus a
    # few one-off interior sigmas. The cached operators of sigmas 150 and 40
    # on this grid hold 0.42 MB: the column norms, the dense blocks of the
    # four lags of each that the cut crosses, and the node kernels of the
    # interpolated lags; a dense block for every lag would be 1.37 MB. One
    # cached per interior sigma as well took an 8.4 MB tracemalloc peak
    # here; the two clip values alone peak at 0.96 MB.
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    g = grid.n_points
    mass = np.random.default_rng(34).dirichlet(np.full(g, 0.7))
    mass = mass / mass.sum()
    tracker._block_operator.cache_clear()
    tracemalloc.start()
    try:
        for k in range(20):
            sig = np.where(np.arange(g) % 3 == 0, 40.0, 150.0)
            sig[100 + 7 * np.arange(5) + k] = 140.0 + 0.37 * k
            predict(mass, sig, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    info = tracker._block_operator.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 38, 2)
    assert peak < 2e6
    cached = 0
    for s in (40.0, 150.0):
        _, norm, blocks, coarse = tracker._block_operator(s, grid.step, g)
        cached += norm.nbytes + coarse.nbytes + sum(b.nbytes for b in blocks if b is not None)
    assert cached < 0.5e6


@pytest.mark.parametrize("step", [1.0, 1.5, 4.0])
def test_interpolated_block_lags_hold_their_bound(step):
    # every block lag of a cached operator is either dense and equal to the
    # kernel's block, or all positive and within _CHEB_RTOL of it per entry
    # as P @ C_i @ P.T; lags that the 6 sigma cut (or the g - 1 reach)
    # crosses hold zeros, so they, and every lag of a sigma of a few bins,
    # stay dense, while a sigma wider than the grid interpolates
    grid = RpmGrid.from_step(300.0, 4000.0, step)
    g, b = grid.n_points, tracker._BLOCK
    lagrange = tracker._LAGRANGE
    offset = np.arange(b)[None, :] - np.arange(b)[:, None]
    mass = np.random.default_rng(38).dirichlet(np.full(g, 0.7))
    mass = mass / mass.sum()
    for s in (8.0, 40.0, 97.0, 150.0, 1e6):
        half, _, blocks, coarse = tracker._block_operator(s, step, g)
        lags, near = len(blocks) // 2, (len(coarse) - 1) // 2
        for i in range(-lags, lags + 1):
            d = offset - i * b
            u = d * (step / s)
            exact = np.where((np.abs(u) <= 6.0) & (np.abs(d) <= g - 1), np.exp(-0.5 * u * u), 0.0)
            if blocks[lags + i] is None:
                assert abs(i) <= near and exact.min() > 0.0
                approx = lagrange @ coarse[near + i] @ lagrange.T
                assert np.all(np.abs(approx - exact) <= tracker._CHEB_RTOL * exact)
            else:
                assert abs(i) > near
                assert np.array_equal(blocks[lags + i], exact)
        if 6.0 * s / step < b - 1:  # the cut crosses even lag 0
            assert len(coarse) == 0
        if 6.0 * s > grid.r_max - grid.r_min:
            assert len(coarse) > 0
        sig = np.full(g, s)
        out = predict(mass, sig, grid)
        assert np.allclose(out, naive_predict(mass, sig, grid, 6.0), rtol=1e-9, atol=1e-300)


def test_trajectories_follow_the_dense_block_predict(monkeypatch):
    # S0-S5, seed 1, 5 s at the default config: the tracker with interpolated
    # block lags against one whose every block lag is a dense product
    for name in ("S0", "S1", "S2", "S3", "S4", "S5"):
        cfg = RunConfig(scenario=ScenarioSpec(scenario=name, duration_s=5.0, seed=1))
        signal, _ = synthesize(cfg.scenario, rpm_bounds=(cfg.grid.r_min, cfg.grid.r_max))
        frames = frame_signal(signal, cfg.framing)
        fused = np.concatenate([rows for rows, _ in
                                evidence_chunks(frames, signal.sample_rate_hz, cfg)])
        got = track(fused, cfg.grid, cfg.tracker)
        with monkeypatch.context() as patch:
            patch.setattr(tracker, "predict", dense_block_predict)
            want = track(fused, cfg.grid, cfg.tracker)
        assert np.array_equal(got.map_rpm, want.map_rpm), name
        assert np.allclose(got.mmse_rpm, want.mmse_rpm, rtol=0.0, atol=1e-9), name
        assert np.allclose(got.sigma_rpm, want.sigma_rpm, rtol=0.0, atol=1e-9), name


def test_predict_sizes_its_kernels_by_the_grid_not_sigma_alone():
    # sigma 1e6 reaches 6e6 bins, but a tap more than g - 1 bins out lands on
    # no bin: kernels sized by sigma alone peaked at 647 MB of tracemalloc
    # here. One group of the block-Toeplitz path and one convolved directly
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    g = grid.n_points
    mass = np.random.default_rng(37).dirichlet(np.full(g, 0.7))
    mass = mass / mass.sum()
    sig = np.full(g, 1e6)
    sig[[0, 900, 2000, g - 1]] = 2.5e6
    tracker._block_operator.cache_clear()
    tracemalloc.start()
    try:
        out = predict(mass, sig, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert np.allclose(out, naive_predict(mass, sig, grid, 6.0), rtol=1e-9, atol=1e-300)


def test_track_with_kernels_wider_than_the_grid_follows_the_column_oracle():
    # sigma_max 1e6 lets 6 sigma exceed the grid wherever the posterior is
    # flat; the trajectory stays within 1e-9 RPM of a filter that predicts
    # with the column oracle
    cfg = TrackerConfig(sigma_min_rpm=40.0, sigma_max_rpm=1e6)
    grid = RpmGrid.from_step(300.0, 1500.0, 4.0)
    liks = np.array([loglik_from_mass(discrete_gaussian_mass(grid, 700.0 + 15.0 * t, 30.0))
                     for t in range(20)])
    liks[8] = 0.0  # a frame with no evidence flattens the posterior
    points = track(liks, grid, cfg)
    mass = uniform(grid)
    for point, lik in zip(points, liks):
        sig = curvature_sigma(mass, grid, cfg)
        assert sig.max() * 6.0 > grid.r_max - grid.r_min
        mass = update(naive_predict(mass, sig, grid, 6.0), lik)
        want = estimate(mass, grid)
        assert point.map_rpm == want[0]
        assert np.allclose([point.mmse_rpm, point.sigma_rpm], want[1:3], rtol=0.0, atol=1e-9)


def test_predict_mass_conservation_property():
    check_predict_mass(40)


def test_update_with_flat_likelihood_is_identity():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    rng = np.random.default_rng(33)
    predicted = rng.dirichlet(np.full(200, 0.9))
    flat = loglik_from_mass(np.full(200, 1.0 / 200))
    mass = update(predicted, flat)
    assert np.allclose(mass, predicted / predicted.sum(), rtol=1e-9)


def test_update_gaussian_conjugacy():
    # grid Bayes update of Gaussian prior x Gaussian likelihood matches the
    # closed-form product (means and variances combine by precision weighting)
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    prior_mu, prior_s = 1500.0, 60.0
    lik_mu, lik_s = 1580.0, 80.0
    prior = discrete_gaussian_mass(grid, prior_mu, prior_s)
    lik = loglik_from_mass(discrete_gaussian_mass(grid, lik_mu, lik_s))
    _, mmse_rpm, sigma_rpm, _ = estimate(update(prior, lik), grid)
    w = (1.0 / prior_s**2) / (1.0 / prior_s**2 + 1.0 / lik_s**2)
    expect_mu = w * prior_mu + (1.0 - w) * lik_mu
    expect_s = np.sqrt(1.0 / (1.0 / prior_s**2 + 1.0 / lik_s**2))
    assert abs(mmse_rpm - expect_mu) <= 2.0 * grid.step
    assert abs(sigma_rpm - expect_s) <= 2.0 * grid.step


def test_update_normalization_property():
    check_update(40)


def test_update_shape_mismatch():
    grid = RpmGrid(r_min=300.0, r_max=399.0, n_points=100)
    flat = loglik_from_mass(np.full(100, 0.01))
    with pytest.raises(ValueError, match="shape"):
        update(np.full(99, 1.0 / 99), flat)


def test_track_is_online():
    check_track_causal(25)


def test_track_single_frame_equals_manual_steps():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    lik = loglik_from_mass(discrete_gaussian_mass(grid, 1100.0, 12.0))
    points = track(lik[None], grid, cfg, times_s=[0.25])
    prior = uniform(grid)
    sig = curvature_sigma(prior, grid, cfg)
    manual = estimate(update(predict(prior, sig, grid), lik), grid)
    assert points.dtype.names == ("frame_index", "time_s", "map_rpm", "mmse_rpm",
                                  "sigma_rpm", "entropy_nats")
    assert points[0].tolist() == (1, 0.25, *manual)


def test_track_locks_onto_static_target():
    cfg = TrackerConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    lik = loglik_from_mass(discrete_gaussian_mass(grid, 1700.0, 25.0))
    points = track(np.tile(lik, (12, 1)), grid, cfg)
    assert abs(points[-1].mmse_rpm - 1700.0) < 1.0
    # repeated agreeing evidence shrinks uncertainty monotonically at first
    assert points[1].sigma_rpm < points[0].sigma_rpm
    assert points[-1].entropy_nats < points[0].entropy_nats


def test_track_grid_mismatch():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    with pytest.raises(ValueError, match="grid"):
        track(np.full((3, 100), -np.log(100.0)), grid, cfg)
    good = np.full((1, 200), -np.log(200.0))
    # a list of (G,) rows is one (T, G) array, not a sequence of blocks
    rows = [good[0], good[0] - 1.0]
    assert np.array_equal(track(rows, grid, cfg, [0.1, 0.2]),
                          track(np.array(rows), grid, cfg, [0.1, 0.2]))
    with pytest.raises(ValueError, match="grid"):
        track([good[0, :100], good[0, :100]], grid, cfg)
    with pytest.raises(ValueError, match="times"):
        track(good, grid, cfg, times_s=[0.1, 0.2])


def test_track_rejects_a_non_finite_frame():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    block = np.full((4, 200), -np.log(200.0))
    block[2, 17] = np.nan
    with pytest.raises(ValueError, match="frame 3 .*non-finite"):
        track(block, grid, cfg)
    block[2, 17] = -np.inf
    with pytest.raises(ValueError, match="frame 3 .*non-finite"):
        track(block, grid, cfg)


def test_track_names_the_global_frame_of_a_bad_streamed_block():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    flat = np.full((5, 200), -np.log(200.0))
    bad = flat.copy()
    bad[3, 17] = np.nan
    with pytest.raises(ValueError, match="frame 12 .*non-finite"):
        track(iter([flat, flat[:3], bad]), grid, cfg)
    with pytest.raises(ValueError, match="block \\(5, 100\\) at frame 9 "):
        track(iter([flat, flat[:3], flat[:, :100]]), grid, cfg)
    with pytest.raises(ValueError, match="3 times for at least 5 frames"):
        track(iter([flat[:2], flat[:3]]), grid, cfg, times_s=[0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="3 times for 2 frames"):
        track(iter([flat[:2]]), grid, cfg, times_s=[0.1, 0.2, 0.3])


def test_track_hands_each_posterior_row_to_the_sink():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    lik = loglik_from_mass(discrete_gaussian_mass(grid, 1100.0, 12.0))
    masses = []
    points = track(np.stack([lik, lik]), grid, cfg, posterior_sink=masses.append)
    assert len(points) == len(masses) == 2
    assert points.frame_index.tolist() == [1, 2]
    assert masses[1].shape == (200,)
    assert masses[1].sum() == pytest.approx(1.0, abs=1e-12)
