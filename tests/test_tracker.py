import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from tacholess import (
    PosteriorState,
    RpmGrid,
    TrackerConfig,
    curvature_sigma,
    estimate,
    init_posterior,
    predict,
    track,
    update,
)
from tacholess import tracker
from oracles import discrete_gaussian_mass, naive_predict
from props import (
    check_predict_mass,
    check_sigma_bounds,
    check_track_causal,
    check_update,
)


def loglik_from_mass(mass):
    lv = np.log(mass + 1e-300)
    return lv - logsumexp(lv)


def test_config_defaults_and_validation():
    cfg = TrackerConfig()
    assert cfg.sigma_min_rpm == 40.0
    assert cfg.sigma_max_rpm == 150.0
    assert cfg.eps_c == 1e-12
    assert cfg.eps_log == 1e-300
    with pytest.raises(ValueError):
        TrackerConfig(sigma_min_rpm=200.0, sigma_max_rpm=150.0)


@pytest.mark.parametrize("name, value", [
    ("kernel_truncation_sigmas", np.inf), ("sigma_max_rpm", np.inf),
    ("sigma_min_rpm", np.nan), ("eps_c", np.inf), ("eps_log", 0.0),
    ("kernel_truncation_sigmas", -1.0),
])
def test_config_rejects_non_finite_and_non_positive_values(name, value):
    with pytest.raises(ValueError, match=f"tracker.{name} must be positive and finite"):
        TrackerConfig(**{name: value})


@pytest.mark.parametrize("bad", [np.nan, 0.0, -5.0, np.inf])
def test_predict_rejects_a_bad_sigma_naming_its_bin(bad):
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    sigmas = np.full(200, 40.0)
    sigmas[[57, 120]] = bad
    with pytest.raises(ValueError, match="sigma at bin 57 .*positive and finite"):
        predict(init_posterior(grid), sigmas)


def test_posterior_state_validation():
    grid = RpmGrid(r_min=300.0, r_max=400.0, n_points=11)
    with pytest.raises(ValueError, match="sums to"):
        PosteriorState(grid=grid, mass=np.full(11, 0.2), frame_index=0)
    with pytest.raises(ValueError, match="non-negative"):
        m = np.full(11, 1.0 / 11)
        m[0] = -1.0 / 11
        m[1] = 3.0 / 11
        PosteriorState(grid=grid, mass=m, frame_index=0)
    with pytest.raises(ValueError, match="shape"):
        PosteriorState(grid=grid, mass=np.full(10, 0.1), frame_index=0)


def test_init_posterior_is_uniform():
    grid = RpmGrid(r_min=300.0, r_max=400.0, n_points=101)
    state = init_posterior(grid)
    assert state.frame_index == 0
    assert np.allclose(state.mass, 1.0 / 101)


def test_uniform_estimate_reference_values():
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    pt = estimate(init_posterior(grid), time_s=1.5)
    assert pt.mmse_rpm == pytest.approx(2150.0, abs=1e-9)
    ref_sigma = np.sqrt(np.mean((grid.values - 2150.0) ** 2))
    assert pt.sigma_rpm == pytest.approx(ref_sigma, abs=1e-9)
    assert abs(pt.sigma_rpm - 1068.4) < 1.0
    assert pt.entropy_nats == pytest.approx(np.log(3701.0), abs=1e-12)
    assert pt.map_rpm == 300.0  # ties resolve to the first grid point
    assert pt.time_s == 1.5


def test_map_tie_breaks_to_first_maximum():
    grid = RpmGrid(r_min=300.0, r_max=399.0, n_points=100)
    mass = np.full(100, 0.4 / 98)
    mass[30] = 0.3
    mass[70] = 0.3
    pt = estimate(PosteriorState(grid=grid, mass=mass, frame_index=1))
    assert pt.map_rpm == grid.values[30]


def test_curvature_sigma_on_discrete_gaussians():
    cfg = TrackerConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    for s in (50.0, 80.0, 120.0):
        mass = discrete_gaussian_mass(grid, 2000.0, s)
        sig = curvature_sigma(PosteriorState(grid=grid, mass=mass, frame_index=1), cfg)
        mode = int(np.argmax(mass))
        # -d2/dr2 of a Gaussian log-density at its mode is exactly 1/s^2
        assert sig[mode] == pytest.approx(s, rel=1e-6)


def test_curvature_sigma_clips_both_ends():
    cfg = TrackerConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    sharp = discrete_gaussian_mass(grid, 2000.0, 1.0)
    sig = curvature_sigma(PosteriorState(grid=grid, mass=sharp, frame_index=1), cfg)
    assert sig[int(np.argmax(sharp))] == 40.0
    flat = init_posterior(grid)
    assert np.all(curvature_sigma(flat, cfg) == 150.0)


def test_curvature_needs_three_points():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=300.0, r_max=400.0, n_points=2)
    with pytest.raises(ValueError, match=">= 3"):
        curvature_sigma(PosteriorState(grid=grid, mass=np.array([0.5, 0.5]),
                                       frame_index=0), cfg)


def test_sigma_bounds_property():
    check_sigma_bounds(40)


def test_predict_delta_becomes_discrete_gaussian():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    mass = np.zeros(200)
    mass[100] = 1.0
    state = PosteriorState(grid=grid, mass=mass, frame_index=1)
    out = predict(state, np.full(200, 40.0))
    ref = np.exp(-0.5 * ((grid.values - grid.values[100]) / 40.0) ** 2)
    ref[np.abs(grid.values - grid.values[100]) > 6.0 * 40.0] = 0.0
    ref /= ref.sum()
    assert np.allclose(out, ref, rtol=1e-12, atol=1e-15)


def test_predict_keeps_uniform_interior_exactly_uniform():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    state = init_posterior(grid)
    out = predict(state, np.full(200, 5.0), truncation_sigmas=6.0)
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
        state = PosteriorState(grid=grid, mass=mass / mass.sum(), frame_index=1)
        out = predict(state, sig, truncation_sigmas=6.0)
        ref = naive_predict(state.mass, sig, grid, 6.0)
        assert np.allclose(out, ref, rtol=1e-9, atol=1e-300)


def test_predict_grouped_convolution_path_matches_oracle():
    # one sigma shared by every column of a larger grid
    rng = np.random.default_rng(32)
    grid = RpmGrid.from_step(300.0, 700.0, 1.0)
    mass = rng.dirichlet(np.full(grid.n_points, 0.5))
    state = PosteriorState(grid=grid, mass=mass / mass.sum(), frame_index=1)
    sig = np.full(grid.n_points, 55.0)
    out = predict(state, sig)
    ref = naive_predict(state.mass, sig, grid, 6.0)
    assert np.allclose(out, ref, rtol=1e-9, atol=1e-300)


def test_predict_caches_operators_only_for_sigma_groups_of_a_block():
    # Each frame of a real run has the two clip values over most bins plus a
    # few one-off interior sigmas. The cached block operator of sigma 150 on
    # this grid holds 1.08 MB; one cached per interior sigma as well took an
    # 8.4 MB tracemalloc peak here, against 1.6 MB for the two clip values.
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    g = grid.n_points
    mass = np.random.default_rng(34).dirichlet(np.full(g, 0.7))
    state = PosteriorState(grid=grid, mass=mass / mass.sum(), frame_index=1)
    tracker._block_operator.cache_clear()
    tracemalloc.start()
    try:
        for k in range(20):
            sig = np.where(np.arange(g) % 3 == 0, 40.0, 150.0)
            sig[100 + 7 * np.arange(5) + k] = 140.0 + 0.37 * k
            predict(state, sig)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    info = tracker._block_operator.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 38, 2)
    assert peak < 3e6


def test_predict_mass_conservation_property():
    check_predict_mass(40)


def test_update_with_flat_likelihood_is_identity():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    rng = np.random.default_rng(33)
    predicted = rng.dirichlet(np.full(200, 0.9))
    flat = loglik_from_mass(np.full(200, 1.0 / 200))
    state = update(predicted, flat, grid, cfg, frame_index=4)
    assert state.frame_index == 4
    assert np.allclose(state.mass, predicted / predicted.sum(), rtol=1e-9)


def test_update_gaussian_conjugacy():
    # grid Bayes update of Gaussian prior x Gaussian likelihood matches the
    # closed-form product (means and variances combine by precision weighting)
    cfg = TrackerConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    prior_mu, prior_s = 1500.0, 60.0
    lik_mu, lik_s = 1580.0, 80.0
    prior = discrete_gaussian_mass(grid, prior_mu, prior_s)
    lik = loglik_from_mass(discrete_gaussian_mass(grid, lik_mu, lik_s))
    state = update(prior, lik, grid, cfg, frame_index=1)
    pt = estimate(state)
    w = (1.0 / prior_s**2) / (1.0 / prior_s**2 + 1.0 / lik_s**2)
    expect_mu = w * prior_mu + (1.0 - w) * lik_mu
    expect_s = np.sqrt(1.0 / (1.0 / prior_s**2 + 1.0 / lik_s**2))
    assert abs(pt.mmse_rpm - expect_mu) <= 2.0 * grid.step
    assert abs(pt.sigma_rpm - expect_s) <= 2.0 * grid.step


def test_update_normalization_property():
    check_update(40)


def test_update_shape_mismatch():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=300.0, r_max=399.0, n_points=100)
    flat = loglik_from_mass(np.full(100, 0.01))
    with pytest.raises(ValueError, match="shape"):
        update(np.full(99, 1.0 / 99), flat, grid, cfg, frame_index=1)


def test_track_is_online():
    check_track_causal(25)


def test_track_single_frame_equals_manual_steps():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    lik = loglik_from_mass(discrete_gaussian_mass(grid, 1100.0, 12.0))
    points = track(lik[None], grid, cfg, times_s=[0.25])
    prior = init_posterior(grid)
    sig = curvature_sigma(prior, cfg)
    manual = estimate(update(predict(prior, sig, cfg.kernel_truncation_sigmas),
                             lik, grid, cfg, frame_index=1), 0.25)
    assert points[0] == manual


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
    assert track(rows, grid, cfg, [0.1, 0.2]) == track(np.array(rows), grid, cfg, [0.1, 0.2])
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


def test_track_returns_posteriors_on_request():
    cfg = TrackerConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    lik = loglik_from_mass(discrete_gaussian_mass(grid, 1100.0, 12.0))
    points, states = track(np.stack([lik, lik]), grid, cfg, return_posteriors=True)
    assert len(points) == len(states) == 2
    assert states[0].frame_index == 1
    assert states[1].frame_index == 2
    assert states[1].mass.sum() == pytest.approx(1.0, abs=1e-12)
