import numpy as np
import pytest
from scipy.special import logsumexp

from tacholess import RpmGrid, mass_entropy, pool_logliks
from oracles import discrete_gaussian_mass
from props import check_entropy, check_fusion


def gaussian_loglik(grid, centers, sigma):
    p = np.zeros(grid.n_points)
    for c in centers:
        p += discrete_gaussian_mass(grid, c, sigma)
    p /= p.sum()
    lv = np.log(p + 1e-300)
    return lv - logsumexp(lv)


def fuse(rows, weights=None):
    """Pool a {estimator id: log-likelihood row} mapping; estimators missing
    from ``weights`` get 1.0."""
    return pool_logliks(list(rows.values()), [(weights or {}).get(eid, 1.0) for eid in rows])


def test_fusion_normalizes_and_pools():
    check_fusion(40)


def test_single_input_weight_one_is_identity():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    lik = gaussian_loglik(grid, [1100.0], 20.0)
    fused = fuse({"yin": lik})
    assert np.allclose(fused, lik, atol=1e-9)


def test_zero_weight_drops_estimator_exactly():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    a = gaussian_loglik(grid, [1050.0], 15.0)
    b = gaussian_loglik(grid, [1150.0], 15.0)
    with_b_off = fuse({"a": a, "b": b}, {"b": 0.0})
    alone = fuse({"a": a})
    assert np.array_equal(with_b_off, alone)


def test_agreement_beats_the_missing_middle():
    # two bimodal estimators that share one mode: the fused posterior keeps the
    # shared mode on top and does not invent mass between the disjoint modes
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    a = gaussian_loglik(grid, [1040.0, 1070.0], 5.0)
    b = gaussian_loglik(grid, [1070.0, 1160.0], 5.0)
    fused = fuse({"a": a, "b": b})
    idx = lambda r: int(round(r - 1000.0))
    assert int(np.argmax(fused)) == idx(1070.0)
    # non-shared modes sink well below the shared one
    for lone in (1040.0, 1160.0):
        assert fused[idx(lone)] < fused[idx(1070.0)] - 5.0
    midpoint = idx((1040.0 + 1160.0) / 2.0)
    assert fused[midpoint] < fused[idx(1070.0)] - 5.0


def test_pooling_sharpens_agreeing_gaussians():
    # product of two equal Gaussians halves the variance
    grid = RpmGrid(r_min=1000.0, r_max=1399.0, n_points=400)
    a = gaussian_loglik(grid, [1200.0], 20.0)
    b = gaussian_loglik(grid, [1200.0], 20.0)
    p = np.exp(fuse({"a": a, "b": b}))
    mean = p @ grid.values
    std = np.sqrt(p @ (grid.values - mean) ** 2)
    assert abs(mean - 1200.0) <= 2.0 * grid.step
    assert abs(std - 20.0 / np.sqrt(2.0)) <= 2.0 * grid.step


def test_unequal_weights_tilt_the_pool():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    a = gaussian_loglik(grid, [1050.0], 10.0)
    b = gaussian_loglik(grid, [1150.0], 10.0)
    fused = fuse({"a": a, "b": b}, {"a": 3.0, "b": 1.0})
    assert grid.values[int(np.argmax(fused))] < 1100.0


def test_fusion_errors():
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    other = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=100)
    a = gaussian_loglik(grid, [1050.0], 10.0)
    b = gaussian_loglik(other, [1050.0], 10.0)
    with pytest.raises(ValueError, match=r"shapes \[\(200,\), \(100,\)\]"):
        fuse({"a": a, "b": b})
    with pytest.raises(ValueError, match="one array per weight"):
        pool_logliks([a], [0.0, 1.0])
    with pytest.raises(ValueError, match="weights are zero"):
        fuse({})
    with pytest.raises(ValueError, match="weights are zero"):
        fuse({"a": a}, {"a": 0.0})


def test_pool_rejects_a_block_pooled_with_a_row():
    # a (3, 4) block and a (4,) row would broadcast into a (3, 4) result
    block = np.full((3, 4), -np.log(4.0))
    row = np.full(4, -np.log(4.0))
    with pytest.raises(ValueError, match=r"shapes \[\(3, 4\), \(4,\)\] with weights"):
        pool_logliks([block, row], [1.0, 1.0])
    pooled = pool_logliks([block, block], [1.0, 1.0])
    assert pooled.shape == (3, 4)


def test_entropy_reference_values():
    assert mass_entropy(np.full(100, 0.01)) == pytest.approx(np.log(100.0), abs=1e-12)
    delta = np.zeros(64)
    delta[10] = 1.0
    assert mass_entropy(delta) == 0.0
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    peaked = np.exp(gaussian_loglik(grid, [1100.0], 5.0))
    flat = np.exp(gaussian_loglik(grid, [1100.0], 500.0))
    assert mass_entropy(peaked) < mass_entropy(flat) <= np.log(200.0)


def test_entropy_bounds_property():
    check_entropy(60)
