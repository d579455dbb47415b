import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import logsumexp

from tacholess import (
    SIGN,
    CurveToGridConfig,
    RpmGrid,
    aligned_loglik,
    kernel_scatter,
    robust_standardize,
)
from tacholess import FramingConfig, RunConfig, pipeline
from tacholess.alignment import BLOCK, EPS_NORM, KERNEL_TRUNCATION_SIGMAS, scatter_mass
from oracles import AXIS_KINDS, axis_rpm, csr_kernel, naive_curve_to_grid
from props import check_curve_to_grid, check_standardize


def one_frame(rpm, values, grid, cfg, sign=1.0):
    """Normalized (G,) grid log-likelihood of one frame's (N,) values at RPM points."""
    rpm, values = np.asarray(rpm, float), np.asarray(values, float)
    return aligned_loglik(values, sign, kernel_scatter(rpm, grid, cfg), cfg)


def test_robust_standardize_reference_values():
    out = robust_standardize(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert np.allclose(out, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-9)
    spiky = robust_standardize(np.array([0.0, 0.0, 0.0, 100.0]))
    assert spiky.max() == pytest.approx(4.0, abs=1e-7)
    flat = robust_standardize(np.full(8, 2.5))
    assert np.array_equal(flat, np.zeros(8))
    with pytest.raises(ValueError):
        robust_standardize(np.array([]))
    with pytest.raises(ValueError):
        robust_standardize(np.array([1.0, np.inf]))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=40),
    st.floats(0.01, 100.0),
    st.floats(-1e3, 1e3),
)
def test_robust_standardize_affine_invariance(vals, scale, shift):
    v = np.asarray(vals)
    q1, q3 = np.percentile(v, [25.0, 75.0])
    assume(q3 - q1 > 1e-3)  # eps-dominated spreads are not invariant
    base = robust_standardize(v)
    moved = robust_standardize(scale * v + shift)
    assert np.allclose(moved, base, rtol=1e-4, atol=1e-6)


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=70),
              elements=st.one_of(st.floats(-1e5, 1e5), st.sampled_from([-1e-5, 0.0, 2.5]))))
def test_robust_standardize_quartiles_equal_numpy_percentile(v):
    # one sort per row and numpy's own lerp: the same quartiles as np.percentile,
    # with ties, constant rows and rows of one value among the drawn arrays
    q1, med, q3 = np.percentile(v, [25.0, 50.0, 75.0], axis=-1, keepdims=True)
    assert np.array_equal(robust_standardize(v), (v - med) / ((q3 - q1) + EPS_NORM))


def test_robust_standardize_of_constant_and_single_value_rows():
    block = np.array([[3.0] * 5, [1.0, 1.0, 2.0, 2.0, 2.0]])
    assert np.array_equal(robust_standardize(block)[0], np.zeros(5))
    assert np.array_equal(robust_standardize(block)[1], (block[1] - 2.0) / (1.0 + EPS_NORM))
    assert np.array_equal(robust_standardize(np.array([[7.0], [-2.0]])), np.zeros((2, 1)))


def test_config_defaults_and_validation():
    cfg = CurveToGridConfig()
    assert cfg.beta == 1.0
    assert cfg.kernel_bandwidth_rpm == 0.5
    assert set(vars(cfg)) == {"beta", "kernel_bandwidth_rpm"}
    with pytest.raises(ValueError):
        CurveToGridConfig(beta=0.0)
    with pytest.raises(ValueError):
        CurveToGridConfig(kernel_bandwidth_rpm=-1.0)


def test_curve_to_grid_matches_double_loop_oracle():
    cfg = CurveToGridConfig()
    rng = np.random.default_rng(21)
    fs = 12800.0
    grid = RpmGrid(r_min=600.0, r_max=900.0, n_points=121)
    for kind in AXIS_KINDS:
        for _ in range(4):
            k = int(rng.integers(5, 20))
            rpm_targets = np.sort(rng.uniform(590.0, 910.0, k))
            rpm_targets += np.arange(k) * 1e-9  # keep the axis strictly monotone
            rpm = axis_rpm(rpm_targets, kind, fs)
            values = rng.normal(0.0, 1.5, k)
            sign = -1.0 if rng.integers(2) else 1.0
            lik = one_frame(rpm, values, grid, cfg, sign)
            ref = naive_curve_to_grid(rpm, values, sign, grid, cfg)
            assert np.allclose(lik, ref, rtol=0.0, atol=1e-9)


def test_batched_alignment_matches_double_loop_oracle():
    # a block of frames through one precomputed scatter matrix, row by row
    # against the per-point double loop; the axis holds interior points, the
    # grid edges, points just inside and just beyond kernel reach, and far misses
    cfg = CurveToGridConfig()
    rng = np.random.default_rng(25)
    fs = 12800.0
    grid = RpmGrid(r_min=600.0, r_max=900.0, n_points=121)
    reach = KERNEL_TRUNCATION_SIGMAS * cfg.kernel_bandwidth_rpm
    edges = [grid.r_min, grid.r_max, grid.r_min - reach + 0.2, grid.r_max + reach - 0.2,
             grid.r_min - reach - 0.2, grid.r_max + reach + 0.2, 450.0, 1300.0]
    for kind in AXIS_KINDS:
        rpm_targets = np.unique(np.concatenate([rng.uniform(600.0, 900.0, 14), edges]))
        rpm = axis_rpm(rpm_targets, kind, fs)
        sign = -1.0 if kind == "lag" else 1.0
        values = rng.normal(0.0, 1.5, (6, len(rpm)))
        values[2] = 0.0  # a flat frame standardizes to zeros
        got = aligned_loglik(values, sign, kernel_scatter(rpm, grid, cfg), cfg)
        assert got.shape == (6, grid.n_points)
        for t in range(6):
            ref = naive_curve_to_grid(rpm, values[t], sign, grid, cfg)
            assert np.allclose(got[t], ref, rtol=0.0, atol=1e-9)
            one = one_frame(rpm, values[t], grid, cfg, sign)
            assert np.allclose(one, got[t], rtol=0.0, atol=1e-12)


def test_aligned_rows_are_normalized_when_most_columns_sit_at_the_floor():
    # a wide fine grid that few points reach: most columns get no kernel mass
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=600.0, r_max=900.0, n_points=3001)
    axis = np.array([610.0, 700.0, 750.0, 880.0, 950.0])
    values = np.array([
        [0.3, -1.2, 2.0, 0.7, -0.4],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 5.0, 0.0],   # zero IQR: only 880 RPM keeps any weight
        [0.0, 0.0, 0.0, 0.0, 5.0],   # ... and here only 950 RPM, off the grid
    ])
    got = aligned_loglik(values, 1.0, kernel_scatter(axis, grid, cfg), cfg)
    floor = np.isclose(got, got.min(axis=-1, keepdims=True), rtol=0.0, atol=1e-9)
    assert floor[:3].mean(axis=-1).min() > 0.9
    assert np.all(floor[3])  # no mass anywhere: a uniform row
    assert np.all(np.abs(logsumexp(got, axis=-1)) <= 1e-12)
    for t in range(len(values)):
        row = one_frame(axis, values[t], grid, cfg)
        assert abs(logsumexp(row)) <= 1e-12


def test_normalization_property():
    check_curve_to_grid(40)


def test_standardize_property():
    check_standardize(60)


def test_offset_invariance_of_grid_likelihood():
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1100.0, n_points=101)
    rng = np.random.default_rng(22)
    axis = np.sort(rng.uniform(1000.0, 1100.0, 15))
    vals = rng.normal(0.0, 1.0, 15)
    a = one_frame(axis, vals, grid, cfg)
    b = one_frame(axis, vals + 37.5, grid, cfg)
    assert np.allclose(a, b, atol=1e-9)


def test_polarity_symmetry():
    # negating values and flipping the sign must give the same likelihood
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1100.0, n_points=101)
    rng = np.random.default_rng(23)
    axis = np.sort(rng.uniform(1000.0, 1100.0, 17))
    vals = rng.normal(0.0, 1.0, 17)
    a = one_frame(axis, vals, grid, cfg, 1.0)
    b = one_frame(axis, -vals, grid, cfg, -1.0)
    assert np.allclose(a, b, atol=1e-12, rtol=0.0)


def test_to_energy_orientation():
    # YIN's d' is a cost (its dips mark the period), the cepstrum and comb scores:
    # a low cost and a high score must both be where the likelihood peaks
    assert SIGN == {"yin": -1.0, "cepstrum": 1.0, "comb": 1.0}
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1100.0, n_points=101)
    rpm = [1020.0, 1050.0, 1080.0]
    dip = one_frame(rpm, [0.9, 0.1, 0.8], grid, cfg, SIGN["yin"])
    assert grid.values[np.argmax(dip)] == 1050.0
    for name in ("cepstrum", "comb"):
        peak = one_frame(rpm, [0.1, 0.2, 0.9], grid, cfg, SIGN[name])
        assert grid.values[np.argmax(peak)] == 1080.0


def test_uniform_rpm_curve_gives_flat_interior():
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    axis = np.linspace(1000.0, 1199.0, 400)
    lik = one_frame(axis, np.ones(400), grid, cfg)
    p = np.exp(lik)
    margin = int(np.ceil(2 * KERNEL_TRUNCATION_SIGMAS * cfg.kernel_bandwidth_rpm))
    interior = p[margin:-margin]
    assert interior.max() / interior.min() < 1.05
    ref = naive_curve_to_grid(axis, np.ones(400), 1.0, grid, cfg)
    assert np.allclose(lik, ref, atol=1e-9)


def test_equal_evidence_at_two_bins_is_symmetric():
    cfg = CurveToGridConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    p = np.exp(one_frame([1000.0, 2000.0], [1.0, 1.0], grid, cfg))
    w = int(np.ceil(KERNEL_TRUNCATION_SIGMAS * cfg.kernel_bandwidth_rpm)) + 1
    i, j = 700, 1700  # bins of 1000 and 2000 RPM
    lhs = p[i - w:i + w + 1].sum()
    rhs = p[j - w:j + w + 1].sum()
    assert lhs == pytest.approx(rhs, rel=1e-6)
    assert lhs > 0.49


def test_kernel_truncation_error_is_negligible():
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=600.0, r_max=838.0, n_points=120)
    rng = np.random.default_rng(24)
    axis = np.sort(rng.uniform(610.0, 830.0, 15))
    vals = rng.normal(0.0, 1.0, 15)
    p_trunc = np.exp(one_frame(axis, vals, grid, cfg))
    p_full = np.exp(naive_curve_to_grid(axis, vals, 1.0, grid, cfg, truncate=False))
    assert np.max(np.abs(p_trunc - p_full)) <= 1e-6 * p_full.max()


def test_reciprocal_axis_density_is_kept():
    # a flat lag-domain curve lands denser at low RPM; no reweighting is applied
    cfg = CurveToGridConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    fs = 12800.0
    taus = np.arange(192, 2561, dtype=np.float64)
    p = np.exp(one_frame(60.0 * fs / taus, np.ones(len(taus)), grid, cfg, -1.0))
    assert p[:100].sum() > 10.0 * p[-100:].sum()


def test_disjoint_curve_raises():
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1100.0, n_points=101)
    with pytest.raises(ValueError, match="disjoint"):
        one_frame([200.0, 250.0, 4500.0], [1.0, 2.0, 3.0], grid, cfg)
    with pytest.raises(ValueError, match="evidence disjoint from grid: all 3 points"):
        kernel_scatter(np.array([200.0, 250.0, 4500.0]), grid, cfg)


class _Recorded(Exception):
    pass


def pipeline_axes(cfg: RunConfig, frame_len: int) -> dict[str, np.ndarray]:
    """The RPM points of every estimator axis of a run, as the pipeline maps them
    and aligns each estimator's curves on them (estimators that share an axis
    share its scatter, so the scatters are read where they are used)."""
    aligned = []
    pooled = [eid for eid in pipeline.ESTIMATOR_IDS if cfg.fusion_weights.get(eid, 1.0) > 0]

    def align(values, sign, scatter, alignment):
        aligned.append(scatter)
        if len(aligned) == len(pooled):
            raise _Recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "kernel_scatter", lambda rpm, *args: rpm)  # a scatter as its axis
        mp.setattr(pipeline, "aligned_loglik", align)
        with pytest.raises(_Recorded):
            next(pipeline.evidence_chunks(np.zeros((2, frame_len)), 12800.0, cfg))
    return dict(zip(pooled, aligned))


@pytest.mark.parametrize("workload", ["fullband", "narrowband"])
def test_block_scatter_equals_a_csr_product_on_the_pipelines_axes(workload):
    # the lag axis (YIN and the cepstrum) is dense at low RPM and sparse at
    # high RPM, so its blocks fall into several row-count classes; the comb's
    # evenly spaced axis is one class
    cfg = RunConfig() if workload == "fullband" else RunConfig(
        framing=FramingConfig(frame_len=16384, hop=256),
        grid=RpmGrid.from_step(1200.0, 2400.0, 1.0))
    axes = pipeline_axes(cfg, cfg.framing.frame_len)
    assert set(axes) == {"yin", "cepstrum", "comb"}
    rng = np.random.default_rng(41)
    for eid, rpm in axes.items():
        scatter = kernel_scatter(rpm, cfg.grid, cfg.alignment)
        oracle = csr_kernel(rpm, cfg.grid, cfg.alignment)
        n_columns, classes = scatter
        assert n_columns == cfg.grid.n_points
        for blocks, rows, taps in classes:
            assert taps.shape == (len(blocks), BLOCK, rows.shape[1])
        if eid == "comb":
            assert len(classes) == 1
        weights = np.exp(rng.normal(0.0, 2.0, (16, len(rpm))))
        assert np.allclose(scatter_mass(weights, scatter), weights @ oracle, rtol=1e-12, atol=0.0)
        assert np.allclose(scatter_mass(weights[3], scatter), weights[3] @ oracle,
                           rtol=1e-12, atol=0.0)
    lag = axes["yin"]
    assert len(kernel_scatter(lag, cfg.grid, cfg.alignment)[1]) > 1


def test_block_scatter_on_a_non_monotone_axis_and_unreached_columns():
    # points in random order, repeated, off the grid and in two clusters, so
    # whole blocks, and columns within reached blocks, get no kernel mass
    cfg = CurveToGridConfig(kernel_bandwidth_rpm=1.5)
    grid = RpmGrid.from_step(600.0, 1100.0, 0.5)
    rng = np.random.default_rng(42)
    rpm = np.concatenate([rng.uniform(640.0, 660.0, 30), rng.uniform(900.0, 905.0, 7),
                          [700.0, 700.0, 1099.9, 590.0, 2000.0]])
    rng.shuffle(rpm)
    scatter = kernel_scatter(rpm, grid, cfg)
    oracle = csr_kernel(rpm, grid, cfg)
    weights = np.exp(rng.normal(0.0, 1.0, (5, len(rpm))))
    mass = scatter_mass(weights, scatter)
    assert mass.shape == (5, grid.n_points)
    assert np.allclose(mass, weights @ oracle, rtol=1e-12, atol=0.0)
    unreached = oracle.sum(axis=0) == 0.0
    assert unreached.mean() > 0.5 and np.all(mass[:, unreached] == 0.0)
    assert np.allclose(scatter_mass(weights[0], scatter), weights[0] @ oracle, rtol=1e-12, atol=0.0)


def test_block_scatter_builds_no_dense_kernel_matrix():
    # the fullband lag axis has 2369 points on 3701 columns: a dense K is 70 MB
    cfg = RunConfig()
    rpm = pipeline_axes(cfg, cfg.framing.frame_len)["yin"]
    tracemalloc.start()
    try:
        kernel_scatter(rpm, cfg.grid, cfg.alignment)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6
