import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from tacholess import (
    AxisType,
    CurveToGridConfig,
    EvidenceCurve,
    Polarity,
    RpmGrid,
    aligned_loglik,
    kernel_scatter,
    map_axis_to_rpm,
    robust_standardize,
    to_energy,
)
from oracles import naive_curve_to_grid
from props import check_curve_to_grid, check_standardize


def one_frame(curve, grid, cfg, fs):
    """Normalized (G,) grid log-likelihood of an (N,) curve."""
    return aligned_loglik(curve, kernel_scatter(curve, grid, cfg, fs), cfg)


def rpm_curve(axis, values, polarity=Polarity.SCORE):
    return EvidenceCurve(estimator_id="t", axis=np.asarray(axis, float),
                         values=np.asarray(values, float),
                         axis_type=AxisType.RPM, polarity=polarity)


def test_map_axis_to_rpm_conventions():
    assert np.allclose(map_axis_to_rpm(np.array([64.0]), AxisType.LAG, 12800.0),
                       [12000.0])
    assert np.allclose(map_axis_to_rpm(np.array([640.0]), AxisType.QUEFRENCY, 12800.0),
                       [1200.0])
    assert np.allclose(map_axis_to_rpm(np.array([25.0]), AxisType.HZ, 12800.0),
                       [1500.0])
    rpm_in = np.array([1500.0, 2000.0])
    out = map_axis_to_rpm(rpm_in, AxisType.RPM, 12800.0)
    assert np.array_equal(out, rpm_in)
    assert out is not rpm_in
    with pytest.raises(ValueError):
        map_axis_to_rpm(np.array([0.0, 3.0]), AxisType.LAG, 12800.0)
    with pytest.raises(ValueError):
        map_axis_to_rpm(np.array([-1.0]), AxisType.HZ, 12800.0)


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


def test_to_energy_orientation():
    z = np.array([-1.0, 0.0, 2.0])
    assert np.array_equal(to_energy(z, Polarity.COST), z)     # low cost = low energy
    assert np.array_equal(to_energy(z, Polarity.SCORE), -z)   # high score = low energy


def test_config_defaults_and_validation():
    cfg = CurveToGridConfig()
    assert cfg.beta == 1.0
    assert cfg.kernel_bandwidth_rpm == 0.5
    assert cfg.eps_norm == 1e-10
    assert cfg.kernel_truncation_sigmas == 6.0
    with pytest.raises(ValueError):
        CurveToGridConfig(beta=0.0)
    with pytest.raises(ValueError):
        CurveToGridConfig(kernel_bandwidth_rpm=-1.0)


def test_curve_to_grid_matches_double_loop_oracle():
    cfg = CurveToGridConfig()
    rng = np.random.default_rng(21)
    fs = 12800.0
    grid = RpmGrid(r_min=600.0, r_max=900.0, n_points=121)
    for axis_type in AxisType:
        for _ in range(4):
            k = int(rng.integers(5, 20))
            rpm_targets = np.sort(rng.uniform(590.0, 910.0, k))
            rpm_targets += np.arange(k) * 1e-9  # keep the axis strictly monotone
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
            lik = one_frame(curve, grid, cfg, fs)
            ref = naive_curve_to_grid(curve, grid, cfg, fs)
            assert np.allclose(lik, ref, rtol=0.0, atol=1e-9)


def test_batched_alignment_matches_double_loop_oracle():
    # a block of frames through one precomputed scatter matrix, row by row
    # against the per-point double loop; the axis holds interior points, the
    # grid edges, points just inside and just beyond kernel reach, and far misses
    cfg = CurveToGridConfig()
    rng = np.random.default_rng(25)
    fs = 12800.0
    grid = RpmGrid(r_min=600.0, r_max=900.0, n_points=121)
    reach = cfg.kernel_truncation_sigmas * cfg.kernel_bandwidth_rpm
    edges = [grid.r_min, grid.r_max, grid.r_min - reach + 0.2, grid.r_max + reach - 0.2,
             grid.r_min - reach - 0.2, grid.r_max + reach + 0.2, 450.0, 1300.0]
    for axis_type in AxisType:
        rpm_targets = np.unique(np.concatenate([rng.uniform(600.0, 900.0, 14), edges]))
        if axis_type in (AxisType.LAG, AxisType.QUEFRENCY):
            axis = np.sort(60.0 * fs / rpm_targets)
        elif axis_type is AxisType.HZ:
            axis = rpm_targets / 60.0
        else:
            axis = rpm_targets
        polarity = Polarity.COST if axis_type is AxisType.LAG else Polarity.SCORE
        values = rng.normal(0.0, 1.5, (6, len(axis)))
        values[2] = 0.0  # a flat frame standardizes to zeros
        block = EvidenceCurve(estimator_id="t", axis=axis, values=values,
                              axis_type=axis_type, polarity=polarity)
        got = aligned_loglik(block, kernel_scatter(block, grid, cfg, fs), cfg)
        assert got.shape == (6, grid.n_points)
        for t in range(6):
            row = EvidenceCurve(estimator_id="t", axis=axis, values=values[t],
                                axis_type=axis_type, polarity=polarity)
            ref = naive_curve_to_grid(row, grid, cfg, fs)
            assert np.allclose(got[t], ref, rtol=0.0, atol=1e-9)
            one = one_frame(row, grid, cfg, fs)
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
    block = rpm_curve(axis, values)
    got = aligned_loglik(block, kernel_scatter(block, grid, cfg, 12800.0), cfg)
    floor = np.isclose(got, got.min(axis=-1, keepdims=True), rtol=0.0, atol=1e-9)
    assert floor[:3].mean(axis=-1).min() > 0.9
    assert np.all(floor[3])  # no mass anywhere: a uniform row
    assert np.all(np.abs(logsumexp(got, axis=-1)) <= 1e-12)
    for t in range(len(values)):
        row = one_frame(rpm_curve(axis, values[t]), grid, cfg, 12800.0)
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
    a = one_frame(rpm_curve(axis, vals), grid, cfg, 12800.0)
    b = one_frame(rpm_curve(axis, vals + 37.5), grid, cfg, 12800.0)
    assert np.allclose(a, b, atol=1e-9)


def test_polarity_symmetry():
    # negating values and flipping polarity must give the same likelihood
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1100.0, n_points=101)
    rng = np.random.default_rng(23)
    axis = np.sort(rng.uniform(1000.0, 1100.0, 17))
    vals = rng.normal(0.0, 1.0, 17)
    a = one_frame(rpm_curve(axis, vals, Polarity.SCORE), grid, cfg, 12800.0)
    b = one_frame(rpm_curve(axis, -vals, Polarity.COST), grid, cfg, 12800.0)
    assert np.allclose(a, b, atol=1e-12, rtol=0.0)


def test_uniform_rpm_curve_gives_flat_interior():
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1199.0, n_points=200)
    axis = np.linspace(1000.0, 1199.0, 400)
    curve = rpm_curve(axis, np.ones(400))
    lik = one_frame(curve, grid, cfg, 12800.0)
    p = np.exp(lik)
    margin = int(np.ceil(2 * cfg.kernel_truncation_sigmas * cfg.kernel_bandwidth_rpm))
    interior = p[margin:-margin]
    assert interior.max() / interior.min() < 1.05
    ref = naive_curve_to_grid(curve, grid, cfg, 12800.0)
    assert np.allclose(lik, ref, atol=1e-9)


def test_equal_evidence_at_two_bins_is_symmetric():
    cfg = CurveToGridConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    curve = rpm_curve([1000.0, 2000.0], [1.0, 1.0])
    p = np.exp(one_frame(curve, grid, cfg, 12800.0))
    w = int(np.ceil(cfg.kernel_truncation_sigmas * cfg.kernel_bandwidth_rpm)) + 1
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
    curve = rpm_curve(axis, rng.normal(0.0, 1.0, 15))
    p_trunc = np.exp(one_frame(curve, grid, cfg, 12800.0))
    p_full = np.exp(naive_curve_to_grid(curve, grid, cfg, 12800.0, truncate=False))
    assert np.max(np.abs(p_trunc - p_full)) <= 1e-6 * p_full.max()


def test_reciprocal_axis_density_is_kept():
    # a flat lag-domain curve lands denser at low RPM; no reweighting is applied
    cfg = CurveToGridConfig()
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    fs = 12800.0
    taus = np.arange(192, 2561, dtype=np.float64)
    curve = EvidenceCurve(estimator_id="t", axis=taus, values=np.ones(len(taus)),
                          axis_type=AxisType.LAG, polarity=Polarity.COST)
    p = np.exp(one_frame(curve, grid, cfg, fs))
    assert p[:100].sum() > 10.0 * p[-100:].sum()


def test_disjoint_curve_raises():
    cfg = CurveToGridConfig()
    grid = RpmGrid(r_min=1000.0, r_max=1100.0, n_points=101)
    curve = rpm_curve([200.0, 250.0, 4500.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="disjoint"):
        one_frame(curve, grid, cfg, 12800.0)
    block = rpm_curve([200.0, 250.0, 4500.0], np.ones((4, 3)))
    with pytest.raises(ValueError, match="curve 't' disjoint from grid"):
        kernel_scatter(block, grid, cfg, 12800.0)
