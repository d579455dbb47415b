import numpy as np
import pytest

from tacholess import RpmGrid


def test_default_working_grid():
    grid = RpmGrid.from_step(300.0, 4000.0, 1.0)
    assert grid.n_points == 3701
    assert grid.step == 1.0
    assert grid.values[0] == 300.0
    assert grid.values[-1] == 4000.0
    assert np.all(np.diff(grid.values) > 0)


def test_grid_values_are_affine_in_index():
    grid = RpmGrid(r_min=500.0, r_max=700.0, n_points=81)
    assert grid.step == pytest.approx(2.5)
    assert np.allclose(grid.values, 500.0 + 2.5 * np.arange(81))
    assert len(grid) == 81


def test_from_step_snaps_upper_edge():
    # r_max snaps to the nearest whole number of steps from r_min
    assert RpmGrid.from_step(300.0, 4000.4, 1.0).n_points == 3701
    assert RpmGrid.from_step(300.0, 3999.6, 1.0).values[-1] == 4000.0


def test_grid_validation():
    with pytest.raises(ValueError):
        RpmGrid(r_min=0.0, r_max=100.0, n_points=10)
    with pytest.raises(ValueError):
        RpmGrid(r_min=100.0, r_max=100.0, n_points=10)
    with pytest.raises(ValueError):
        RpmGrid(r_min=100.0, r_max=200.0, n_points=1)
    with pytest.raises(ValueError):
        RpmGrid.from_step(100.0, 200.0, 0.0)
    # non-finite bounds or step are named before any arithmetic on them
    for args, name in (((300.0, np.inf, 1.0), "r_max"), ((np.nan, 4000.0, 1.0), "r_min"),
                       ((300.0, 4000.0, np.nan), "step_rpm"), ((-np.inf, 4000.0, 1.0), "r_min"),
                       ((300.0, 4000.0, np.inf), "step_rpm")):
        with pytest.raises(ValueError, match=f"grid.{name} must be finite"):
            RpmGrid.from_step(*args)


def test_grid_values_read_only():
    grid = RpmGrid(r_min=300.0, r_max=400.0, n_points=11)
    with pytest.raises(ValueError):
        grid.values[0] = 0.0


def test_grid_equality_by_parameters():
    a = RpmGrid(r_min=300.0, r_max=400.0, n_points=11)
    b = RpmGrid(r_min=300.0, r_max=400.0, n_points=11)
    c = RpmGrid(r_min=300.0, r_max=400.0, n_points=12)
    assert a == b
    assert a != c

