"""Shared RPM hypothesis grid.

A grid log-likelihood is a plain array whose last axis runs over the grid
points: one (G,) row per frame, or a (T, G) block of frames, normalized row
by row with :func:`logsumexp_rows`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def logsumexp_rows(values: np.ndarray) -> np.ndarray:
    """logsumexp along the last axis, kept as a length-1 axis that broadcasts."""
    top = values.max(axis=-1, keepdims=True)
    return top + np.log(np.exp(values - top).sum(axis=-1, keepdims=True))


@dataclass(frozen=True)
class RpmGrid:
    """Uniform discretization of the feasible speed range [r_min, r_max] RPM.

    Point g (0-based) sits at ``r_min + g * step``; the same arithmetic is used
    everywhere downstream so index math and axis values never disagree.
    """

    r_min: float
    r_max: float
    n_points: int
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.r_min) or self.r_min <= 0:
            raise ValueError(f"grid.r_min must be positive and finite, got {self.r_min}")
        if not np.isfinite(self.r_max) or self.r_max <= self.r_min:
            raise ValueError(
                f"grid.r_max must exceed r_min, got [{self.r_min}, {self.r_max}]"
            )
        if self.n_points < 2:
            raise ValueError(f"grid.n_points must be >= 2, got {self.n_points}")
        vals = self.r_min + np.arange(self.n_points) * self.step
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_step(cls, r_min: float, r_max: float, step_rpm: float = 1.0) -> "RpmGrid":
        """Build a grid from a step size, holding r_min and the step exact.

        r_max is snapped to the nearest whole number of steps, unless the
        grid's step already computes back to ``step_rpm``: then it is kept, so
        a grid written as its (r_min, r_max, step) rebuilds equal.
        """
        for name, value in (("r_min", r_min), ("r_max", r_max), ("step_rpm", step_rpm)):
            if not np.isfinite(value):
                raise ValueError(f"grid.{name} must be finite, got {value}")
        if step_rpm <= 0:
            raise ValueError(f"grid step must be positive, got {step_rpm}")
        n = int(round((r_max - r_min) / step_rpm)) + 1
        if n < 2:
            raise ValueError(f"grid [{r_min}, {r_max}] step {step_rpm} has fewer than 2 points")
        if (r_max - r_min) / (n - 1) != step_rpm:
            r_max = r_min + (n - 1) * step_rpm
        return cls(r_min, r_max, n)

    @property
    def step(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    def __len__(self) -> int:
        return self.n_points
