"""Aligning native-axis evidence onto the shared RPM grid.

Each estimator's values are scored at fixed RPM points: the RPM of each
point of its native axis, which the caller maps once per run. Per frame the
values are robust-standardized (median/IQR), oriented by the estimator's
sign (+1 score, -1 cost), weighted as exp(sign * beta * z), and each weighted
point is spread onto the grid with a truncated Gaussian kernel. The
aggregated mass is floored and log-normalized. The kernel spread depends
only on the RPM points, so it is one fixed (n_axis x G) matrix K per
estimator, and a (T, n_axis) block of frames aggregates as
exp(sign * beta * z) @ K.

K is kept in blocks of ``BLOCK`` grid columns. The axis points whose kernels
reach a block are a contiguous range of axis rows on a monotone axis (any
axis works: the range then holds points that add zero), so a block is one
dense (BLOCK, rows) tap matrix. Blocks whose row counts lie within 2x of
each other form a class, stacked into one (n_blocks, BLOCK, R) array with
zero-padded rows, and a block of frames aggregates in three numpy calls per
class: one gather of the weights' rows, one batched matmul and one
placement. Columns no point reaches are in no block and keep zero mass.
Few calls matter more than few FLOPs: every numpy call releases and
re-takes the GIL, which the tracker's thread waits on. One matmul per block
matched a sparse product per call in isolation but cost the end-to-end
real-time factor; one per class keeps it level. Nothing dense of size
n_axis x G is built (on the fullband lag axis that would be 70 MB).

No change-of-variables correction is applied when mapping reciprocal axes
(lag/quefrency) to RPM; the kernel aggregation operates on mapped point
locations as-is."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import RpmGrid

# floor added to aggregated kernel mass so log-values stay finite everywhere;
# far below any curve's evidence scale
LIKELIHOOD_FLOOR = float(np.finfo(np.float64).tiny)
# added to the IQR so that an all-equal row standardizes to zeros, not NaN
EPS_NORM = 1e-10
# kernels are cut at this many bandwidths; the tail beyond is exp(-18) of the peak
KERNEL_TRUNCATION_SIGMAS = 6.0
# grid columns per block of a kernel scatter
BLOCK = 64


@dataclass(frozen=True)
class CurveToGridConfig:
    beta: float = 1.0
    kernel_bandwidth_rpm: float = 0.5

    def __post_init__(self):
        for name in ("beta", "kernel_bandwidth_rpm"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"alignment.{name} must be positive and finite, got {v}")


def _quantile(ordered: np.ndarray, q: float) -> np.ndarray:
    """The q-quantile of each row of ``ordered``, sorted along its last axis, as
    ``np.percentile(..., 100 * q, keepdims=True)`` computes it: index
    q * (n - 1), and numpy's lerp between its neighbours, taken from the
    upper one where the fraction is at least 0.5."""
    n = ordered.shape[-1]
    at = q * (n - 1)
    lo = int(at)
    hi = min(lo + 1, n - 1)
    t = at - lo
    a, b = ordered[..., lo:lo + 1], ordered[..., hi:hi + 1]
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def robust_standardize(values: np.ndarray) -> np.ndarray:
    """(values - median) / (IQR + EPS_NORM) along the last axis, quartiles by linear
    interpolation.

    Scale- and offset-robust: outliers move the quartiles little, and a
    degenerate all-equal input comes back as zeros rather than NaN. A block
    is standardized row by row. The quartiles are read off one sort of each
    row and equal ``np.percentile``'s (only the sign of a zero order
    statistic can differ); on 16-row blocks this took a half to a quarter
    of the time of ``np.percentile``.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot standardize an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("cannot standardize non-finite values")
    ordered = np.sort(v, axis=-1)
    q1, med, q3 = (_quantile(ordered, q) for q in (0.25, 0.5, 0.75))
    return (v - med) / ((q3 - q1) + EPS_NORM)


def kernel_scatter(rpm: np.ndarray, grid: RpmGrid, cfg: CurveToGridConfig,
                   label: str = "evidence") -> tuple[int, tuple]:
    """The (n_axis x G) kernel matrix K in blocks: row m is a Gaussian
    (bandwidth in RPM, truncated at KERNEL_TRUNCATION_SIGMAS) centered at
    ``rpm[m]``, the RPM of point m of an estimator's axis.

    Returns ``(G, classes)``. Each class is a ``(blocks, rows, taps)`` triple
    of read-only arrays: ``blocks`` (n,) numbers the grid blocks (block b is
    columns ``b * BLOCK`` onwards), ``rows`` (n, R) the axis points each block
    reads, and ``taps`` (n, BLOCK, R) the entries, ``taps[k, c, r] =
    K[rows[k, r], blocks[k] * BLOCK + c]``. :func:`scatter_mass` applies it.

    Points whose kernel window misses the grid entirely reach no block; if
    that is every point, the axis is disjoint from the grid, and the error
    names it by ``label``.
    """
    h = cfg.kernel_bandwidth_rpm
    radius = KERNEL_TRUNCATION_SIGMAS * h
    inside = np.nonzero((rpm >= grid.r_min - radius) & (rpm <= grid.r_max + radius))[0]
    if inside.size == 0:
        raise ValueError(
            f"{label} disjoint from grid: all {len(rpm)} points map "
            f"outside [{grid.r_min}, {grid.r_max}] RPM (+/- {radius:.3g} kernel reach)"
        )
    dr = grid.step
    half = int(np.ceil(radius / dr))
    centers = np.round((rpm[inside] - grid.r_min) / dr).astype(np.int64)
    idx = centers[:, None] + np.arange(-half, half + 1)[None, :]
    u = (grid.r_min + idx * dr - rpm[inside, None]) / h
    kern = np.where(np.abs(u) <= KERNEL_TRUNCATION_SIGMAS, np.exp(-0.5 * u * u), 0.0)
    valid = (idx >= 0) & (idx < grid.n_points) & (kern > 0.0)
    rows = np.broadcast_to(inside[:, None], idx.shape)[valid]
    cols, taps = idx[valid], kern[valid]
    n = len(rpm)
    n_blocks = -(-grid.n_points // BLOCK)
    block = cols // BLOCK
    first = np.full(n_blocks, n)
    last = np.full(n_blocks, -1)
    np.minimum.at(first, block, rows)
    np.maximum.at(last, block, rows)
    used = np.flatnonzero(last >= 0)
    counts = last[used] - first[used] + 1
    order = np.argsort(counts, kind="stable")
    counts = counts[order]
    classes = []
    slot = np.empty(n_blocks, dtype=np.int64)
    lo = 0
    while lo < len(order):
        # the blocks of up to twice the fewest rows left
        hi = int(np.searchsorted(counts, 2 * counts[lo], side="right"))
        members = np.sort(used[order[lo:hi]])
        r = int(counts[hi - 1])
        # a range shorter than r is padded with the rows after it, or before
        # it at the end of the axis; their taps stay zero
        start = np.minimum(first[members], n - r)
        slot.fill(-1)
        slot[members] = np.arange(len(members))
        k = slot[block]
        mine = k >= 0
        k = k[mine]
        dense = np.zeros((len(members), BLOCK, r))
        dense[k, cols[mine] % BLOCK, rows[mine] - start[k]] = taps[mine]
        parts = (members, start[:, None] + np.arange(r), dense)
        for a in parts:
            a.flags.writeable = False
        classes.append(parts)
        lo = hi
    return grid.n_points, tuple(classes)


def scatter_mass(weights: np.ndarray, scatter: tuple[int, tuple]) -> np.ndarray:
    """``weights @ K`` for the blocked K of :func:`kernel_scatter`: the (G,)
    kernel mass of one (N,) row of point weights, or (T, G) of a (T, N) block."""
    n_columns, classes = scatter
    frames = weights.reshape(-1, weights.shape[-1])
    mass = np.zeros((len(frames), -(-n_columns // BLOCK) * BLOCK))
    by_block = mass.reshape(len(frames), -1, BLOCK)
    for blocks, rows, taps in classes:
        # (n, T, R) @ (n, R, BLOCK): every block of the class in one product
        part = np.matmul(frames[:, rows].transpose(1, 0, 2), taps.transpose(0, 2, 1))
        by_block[:, blocks] = part.transpose(1, 0, 2)
    mass = mass[:, :n_columns]
    return mass if weights.ndim == 2 else mass[0]


def aligned_loglik(values: np.ndarray, sign: float, scatter: tuple[int, tuple],
                   cfg: CurveToGridConfig) -> np.ndarray:
    """Normalized grid log-likelihood, (G,) or (T, G), of each frame's ``values``:
    one (N,) row or a (T, N) block of one estimator's evidence.

    Point m contributes exp(sign * beta * z[m]) times row m of the
    :func:`kernel_scatter` of the same axis, where z is the robust-standardized
    row and ``sign`` is +1 for a score and -1 for a cost.
    """
    log_w = (sign * cfg.beta) * robust_standardize(values)
    # overall scale cancels in normalization; avoids exp overflow
    log_w -= log_w.max(axis=-1, keepdims=True)
    mass = scatter_mass(np.exp(log_w), scatter)
    mass += LIKELIHOOD_FLOOR
    # the logsumexp of log(mass) is the log of its row sum: no second exp
    log_total = np.log(mass.sum(axis=-1, keepdims=True))
    np.log(mass, out=mass)
    mass -= log_total
    return mass
