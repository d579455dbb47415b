"""Curvature-adaptive recursive Bayesian tracking on the RPM grid.

The state is one plain (G,) float64 posterior mass vector over the grid. Each
step reads the local log-posterior curvature to set a per-bin diffusion scale
(sharp peak -> narrow transitions, flat posterior -> wide), diffuses with
per-column renormalized truncated Gaussians (mass stays on the bounded grid),
multiplies in the fused frame likelihood, and reads MAP, MMSE, sigma and
entropy off the result. Strictly online: outputs for frame t depend only on
frames 1..t, so `track` takes the fused rows either as one (T, G) array or as
an iterator of (n, G) blocks filtered as they arrive, returns one record
array row per frame, and hands each frame's posterior row to an optional sink
as soon as it is made.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fusion import mass_entropy
from .grid import RpmGrid

# bins per block of the block-Toeplitz predict; smaller sigma groups convolve directly
_BLOCK = 64
# numeric guards: curvature floor in 1/sigma^2, and the mass floor under every log
EPS_C = 1e-12
EPS_LOG = 1e-300
# transition kernels are cut at this many sigmas
KERNEL_TRUNCATION_SIGMAS = 6.0
# one row of a tracked trajectory: frame_index counts frames from 1
TRACK_DTYPE = np.dtype([("frame_index", np.int64), ("time_s", np.float64),
                        ("map_rpm", np.float64), ("mmse_rpm", np.float64),
                        ("sigma_rpm", np.float64), ("entropy_nats", np.float64)])


@dataclass(frozen=True)
class TrackerConfig:
    sigma_min_rpm: float = 40.0
    sigma_max_rpm: float = 150.0

    def __post_init__(self):
        for name in ("sigma_min_rpm", "sigma_max_rpm"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0:
                raise ValueError(f"tracker.{name} must be positive and finite, got {v}")
        if self.sigma_min_rpm > self.sigma_max_rpm:
            raise ValueError(
                f"need 0 < sigma_min <= sigma_max, got "
                f"[{self.sigma_min_rpm}, {self.sigma_max_rpm}]"
            )


def curvature_sigma(mass: np.ndarray, grid: RpmGrid, cfg: TrackerConfig) -> np.ndarray:
    """Per-bin diffusion scale from local log-posterior curvature.

    l = log(mass + EPS_LOG) is pre-smoothed with a 3-point moving average
    (2-point means at the ends), its second difference taken per grid step,
    and sigma^2 = clip(1 / (max(0, -l'') + EPS_C), sigma_min^2, sigma_max^2).
    Boundary bins replicate the nearest interior curvature.
    """
    g = grid.n_points
    if g < 3:
        raise ValueError(f"curvature needs a grid of >= 3 points, got {g}")
    l = np.log(mass + EPS_LOG)
    sm = np.empty_like(l)
    sm[1:-1] = (l[:-2] + l[1:-1] + l[2:]) / 3.0
    sm[0] = (l[0] + l[1]) / 2.0
    sm[-1] = (l[-2] + l[-1]) / 2.0
    dr2 = grid.step ** 2
    curv = np.empty_like(l)
    curv[1:-1] = (sm[2:] - 2.0 * sm[1:-1] + sm[:-2]) / dr2
    curv[0] = curv[1]
    curv[-1] = curv[-2]
    q = np.maximum(0.0, -curv)
    var = np.clip(1.0 / (q + EPS_C), cfg.sigma_min_rpm ** 2, cfg.sigma_max_rpm ** 2)
    return np.sqrt(var)


def _kernel(s: float, dr: float, g: int):
    """Half-width in bins, taps, and [0, cumsum] of the truncated Gaussian of scale s
    on a grid of ``g`` bins: a tap more than g - 1 bins out lands on no bin."""
    half = min(int(np.ceil(KERNEL_TRUNCATION_SIGMAS * s / dr)), g - 1)
    u = np.arange(-half, half + 1) * (dr / s)
    kern = np.where(np.abs(u) <= KERNEL_TRUNCATION_SIGMAS, np.exp(-0.5 * u * u), 0.0)
    return half, kern, np.concatenate(([0.0], np.cumsum(kern)))


def _column_norms(cols: np.ndarray, half: int, csum: np.ndarray, g: int) -> np.ndarray:
    """Kernel mass that columns ``cols`` keep on a grid of ``g`` bins."""
    lo = np.maximum(-cols, -half)
    hi = np.minimum(g - 1 - cols, half)
    return csum[hi + half + 1] - csum[lo + half]


@lru_cache(maxsize=8)
def _block_operator(s: float, dr: float, g: int):
    """(half, per-bin column norms, Toeplitz blocks) of one sigma on one grid,
    all read-only, so every thread shares them.

    ``blocks[lags + i]`` is the (B, B) matrix that carries input block q + i
    to output block q, for block lags |i| <= lags. The kernel reaches at
    most g - 1 bins, so the blocks reach less than one block past the grid.
    """
    half, kern, csum = _kernel(s, dr, g)
    norm = _column_norms(np.arange(g), half, csum, g)
    lags = -(-half // _BLOCK)
    # entry [l, a, c] is the kernel at offset c - a - (l - lags) * B; with the
    # taps zero-padded, row l * B + a of the flattened blocks is the padded
    # kernel's window of B taps starting base - (l * B + a)
    pad = (lags + 1) * _BLOCK - half - 1
    padded = np.zeros(2 * pad + kern.size)
    padded[pad:pad + kern.size] = kern
    base = pad + half + lags * _BLOCK
    rows = base - np.arange((2 * lags + 1) * _BLOCK)
    windows = sliding_window_view(padded, _BLOCK)
    blocks = windows[rows].reshape(2 * lags + 1, _BLOCK, _BLOCK)
    norm.flags.writeable = False
    blocks.flags.writeable = False
    return half, norm, blocks


def predict(mass: np.ndarray, sigmas: np.ndarray, grid: RpmGrid) -> np.ndarray:
    """Diffuse posterior mass with per-bin Gaussian transition columns.

    Column j spreads mass[j] as a Gaussian of scale sigmas[j] truncated at
    KERNEL_TRUNCATION_SIGMAS, renormalized over the bounded grid so no mass
    leaks off the ends. The columns sharing a sigma are one convolution of
    their scaled masses over the span they cover. A sigma shared by at least
    ``_BLOCK`` columns (in practice the two clip values) convolves in
    block-Toeplitz form: its span is cut into blocks of ``_BLOCK`` bins, and
    the output blocks accumulate one (n, B) x (B, B) matrix product per block
    lag, in lag order, with the blocks and column norms cached per sigma and
    grid. Smaller groups run one direct convolution over their span.
    """
    g = grid.n_points
    dr = grid.step
    sigmas = np.asarray(sigmas, dtype=np.float64)
    if sigmas.shape != (g,):
        raise ValueError(f"sigmas shape {sigmas.shape} does not match grid ({g},)")
    bad = np.flatnonzero(~(np.isfinite(sigmas) & (sigmas > 0)))
    if bad.size:
        raise ValueError(f"sigma at bin {bad[0]} is {sigmas[bad[0]]}, "
                         f"must be positive and finite")
    out = np.zeros(g)
    ordered = np.sort(sigmas)  # for the distinct sigmas: np.unique would import numpy.ma
    for s in ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]:
        cols = np.nonzero(sigmas == s)[0]
        cols = cols[mass[cols] > 0.0]
        if cols.size == 0:
            continue
        first, last = cols[0], cols[-1]
        if cols.size < _BLOCK:
            half, kern, csum = _kernel(s, dr, g)
            span = np.zeros(last - first + 1)
            span[cols - first] = mass[cols] / _column_norms(cols, half, csum, g)
            # spread[k] lands on bin first - half + k; keep the part on the grid
            spread = np.convolve(span, kern)
            lo, hi = max(0, first - half), min(g, last + half + 1)
            out[lo:hi] += spread[lo - first + half : hi - first + half]
            continue
        half, norm, blocks = _block_operator(float(s), dr, g)
        lo, hi = max(0, first - half), min(g, last + half + 1)
        n_out = -(-(hi - lo) // _BLOCK)
        # output block q sums input blocks q - reach .. q + reach; blocks
        # further away than n_out - 1 hold no column of this span
        reach = min(len(blocks) // 2, n_out - 1)
        x = np.zeros((n_out + 2 * reach) * _BLOCK)
        x[reach * _BLOCK + cols - lo] = mass[cols] / norm[cols]
        x = x.reshape(-1, _BLOCK)
        skip = len(blocks) // 2 - reach
        y = x[:n_out] @ blocks[skip]
        for i in range(1, 2 * reach + 1):
            y += x[i:i + n_out] @ blocks[skip + i]
        out[lo:hi] += y.ravel()[:hi - lo]
    return out


def update(prior: np.ndarray, loglik: np.ndarray) -> np.ndarray:
    """Posterior mass: the Bayes product of (G,) prior mass and one frame's
    (G,) log-likelihood, in the log domain, max-shifted and normalized."""
    if np.shape(prior) != np.shape(loglik):
        raise ValueError(f"prior shape {np.shape(prior)} does not match "
                         f"log-likelihood shape {np.shape(loglik)}")
    log_post = np.log(prior + EPS_LOG) + loglik
    mass = np.exp(log_post - log_post.max())
    mass /= mass.sum()
    return mass


def estimate(mass: np.ndarray, grid: RpmGrid) -> tuple[float, float, float, float]:
    """(MAP (first max on ties), MMSE, posterior stddev, entropy) of grid mass."""
    values = grid.values
    mmse = float(mass @ values)
    var = float(mass @ (values - mmse) ** 2)
    return (float(values[int(np.argmax(mass))]), mmse, float(np.sqrt(max(var, 0.0))),
            mass_entropy(mass))


def _checked_blocks(blocks: Iterable, grid: RpmGrid,
                    n_times: int | None) -> Iterator[tuple[int, np.ndarray]]:
    """(frames before it, float64 block) for each (n, G) block, checked as it
    arrives; errors name the frame's 1-based index in the whole recording."""
    start = 0
    for block in blocks:
        block = np.asarray(block, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != grid.n_points:
            raise ValueError(
                f"log-likelihood block {block.shape} at frame {start + 1} does not match "
                f"the tracking grid (n, {grid.n_points})"
            )
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if bad.size:
            raise ValueError(f"frame {start + bad[0] + 1} log-likelihood has non-finite values")
        if n_times is not None and start + len(block) > n_times:
            raise ValueError(f"{n_times} times for at least {start + len(block)} frames")
        yield start, block
        start += len(block)
    if n_times is not None and start != n_times:
        raise ValueError(f"{n_times} times for {start} frames")


def track(loglik: np.ndarray | Iterator[np.ndarray], grid: RpmGrid, cfg: TrackerConfig,
          times_s: Sequence[float] | None = None,
          posterior_sink: Callable[[np.ndarray], Any] | None = None) -> np.recarray:
    """Run the filter over per-frame fused log-likelihoods: a (T, G) array
    (or anything ``np.asarray`` makes one of), checked whole before any
    filtering, or an iterator of (n, G) blocks in frame order, each checked
    and filtered as it arrives.

    Returns a record array with one row per frame and the columns of
    ``TRACK_DTYPE`` (``time_s`` is nan without ``times_s``). Each frame's
    (G,) posterior mass row, a new array that is never changed afterwards,
    is passed to ``posterior_sink`` (if given) in frame order, on the thread
    that runs ``track``, as soon as it is made.
    """
    n_times = None if times_s is None else len(times_s)
    if isinstance(loglik, Iterator):
        blocks = _checked_blocks(loglik, grid, n_times)
    else:
        blocks = list(_checked_blocks([loglik], grid, n_times))
    mass = np.full(grid.n_points, 1.0 / grid.n_points)  # uniform prior
    rows = []
    for start, block in blocks:
        for t, row in enumerate(block, start=start + 1):
            sig = curvature_sigma(mass, grid, cfg)
            mass = update(predict(mass, sig, grid), row)
            when = float(times_s[t - 1]) if times_s is not None else float("nan")
            rows.append((t, when, *estimate(mass, grid)))
            if posterior_sink is not None:
                posterior_sink(mass)
    return np.array(rows, dtype=TRACK_DTYPE).view(np.recarray)
