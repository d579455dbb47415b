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

Every transition kernel is one function, the cut Gaussian at bin offsets:
the taps of a direct convolution, each (B, B) block of a block lag and each
kernel at a block's Chebyshev node offsets. A sigma shared by a block's
worth of columns diffuses in block-Toeplitz form, one block per block lag.
On a block the Gaussian is smooth, so a lag whose entries are all positive
is interpolated on Chebyshev nodes, the interpolative form of the fast Gauss
transform (Fong & Darve, J. Comput. Phys. 2009), where that matches every
entry to a relative 1e-12; on the default grid sigma 150 interpolates 27 of
its 31 lags and sigma 40 5 of 9. The lags that the 6-sigma cut crosses stay
dense products: an interpolant would leave an error floor in their zeros, as
an FFT predict does, far above bins hundreds of decades below the peak. The
two sigmas' cached operators hold 0.42 MB on the default grid.
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
# Chebyshev nodes per block of an interpolated block lag. Sigma 150
# interpolates 27 of its 31 lags on the default grid from 16 to 24 nodes;
# sigma 40 1 of 9 at 16 nodes and 5 at 18-24, whose worst entries err by
# 6.6e-13 at 18 and 3.3e-13 at 20; sigma 150 on a 4 RPM grid 3 of 9 at 18
# and 5 at 20. Both the per-entry check and the products grow as p^2
_CHEB_NODES = 20
# the relative error per entry that admits a lag; at 1e-13 sigma 40 would
# keep only 3 of its 9 lags interpolated on the default grid
_CHEB_RTOL = 1e-12
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


def _gauss(offsets: np.ndarray, s: float, dr: float, half: int) -> np.ndarray:
    """The unit-peak Gaussian of scale s at bin offsets on a grid of step dr,
    zero past KERNEL_TRUNCATION_SIGMAS and past ``half`` bins."""
    u = offsets * (dr / s)
    return np.where((np.abs(u) <= KERNEL_TRUNCATION_SIGMAS) & (np.abs(offsets) <= half),
                    np.exp(-0.5 * u * u), 0.0)


def _kernel(s: float, dr: float, g: int):
    """Half-width in bins, taps, and [0, cumsum] of the truncated Gaussian of scale s
    on a grid of ``g`` bins: a tap more than g - 1 bins out lands on no bin."""
    half = min(int(np.ceil(KERNEL_TRUNCATION_SIGMAS * s / dr)), g - 1)
    kern = _gauss(np.arange(-half, half + 1), s, dr, half)
    return half, kern, np.concatenate(([0.0], np.cumsum(kern)))


def _column_norms(cols: np.ndarray, half: int, csum: np.ndarray, g: int) -> np.ndarray:
    """Kernel mass that columns ``cols`` keep on a grid of ``g`` bins."""
    lo = np.maximum(-cols, -half)
    hi = np.minimum(g - 1 - cols, half)
    return csum[hi + half + 1] - csum[lo + half]


def _chebyshev_basis(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The p Chebyshev nodes t_m of [0, n - 1] and the read-only (n, p)
    matrix whose column m is node m's Lagrange polynomial at 0, 1, .., n - 1,
    from the nodes' discrete orthogonality:
    L_m(x) = (1 + 2 sum_{k=1}^{p-1} T_k(x_m) T_k(x)) / p on [-1, 1]."""
    theta = (2 * np.arange(p) + 1) * np.pi / (2 * p)
    k = np.arange(p)
    at_points = np.cos(k * np.arccos(np.linspace(-1.0, 1.0, n))[:, None])
    at_nodes = np.cos(k * theta[:, None])
    lagrange = (at_points * np.where(k == 0, 1.0, 2.0) / p) @ at_nodes.T
    lagrange.flags.writeable = False
    return (n - 1) * (1.0 + np.cos(theta)) / 2.0, lagrange


# built once, vectorized (about 0.1 ms), and shared read-only by every sigma
_NODES, _LAGRANGE = _chebyshev_basis(_BLOCK, _CHEB_NODES)
# entry [a, c] is the offset from bin or node a to c of one block
_OFFSETS = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None]
_NODE_OFFSETS = _NODES - _NODES[:, None]


@lru_cache(maxsize=8)
def _block_operator(s: float, dr: float, g: int):
    """(half, per-bin column norms, dense lags, near, node kernels) of one
    sigma on one grid, all read-only, so every thread shares them.

    The (B, B) block of lag i carries input block q + i to output block q:
    its entry [a, c] is the cut Gaussian (:func:`_gauss`) at offset
    c - a - i * B. The kernel reaches half <= g - 1 bins, so the lags
    |i| <= ceil(half / B) hold all of it.

    With P the (B, p) Lagrange matrix on the p Chebyshev nodes t of a block
    and C_i the same cut Gaussian at the node offsets t[c] - t[a] - i * B, a
    lag is interpolated as ``P @ C_i @ P.T`` if every entry of its block is
    positive and that matches each entry to a relative _CHEB_RTOL, checked
    here once per sigma. The lags are checked one at a time outward from lag
    0 (the error grows with the offset), so the interpolated ones are
    |i| <= near, and ``coarse`` is the (2 near + 1, p, p) stack of their C_i
    in lag order. A lag that the cut crosses holds zeros, where an
    interpolant leaves an absolute error floor, as an FFT predict does, that
    swamps bins hundreds of decades below the peak; such a lag stays dense,
    as does every lag of a sigma too narrow to pass, and ``dense`` holds
    their (i, block) pairs in lag order (``near`` is -1 when no lag is
    interpolated). Only what ``predict`` reads is kept: on the default grid
    sigma 150 holds 0.25 MB (four dense blocks, 27 node kernels and the
    norms) and sigma 40 0.18 MB.
    """
    half, _, csum = _kernel(s, dr, g)
    norm = _column_norms(np.arange(g), half, csum, g)
    lags = -(-half // _BLOCK)
    near = -1
    for i in range(lags + 1):
        block = _gauss(_OFFSETS - i * _BLOCK, s, dr, half)
        approx = _LAGRANGE @ _gauss(_NODE_OFFSETS - i * _BLOCK, s, dr, half) @ _LAGRANGE.T
        if block.min() <= 0.0 or (np.abs(approx - block) > _CHEB_RTOL * block).any():
            break
        near = i
    coarse = np.array([_gauss(_NODE_OFFSETS - i * _BLOCK, s, dr, half)
                       for i in range(-near, near + 1)]).reshape(-1, _CHEB_NODES, _CHEB_NODES)
    dense = tuple((i, _gauss(_OFFSETS - i * _BLOCK, s, dr, half))
                  for i in range(-lags, lags + 1) if abs(i) > near)
    for array in (norm, coarse, *(block for _, block in dense)):
        array.flags.writeable = False
    return half, norm, dense, near, coarse


def predict(mass: np.ndarray, sigmas: np.ndarray, grid: RpmGrid) -> np.ndarray:
    """Diffuse posterior mass with per-bin Gaussian transition columns.

    Column j spreads mass[j] as a Gaussian of scale sigmas[j] truncated at
    KERNEL_TRUNCATION_SIGMAS, renormalized over the bounded grid so no mass
    leaks off the ends. The columns sharing a sigma are one convolution of
    their scaled masses over the span they cover. A sigma shared by at least
    ``_BLOCK`` columns convolves in block-Toeplitz form: its span is cut into
    blocks x of ``_BLOCK`` bins, with the kernel's reach of ceil(half / B)
    zero blocks on each side, and the output blocks accumulate one
    (n, B) x (B, B) matrix product per dense block lag, in lag order, and
    then ``W @ P.T`` for the interpolated lags: with z = x @ P,
    ``W = sum_i z[window of lag i] @ C_i`` is one product of the stacked
    windows. The operator of a sigma is built and cached per sigma and grid
    by :func:`_block_operator`. Smaller groups run one direct convolution
    over their span. On the benchmark clips (seed 1) the block path serves
    the two clip values on every frame after the first, and the direct path
    0.34-0.75 one-column groups per frame on fullband S0/S3/S5 and
    0.08-0.10 on narrowband S2/S4.
    """
    g = grid.n_points
    dr = grid.step
    sigmas = np.asarray(sigmas, dtype=np.float64)
    for name, values in (("mass", mass), ("sigmas", sigmas)):
        if np.shape(values) != (g,):
            raise ValueError(f"{name} shape {np.shape(values)} does not match grid ({g},)")
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
        half, norm, dense, near, coarse = _block_operator(float(s), dr, g)
        lo, hi = max(0, first - half), min(g, last + half + 1)
        n_out = -(-(hi - lo) // _BLOCK)
        reach = -(-half // _BLOCK)  # output block q sums input blocks q - reach .. q + reach
        x = np.zeros((n_out + 2 * reach) * _BLOCK)
        x[reach * _BLOCK + cols - lo] = mass[cols] / norm[cols]
        x = x.reshape(-1, _BLOCK)
        y = np.zeros((n_out, _BLOCK))
        for i, block in dense:
            y += x[reach + i:reach + i + n_out] @ block
        if near >= 0:
            # row q of the stacked windows is z[q + reach - near .. q + reach + near]
            z = (x[reach - near:reach + near + n_out] @ _LAGRANGE).ravel()
            stacked = sliding_window_view(z, (2 * near + 1) * _CHEB_NODES)[::_CHEB_NODES]
            w = np.ascontiguousarray(stacked) @ coarse.reshape(-1, _CHEB_NODES)
            y += w @ _LAGRANGE.T
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
