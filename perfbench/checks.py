"""Per-clip output checks and accuracy scoring against the benchmark's own truth."""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from tacholess import ingest

# metrics.json is compared byte for byte by the tests, so it must hold no timings
TIMING_KEY = re.compile(r"time|timing|elapsed|wall|duration|seconds|_s$|_ms$")

# posteriors.csv holds 9 significant digits (%.9g), so a row of an exactly
# normalized posterior may sum to 1 only within the rounding of its entries:
# half a unit in the 9th digit of each, up to 5e-9 for a row. The check allows
# that bound plus float summation slack, and no more.
SUM_SLACK = 1e-12


def check_result(result, clip) -> list[str]:
    """Problems with one in-memory result; an empty list means it passed."""
    problems = []
    expected = ingest.n_frames(clip.n_samples, clip.config.framing)
    if len(result.tracked) != expected or len(result.times_s) != expected:
        problems.append(f"{len(result.tracked)} tracked frames, expected {expected}")
    for name, traj in result.baselines.items():
        if len(traj.rpm) != expected:
            problems.append(f"baseline {name}: {len(traj.rpm)} frames, expected {expected}")
    grid = clip.config.grid
    map_rpm = np.array([p.map_rpm for p in result.tracked])
    mmse = np.array([p.mmse_rpm for p in result.tracked])
    sigma = np.array([p.sigma_rpm for p in result.tracked])
    if not (np.all(np.isfinite(map_rpm)) and np.all(np.isfinite(mmse))
            and np.all(np.isfinite(sigma))):
        return problems + ["non-finite MAP, MMSE or sigma"]
    if not np.all(np.isin(map_rpm, grid.values)):
        problems.append("MAP off the grid")
    # MMSE is a mass-weighted mean of grid values; allow its rounding only
    if np.any(mmse < grid.r_min * (1 - 1e-12)) or np.any(mmse > grid.r_max * (1 + 1e-12)):
        problems.append("MMSE outside the grid range")
    if np.any(sigma < 0):
        problems.append("negative sigma")
    return problems


def check_files(out_dir: Path, clip) -> list[str]:
    """Problems with the files run_pipeline wrote for one clip."""
    problems = []
    expected = ingest.n_frames(clip.n_samples, clip.config.framing)
    try:
        payload = json.loads((out_dir / "metrics.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"metrics.json unreadable: {exc}"]
    if payload.get("n_frames") != expected:
        problems.append(f"metrics.json n_frames {payload.get('n_frames')}, expected {expected}")
    timing_keys = [k for k in _keys(payload) if TIMING_KEY.search(k)]
    if timing_keys:
        problems.append(f"metrics.json holds timings: {timing_keys}")
    if clip.config.output.dump_posteriors:
        problems += _check_posteriors(out_dir / "posteriors.csv", expected)
    if clip.config.output.plot and not (out_dir / "trajectory.svg").is_file():
        problems.append("trajectory.svg missing")
    return problems


def _keys(node):
    if isinstance(node, dict):
        for k, v in node.items():
            yield k
            yield from _keys(v)


def rounding_bound(row: np.ndarray) -> float:
    """Largest total error of the row's entries after rounding to 9 significant digits."""
    pos = row[row > 0]
    return float(0.5 * np.sum(10.0 ** (np.floor(np.log10(pos)) - 8)))


def _check_posteriors(path: Path, expected_rows: int) -> list[str]:
    rows = 0
    bad = []
    try:
        with open(path) as fh:
            fh.readline()  # header: the grid
            for line in fh:
                row = np.array(line.split(","), dtype=np.float64)
                rows += 1
                off = abs(row.sum() - 1.0)
                if off > rounding_bound(row) + SUM_SLACK:
                    bad.append(f"row {rows} sums off 1 by {off:.3g}")
    except (OSError, ValueError) as exc:
        return [f"posteriors.csv unreadable: {exc}"]
    problems = [f"posteriors.csv {b}" for b in bad[:3]]
    if rows != expected_rows:
        problems.append(f"posteriors.csv has {rows} rows, expected {expected_rows}")
    return problems


def accuracy(rpm: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """(RMSE, P95 of |error|) in RPM."""
    err = np.abs(np.asarray(rpm) - reference)
    return float(np.sqrt(np.mean(err ** 2))), float(np.percentile(err, 95.0))


def trajectory(result) -> np.ndarray:
    """(frames, 2) array of MAP and MMSE RPM."""
    return np.array([(p.map_rpm, p.mmse_rpm) for p in result.tracked])
