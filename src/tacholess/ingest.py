"""Signal loading (WAV/CSV) and overlapped framing."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.io import wavfile


@dataclass(frozen=True)
class Signal:
    """Mono float64 sample vector plus its sample rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        x = np.asarray(self.samples, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError(f"signal must be 1-D mono, got shape {x.shape}")
        if x.size == 0:
            raise ValueError("empty signal")
        bad = np.flatnonzero(~np.isfinite(x))
        if bad.size:
            raise ValueError(f"non-finite sample {x[bad[0]]} at index {bad[0]}")
        if not np.isfinite(self.sample_rate_hz) or self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        x = x.copy()
        x.flags.writeable = False
        object.__setattr__(self, "samples", x)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class FramingConfig:
    frame_len: int = 8192
    hop: int = 128

    def __post_init__(self):
        if self.frame_len < 4:
            raise ValueError(f"frame_len must be >= 4, got {self.frame_len}")
        if not 1 <= self.hop <= self.frame_len:
            raise ValueError(
                f"hop must be in [1, frame_len], got hop={self.hop} frame_len={self.frame_len}"
            )


def n_frames(signal_len: int, framing: FramingConfig) -> int:
    """Number of full frames: floor((len - frame_len) / hop) + 1."""
    if signal_len < framing.frame_len:
        return 0
    return (signal_len - framing.frame_len) // framing.hop + 1


def frame_signal(signal: Signal, framing: FramingConfig) -> np.ndarray:
    """Overlapped frames as a read-only (T, frame_len) view of the samples:
    row k is ``samples[k*hop : k*hop + frame_len]``, nothing is copied."""
    if n_frames(len(signal), framing) == 0:
        raise ValueError(
            f"signal of {len(signal)} samples is shorter than one frame ({framing.frame_len})"
        )
    return sliding_window_view(signal.samples, framing.frame_len)[:: framing.hop]


def frame_times(signal: Signal, framing: FramingConfig) -> np.ndarray:
    """Centre time in seconds of each frame of :func:`frame_signal`."""
    starts = np.arange(n_frames(len(signal), framing)) * framing.hop
    return (starts + framing.frame_len / 2.0) / signal.sample_rate_hz


def _load_wav(path: Path) -> Signal:
    rate, data = wavfile.read(str(path))
    if data.ndim != 1:
        raise ValueError(
            f"{path.name}: multi-channel WAV not supported (shape {data.shape}); supply mono"
        )
    if data.size == 0:
        raise ValueError(f"{path.name}: empty signal")
    if data.dtype == np.int16:
        x = data / 2.0**15
    elif data.dtype == np.int32:
        # scipy returns 24-bit PCM MSB-justified in int32, so one scale covers 24/32-bit
        x = data / 2.0**31
    elif data.dtype in (np.float32, np.float64):
        x = data.astype(np.float64)
    else:
        raise ValueError(
            f"{path.name}: unsupported WAV sample format {data.dtype}; "
            "expected 16/24/32-bit PCM or 32-bit float"
        )
    return Signal(x, float(rate))


def _load_csv(path: Path, sample_rate_hz: float | None) -> Signal:
    if sample_rate_hz is None:
        raise ValueError(f"{path.name}: sample_rate_hz is required for CSV input")
    rows = []
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append(float(line.split(",")[0]))
            except ValueError as exc:
                raise ValueError(f"{path.name}:{ln}: not a number: {line!r}") from exc
    if not rows:
        raise ValueError(f"{path.name}: empty signal")
    return Signal(np.asarray(rows), sample_rate_hz)


def load_signal(path: str | Path, fmt: str | None = None,
                sample_rate_hz: float | None = None) -> Signal:
    """Load a mono signal from WAV or CSV (one sample per line, '#' comments).

    fmt defaults to the file suffix. WAV carries its own rate; CSV requires
    sample_rate_hz.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt == "wav":
        return _load_wav(path)
    if fmt == "csv":
        return _load_csv(path, sample_rate_hz)
    raise ValueError(f"unsupported input format '{fmt}' (expected wav or csv)")


def save_signal(signal: Signal, path: str | Path, fmt: str | None = None) -> None:
    """Write a signal to WAV (32-bit float) or CSV (one '%.17g' sample per line)."""
    path = Path(path)
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt == "wav":
        wavfile.write(str(path), int(round(signal.sample_rate_hz)),
                      signal.samples.astype(np.float32))
    elif fmt == "csv":
        with open(path, "w") as fh:
            fh.write(f"# sample_rate_hz={signal.sample_rate_hz!r}\n")
            for v in signal.samples:
                fh.write(f"{v:.17g}\n")
    else:
        raise ValueError(f"unsupported output format '{fmt}' (expected wav or csv)")
