"""Signal loading (WAV/CSV) and overlapped framing."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


# WAVE format tags: integer PCM, IEEE float, and the extensible header whose
# sub-format GUID carries the real tag in its first four bytes
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# the last eight bytes of the GUID of every standard sub-format
_GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _wav_chunks(path: Path, buf: bytes, end: str):
    """(id, offset, size) of each chunk of a RIFF/RIFX body, in file order."""
    pos = 12
    while pos + 8 <= len(buf):
        cid = buf[pos:pos + 4]
        (size,) = struct.unpack_from(end + "I", buf, pos + 4)
        if pos + 8 + size > len(buf):
            raise ValueError(f"{path.name}: truncated WAV: chunk {cid!r} declares {size} "
                             f"bytes, the file holds {len(buf) - pos - 8}")
        yield cid, pos + 8, size
        pos += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte


def _load_wav(path: Path) -> Signal:
    """Mono 16/24/32-bit PCM or 32/64-bit float from a RIFF (little-endian) or
    RIFX (big-endian) WAVE file, plain or WAVE_FORMAT_EXTENSIBLE; chunks other
    than ``fmt `` and ``data`` are skipped."""
    buf = path.read_bytes()
    if len(buf) < 12 or buf[:4] not in (b"RIFF", b"RIFX") or buf[8:12] != b"WAVE":
        raise ValueError(f"{path.name}: not a RIFF or RIFX WAVE file")
    end = "<" if buf[:4] == b"RIFF" else ">"
    fmt = None
    for cid, at, size in _wav_chunks(path, buf, end):
        if cid == b"fmt ":
            if size < 16:
                raise ValueError(f"{path.name}: WAV fmt chunk of {size} bytes, need 16")
            tag, channels, rate, _, align, bits = struct.unpack_from(end + "HHIIHH", buf, at)
            if tag == _EXTENSIBLE and size >= 40:
                sub, d2, d3 = struct.unpack_from(end + "IHH", buf, at + 24)
                if (d2, d3) == (0, 0x10) and buf[at + 32:at + 40] == _GUID_TAIL:
                    tag = sub
            fmt = tag, channels, rate, align, bits
        elif cid == b"data":
            if fmt is None:
                raise ValueError(f"{path.name}: WAV data chunk comes before its fmt chunk")
            break
    else:
        raise ValueError(f"{path.name}: WAV file has no data chunk")
    tag, channels, rate, align, bits = fmt
    if tag not in (_PCM, _FLOAT):
        raise ValueError(f"{path.name}: unsupported WAV format tag {tag:#06x}; "
                         "expected PCM or IEEE float")
    n = size // align if align else 0
    if channels > 1:
        raise ValueError(
            f"{path.name}: multi-channel WAV not supported (shape {(n, channels)}); supply mono"
        )
    if n == 0:
        raise ValueError(f"{path.name}: empty signal")
    if tag == _PCM and align == 3:
        # 24-bit PCM widened MSB-justified to int32, so one scale covers 24/32-bit
        wide = np.zeros((n, 4), dtype=np.uint8)
        (wide[:, 1:] if end == "<" else wide[:, :3])[:] = (
            np.frombuffer(buf, np.uint8, 3 * n, at).reshape(n, 3))
        x = wide.view(end + "i4")[:, 0] / 2.0**31
    elif tag == _PCM and align in (2, 4):
        x = np.frombuffer(buf, f"{end}i{align}", n, at) / 2.0 ** (8 * align - 1)
    elif tag == _FLOAT and bits == 8 * align in (32, 64):
        x = np.frombuffer(buf, f"{end}f{align}", n, at).astype(np.float64)
    else:
        kind = ({1: "uint8", 8: "int64"}.get(align, f"{8 * align}-bit PCM") if tag == _PCM
                else f"{bits}-bit float")
        raise ValueError(f"{path.name}: unsupported WAV sample format {kind}; "
                         "expected 16/24/32-bit PCM or 32/64-bit float")
    return Signal(x, float(rate))


def _load_csv(path: Path, sample_rate_hz: float | None) -> Signal:
    """Samples from the first column of each line that is neither blank nor
    a '#' comment; a ``# sample_rate_hz=<rate>`` line, as ``save_signal``
    writes it, gives the file's rate."""
    rows, header_rate = [], None
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            try:
                if line.startswith("# sample_rate_hz="):
                    header_rate = float(line.partition("=")[2])
                elif line and not line.startswith("#"):
                    rows.append(float(line.split(",")[0]))
            except ValueError as exc:
                raise ValueError(f"{path.name}:{ln}: not a number: {line!r}") from exc
    if header_rate is None and sample_rate_hz is None:
        raise ValueError(f"{path.name}: sample_rate_hz is required for CSV input")
    if not rows:
        raise ValueError(f"{path.name}: empty signal")
    return Signal(np.asarray(rows), sample_rate_hz if header_rate is None else header_rate)


def load_signal(path: str | Path, fmt: str | None = None,
                sample_rate_hz: float | None = None) -> Signal:
    """Load a mono signal from WAV or CSV (one sample per line, '#' comments).

    fmt defaults to the file suffix. WAV carries its own rate, and so does a
    CSV file with a ``# sample_rate_hz=`` line; a given sample_rate_hz must
    equal it. A CSV file without that line requires sample_rate_hz.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt not in ("wav", "csv"):
        raise ValueError(f"unsupported input format '{fmt}' (expected wav or csv)")
    signal = _load_wav(path) if fmt == "wav" else _load_csv(path, sample_rate_hz)
    if sample_rate_hz is not None and sample_rate_hz != signal.sample_rate_hz:
        raise ValueError(f"{path.name}: sample_rate_hz {sample_rate_hz} differs from "
                         f"the {fmt.upper()} header's {signal.sample_rate_hz} Hz")
    return signal


def save_signal(signal: Signal, path: str | Path, fmt: str | None = None) -> None:
    """Write a signal to WAV (32-bit float, integer rate) or CSV (one '%.17g' sample per line).

    A sample beyond the float32 range is refused before anything is written:
    stored as inf, the file would not load again."""
    path = Path(path)
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt == "wav":
        if not float(signal.sample_rate_hz).is_integer():
            raise ValueError(f"{path.name}: WAV needs an integer sample rate, got "
                             f"{signal.sample_rate_hz} Hz; write CSV instead")
        with np.errstate(over="ignore"):
            data = signal.samples.astype("<f4")
        bad = np.flatnonzero(~np.isfinite(data))
        if bad.size:
            raise ValueError(f"{path.name}: sample {float(signal.samples[bad[0]])!r} at index "
                             f"{bad[0]} is beyond the float32 range of WAV; write CSV instead")
        rate, n = int(signal.sample_rate_hz), len(data)
        # RIFF, an 18-byte fmt chunk (IEEE float, mono, cbSize 0), a fact chunk
        # holding the sample count, then the samples, as scipy.io.wavfile writes it
        header = (b"RIFF" + struct.pack("<I", 50 + data.nbytes) + b"WAVE"
                  + b"fmt " + struct.pack("<IHHIIHHH", 18, _FLOAT, 1, rate, 4 * rate, 4, 32, 0)
                  + b"fact" + struct.pack("<II", 4, n)
                  + b"data" + struct.pack("<I", data.nbytes))
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(data)
    elif fmt == "csv":
        np.savetxt(path, signal.samples, fmt="%.17g",
                   header=f"sample_rate_hz={signal.sample_rate_hz!r}")
    else:
        raise ValueError(f"unsupported output format '{fmt}' (expected wav or csv)")
