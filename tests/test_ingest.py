import struct
import wave

import numpy as np
import pytest

from tacholess import (FramingConfig, Signal, frame_signal, frame_times, load_signal,
                       n_frames, save_signal)
from props import check_framing


def test_signal_validation():
    with pytest.raises(ValueError, match="empty"):
        Signal(samples=np.array([]), sample_rate_hz=1000.0)
    with pytest.raises(ValueError, match="1-D"):
        Signal(samples=np.zeros((4, 2)), sample_rate_hz=1000.0)
    with pytest.raises(ValueError, match="sample_rate"):
        Signal(samples=np.zeros(4), sample_rate_hz=0.0)
    sig = Signal(samples=np.arange(4), sample_rate_hz=100.0)
    assert sig.samples.dtype == np.float64
    assert sig.duration_s == pytest.approx(0.04)
    with pytest.raises(ValueError):
        sig.samples[0] = 9.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_signal_rejects_non_finite_samples(bad):
    x = np.zeros(10)
    x[6] = bad
    x[8] = np.nan
    with pytest.raises(ValueError, match="non-finite sample .* at index 6"):
        Signal(samples=x, sample_rate_hz=100.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fmt", ["csv", "wav"])
def test_file_with_non_finite_sample_is_rejected(tmp_path, fmt, bad):
    path = tmp_path / f"bad.{fmt}"
    samples = np.array([0.5, 0.25, bad, 1.0])
    if fmt == "csv":
        path.write_text("# comment\n" + "".join(f"{v}\n" for v in samples))
    else:
        from scipy.io import wavfile
        wavfile.write(str(path), 100, samples.astype(np.float32))
    with pytest.raises(ValueError, match="at index 2"):
        load_signal(path, sample_rate_hz=100.0)


def test_default_framing_yields_437_frames_on_5s_run():
    framing = FramingConfig()
    assert framing.frame_len == 8192 and framing.hop == 128
    assert n_frames(64000, framing) == 437
    # last frame ends exactly at the final sample
    assert 436 * 128 + 8192 == 64000


def test_frame_indexing_and_times():
    sig = Signal(samples=np.arange(20, dtype=float), sample_rate_hz=10.0)
    framing = FramingConfig(frame_len=8, hop=4)
    frames = frame_signal(sig, framing)
    assert frames.shape == (4, 8)
    for k in range(4):
        assert np.array_equal(frames[k], sig.samples[4 * k : 4 * k + 8])
    # centre times: (k * hop + frame_len / 2) / fs
    assert np.array_equal(frame_times(sig, framing), [0.4, 0.8, 1.2, 1.6])


def test_frames_are_views_and_read_only():
    sig = Signal(samples=np.arange(16, dtype=float), sample_rate_hz=8.0)
    frames = frame_signal(sig, FramingConfig(frame_len=8, hop=8))
    assert np.shares_memory(frames, sig.samples)
    assert not frames.flags.writeable
    with pytest.raises(ValueError):
        frames[0, 0] = -1.0


def test_short_signal_raises():
    sig = Signal(samples=np.zeros(7), sample_rate_hz=8.0)
    with pytest.raises(ValueError, match="shorter than one frame"):
        frame_signal(sig, FramingConfig(frame_len=8, hop=4))


def test_framing_config_validation():
    with pytest.raises(ValueError):
        FramingConfig(frame_len=2, hop=1)
    with pytest.raises(ValueError):
        FramingConfig(frame_len=8, hop=0)
    with pytest.raises(ValueError):
        FramingConfig(frame_len=8, hop=9)


def test_framing_layout_property():
    check_framing(60)


def test_wav_float_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    sig = Signal(samples=rng.uniform(-0.9, 0.9, 320), sample_rate_hz=1600.0)
    path = tmp_path / "sig.wav"
    save_signal(sig, path)
    back = load_signal(path)
    assert back.sample_rate_hz == 1600.0
    # storage is 32-bit float
    assert np.allclose(back.samples, sig.samples, atol=1e-7)


def test_wav_int16_scaling(tmp_path):
    from scipy.io import wavfile
    data = np.array([0, 16384, -16384, 32767, -32768], dtype=np.int16)
    path = tmp_path / "i16.wav"
    wavfile.write(str(path), 8000, data)
    sig = load_signal(path)
    assert np.allclose(sig.samples, data / 2.0**15)
    assert np.abs(sig.samples).max() <= 1.0


def test_wav_int32_scaling(tmp_path):
    from scipy.io import wavfile
    data = np.array([0, 2**30, -(2**30)], dtype=np.int32)
    path = tmp_path / "i32.wav"
    wavfile.write(str(path), 8000, data)
    sig = load_signal(path)
    assert np.allclose(sig.samples, [0.0, 0.5, -0.5])


def test_wav_24bit_pcm(tmp_path):
    # hand-built 24-bit PCM file: values are MSB-justified when widened to 32-bit
    path = tmp_path / "p24.wav"
    vals24 = [0, 2**21, -(2**21)]  # quarter of the 24-bit full scale 2**23
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(3)
        wf.setframerate(8000)
        payload = b"".join(struct.pack("<i", v << 8)[1:] for v in vals24)
        wf.writeframes(payload)
    sig = load_signal(path)
    assert np.allclose(sig.samples, [0.0, 0.25, -0.25])


def test_wav_rejects_unsupported_and_stereo(tmp_path):
    from scipy.io import wavfile
    path = tmp_path / "u8.wav"
    wavfile.write(str(path), 8000, np.zeros(16, dtype=np.uint8))
    with pytest.raises(ValueError, match="unsupported WAV sample format"):
        load_signal(path)
    path2 = tmp_path / "st.wav"
    wavfile.write(str(path2), 8000, np.zeros((16, 2), dtype=np.int16))
    with pytest.raises(ValueError, match="multi-channel"):
        load_signal(path2)


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    sig = Signal(samples=rng.normal(0.0, 1.0, 64), sample_rate_hz=1234.5)
    path = tmp_path / "sig.csv"
    save_signal(sig, path)
    back = load_signal(path, sample_rate_hz=1234.5)
    assert np.array_equal(back.samples, sig.samples)  # %.17g preserves float64


def test_csv_requires_rate_and_numbers(tmp_path):
    path = tmp_path / "sig.csv"
    path.write_text("# comment\n1.0\n2.0\n")
    with pytest.raises(ValueError, match="sample_rate_hz is required"):
        load_signal(path)
    sig = load_signal(path, sample_rate_hz=100.0)
    assert np.array_equal(sig.samples, [1.0, 2.0])
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0\nnope\n")
    with pytest.raises(ValueError, match="not a number"):
        load_signal(bad, sample_rate_hz=100.0)
    empty = tmp_path / "empty.csv"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="empty"):
        load_signal(empty, sample_rate_hz=100.0)


def test_load_signal_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_signal(tmp_path / "missing.wav")
    weird = tmp_path / "sig.dat"
    weird.write_text("1.0\n")
    with pytest.raises(ValueError, match="unsupported input format"):
        load_signal(weird)
    # explicit fmt overrides the suffix
    sig = load_signal(weird, fmt="csv", sample_rate_hz=10.0)
    assert len(sig) == 1
