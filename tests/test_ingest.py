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


def test_wav_rejects_a_non_integer_sample_rate(tmp_path):
    # WAV stores whole hertz: 12800.5 would reload as 12800.0 and scale every RPM
    sig = Signal(samples=np.zeros(64), sample_rate_hz=12800.5)
    path = tmp_path / "sig.wav"
    with pytest.raises(ValueError, match="integer sample rate, got 12800.5 Hz"):
        save_signal(sig, path)
    assert not path.exists()


def test_wav_refuses_a_given_rate_that_differs_from_its_header(tmp_path):
    # the header's rate used to win silently, while config.json recorded the given one
    path = tmp_path / "sig.wav"
    save_signal(Signal(samples=np.zeros(64), sample_rate_hz=12800.0), path)
    with pytest.raises(ValueError, match="sample_rate_hz 8000.0 differs from the WAV "
                                         "header's 12800.0 Hz"):
        load_signal(path, None, 8000.0)
    assert load_signal(path, None, 12800.0).sample_rate_hz == 12800.0


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


def riff(chunks, big_endian=False) -> bytes:
    """A WAVE file of (id, payload) chunks, each odd-sized one followed by a pad byte."""
    end = ">" if big_endian else "<"
    body = b"WAVE" + b"".join(cid + struct.pack(end + "I", len(data)) + data
                              + b"\0" * (len(data) % 2) for cid, data in chunks)
    return (b"RIFX" if big_endian else b"RIFF") + struct.pack(end + "I", len(body)) + body


def fmt_chunk(tag, width, rate=8000, big_endian=False, sub_tag=None) -> bytes:
    """A mono fmt chunk; with ``sub_tag`` a 40-byte WAVE_FORMAT_EXTENSIBLE one."""
    end = ">" if big_endian else "<"
    head = struct.pack(end + "HHIIHH", tag, 1, rate, rate * width, width, 8 * width)
    if sub_tag is None:
        return head
    guid = struct.pack(end + "IHH", sub_tag, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return head + struct.pack(end + "HHI", 22, 8 * width, 4) + guid


@pytest.mark.parametrize("n", [1, 4, 321])
def test_wav_write_is_byte_identical_to_scipy(tmp_path, n):
    from scipy.io import wavfile
    sig = Signal(samples=np.random.default_rng(n).normal(0.0, 0.3, n), sample_rate_hz=12800.0)
    save_signal(sig, tmp_path / "ours.wav")
    wavfile.write(str(tmp_path / "scipy.wav"), 12800, sig.samples.astype(np.float32))
    ours = (tmp_path / "ours.wav").read_bytes()
    assert ours == (tmp_path / "scipy.wav").read_bytes()
    assert len(ours) == 58 + 4 * n


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32, np.float64])
def test_wav_read_equals_scipys(tmp_path, dtype):
    from scipy.io import wavfile
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, 200)
    if np.dtype(dtype).kind == "i":
        x = x * np.iinfo(dtype).max
    path = tmp_path / "x.wav"
    wavfile.write(str(path), 44100, x.astype(dtype))
    rate, data = wavfile.read(str(path))
    scale = {np.int16: 2.0**15, np.int32: 2.0**31}.get(dtype, 1.0)
    sig = load_signal(path)
    assert sig.sample_rate_hz == rate == 44100
    assert np.array_equal(sig.samples, data / scale)


@pytest.mark.parametrize("big_endian", [False, True])
def test_wav_extensible_rifx_and_skipped_chunks(tmp_path, big_endian):
    # EXTENSIBLE headers name PCM or float in their sub-format GUID; LIST and
    # fact chunks of odd size, each with its pad byte, come before the data
    from scipy.io import wavfile
    end = ">" if big_endian else "<"
    vals = np.array([0.0, 0.5, -0.25, 0.75, -1.0])
    pcm = (vals * 2**15).clip(-2**15, 2**15 - 1).astype(end + "i2")
    cases = {
        "pcm16": (fmt_chunk(0xFFFE, 2, 11025, big_endian, sub_tag=1), pcm.tobytes(),
                  pcm / 2.0**15),
        "float32": (fmt_chunk(0xFFFE, 4, 11025, big_endian, sub_tag=3),
                    vals.astype(end + "f4").tobytes(), vals),
        "float64": (fmt_chunk(3, 8, 11025, big_endian), vals.astype(end + "f8").tobytes(), vals),
        "pcm24": (fmt_chunk(1, 3, 11025, big_endian),
                  b"".join(struct.pack(end + "i", int(v * 2**23) << 8)[slice(0, 3) if big_endian
                                                                     else slice(1, 4)]
                           for v in vals.clip(-1.0, 1.0 - 2**-23)),
                  (vals * 2**23).clip(-2**23, 2**23 - 1).astype(int) / 2.0**23),
    }
    for name, (fmt, data, want) in cases.items():
        path = tmp_path / f"{name}.wav"
        path.write_bytes(riff([(b"LIST", b"INFOxyz"), (b"fmt ", fmt), (b"fact", b"\0" * 5),
                               (b"data", data)], big_endian))
        sig = load_signal(path)
        assert sig.sample_rate_hz == 11025.0, name
        assert np.array_equal(sig.samples, want), name
        rate, ref = wavfile.read(str(path))
        scale = {"i2": 2.0**15, "i4": 2.0**31}.get(ref.dtype.str[1:], 1.0)
        assert np.array_equal(sig.samples, ref / scale), name


def test_wav_loads_64_bit_float_and_names_it_when_refusing_16_bit_float(tmp_path):
    vals = np.array([0.1, -0.7, 1e-300, 3.5])  # not one of them fits a float32
    path = tmp_path / "f64.wav"
    path.write_bytes(riff([(b"fmt ", fmt_chunk(3, 8, 48000)), (b"data", vals.tobytes())]))
    sig = load_signal(path)
    assert sig.sample_rate_hz == 48000.0 and np.array_equal(sig.samples, vals)
    path.write_bytes(riff([(b"fmt ", fmt_chunk(3, 2)), (b"data", b"\0" * 8)]))
    with pytest.raises(ValueError) as refused:
        load_signal(path)
    assert str(refused.value) == ("f64.wav: unsupported WAV sample format 16-bit float; "
                                  "expected 16/24/32-bit PCM or 32/64-bit float")


def test_wav_refuses_a_truncated_data_chunk_and_other_bad_files(tmp_path):
    path = tmp_path / "cut.wav"
    whole = riff([(b"fmt ", fmt_chunk(3, 4)), (b"data", np.zeros(8, "<f4").tobytes())])
    path.write_bytes(whole[:-6])
    with pytest.raises(ValueError, match="truncated WAV: chunk b'data' declares 32 bytes, "
                                         "the file holds 26"):
        load_signal(path)
    for body, message in [(b"RIFF\0\0\0\0AVI ", "not a RIFF or RIFX WAVE file"),
                          (riff([(b"fmt ", fmt_chunk(3, 4))]), "no data chunk"),
                          (riff([(b"data", b"\0" * 8), (b"fmt ", fmt_chunk(3, 4))]),
                           "data chunk comes before its fmt chunk"),
                          (riff([(b"fmt ", fmt_chunk(2, 2)), (b"data", b"\0" * 8)]),
                           "unsupported WAV format tag 0x0002"),
                          (riff([(b"fmt ", fmt_chunk(3, 2)), (b"data", b"\0" * 8)]),
                           "unsupported WAV sample format 16-bit float"),
                          (riff([(b"fmt ", fmt_chunk(1, 4)), (b"data", b"")]), "empty signal")]:
        path.write_bytes(body)
        with pytest.raises(ValueError, match=message):
            load_signal(path)


def test_wav_write_refuses_a_sample_beyond_float32(tmp_path):
    # stored as inf, it used to make a file that load_signal refuses
    path = tmp_path / "big.wav"
    sig = Signal(samples=np.array([0.5, 1e39, 0.25, -1e40]), sample_rate_hz=100.0)
    with pytest.raises(ValueError, match=r"sample 1e\+39 at index 1 is beyond the float32 range"):
        save_signal(sig, path)
    assert not path.exists()
    save_signal(Signal(samples=np.array([0.5, 3.4e38]), sample_rate_hz=100.0), path)
    assert np.array_equal(load_signal(path).samples, np.float32([0.5, 3.4e38]))


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(7)
    sig = Signal(samples=rng.normal(0.0, 1.0, 64), sample_rate_hz=1234.5)
    path = tmp_path / "sig.csv"
    save_signal(sig, path)
    back = load_signal(path, sample_rate_hz=1234.5)
    assert np.array_equal(back.samples, sig.samples)  # %.17g preserves float64
    assert path.read_text() == ("# sample_rate_hz=1234.5\n"
                                + "".join(f"{v:.17g}\n" for v in sig.samples))
    # the header line carries the rate, as a WAV header does
    alone = load_signal(path)
    assert alone.sample_rate_hz == 1234.5 and np.array_equal(alone.samples, sig.samples)
    with pytest.raises(ValueError, match="sample_rate_hz 1000.0 differs from the CSV "
                                         "header's 1234.5 Hz"):
        load_signal(path, sample_rate_hz=1000.0)
    path.write_text("# sample_rate_hz=fast\n1.0\n")
    with pytest.raises(ValueError, match="sig.csv:1: not a number"):
        load_signal(path)


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
