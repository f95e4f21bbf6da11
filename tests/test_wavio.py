import struct

import numpy as np
import pytest

from ismkit.errors import DataError, FileFormatError
from ismkit.signal import MultiChannelWaveform, Waveform
from ismkit.wavio import load_wav, save_wav


def test_float32_roundtrip_mono(tmp_path):
    rng = np.random.default_rng(0)
    original = rng.standard_normal(5000).astype(np.float32).astype(np.float64)
    path = tmp_path / "mono.wav"
    clipped = save_wav(Waveform(original, 5000.0), path)
    assert clipped == 0
    loaded = load_wav(path)
    assert isinstance(loaded, Waveform)
    assert loaded.sample_rate_hz == 5000.0
    assert np.array_equal(loaded.samples, original)


def test_float32_roundtrip_four_channels(tmp_path):
    rng = np.random.default_rng(1)
    chans = tuple(Waveform(rng.standard_normal(100).astype(np.float32).astype(np.float64),
                           48000.0) for _ in range(4))
    path = tmp_path / "quad.wav"
    save_wav(MultiChannelWaveform(chans), path)
    loaded = load_wav(path)
    assert isinstance(loaded, MultiChannelWaveform)
    assert len(loaded.channels) == 4
    for orig, back in zip(chans, loaded.channels):
        assert np.array_equal(back.samples, orig.samples)


def test_pcm16_header_arithmetic(tmp_path):
    path = tmp_path / "tone.wav"
    save_wav(Waveform(np.zeros(5000), 5000.0), path, encoding="pcm16")
    loaded = load_wav(path)
    assert len(loaded) == 5000
    assert loaded.sample_rate_hz == 5000.0


def test_pcm16_normalization(tmp_path):
    path = tmp_path / "half.wav"
    save_wav(Waveform(np.full(10, 0.5), 5000.0), path, encoding="pcm16")
    loaded = load_wav(path)
    assert loaded.samples == pytest.approx(np.full(10, 0.5), abs=1 / 32768)


def test_pcm16_clipping_counted(tmp_path):
    path = tmp_path / "clip.wav"
    clipped = save_wav(Waveform(np.array([0.0, 1.5, -0.5]), 5000.0), path,
                       encoding="pcm16")
    assert clipped == 1
    loaded = load_wav(path)
    assert loaded.samples[1] == pytest.approx(1.0, abs=1 / 16384)


def test_pcm16_four_channel_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    chans = tuple(Waveform(rng.uniform(-0.9, 0.9, 64), 5000.0) for _ in range(4))
    path = tmp_path / "quad16.wav"
    assert save_wav(MultiChannelWaveform(chans), path, encoding="pcm16") == 0
    loaded = load_wav(path)
    assert isinstance(loaded, MultiChannelWaveform)
    for orig, back in zip(chans, loaded.channels):
        assert back.samples == pytest.approx(orig.samples, abs=1 / 32768)


def test_empty_waveform_roundtrip(tmp_path):
    path = tmp_path / "empty.wav"
    save_wav(Waveform(np.zeros(0), 5000.0), path)
    loaded = load_wav(path)
    assert len(loaded) == 0


def test_two_channels_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    payload = np.zeros(8, dtype="<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 2, 5000, 5000 * 4, 4, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(DataError):
        load_wav(path)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"NOTAWAVEFILE")
    with pytest.raises(FileFormatError):
        load_wav(path)


def test_unsupported_encoding_rejected(tmp_path):
    path = tmp_path / "alaw.wav"
    fmt = struct.pack("<HHIIHH", 6, 1, 5000, 5000, 1, 8)  # A-law
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", 0)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(FileFormatError):
        load_wav(path)


def test_missing_data_chunk_rejected(tmp_path):
    path = tmp_path / "nodata.wav"
    fmt = struct.pack("<HHIIHH", 1, 1, 5000, 10000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(FileFormatError):
        load_wav(path)


def _raw_wav(path, n_channels, payload, format_tag=1, bits=16):
    """A WAV file whose data chunk holds `payload` as it is, padded to a word."""
    block_align = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_tag, n_channels, 5000, 5000 * block_align,
                      block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload + b"\x00" * (len(payload) % 2)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


# (channels, data chunk bytes, format tag, bits): not a whole number of frames
PARTIAL_FRAMES = {
    "pcm16_odd_bytes": (1, 11, 1, 16),
    "four_channels_partial_frame": (4, 2 * 10, 1, 16),
    "float32_partial_sample": (1, 10, 3, 32),
}


@pytest.mark.parametrize("case", PARTIAL_FRAMES)
def test_partial_frame_rejected(tmp_path, case):
    n_channels, n_bytes, format_tag, bits = PARTIAL_FRAMES[case]
    path = tmp_path / f"{case}.wav"
    _raw_wav(path, n_channels, bytes(range(n_bytes)), format_tag, bits)
    with pytest.raises(FileFormatError, match=str(path)):
        load_wav(path)
