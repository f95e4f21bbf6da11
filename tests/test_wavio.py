import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ismkit
from ismkit.errors import DataError, FileFormatError
from ismkit.signal import MultiChannelWaveform, Waveform
from ismkit.wavio import load_wav, save_wav

# the directory this ismkit is imported from, for subprocesses
PACKAGE_ROOT = str(Path(ismkit.__file__).resolve().parents[1])


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


def _wav_with_chunk(path, tag, declared, payload=b""):
    """A mono float32 WAV whose last chunk, `tag`, declares `declared` bytes and holds `payload`."""
    fmt = struct.pack("<HHIIHH", 3, 1, 5000, 20000, 4, 32)
    samples = b"data" + struct.pack("<I", 8) + np.zeros(2, dtype="<f4").tobytes()
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + (samples if tag != b"data" else b"") \
        + tag + struct.pack("<I", declared) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)


def test_oversized_chunk_exits_2_without_reserving_its_length(tmp_path):
    # 60 bytes whose data chunk declares 0xFFFFFFF0: read under a 3 GiB
    # address space, where reserving the declared length fails
    path = tmp_path / "huge.wav"
    _wav_with_chunk(path, b"data", 0xFFFFFFF0, np.zeros(4, dtype="<f4").tobytes())
    assert path.stat().st_size == 60
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
              "from ismkit.cli import main\n"
              "sys.exit(main(['analyze', sys.argv[1], '--out', sys.argv[2]]))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path / "p.csv")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error[data]: {path}: chunk ")
    assert "overruns the file" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("tag", [b"data", b"LIST"])
def test_chunk_longer_than_the_rest_of_the_file_rejected(tmp_path, tag):
    path = tmp_path / "short.wav"
    _wav_with_chunk(path, tag, 9, bytes(8))
    with pytest.raises(FileFormatError, match="overruns the file"):
        load_wav(path)


def test_unknown_chunks_skipped(tmp_path):
    # an odd-length chunk before fmt and one after data, each word-aligned
    path = tmp_path / "extra.wav"
    fmt = struct.pack("<HHIIHH", 3, 1, 5000, 20000, 4, 32)
    samples = np.arange(3, dtype="<f4")
    body = b"WAVE" + b"LIST" + struct.pack("<I", 3) + b"abc\x00" \
        + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", samples.nbytes) + samples.tobytes() \
        + b"junk" + struct.pack("<I", 5) + b"12345\x00"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    assert load_wav(path).samples.tolist() == [0.0, 1.0, 2.0]
