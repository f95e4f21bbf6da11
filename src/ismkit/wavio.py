"""Minimal RIFF/WAVE reader and writer: PCM16 and IEEE float32, 1 or 4 channels.

Hand-rolled rather than delegated so the error surface is exact: malformed
headers, unsupported encodings and channel counts are reported as
FileFormatError/DataError, PCM16 clipping is counted and never silent, and
float32 round-trips bit-exactly.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import DataError, FileFormatError
from .signal import MultiChannelWaveform, Waveform

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

PCM16_FULL_SCALE = 32768.0


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FileFormatError(f"truncated WAV file while reading {what}")
    return data


def load_wav(path) -> Waveform | MultiChannelWaveform:
    """Load a PCM16 or float32 WAV file with 1 or 4 channels.

    PCM16 samples are normalized to [-1, 1) by dividing by 32768; float32
    samples are taken verbatim. Mono files yield a Waveform, 4-channel files
    a MultiChannelWaveform.
    """
    with open(path, "rb") as fh:
        riff = _read_exact(fh, 12, "RIFF header")
        if riff[0:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise FileFormatError(f"{path}: not a RIFF/WAVE file")

        file_size = os.fstat(fh.fileno()).st_size
        chunks = {}
        while chunk_hdr := fh.read(8):
            if len(chunk_hdr) != 8:
                raise FileFormatError(f"{path}: truncated chunk header")
            tag, size = struct.unpack("<4sI", chunk_hdr)
            # checked before reading, so a bad size reserves nothing
            if size > file_size - fh.tell():
                raise FileFormatError(f"{path}: chunk {tag!r} of {size} bytes overruns the file")
            if tag in (b"fmt ", b"data"):
                chunks[tag] = _read_exact(fh, size, f"chunk {tag!r}")
            else:
                fh.seek(size, os.SEEK_CUR)
            fh.seek(size % 2, os.SEEK_CUR)  # chunks are word-aligned
        fmt, data = chunks.get(b"fmt "), chunks.get(b"data")
        if fmt is None or data is None:
            raise FileFormatError(f"{path}: missing fmt or data chunk")

    if len(fmt) < 16:
        raise FileFormatError(f"{path}: fmt chunk too short ({len(fmt)} bytes)")
    format_tag, n_channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if format_tag == WAVE_FORMAT_EXTENSIBLE and len(fmt) >= 40:
        format_tag = struct.unpack("<H", fmt[24:26])[0]

    if n_channels not in (1, 4):
        raise DataError(f"{path}: {n_channels} channels; only 1 or 4 supported")

    if not ((format_tag == WAVE_FORMAT_PCM and bits == 16)
            or (format_tag == WAVE_FORMAT_IEEE_FLOAT and bits == 32)):
        raise FileFormatError(
            f"{path}: unsupported encoding (format_tag={format_tag:#06x}, {bits}-bit)")
    frame_bytes = n_channels * bits // 8
    if len(data) % frame_bytes:
        raise FileFormatError(
            f"{path}: data chunk of {len(data)} bytes is not whole "
            f"{n_channels}-channel {bits}-bit frames")
    if bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / PCM16_FULL_SCALE
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)

    if n_channels == 1:
        return Waveform(samples, float(sample_rate))
    deinterleaved = samples.reshape(-1, 4)
    return MultiChannelWaveform(tuple(
        Waveform(np.ascontiguousarray(deinterleaved[:, c]), float(sample_rate))
        for c in range(4)))


def save_wav(waveform: Waveform | MultiChannelWaveform, path,
             encoding: str = "float32") -> int:
    """Write a WAV file; returns the number of samples clipped (PCM16 only).

    float32 writes are lossless for any finite amplitude and round-trip
    bit-exactly through load_wav. PCM16 clips to [-1, 1] and quantizes.
    """
    if isinstance(waveform, MultiChannelWaveform):
        rate = waveform.sample_rate_hz
        frames = np.stack([ch.samples for ch in waveform.channels], axis=1)
        n_channels = 4
    else:
        rate = waveform.sample_rate_hz
        frames = waveform.samples.reshape(-1, 1)
        n_channels = 1

    if encoding == "float32":
        payload = frames.astype("<f4").tobytes()
        format_tag, bits = WAVE_FORMAT_IEEE_FLOAT, 32
        clipped = 0
    elif encoding == "pcm16":
        clipped = int(np.count_nonzero((frames < -1.0) | (frames > 1.0)))
        scaled = np.clip(frames, -1.0, 1.0) * PCM16_FULL_SCALE
        ints = np.clip(np.rint(scaled), -32768, 32767).astype("<i2")
        payload = ints.tobytes()
        format_tag, bits = WAVE_FORMAT_PCM, 16
    else:
        raise DataError(f"unsupported encoding {encoding!r}; use 'float32' or 'pcm16'")

    block_align = n_channels * bits // 8
    fmt = struct.pack("<HHIIHH", format_tag, n_channels, int(round(rate)),
                      int(round(rate)) * block_align, block_align, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
        + b"data" + struct.pack("<I", len(payload)) + payload
    if len(payload) % 2:
        body += b"\x00"
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", len(body)) + body)
    return clipped
