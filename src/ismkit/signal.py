"""Waveform containers, 5 ms segmentation and the low-frequency extraction filter."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import signal as sp_signal

from .errors import DataError

DEFAULT_SAMPLE_RATE_HZ = 5000.0
SEGMENT_MS = 5.0


@dataclass(frozen=True)
class Waveform:
    """A uniformly sampled real-valued vibration signal.

    Samples are stored as float64 regardless of source encoding. Amplitudes
    are in whatever unit system the caller's detection-threshold table uses;
    the pipeline never rescales them.
    """

    samples: np.ndarray
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise DataError(f"waveform samples must be 1-D, got shape {samples.shape}")
        if self.sample_rate_hz <= 0:
            raise DataError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise DataError("waveform contains NaN or Inf samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz


@dataclass(frozen=True)
class MultiChannelWaveform:
    """Four synchronized channels from the ring of wrist-worn sensor units."""

    channels: tuple[Waveform, ...]

    def __post_init__(self):
        channels = tuple(self.channels)
        if len(channels) != 4:
            raise DataError(f"expected exactly 4 channels, got {len(channels)}")
        rates = {ch.sample_rate_hz for ch in channels}
        if len(rates) != 1:
            raise DataError(f"channels disagree on sample rate: {sorted(rates)}")
        lengths = {len(ch) for ch in channels}
        if len(lengths) != 1:
            raise DataError(f"channels disagree on length: {sorted(lengths)}")
        object.__setattr__(self, "channels", channels)

    def __len__(self) -> int:
        return len(self.channels[0])

    @property
    def sample_rate_hz(self) -> float:
        return self.channels[0].sample_rate_hz


@dataclass(frozen=True)
class SegmentGrid:
    """Fixed-length analysis windows over a signal; a trailing partial window is dropped."""

    segment_len_samples: int
    segment_count: int
    segment_duration_s: float = field(default=SEGMENT_MS / 1000.0)


def segment_length(segment_ms: float, sample_rate_hz: float) -> int:
    """Samples in one segment window: round(segment_ms/1000 * rate), at least 2."""
    seg_len = int(round(segment_ms / 1000.0 * sample_rate_hz))
    if seg_len < 2:
        raise DataError(
            f"segment of {segment_ms} ms at {sample_rate_hz} Hz is {seg_len} samples; "
            "need >= 2")
    return seg_len


def segment(waveform: Waveform, segment_ms: float = SEGMENT_MS) -> SegmentGrid:
    """Build the segment grid for a waveform.

    The window length is segment_length(segment_ms, rate); whatever does
    not fill a final full window is discarded rather than zero-padded, so the
    intensity profile never shows an artificial dip at the end of a stream.
    """
    n = len(waveform)
    seg_len = segment_length(segment_ms, waveform.sample_rate_hz)
    if n < seg_len:
        raise DataError(f"signal of {n} samples is shorter than one {seg_len}-sample segment")
    return SegmentGrid(segment_len_samples=seg_len,
                       segment_count=n // seg_len,
                       segment_duration_s=segment_ms / 1000.0)


def lowpass_sos(cutoff_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Design the causal 4th-order Butterworth low-pass as a biquad cascade."""
    nyquist = sample_rate_hz / 2.0
    if not 0 < cutoff_hz < nyquist:
        raise DataError(
            f"cutoff {cutoff_hz} Hz must lie in (0, Nyquist={nyquist} Hz)")
    return sp_signal.butter(4, cutoff_hz, btype="low", fs=sample_rate_hz, output="sos")


def lowfreq_extract(waveform: Waveform, cutoff_hz: float = 100.0) -> Waveform:
    """Extract the sub-cutoff component of a waveform.

    Causal filtering only (the live loop cannot look ahead), so the output
    carries the filter's group delay. Same length and rate as the input.
    """
    sos = lowpass_sos(cutoff_hz, waveform.sample_rate_hz)
    filtered = sp_signal.sosfilt(sos, waveform.samples)
    return Waveform(filtered, waveform.sample_rate_hz)
