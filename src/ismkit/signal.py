"""Waveform containers, 5 ms segmentation and the one Butterworth design.

butter_sos designs both the LOWFREQ_CUTOFF_HZ low-pass and a scenario's
band-pass; scipy.signal is imported by the first design, not with the module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError

DEFAULT_SAMPLE_RATE_HZ = 5000.0
SEGMENT_MS = 5.0
# Content below this is too slow to resolve in a 5 ms window; it bypasses
# the intensity map and is carried alongside as the low-frequency channel.
LOWFREQ_CUTOFF_HZ = 100.0


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


def segment_length(segment_ms: float, sample_rate_hz: float) -> int:
    """Samples in one segment window: round(segment_ms/1000 * rate), at least 2."""
    samples = segment_ms / 1000.0 * sample_rate_hz
    # round() takes 1.5 to 2; an infinite count has no integer
    if not 1.5 <= samples < math.inf:
        raise DataError(
            f"segment of {segment_ms} ms at {sample_rate_hz} Hz is {samples:g} samples; "
            "need 2 to a finite count")
    return int(round(samples))


@functools.lru_cache(maxsize=16)  # one design per (cutoff, type, rate) in use
def _butter_design(cutoff_hz, btype: str, sample_rate_hz: float) -> np.ndarray:
    if not np.max(cutoff_hz) < sample_rate_hz / 2.0:
        raise DataError(f"{btype}-pass cutoff {cutoff_hz} Hz must lie below Nyquist "
                        f"({sample_rate_hz / 2.0} Hz)")
    from scipy.signal import butter

    sos = butter(4, cutoff_hz, btype=btype, fs=sample_rate_hz, output="sos")
    sos.flags.writeable = False
    return sos


def butter_sos(cutoff_hz, btype: str, sample_rate_hz: float) -> np.ndarray:
    """The causal 4th-order Butterworth "low" or (low, high) "band"-pass as a
    biquad cascade. Designed once per (cutoff, type, rate); each call gets
    its own writable copy, as sosfilt refuses a read-only array."""
    return _butter_design(cutoff_hz, btype, sample_rate_hz).copy()


def butter_filter(samples: np.ndarray, cutoff_hz, btype: str, sample_rate_hz: float) -> np.ndarray:
    """samples run through butter_sos(cutoff_hz, btype, sample_rate_hz)."""
    from scipy.signal import sosfilt

    return sosfilt(butter_sos(cutoff_hz, btype, sample_rate_hz), samples)


def lowfreq_extract(waveform: Waveform) -> Waveform:
    """Extract the sub-LOWFREQ_CUTOFF_HZ component of a waveform.

    Causal filtering only (the live loop cannot look ahead), so the output
    carries the filter's group delay. Same length and rate as the input.
    """
    rate = waveform.sample_rate_hz
    return Waveform(butter_filter(waveform.samples, LOWFREQ_CUTOFF_HZ, "low", rate), rate)
