"""Buffered intensity analysis, four-channel fusion and 200 Hz AM resynthesis.

The framing and the carrier are constants, not settings: SEGMENT_MS (5 ms,
in signal.py) segments in BUFFER_MS (100 ms) buffers, re-expressed on a
CARRIER_HZ (200 Hz) carrier. A segment is round(5 ms x rate) whole samples
and is timed by them: at 44.1 kHz that is 220 samples, 4.989 ms.

Analysis slices the signal into buffers, decomposes each buffer into
intrinsic mode functions, measures per-segment amplitude and frequency of
every mode, and sums the perceptual intensities of the resolvable components.
Content too slow to resolve in a 5 ms window is not lost: a causal <100 Hz
low-pass of the raw signal rides along and is added back verbatim at
synthesis time.

Synthesis inverts the intensity map at the carrier frequency segment by
segment and modulates a phase-continuous sinusoid, with a short linear
crossfade at each segment start so amplitude steps never click.

A long stack of buffers is split across CPU cores. Buffers are decomposed
BLOCK_ROWS at a time; a stack of at least PARALLEL_MIN_ROWS rows is cut
into contiguous runs of whole blocks, one per CPU in the process's affinity
mask (so `taskset` limits it). A shared pool of CPUs - 1 worker processes
takes every run but the last, which is the shortest; the calling process
hands those out first, then runs StreamingAnalyzer's causal low-pass while
the workers sift, then sifts the last run itself with the same block loop.
The results are joined in row order. A row's sift does not depend on which
block holds it and the intensity sums stay inside a block, so the profile
equals the serial one bit for bit. The pool starts on the first large
stack, never at import. Its workers are forked: on 2 cores the first
4-channel 60 s analyze took 0.51-0.57 s, against 1.62-1.72 s with
`forkserver` and 1.47-1.83 s with `spawn`, whose workers import the package
afresh. Forking a process that runs other threads is unsafe, so the pool is
only created while the caller is the process's one thread. Short stacks
(every live feed), one-CPU processes and platforms without `fork` stay
serial. If the pool breaks (a worker was killed), the calling process sifts
the workers' runs itself, and the next large stack forks a new pool.
"""

from __future__ import annotations

import csv
import math
import multiprocessing
import os
import threading
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import psychophysics as psy
from .emd import emd_decompose_rows, _component_arrays
from .errors import DataError, FileFormatError, csv_rows, decoding
from .signal import LOWFREQ_CUTOFF_HZ, SEGMENT_MS, Waveform, butter_sos, segment_length

BUFFER_MS = 100.0
CARRIER_HZ = 200.0
CROSSFADE_FRACTION = 0.25
# Buffers decomposed together. On a 4-channel 60 s analyze, blocks of 32
# rows took 1.2x as long as 64 (per-call overhead again) and blocks of 256
# took 1.4x (temporaries out of cache); 96 and 128 were within noise of 64.
BLOCK_ROWS = 64
# Stacks this tall are split across CPUs. Measured on 2 cores with 64-640
# row stacks of 100 ms buffers: with the pool already running, any stack of
# 2 or more blocks sifts 1.5-2.0x faster split (128 rows: 46 -> 27 ms), but
# the call that forks the pool pays ~20 ms more, and only from about 256 rows
# does that first call still come out ahead (128 rows: 38-48 ms serial
# against 38-43 ms; 256: 64-80 against 49-68 ms).
PARALLEL_MIN_ROWS = 256

_pool: ProcessPoolExecutor | None = None
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class IntensityProfile:
    """Per-segment perceptual intensity series."""

    values: np.ndarray
    segment_duration_ms: float = SEGMENT_MS
    start_time_s: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DataError("profile values must be 1-D")
        if values.size and (not np.all(np.isfinite(values)) or np.any(values < 0)):
            raise DataError("profile values must be finite and non-negative")
        if not 0 < self.segment_duration_ms < math.inf:
            raise DataError(f"segment duration must be positive and finite, "
                            f"got {self.segment_duration_ms}")
        if not math.isfinite(self.start_time_s):
            raise DataError(f"start time must be finite, got {self.start_time_s}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    def midpoints_s(self) -> np.ndarray:
        dur = self.segment_duration_ms / 1000.0
        return self.start_time_s + (np.arange(self.values.size) + 0.5) * dur

    def midpoints_us(self) -> np.ndarray:
        """The segment midpoints rounded to whole microseconds, as float64."""
        return np.round(self.midpoints_s() * 1e6)


@dataclass(frozen=True)
class AnalysisResult:
    profile: IntensityProfile
    lowfreq: Waveform


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where it or `fork` is unavailable."""
    if (not hasattr(os, "sched_getaffinity")
            or "fork" not in multiprocessing.get_all_start_methods()):
        return 1
    return len(os.sched_getaffinity(0))


def _worker_pool(workers: int) -> ProcessPoolExecutor | None:
    """The shared pool, forked on first use; None while other threads run."""
    global _pool
    with _pool_lock:
        if _pool is None and threading.active_count() == 1:
            _pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
        return _pool


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down; the next large stack forks a new one."""
    global _pool
    with _pool_lock:
        if _pool is pool:
            _pool = None
    pool.shutdown(wait=True, cancel_futures=True)


def _block_intensities(chunks: np.ndarray, offset: int, seg_len: int, rate: float,
                       model: psy.PsychoModel) -> np.ndarray:
    """_start_intensities in one process: BLOCK_ROWS rows at a time."""
    seg_duration_s = seg_len / rate
    out = np.zeros((chunks.shape[0], (chunks.shape[1] - offset) // seg_len),
                   dtype=np.float64)
    for b in range(0, chunks.shape[0], BLOCK_ROWS):
        imfs, _ = emd_decompose_rows(chunks[b:b + BLOCK_ROWS])
        if not imfs:
            continue
        # np.add.at adds in index order, which is IMF order for each segment,
        # so the sums round the same however many buffers share a block
        rows = np.concatenate([r for r, _ in imfs])
        amp, freq, resolvable = _component_arrays(
            np.concatenate([imf for _, imf in imfs]), seg_len, seg_duration_s, offset)
        r, k = resolvable.nonzero()
        np.add.at(out[b:b + BLOCK_ROWS], (rows[r], k),
                  psy.intensity_single(amp[r, k], freq[r, k], model))
    return out


def _start_intensities(chunks: np.ndarray, offset: int, seg_len: int, rate: float,
                       model: psy.PsychoModel) -> Callable[[], np.ndarray]:
    """Total per-segment intensity of each buffer in a (buffers, samples) stack.

    Every row is `offset` context samples followed by whole segments of
    seg_len samples at `rate` Hz, each seg_len / rate seconds long. Rows
    are decomposed BLOCK_ROWS at a time, and all IMFs of a block are measured
    and mapped to intensity in one pass. A stack of PARALLEL_MIN_ROWS or more
    is split into runs of whole blocks across CPUs (see the module
    docstring). The work is started here and finished by calling the
    result, which returns (buffers, segments): the workers get their runs
    before this returns, and the call sifts the last run in this process and
    joins them, so the caller can do other work in between. Without workers
    all the work happens in the call.
    """
    args = (offset, seg_len, rate, model)
    cpus = _usable_cpus() if chunks.shape[0] >= PARALLEL_MIN_ROWS else 1
    pool = _worker_pool(cpus - 1) if cpus > 1 else None
    serial = partial(_block_intensities, chunks, *args)
    if pool is None:
        return serial
    n_blocks = -(-chunks.shape[0] // BLOCK_ROWS)
    n_parts = min(cpus, n_blocks)
    # the earlier runs take any extra block, so this process's run is the shortest
    cuts = [BLOCK_ROWS * -(-n_blocks * i // n_parts) for i in range(n_parts + 1)]
    parts = [chunks[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    try:
        futures = [pool.submit(_block_intensities, part, *args) for part in parts[:-1]]
    except BrokenProcessPool:
        _drop_pool(pool)
        return serial

    def finish() -> np.ndarray:
        last = _block_intensities(parts[-1], *args)
        try:
            runs = [f.result() for f in futures]
        except BrokenProcessPool:  # a worker died: sift its runs here
            _drop_pool(pool)
            runs = [_block_intensities(part, *args) for part in parts[:-1]]
        return np.concatenate([*runs, last])
    return finish


def analyze(waveform: Waveform, model: psy.PsychoModel | None = None) -> AnalysisResult:
    """Compute the per-segment intensity profile and low-frequency channel.

    Buffers are processed independently, each carrying one sample of
    incoming context so zero crossings that straddle a buffer boundary are
    attributed to the segment they complete in. A trailing partial buffer is
    still analyzed as long as it holds at least one full segment (and, with
    its context sample, the 8 samples EMD needs), so at 1.4 kHz and above
    the profile covers every full segment of the input. This is one
    StreamingAnalyzer fed the whole waveform, so the two agree bit for bit.
    The profile's segments last their whole samples: 1000 * seg_len / rate ms.
    """
    analyzer = StreamingAnalyzer(waveform.sample_rate_hz, model)
    if len(waveform) < analyzer.buffer_length:
        raise DataError(
            f"input of {len(waveform)} samples is shorter than one {BUFFER_MS} ms buffer")
    values, lowfreq = analyzer.feed(waveform.samples)
    values = np.concatenate([values, analyzer.finish()])
    profile = IntensityProfile(values, analyzer.segment_duration_ms, start_time_s=0.0)
    return AnalysisResult(profile=profile, lowfreq=lowfreq)


class StreamingAnalyzer:
    """Incremental analysis for a live capture loop.

    One producer feeds sample chunks of any size; complete 100 ms buffers are
    analyzed as they fill and their intensity segments returned. The buffers
    one feed completes are decomposed as one stack. The
    low-frequency channel continues the causal filter state across feeds, so
    the concatenated outputs are identical to a single batch analyze() over
    the same samples. Call finish() to flush any trailing full segments.
    """

    def __init__(self, sample_rate_hz: float, model: psy.PsychoModel | None = None):
        self._model = model or psy.DEFAULT_MODEL
        self._rate = float(sample_rate_hz)
        self._seg_len = segment_length(SEGMENT_MS, self._rate)
        self.buffer_length = int(round(BUFFER_MS / SEGMENT_MS)) * self._seg_len
        self.segment_duration_ms = 1000.0 * self._seg_len / self._rate
        self._sos = butter_sos(LOWFREQ_CUTOFF_HZ, "low", self._rate)
        self._zi = np.zeros((self._sos.shape[0], 2))  # zero initial conditions
        self._tail = np.empty(0, dtype=np.float64)
        self._context = 0  # 1 once any buffer has been consumed
        self._finished = False

    def feed(self, samples: np.ndarray) -> tuple[np.ndarray, Waveform]:
        """Consume a chunk; returns (new intensity values, low-passed chunk)."""
        from scipy.signal import sosfilt

        if self._finished:
            raise DataError("analyzer already finished")
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise DataError("feed expects a 1-D sample chunk")
        if samples.size == 0:
            return np.empty(0), Waveform(samples, self._rate)
        self._tail = np.concatenate([self._tail, samples])

        pending: list[Callable[[], np.ndarray]] = []
        buf_len = self.buffer_length
        args = (self._seg_len, self._rate, self._model)
        if self._context == 0 and self._tail.size >= buf_len:
            pending.append(_start_intensities(self._tail[None, :buf_len], 0, *args))
            # keep the last consumed sample as context for the next buffer
            self._tail = self._tail[buf_len - 1:]
            self._context = 1
        n_rows = (self._tail.size - 1) // buf_len if self._context else 0
        if n_rows:
            # row k: buffer k after its one context sample, as a view
            rows = sliding_window_view(self._tail[:n_rows * buf_len + 1],
                                       buf_len + 1)[::buf_len]
            pending.append(_start_intensities(rows, 1, *args))
            self._tail = self._tail[n_rows * buf_len:]
        # any workers sift their runs while this process filters
        low, self._zi = sosfilt(self._sos, samples, zi=self._zi)
        values = (np.concatenate([p().ravel() for p in pending]) if pending
                  else np.empty(0))
        return values, Waveform(low, self._rate)

    def finish(self) -> np.ndarray:
        """Flush trailing full segments of a final partial buffer.

        Like a partial segment, a tail shorter than the 8 samples EMD needs
        (one segment at rates below 1.4 kHz) is dropped.
        """
        if self._finished:
            return np.empty(0)
        self._finished = True
        n_seg = (self._tail.size - self._context) // self._seg_len
        chunk = self._tail[:self._context + n_seg * self._seg_len]
        if n_seg < 1 or chunk.size < 8:
            return np.empty(0)
        return _start_intensities(chunk[None], self._context, self._seg_len,
                                  self._rate, self._model)()[0]


def fuse_channels(profiles: list[IntensityProfile] | tuple[IntensityProfile, ...]
                  ) -> IntensityProfile:
    """Element-wise arithmetic mean of per-channel profiles."""
    if not profiles:
        raise DataError("no profiles to fuse")
    first = profiles[0]
    for p in profiles[1:]:
        if len(p) != len(first):
            raise DataError(f"profile length mismatch: {len(p)} vs {len(first)}")
        if p.segment_duration_ms != first.segment_duration_ms:
            raise DataError("profiles disagree on segment duration")
    mean = np.mean([p.values for p in profiles], axis=0)
    return IntensityProfile(mean, first.segment_duration_ms, first.start_time_s)


def synthesize(profile: IntensityProfile, lowfreq: Waveform,
               model: psy.PsychoModel | None = None) -> Waveform:
    """Resynthesize an amplitude-modulated carrier with the profile's intensity.

    Per segment the carrier amplitude is the exact inverse of the intensity
    map at the carrier frequency. The carrier phase advances uniformly across
    segment boundaries, and the amplitude ramps linearly over the first
    quarter of each segment from the previous segment's amplitude (from
    silence for the first segment). The low-frequency channel sets the
    sample rate and is added back sample for sample.
    """
    model = model or psy.DEFAULT_MODEL
    if len(profile) == 0:
        raise DataError("cannot synthesize from an empty profile")
    rate = lowfreq.sample_rate_hz
    if CARRIER_HZ >= rate / 2.0:
        raise DataError(f"carrier {CARRIER_HZ} Hz at or above Nyquist ({rate / 2} Hz)")

    seg_len = segment_length(profile.segment_duration_ms, rate)
    n_seg = len(profile)
    n = n_seg * seg_len

    amps = psy.amplitude_for_intensity(profile.values, CARRIER_HZ, model)
    amps = np.atleast_1d(np.asarray(amps, dtype=np.float64))

    envelope = np.repeat(amps, seg_len).reshape(n_seg, seg_len)
    fade_len = max(1, int(round(CROSSFADE_FRACTION * seg_len)))
    prev = np.concatenate([[0.0], amps[:-1]])
    ramp = np.arange(1, fade_len + 1, dtype=np.float64) / fade_len
    envelope[:, :fade_len] = prev[:, None] + (amps - prev)[:, None] * ramp[None, :]
    envelope = envelope.reshape(n)

    phase = 2.0 * np.pi * CARRIER_HZ * np.arange(n, dtype=np.float64) / rate
    if len(lowfreq) < n:
        raise DataError("low-frequency channel shorter than the synthesized span")
    return Waveform(envelope * np.sin(phase) + lowfreq.samples[:n], rate)


def convert(waveform: Waveform, model: psy.PsychoModel | None = None) -> Waveform:
    """analyze then synthesize: re-express a vibration on the CARRIER_HZ carrier."""
    result = analyze(waveform, model)
    return synthesize(result.profile, result.lowfreq, model)


def save_intensity_csv(times_s, values, path) -> None:
    """Write `t_s,intensity` rows: seconds to the microsecond, 9 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "intensity"])
        for t, v in zip(times_s, values):
            writer.writerow([f"{t:.6f}", f"{v:.9g}"])


def save_profile_csv(profile: IntensityProfile, path) -> None:
    """Write a profile as `t_s,intensity` rows, one per segment midpoint."""
    save_intensity_csv(profile.midpoints_s(), profile.values, path)


def load_intensity_csv(path) -> tuple[list[float], list[float]]:
    """Read `t_s,intensity` rows as written: (times_s, values), at least one row."""
    times: list[float] = []
    values: list[float] = []
    with open(path, "r", newline="", encoding="utf-8") as fh, decoding(path):
        reader = csv_rows(path, fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["t_s", "intensity"]:
            raise FileFormatError(f"{path}: expected header 't_s,intensity'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
                if not math.isfinite(times[-1]):
                    raise ValueError
            except (ValueError, IndexError):
                raise FileFormatError(f"{path}:{lineno}: bad row {row!r}") from None
    if not values:
        raise FileFormatError(f"{path}: no intensity rows")
    return times, values


def load_profile_csv(path) -> IntensityProfile:
    """Read a profile CSV back, its rows taken as segment midpoints.

    The segment duration is the median spacing of the times (SEGMENT_MS for
    one row), and the profile starts half a segment before the first. Where a
    segment is not a whole number of microseconds, that grid drifts from the
    rows as written; load_intensity_csv gives the rows themselves.
    """
    times, values = load_intensity_csv(path)
    dur_ms = float(np.median(np.diff(times))) * 1000.0 if len(times) > 1 else SEGMENT_MS
    return IntensityProfile(values, dur_ms, start_time_s=times[0] - dur_ms / 2000.0)
