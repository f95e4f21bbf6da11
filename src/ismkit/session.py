"""Chunked `.isms` recording container and paced replay.

One session file holds synchronized vibration, pose and intensity streams:

    header : "ISMS" | version u16 | sample_rate f64 | channels u8
             | segment_ms f64 | model_id_len u16 | model_id utf-8
    chunks : fourcc | length u32 | payload   (repeated until EOF)

Defined chunk tags: VIBR (interleaved float32 frames), POSE (36-byte records
u64 t_us + 7 x f32), INTS (u64 t_us + f32), META (utf-8 key=value lines).
Intensity timestamps stop at 2**53 us (about 285 years), the largest span
in which `Session.intensities` holds every one exactly as float64.
Unknown tags are skipped on read and preserved on rewrite, so future
recorders can extend the format without breaking old tooling. A stream may
span several chunks, joined in file order; the writer writes each vibration
append as one VIBR chunk at once and buffers only poses and intensities.
"""

from __future__ import annotations

import math
import os
import struct
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FileFormatError, decoding
from .trajectory import PoseSample, poses_from_arrays

MAGIC = b"ISMS"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sHdBdH")
_CHUNK_HEADER = struct.Struct("<4sI")
_POSE_DTYPE = np.dtype([("t_us", "<u8"), ("position", "<f4", (3,)),
                        ("orientation", "<f4", (4,))])
_INTS_DTYPE = np.dtype([("t_us", "<u8"), ("value", "<f4")])

TAG_VIBRATION = b"VIBR"
TAG_POSE = b"POSE"
TAG_INTENSITY = b"INTS"
TAG_META = b"META"


@dataclass
class ReplayClock:
    """Pacing: wall-clock time = timestamp deltas / speed. speed=inf disables pacing."""

    speed: float = 1.0

    def __post_init__(self):
        if not self.speed > 0:
            raise DataError(f"replay speed must be positive, got {self.speed}")


def _check_t_us(t_us: int, what: str) -> int:
    """A timestamp a u64 record field can hold, else DataError."""
    if not 0 <= t_us < 1 << 64:
        raise DataError(f"{what} timestamp {t_us} outside the u64 microsecond range")
    return t_us


def _store_f32(rec: np.ndarray, name: str, values, what: str) -> None:
    """Store finite values into a float32 record field; DataError if one overflows it."""
    with np.errstate(over="ignore"):
        rec[name] = values
    bad = ~np.isfinite(rec[name])
    if bad.any():
        raise DataError(f"{what} is not a finite float32: {np.asarray(values)[bad][0]}")


class SessionWriter:
    """Incremental session recorder.

    Each vibration append is written to the file at once as one VIBR chunk,
    from the frames' own buffer when they are already C-contiguous
    little-endian float32, so the writer keeps no vibration. It buffers only
    poses and intensities, as columns of machine numbers, not as records,
    and each flush packs a stream's columns into one structured array. Used
    as a context manager, it closes on leaving the block, also when an error
    leaves it, and the file then holds what was appended.
    """

    def __init__(self, path, sample_rate_hz: float = 5000.0, channels: int = 4,
                 segment_ms: float = 5.0, model_id: str = ""):
        if channels < 1 or channels > 255:
            raise DataError(f"channel count {channels} out of range")
        for name, value in (("sample rate", sample_rate_hz), ("segment length", segment_ms)):
            if not 0 < value < math.inf:
                raise DataError(f"{name} must be a positive finite number, got {value}")
        self.path = path
        self.sample_rate_hz = float(sample_rate_hz)
        self.channels = channels
        self.segment_ms = float(segment_ms)
        self.model_id = model_id
        self._fh = open(path, "wb")
        ident = model_id.encode("utf-8")
        self._fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, self.sample_rate_hz,
                                    channels, self.segment_ms, len(ident)) + ident)
        self._new_pose_columns()
        self._new_intensity_columns()
        self._meta: dict[str, str] = {}
        self._last_pose_t: int | None = None
        self._last_ints_t: int | None = None
        self._counts = {"VIBR": 0, "POSE": 0, "INTS": 0}

    def append_vibration(self, frames: np.ndarray) -> None:
        """Write interleaved frames, shape (n,) or (n, channels), as one VIBR chunk now."""
        arr = np.asarray(frames, dtype="<f4", order="C")
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != self.channels:
            raise DataError(
                f"vibration frames must have {self.channels} channels, got shape {arr.shape}")
        if arr.shape[0]:
            self._write_chunk(TAG_VIBRATION, arr)
        self._counts["VIBR"] += arr.shape[0]

    def append_pose(self, pose: PoseSample) -> None:
        _check_t_us(pose.t_us, "pose")
        if self._last_pose_t is not None and pose.t_us < self._last_pose_t:
            raise DataError(
                f"pose timestamp regression: {pose.t_us} after {self._last_pose_t}")
        self._last_pose_t = pose.t_us
        self._pose_t.append(pose.t_us)
        # PoseSample holds float64 arrays; tobytes also copies a strided one
        self._pose_position.frombytes(pose.position.tobytes())
        self._pose_orientation.frombytes(pose.orientation.tobytes())
        self._counts["POSE"] += 1

    def append_intensity(self, t_us: int, intensity: float) -> None:
        try:
            t_us = int(t_us)
        except (TypeError, ValueError, OverflowError):
            raise DataError(f"intensity timestamp {t_us!r} is not an integer") from None
        _check_t_us(t_us, "intensity")
        if t_us > 2 ** 53:
            raise DataError(f"intensity timestamp {t_us} above 2**53 us, which float64 "
                            "cannot hold exactly")
        if self._last_ints_t is not None and t_us < self._last_ints_t:
            raise DataError(
                f"intensity timestamp regression: {t_us} after {self._last_ints_t}")
        try:
            finite = math.isfinite(intensity)
        except (TypeError, OverflowError):
            finite = False
        if not finite:
            raise DataError(f"intensity must be finite, got {intensity}")
        self._last_ints_t = t_us
        self._ints_t.append(t_us)
        self._ints_value.append(float(intensity))
        self._counts["INTS"] += 1

    def _new_pose_columns(self) -> None:
        self._pose_t = array("Q")
        self._pose_position = array("d")
        self._pose_orientation = array("d")

    def _new_intensity_columns(self) -> None:
        self._ints_t = array("Q")
        self._ints_value = array("d")

    def add_meta(self, key: str, value: str) -> None:
        if "=" in key or "\n" in key or "\n" in value:
            raise DataError("meta keys/values must not contain '=' in key or newlines")
        self._meta[key] = value

    def _write_chunk(self, tag: bytes, payload: bytes | np.ndarray) -> None:
        self._fh.write(_CHUNK_HEADER.pack(tag, memoryview(payload).nbytes))
        self._fh.write(payload)

    def flush(self) -> None:
        """Write buffered poses, intensities and meta out as one chunk per stream type."""
        if self._pose_t:
            rec = np.empty(len(self._pose_t), dtype=_POSE_DTYPE)
            rec["t_us"] = self._pose_t
            _store_f32(rec, "position", np.frombuffer(self._pose_position).reshape(-1, 3),
                       "pose position")
            _store_f32(rec, "orientation",
                       np.frombuffer(self._pose_orientation).reshape(-1, 4),
                       "pose orientation")
            self._write_chunk(TAG_POSE, rec)
            self._new_pose_columns()
        if self._ints_t:
            rec = np.empty(len(self._ints_t), dtype=_INTS_DTYPE)
            rec["t_us"] = self._ints_t
            _store_f32(rec, "value", np.frombuffer(self._ints_value), "intensity")
            self._write_chunk(TAG_INTENSITY, rec)
            self._new_intensity_columns()
        if self._meta:
            text = "".join(f"{k}={v}\n" for k, v in self._meta.items())
            self._write_chunk(TAG_META, text.encode("utf-8"))
            self._meta.clear()
        self._fh.flush()

    def close(self) -> dict:
        """Flush and close; returns per-stream counts and durations."""
        try:
            self.flush()
        finally:
            self._fh.close()
        summary = {
            "vibration_samples": self._counts["VIBR"],
            "vibration_duration_s": self._counts["VIBR"] / self.sample_rate_hz,
            "poses": self._counts["POSE"],
            "intensities": self._counts["INTS"],
        }
        return summary

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if not self._fh.closed:
            self.close()


@dataclass
class Session:
    """A parsed session file."""

    sample_rate_hz: float
    channels: int
    segment_ms: float
    model_id: str
    vibration: np.ndarray  # (n, channels) float32
    poses: list[PoseSample]
    intensities: np.ndarray  # structured-free: (n, 2) columns t_us, value
    meta: dict[str, str]
    extra_chunks: list[tuple[bytes, bytes]] = field(default_factory=list)

    @classmethod
    def open(cls, path) -> "Session":
        with open(path, "rb") as fh, decoding(path):
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise FileFormatError(f"{path}: truncated header")
            magic, version, rate, channels, segment_ms, ident_len = _HEADER.unpack(head)
            if magic != MAGIC:
                raise FileFormatError(f"{path}: not a session file (bad magic)")
            if version != FORMAT_VERSION:
                raise FileFormatError(f"{path}: unsupported format version {version}")
            if not (channels and 0 < rate < math.inf and 0 < segment_ms < math.inf):
                raise FileFormatError(f"{path}: header needs channels and a positive finite "
                                      f"rate and segment, got {channels}, {rate}, {segment_ms}")
            ident = fh.read(ident_len)
            if len(ident) < ident_len:
                raise FileFormatError(f"{path}: truncated model identifier")
            model_id = ident.decode("utf-8")

            size = os.fstat(fh.fileno()).st_size
            vib_parts: list[np.ndarray] = []
            poses: list[PoseSample] = []
            ints: list[np.ndarray] = []
            meta: dict[str, str] = {}
            extra: list[tuple[bytes, bytes]] = []
            while True:
                chunk_head = fh.read(_CHUNK_HEADER.size)
                if not chunk_head:
                    break
                if len(chunk_head) < _CHUNK_HEADER.size:
                    raise FileFormatError(f"{path}: truncated chunk header")
                tag, length = _CHUNK_HEADER.unpack(chunk_head)
                # checked before reading, so a bad length allocates nothing
                if length > size - fh.tell():
                    raise FileFormatError(
                        f"{path}: chunk {tag.decode('ascii', 'replace')} of length "
                        f"{length} overruns the file")
                if tag == TAG_VIBRATION:
                    if length % (4 * channels):
                        raise FileFormatError(f"{path}: VIBR length not a frame multiple")
                    payload = np.empty((length // (4 * channels), channels), dtype="<f4")
                    got = fh.readinto(payload)
                else:
                    payload = fh.read(length)
                    got = len(payload)
                if got < length:
                    raise FileFormatError(f"{path}: file shrank while being read")
                if tag == TAG_VIBRATION:
                    vib_parts.append(payload)
                elif tag == TAG_POSE:
                    if length % _POSE_DTYPE.itemsize:
                        raise FileFormatError(f"{path}: POSE length not a record multiple")
                    rec = np.frombuffer(payload, dtype=_POSE_DTYPE)
                    poses.extend(poses_from_arrays(rec["t_us"].tolist(), rec["position"],
                                                   rec["orientation"]))
                elif tag == TAG_INTENSITY:
                    if length % _INTS_DTYPE.itemsize:
                        raise FileFormatError(f"{path}: INTS length not a record multiple")
                    rec = np.frombuffer(payload, dtype=_INTS_DTYPE)
                    if rec.size and rec["t_us"].max() > 2 ** 53:
                        raise FileFormatError(
                            f"{path}: intensity timestamp above 2**53 us")
                    ints.append(np.stack([rec["t_us"], rec["value"]], axis=1, dtype=np.float64))
                elif tag == TAG_META:
                    for line in payload.decode("utf-8").splitlines():
                        if line:
                            key, _, value = line.partition("=")
                            meta[key] = value
                else:
                    extra.append((tag, payload))

        vibration = (vib_parts[0] if len(vib_parts) == 1 else
                     np.concatenate([np.zeros((0, channels), np.float32), *vib_parts]))
        intensities = np.concatenate(ints) if ints else np.zeros((0, 2))
        return cls(sample_rate_hz=rate, channels=channels, segment_ms=segment_ms,
                   model_id=model_id, vibration=vibration, poses=poses,
                   intensities=intensities, meta=meta, extra_chunks=extra)

    def save(self, path) -> None:
        """Rewrite the session, preserving unknown chunks verbatim."""
        with SessionWriter(path, self.sample_rate_hz, self.channels,
                           self.segment_ms, self.model_id) as writer:
            if self.vibration.size:
                writer.append_vibration(self.vibration)
            for pose in self.poses:
                writer.append_pose(pose)
            for t_us, value in self.intensities:
                writer.append_intensity(int(t_us), float(value))
            for key, value in self.meta.items():
                writer.add_meta(key, value)
            writer.flush()
            for tag, payload in self.extra_chunks:
                writer._write_chunk(tag, payload)


def record(path, *, vibration: np.ndarray | None = None,
           poses: list[PoseSample] | None = None,
           intensities: list[tuple[int, float]] | None = None,
           meta: dict[str, str] | None = None,
           sample_rate_hz: float = 5000.0, channels: int | None = None,
           segment_ms: float = 5.0, model_id: str = "") -> dict:
    """One-shot session recording; returns the writer's summary.

    A DataError from a bad record closes the file, holding what came before it.
    """
    if channels is None:
        if vibration is not None and np.asarray(vibration).ndim == 2:
            channels = np.asarray(vibration).shape[1]
        else:
            channels = 1
    with SessionWriter(path, sample_rate_hz, channels, segment_ms, model_id) as writer:
        if vibration is not None and np.asarray(vibration).size:
            writer.append_vibration(vibration)
        for pose in poses or []:
            writer.append_pose(pose)
        for t_us, value in intensities or []:
            writer.append_intensity(t_us, value)
        for key, value in (meta or {}).items():
            writer.add_meta(key, value)
        return writer.close()


def replay_events(session: Session, clock: ReplayClock | None = None):
    """Yield (t_us, pose, None) or (t_us, None, intensity) per event, in timestamp order, paced.

    Poses and intensities merge by timestamp, a pose first on a tie, and
    each stream keeps its own order among equal timestamps. Delivery is
    paced by timestamp deltas / speed; speed=inf yields the identical
    sequence without waiting.
    """
    clock = clock or ReplayClock()
    poses = session.poses
    ints_t = session.intensities[:, 0]
    if not np.all((ints_t >= 0) & (ints_t < 2.0 ** 64)):
        raise DataError("intensity timestamps must lie in the u64 microsecond range")
    try:
        t = np.concatenate([np.array([p.t_us for p in poses], dtype=np.uint64),
                            ints_t.astype(np.uint64)])
    except OverflowError:
        raise DataError("pose timestamps must lie in the u64 microsecond range") from None
    if not t.size:
        return
    # a stable sort over poses-then-intensities puts a pose first on a tie
    order = np.argsort(t, kind="stable")
    values = session.intensities[:, 1].tolist()
    n_poses = len(poses)
    t0 = int(t[order[0]])
    paced = math.isfinite(clock.speed)
    start_wall = time.monotonic()
    for i, t_us in zip(order.tolist(), t[order].tolist()):
        if paced:
            delay = start_wall + (t_us - t0) / 1e6 / clock.speed - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        yield (t_us, poses[i], None) if i < n_poses else (t_us, None, values[i - n_poses])


def replay(session: Session, clock: ReplayClock | None = None,
           on_pose=None, on_intensity=None) -> None:
    """Deliver replay_events to callbacks: on_pose(pose), on_intensity(t_us, value)."""
    for t_us, pose, value in replay_events(session, clock):
        if pose is not None:
            if on_pose is not None:
                on_pose(pose)
        elif on_intensity is not None:
            on_intensity(t_us, value)
