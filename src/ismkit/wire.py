"""ISMP/1: the measurement-to-visualization streaming protocol.

Framing is magic-prefixed and length-prefixed, little-endian throughout:

    header : "ISMP" | msg_type u8 | payload_len u32          (9 bytes)
    Hello  : version u8 | channels u8 | sample_rate u32 | segment_ms_x10 u16
    Frame  : t_us u64 | position 3xf32 | quaternion 4xf32 | intensity f32
             | rgb 3xu8 | pad 2xu8 = 0                       (45 bytes)
    IntensityOnly : t_us u64 | intensity f32                 (12 bytes)
    End    : empty payload

The decoder never raises on arbitrary bytes: it reports need-more-bytes, a
message, or an error, and always makes progress once a non-decodable prefix
is present. Desync recovery scans forward to the next magic. `Decoder.feed`
parses its pending buffer by offset and compacts it once per feed, so a feed
costs time linear in its bytes however many messages it holds. A decoded
float is already float32, and an integer already in its field's range, so
a decoded message is only checked for finite values. A constructed
`Frame` or `IntensityOnly` is checked by packing its fields once; only when
that fails are the fields checked one by one, to name the bad one. Both are
slotted, without a `__dict__`, so each message is one object for the
cyclic garbage collector to track.

The sender runs a bounded queue with drop-oldest backpressure: when a live
consumer lags, stale frames are discarded (and counted) rather than delaying
fresh ones; control messages (Hello/End) are never dropped. Its writer thread
takes everything queued at once and writes it with one `sendall`, so at most
one queue's worth is in flight beyond the kernel's socket buffer, out of
reach of drop-oldest; `sent` counts the messages of written batches.
"""

from __future__ import annotations

import math
import socket
import struct
import threading
from collections import Counter, deque
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DataError, ProtocolError

MAGIC = b"ISMP"
PROTOCOL_VERSION = 1
HEADER_SIZE = 9
MAX_SKIP_PAYLOAD = 65535

TYPE_HELLO = 1
TYPE_FRAME = 2
TYPE_INTENSITY = 3
TYPE_END = 4

_HEADER = struct.Struct("<4sBI")
_HELLO = struct.Struct("<BBIH")
_FRAME = struct.Struct("<Q8f5B")
_INTENSITY = struct.Struct("<Qf")
_F32 = struct.Struct("<f")
# header and payload of one message in one pack
_HELLO_MSG = struct.Struct(_HEADER.format + _HELLO.format[1:])
_FRAME_MSG = struct.Struct(_HEADER.format + _FRAME.format[1:])
_INTENSITY_MSG = struct.Struct(_HEADER.format + _INTENSITY.format[1:])
_END_MSG = _HEADER.pack(MAGIC, TYPE_END, 0)

_new = object.__new__

PAYLOAD_SIZES = {
    TYPE_HELLO: _HELLO.size,
    TYPE_FRAME: _FRAME.size,
    TYPE_INTENSITY: _INTENSITY.size,
    TYPE_END: 0,
}


def _f32(value: float, what: str) -> float:
    try:
        packed = _F32.unpack(_F32.pack(float(value)))[0]
    except OverflowError:  # finite, but beyond the float32 range
        packed = math.inf
    if not math.isfinite(packed):
        raise DataError(f"{what} is not a finite float32: {value}")
    return packed


def _u(value: int, bits: int, what: str) -> int:
    v = int(value)
    if not 0 <= v < (1 << bits):
        raise DataError(f"{what} out of range for u{bits}: {value}")
    return v


@dataclass(frozen=True)
class Hello:
    channels: int
    sample_rate_hz: int
    segment_ms_x10: int
    version: int = PROTOCOL_VERSION

    def __post_init__(self):
        object.__setattr__(self, "version", _u(self.version, 8, "version"))
        object.__setattr__(self, "channels", _u(self.channels, 8, "channels"))
        object.__setattr__(self, "sample_rate_hz", _u(self.sample_rate_hz, 32, "sample_rate_hz"))
        object.__setattr__(self, "segment_ms_x10", _u(self.segment_ms_x10, 16, "segment_ms_x10"))


@dataclass(frozen=True, slots=True, init=False)
class Frame:
    """One visualization sample. Float fields are stored at float32 precision."""

    t_us: int
    position: tuple[float, float, float]
    quaternion: tuple[float, float, float, float]
    intensity: float
    rgb: tuple[int, int, int]

    def __init__(self, t_us: int, position, quaternion, intensity: float, rgb):
        # one pack rounds every float to float32 and range-checks t_us and rgb;
        # float32 values cannot overflow a float64 sum: it is finite iff all are.
        # An array packs faster as a list than element by element as numpy
        # scalars; the field checks below still see the array, as before
        pos = position.tolist() if isinstance(position, np.ndarray) else position
        quat = quaternion.tolist() if isinstance(quaternion, np.ndarray) else quaternion
        try:
            if len(pos) == 3 and len(quat) == 4 and len(rgb) == 3:
                f = _FRAME.unpack(_FRAME.pack(t_us, *pos, *quat, intensity, *rgb, 0, 0))
                if math.isfinite(sum(f[1:9])):
                    _fill_frame(self, f)
                    return
        except (struct.error, OverflowError, TypeError):
            pass  # the checks below name the field at fault
        t_us = _u(t_us, 64, "t_us")
        pos = tuple(_f32(v, "position") for v in position)
        quat = tuple(_f32(v, "quaternion") for v in quaternion)
        if len(pos) != 3 or len(quat) != 4:
            raise DataError("Frame needs a 3-vector position and 4-vector quaternion")
        intensity = _f32(intensity, "intensity")
        rgb = tuple(_u(c, 8, "rgb") for c in rgb)
        if len(rgb) != 3:
            raise DataError("rgb must have 3 components")
        _fill_frame(self, (t_us, *pos, *quat, intensity, *rgb))


@dataclass(frozen=True, slots=True, init=False)
class IntensityOnly:
    t_us: int
    intensity: float

    def __init__(self, t_us: int, intensity: float):
        try:
            t_us, intensity = _INTENSITY.unpack(_INTENSITY.pack(t_us, intensity))
            if math.isfinite(intensity):
                _fill_intensity(self, t_us, intensity)
                return
        except (struct.error, OverflowError, TypeError):
            pass  # the checks below name the field at fault
        _fill_intensity(self, _u(t_us, 64, "t_us"), _f32(intensity, "intensity"))


# A frozen dataclass's own __setattr__ refuses every field; its slot
# descriptors set each field once, and cost less than object.__setattr__.
_set_frame_t_us, _set_position, _set_quaternion, _set_frame_intensity, _set_rgb = (
    getattr(Frame, f.name).__set__ for f in fields(Frame))
_set_ints_t_us, _set_ints_intensity = (getattr(IntensityOnly, f.name).__set__
                                       for f in fields(IntensityOnly))


def _fill_frame(message: Frame, f: tuple) -> None:
    """Set a Frame's fields from its payload's unpacked values, unchecked."""
    _set_frame_t_us(message, f[0])
    _set_position(message, f[1:4])
    _set_quaternion(message, f[4:8])
    _set_frame_intensity(message, f[8])
    _set_rgb(message, f[9:12])


def _fill_intensity(message: IntensityOnly, t_us: int, intensity: float) -> None:
    _set_ints_t_us(message, t_us)
    _set_ints_intensity(message, intensity)


@dataclass(frozen=True)
class End:
    pass


WireMessage = Hello | Frame | IntensityOnly | End


def encode(message: WireMessage) -> bytes:
    """Serialize a message: header then fixed-layout payload."""
    if isinstance(message, Frame):
        return _FRAME_MSG.pack(MAGIC, TYPE_FRAME, _FRAME.size, message.t_us,
                               *message.position, *message.quaternion, message.intensity,
                               *message.rgb, 0, 0)
    if isinstance(message, IntensityOnly):
        return _INTENSITY_MSG.pack(MAGIC, TYPE_INTENSITY, _INTENSITY.size,
                                   message.t_us, message.intensity)
    if isinstance(message, Hello):
        return _HELLO_MSG.pack(MAGIC, TYPE_HELLO, _HELLO.size, message.version,
                               message.channels, message.sample_rate_hz,
                               message.segment_ms_x10)
    if isinstance(message, End):
        return _END_MSG
    raise DataError(f"not a wire message: {message!r}")


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of one decode step.

    Exactly one of three shapes: a message (consumed > 0), an error string
    (consumed > 0, stream position advanced), or need-more-bytes (message and
    error both None; consumed counts any garbage skipped while resyncing).
    """

    message: WireMessage | None
    consumed: int
    skipped: int = 0
    error: str | None = None


def _magic_prefix_keep(buf, off: int) -> int:
    """Length of the longest suffix of buf[off:] that is a proper prefix of MAGIC."""
    for keep in range(min(len(buf) - off, len(MAGIC) - 1), 0, -1):
        if buf.endswith(MAGIC[:keep]):
            return keep
    return 0


def _decode_at(buf: bytes | bytearray, off: int
               ) -> tuple[WireMessage | None, int, int, str | None]:
    """decode() of buf[off:] without copying: (message, consumed, skipped, error)."""
    idx = buf.find(MAGIC, off)
    if idx == -1:
        consumed = len(buf) - off - _magic_prefix_keep(buf, off)
        return None, consumed, consumed, None
    skipped = idx - off
    avail = len(buf) - idx
    if avail < HEADER_SIZE:
        return None, skipped, skipped, None
    _, msg_type, payload_len = _HEADER.unpack_from(buf, idx)

    expected = PAYLOAD_SIZES.get(msg_type)
    if expected is None:
        if payload_len > MAX_SKIP_PAYLOAD:
            return None, skipped + HEADER_SIZE, skipped, f"unknown-type:{msg_type}"
        if avail < HEADER_SIZE + payload_len:  # wait for the payload it skips
            return None, skipped, skipped, None
        return None, skipped + HEADER_SIZE + payload_len, skipped, f"unknown-type:{msg_type}"
    if payload_len != expected:
        return None, skipped + len(MAGIC), skipped, "length-mismatch"
    if avail < HEADER_SIZE + expected:
        return None, skipped, skipped, None
    consumed = skipped + HEADER_SIZE + expected
    start = idx + HEADER_SIZE

    # the layout bounds every field but the floats: a message whose floats are
    # finite is built unchecked, and any other goes to its constructor, whose
    # error names the field
    if msg_type == TYPE_FRAME:
        f = _FRAME.unpack_from(buf, start)
        # float32 values cannot overflow a float64 sum: it is finite iff all are
        if math.isfinite(sum(f[1:9])):
            message = _new(Frame)
            _fill_frame(message, f)
            return message, consumed, skipped, None
        build, args = Frame, (f[0], f[1:4], f[4:8], f[8], f[9:12])
    elif msg_type == TYPE_INTENSITY:
        t_us, intensity = _INTENSITY.unpack_from(buf, start)
        if math.isfinite(intensity):
            message = _new(IntensityOnly)
            _fill_intensity(message, t_us, intensity)
            return message, consumed, skipped, None
        build, args = IntensityOnly, (t_us, intensity)
    elif msg_type == TYPE_HELLO:
        version, channels, rate, seg = _HELLO.unpack_from(buf, start)
        if version != PROTOCOL_VERSION:
            return None, consumed, skipped, f"version-mismatch:{version}"
        return Hello(channels, rate, seg, version=version), consumed, skipped, None
    else:
        return End(), consumed, skipped, None
    try:
        return build(*args), consumed, skipped, None
    except DataError as exc:
        return None, consumed, skipped, f"bad-field:{exc}"


def decode(data: bytes | bytearray | memoryview) -> DecodeResult:
    """Decode one message from the front of a byte buffer.

    Garbage before a magic is skipped (counted in `skipped` and `consumed`).
    Header-level problems return an error result that still advances the
    stream: unknown types skip their declared payload when it is sane
    (<= 64 KiB; need more bytes until all of it is there), otherwise just the
    header; a length mismatch on a known type abandons the header as a desync
    and advances past the magic.
    """
    message, consumed, skipped, error = _decode_at(bytes(data), 0)
    return DecodeResult(message, consumed, skipped=skipped, error=error)


class Decoder:
    """Incremental stream decoder with resync statistics."""

    def __init__(self):
        self._buf = bytearray()
        self.resync_bytes = 0
        # counts by error string, a bounded set however hostile the input
        self.errors: Counter[str] = Counter()

    def feed(self, data: bytes) -> list[WireMessage]:
        buf = self._buf
        buf.extend(data)
        messages: list[WireMessage] = []
        off = 0
        while True:
            message, consumed, skipped, error = _decode_at(buf, off)
            off += consumed
            self.resync_bytes += skipped
            if error is not None:
                self.errors[error] += 1
            if message is not None:
                messages.append(message)
            elif consumed == 0:
                break
        del buf[:off]
        return messages

    def pending(self) -> int:
        return len(self._buf)


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    host, sep, port = endpoint.rpartition(":")
    if not sep or not host:
        raise DataError(f"endpoint must be host:port, got {endpoint!r}")
    try:
        return host, int(port)
    except ValueError:
        raise DataError(f"endpoint port is not an integer: {endpoint!r}") from None


def _droppable(message: WireMessage) -> bool:
    return isinstance(message, (Frame, IntensityOnly))


@dataclass
class SenderReport:
    sent: int
    drops: int
    error: str | None = None


class FrameSender:
    """Queued protocol sender over a stream socket.

    Messages pile into a bounded FIFO drained by a writer thread; when the
    queue is full the oldest droppable message makes way (drop-oldest), so a
    stalled visualization consumer sees the newest state when it recovers.
    Hello and End are never dropped. The writer takes the whole queue at once
    and writes it with one `sendall`; a send wakes the writer only when it
    finds the queue empty, so a batch costs one wake-up. Construct without
    an endpoint to queue offline, then call connect().
    """

    def __init__(self, endpoint: str | None = None, queue_capacity: int = 256,
                 policy: str = "drop-oldest", connect_timeout: float = 5.0):
        if queue_capacity < 1:
            raise DataError("queue capacity must be >= 1")
        if policy not in ("drop-oldest", "block"):
            raise DataError(f"unknown queue policy {policy!r}")
        self._capacity = queue_capacity
        self._policy = policy
        self._connect_timeout = connect_timeout
        self._queue: deque[WireMessage] = deque()
        self._n_droppable = 0  # capacity bounds frames; control messages ride along
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._sock: socket.socket | None = None
        self._thread: threading.Thread | None = None
        self._closing = False
        self.sent = 0
        self.drops = 0
        self.error: str | None = None
        if endpoint is not None:
            self.connect(endpoint)

    def connect(self, endpoint: str) -> None:
        host, port = parse_endpoint(endpoint)
        try:
            self._sock = socket.create_connection((host, port), timeout=self._connect_timeout)
        except OSError as exc:
            raise ProtocolError(f"cannot connect to {endpoint}: {exc}") from exc
        self._sock.settimeout(None)
        self._thread = threading.Thread(target=self._drain, name="ismp-sender", daemon=True)
        self._thread.start()

    def send(self, message: WireMessage) -> None:
        with self._lock:
            if _droppable(message):
                if self._n_droppable >= self._capacity:
                    if self._policy == "block" and self._thread is not None:
                        while (self._n_droppable >= self._capacity
                               and self.error is None and not self._closing):
                            self._wake.wait()
                    else:
                        for i, queued in enumerate(self._queue):
                            if _droppable(queued):
                                del self._queue[i]
                                self._n_droppable -= 1
                                self.drops += 1
                                break
                self._n_droppable += 1
            if not self._queue:
                # a writer thread waits for a send only on an empty queue;
                # producers blocked on a full one wait for the writer instead
                self._wake.notify_all()
            self._queue.append(message)

    def _drain(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closing:
                    self._wake.wait()
                if not self._queue:
                    return
                batch, self._queue = self._queue, deque()
                self._n_droppable = 0
                self._wake.notify_all()
            data = b"".join(map(encode, batch))
            try:
                self._sock.sendall(data)
            except OSError as exc:
                with self._lock:
                    self.error = str(exc)
                    self._queue.clear()
                    self._wake.notify_all()
                return
            self.sent += len(batch)

    def close(self, send_end: bool = True, timeout: float = 10.0) -> SenderReport:
        """Flush the queue (optionally appending End), stop the writer, report."""
        if send_end and self._sock is not None and self.error is None:
            self.send(End())
        with self._lock:
            self._closing = True
            self._wake.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        return SenderReport(sent=self.sent, drops=self.drops, error=self.error)


@dataclass
class ReceiverStats:
    messages: int = 0
    frames: int = 0
    resync_bytes: int = 0
    decode_errors: Counter[str] = field(default_factory=Counter)
    got_end: bool = False


class Listener:
    """Bound listening socket for the receiving side (port 0 picks a free port)."""

    def __init__(self, endpoint: str):
        host, port = parse_endpoint(endpoint)
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind((host, port))
        self._server.listen(1)

    @property
    def endpoint(self) -> str:
        host, port = self._server.getsockname()[:2]
        return f"{host}:{port}"

    def receive(self, on_message, accept_timeout: float = 30.0) -> ReceiverStats:
        """Accept one connection and deliver decoded messages in order.

        Enforces that a Hello arrives before any Frame/IntensityOnly;
        violations raise ProtocolError. Returns when End arrives or the
        peer disconnects.
        """
        self._server.settimeout(accept_timeout)
        stats = ReceiverStats()
        decoder = Decoder()
        hello_seen = False
        try:
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                raise ProtocolError("no sender connected before timeout") from None
            with conn:
                while True:
                    data = conn.recv(65536)
                    if not data:
                        break
                    for message in decoder.feed(data):
                        if isinstance(message, (Frame, IntensityOnly)) and not hello_seen:
                            raise ProtocolError(
                                "protocol violation: data frame before Hello")
                        if isinstance(message, Hello):
                            hello_seen = True
                        stats.messages += 1
                        if isinstance(message, Frame):
                            stats.frames += 1
                        on_message(message)
                        if isinstance(message, End):
                            stats.got_end = True
                            return stats
            return stats
        finally:
            stats.resync_bytes = decoder.resync_bytes
            stats.decode_errors = decoder.errors
            self._server.close()
