import gc
import pickle
import socket
import struct
import sys
import threading
import time
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ismkit.errors import DataError, IsmkitError, ProtocolError
from ismkit.wire import (Decoder, End, Frame, FrameSender, Hello, IntensityOnly,
                         Listener, SenderReport, decode, encode, parse_endpoint)

from .reference_wire import reference_frame_fields, reference_intensity_fields

f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
u8 = st.integers(0, 255)

hellos = st.builds(Hello, channels=u8, sample_rate_hz=st.integers(0, 2 ** 32 - 1),
                   segment_ms_x10=st.integers(0, 2 ** 16 - 1))
frames = st.builds(Frame, t_us=st.integers(0, 2 ** 64 - 1),
                   position=st.tuples(f32, f32, f32),
                   quaternion=st.tuples(f32, f32, f32, f32),
                   intensity=f32, rgb=st.tuples(u8, u8, u8))
intensities = st.builds(IntensityOnly, t_us=st.integers(0, 2 ** 64 - 1), intensity=f32)
messages = st.one_of(hellos, frames, intensities, st.just(End()))
# field values the per-field checks accept, reject or convert
FLOAT32_MAX = float(np.finfo(np.float32).max)
floats_any = st.one_of(
    f32, st.floats(), st.floats(width=32).map(np.float32), st.floats().map(np.float64),
    st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e39, -1e39, 3.5e38,
                     FLOAT32_MAX, -FLOAT32_MAX, np.nextafter(FLOAT32_MAX, np.inf),
                     10 ** 400, -10 ** 400, True, False, -0.0, 5e-46]))
t_us_valid = st.one_of(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1).map(np.uint64),
                       st.integers(0, 2 ** 63 - 1).map(np.int64), st.floats(0, 1e19))
t_us_invalid = st.one_of(st.integers(-2 ** 64, -1), st.integers(2 ** 64, 2 ** 70),
                         st.integers(-2 ** 63, -1).map(np.int64), st.floats(),
                         st.sampled_from([10 ** 400, True, False, 2 ** 64 - 1, 2 ** 64]))
# one_of would weigh each alternative alike: keep most t_us in range
t_us_any = st.integers(0, 4).flatmap(lambda k: t_us_invalid if k == 0 else t_us_valid)
rgb_any = st.one_of(
    st.tuples(u8, u8, u8),
    st.lists(st.one_of(st.integers(-300, 600), u8.map(np.uint8), st.integers(-5, 300).map(np.int64),
                       st.just(True), st.floats(-1, 300), st.just(10 ** 400)),
             min_size=2, max_size=4).map(tuple))


def arrays(n):
    """numpy n-vectors: float64, float32 and int, 2-D, and one element short or long."""
    return st.one_of(
        st.lists(st.floats(width=32), min_size=n, max_size=n).map(np.array),
        st.lists(st.floats(), min_size=n, max_size=n).map(np.array),
        st.lists(st.floats(width=32), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.float32)),
        st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)),
        st.lists(st.floats(width=32), min_size=n, max_size=n).map(
            lambda v: np.array(v).reshape(n, 1)),
        st.lists(st.floats(width=32), min_size=n, max_size=n).map(
            lambda v: np.array(v).reshape(1, n)),
        st.lists(st.floats(), min_size=n - 1, max_size=n + 1).map(np.array))


def vectors(n):
    """n-vectors of any floats, some one element short or long, as tuple, list or array."""
    return st.one_of(
        st.tuples(*[f32] * n), st.tuples(*[floats_any] * n), arrays(n),
        st.lists(floats_any, min_size=n - 1, max_size=n + 1).map(list))


def _outcome(build):
    """What build() returns, or the type and message of what it raises."""
    try:
        return build()
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _field_dict(message) -> dict:
    """A message's fields by name, as the reference checks return them."""
    return {f.name: getattr(message, f.name) for f in fields(message)}


# one feed of 8x the Frames: linear time reads about 8x, quadratic 64x; the
# bound sits between them, on the geometric midpoint, ~3x from either side
LINEAR_FEED_BOUND = 22.0


class TestEncodeLayout:
    def test_end_bytes(self):
        assert encode(End()) == bytes.fromhex("49534D50" "04" "00000000")

    def test_frame_is_54_bytes(self):
        frame = Frame(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 0.0, (0, 0, 0))
        data = encode(frame)
        assert len(data) == 54
        assert data[:9] == bytes.fromhex("49534D50" "02" "2D000000")

    def test_all_sizes(self):
        assert len(encode(Hello(4, 5000, 50))) == 17
        assert len(encode(IntensityOnly(0, 0.0))) == 21
        assert len(encode(End())) == 9

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            Frame(0, (float("nan"), 0, 0), (1, 0, 0, 0), 0.0, (0, 0, 0))
        with pytest.raises(DataError):
            IntensityOnly(0, float("inf"))

    @pytest.mark.parametrize("build, message", [
        (lambda v: IntensityOnly(1, v), "intensity is not a finite float32: {}"),
        (lambda v: Frame(1, (0.0, v, 0.0), (1, 0, 0, 0), 0.0, (0, 0, 0)),
         "position is not a finite float32: {}"),
        (lambda v: Frame(1, (0, 0, 0), (1, 0, 0, v), 0.0, (0, 0, 0)),
         "quaternion is not a finite float32: {}"),
        (lambda v: Frame(1, (0, 0, 0), (1, 0, 0, 0), v, (0, 0, 0)),
         "intensity is not a finite float32: {}"),
    ], ids=["intensity-only", "frame-position", "frame-quaternion", "frame-intensity"])
    @pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38, np.float64(4e38),
                                       pytest.param(10 ** 400, id="int-1e400")])
    def test_beyond_float32_range_is_data_error(self, build, message, value):
        # finite, but struct cannot pack it as float32
        with pytest.raises(DataError) as raised:
            build(value)
        assert isinstance(raised.value, IsmkitError)
        assert str(raised.value) == message.format(value)

    def test_largest_float32_accepted(self):
        top = float(np.finfo(np.float32).max)
        assert IntensityOnly(1, top).intensity == top
        assert Frame(1, (top, -top, 0), (1, 0, 0, 0), top, (0, 0, 0)).position[1] == -top

    def test_field_values_normalized(self):
        frame = Frame(np.uint64(7), np.array([0.1, 0.2, 0.3]), [1, 0, 0, 0],
                      np.float32(0.5), (np.uint8(9), 8, True))
        assert frame == Frame(7, (0.1, 0.2, 0.3), (1.0, 0.0, 0.0, 0.0), 0.5, (9, 8, 1))
        assert frame.position == tuple(float(np.float32(v)) for v in (0.1, 0.2, 0.3))
        assert all(type(v) is float for v in (*frame.position, *frame.quaternion,
                                               frame.intensity))
        assert all(type(v) is int for v in (frame.t_us, *frame.rgb))

    def test_iterable_fields_accepted(self):
        frame = Frame(1, (v for v in (1, 2, 3)), iter([1, 0, 0, 0]), 0.5, range(3))
        assert frame == Frame(1, (1.0, 2.0, 3.0), (1.0, 0.0, 0.0, 0.0), 0.5, (0, 1, 2))

    @settings(max_examples=600, deadline=None)
    @given(t_us=t_us_any, position=vectors(3), quaternion=vectors(4), intensity=floats_any,
           rgb=rgb_any)
    def test_frame_matches_per_field_checks(self, t_us, position, quaternion, intensity, rgb):
        got = _outcome(lambda: _field_dict(Frame(t_us, position, quaternion, intensity, rgb)))
        want = _outcome(lambda: reference_frame_fields(t_us, position, quaternion,
                                                       intensity, rgb))
        # repr tells -0.0 from 0.0 and a numpy scalar from a plain number
        assert repr(got) == repr(want)

    @settings(max_examples=300, deadline=None)
    @given(position=arrays(3), quaternion=arrays(4))
    def test_frame_from_arrays_matches_per_field_checks(self, position, quaternion):
        got = _outcome(lambda: Frame(1, position, quaternion, 0.5, (1, 2, 3)))
        want = _outcome(lambda: reference_frame_fields(1, position, quaternion, 0.5, (1, 2, 3)))
        if isinstance(want, dict):
            assert got == Frame(**want)
            assert all(type(v) is float for v in (*got.position, *got.quaternion))
        else:
            assert got == want  # the same exception type and message

    @settings(max_examples=300, deadline=None)
    @given(t_us=t_us_any, intensity=floats_any)
    def test_intensity_only_matches_per_field_checks(self, t_us, intensity):
        got = _outcome(lambda: _field_dict(IntensityOnly(t_us, intensity)))
        want = _outcome(lambda: reference_intensity_fields(t_us, intensity))
        assert repr(got) == repr(want)

    def test_pad_bytes_zero(self):
        frame = Frame(1, (1.0, 2.0, 3.0), (1.0, 0.0, 0.0, 0.0), 0.5, (9, 8, 7))
        assert encode(frame)[-2:] == b"\x00\x00"

    @pytest.mark.parametrize("message", [
        Frame(1, (1.0, 2.0, 3.0), (1.0, 0.0, 0.0, 0.0), 0.5, (9, 8, 7)),
        IntensityOnly(3, 0.25),
    ], ids=["Frame", "IntensityOnly"])
    def test_records_are_slotted(self, message):
        assert not hasattr(message, "__dict__")
        with pytest.raises(FrozenInstanceError):
            message.t_us = 2
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(message, protocol))
            assert type(copy) is type(message)
            assert repr(_field_dict(copy)) == repr(_field_dict(message))
        assert replace(message) == message and hash(replace(message)) == hash(message)
        assert replace(message, t_us=2) != message
        assert replace(message, t_us=2) == replace(decode(encode(message)).message, t_us=2)
        with pytest.raises(DataError, match="t_us out of range"):
            replace(message, t_us=-1)


class TestDecode:
    @settings(max_examples=300)
    @given(message=messages)
    def test_round_trip_identity(self, message):
        data = encode(message)
        result = decode(data)
        assert result.message == message
        assert result.consumed == len(data)
        assert result.error is None

    def test_truncated_frame_needs_more(self):
        frame = Frame(7, (1.0, 2.0, 3.0), (1.0, 0.0, 0.0, 0.0), 0.5, (1, 2, 3))
        data = encode(frame)[:50]
        result = decode(data)
        assert result.message is None and result.error is None
        assert result.consumed == 0

    def test_garbage_prefix_resync(self):
        data = b"\xff" + encode(End())
        result = decode(data)
        assert result.message == End()
        assert result.consumed == 10
        assert result.skipped == 1

    def test_unknown_type_skips_declared_payload(self):
        bogus = b"ISMP" + bytes([9]) + (4).to_bytes(4, "little") + b"ABCD"
        result = decode(bogus + encode(End()))
        assert result.error is not None and result.error.startswith("unknown-type")
        assert result.consumed == 13
        follow = decode((bogus + encode(End()))[result.consumed:])
        assert follow.message == End()

    def test_length_mismatch_reported(self):
        bad = b"ISMP" + bytes([4]) + (5).to_bytes(4, "little")
        result = decode(bad)
        assert result.error == "length-mismatch"
        assert result.consumed >= 1

    def test_version_mismatch(self):
        hello = encode(Hello(4, 5000, 50))
        tampered = bytearray(hello)
        tampered[9] = 2  # version byte
        result = decode(bytes(tampered))
        assert result.error is not None and result.error.startswith("version-mismatch")
        assert result.consumed == len(hello)

    def test_pure_garbage_consumed(self):
        result = decode(b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a")
        assert result.message is None
        assert result.consumed == 10

    def test_magic_prefix_suffix_kept(self):
        data = b"\xff\xffIS"
        result = decode(data)
        assert result.consumed == 2  # keeps the possible magic start "IS"

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(min_size=0, max_size=200))
    def test_never_crashes_and_progresses(self, data):
        result = decode(data)
        if len(data) >= 9:
            header_ok = data.startswith(b"ISMP") and len(data) >= 9
            if header_ok:
                msg_type = data[4]
                payload_len = int.from_bytes(data[5:9], "little")
                expected = {1: 8, 2: 45, 3: 12, 4: 0}.get(msg_type)
                valid_incomplete = (expected is not None and payload_len == expected
                                    and len(data) < 9 + expected)
                unknown_incomplete = (expected is None and payload_len <= 65535
                                      and len(data) < 9 + payload_len)
                if not valid_incomplete and not unknown_incomplete:
                    assert result.consumed >= 1


class TestDecoderStream:
    def test_byte_by_byte_feed(self):
        payload = b"".join(encode(m) for m in (
            Hello(4, 5000, 50),
            Frame(1, (0.5, 0.5, 0.5), (1.0, 0.0, 0.0, 0.0), 1.0, (1, 2, 3)),
            IntensityOnly(2, 0.25),
            End()))
        decoder = Decoder()
        got = []
        for i in range(len(payload)):
            got.extend(decoder.feed(payload[i:i + 1]))
        assert len(got) == 4
        assert isinstance(got[0], Hello)
        assert isinstance(got[-1], End)

    def test_million_byte_fuzz_never_crashes(self):
        rng = np.random.default_rng(0xF022)
        blob = rng.integers(0, 256, size=1_000_000, dtype=np.uint8).tobytes()
        decoder = Decoder()
        for start in range(0, len(blob), 4096):
            decoder.feed(blob[start:start + 4096])
        # buffer never grows without bound on garbage
        assert decoder.pending() < 4096 + 65536 + 9

    def test_error_tally_stays_bounded(self):
        header = b"ISMP" + bytes([99]) + (0).to_bytes(4, "little")
        decoder = Decoder()
        blob = header * 1000
        for _ in range(100):
            assert decoder.feed(blob) == []
        assert decoder.errors == {"unknown-type:99": 100_000}

    def test_fuzz_with_embedded_messages_recovers(self):
        rng = np.random.default_rng(1)
        valid = [Frame(i, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), float(i), (0, 0, 0))
                 for i in range(20)]
        blob = b""
        for m in valid:
            blob += rng.integers(0, 256, size=rng.integers(0, 40),
                                 dtype=np.uint8).tobytes()
            blob += encode(m)
        decoder = Decoder()
        got = [m for m in decoder.feed(blob) if isinstance(m, Frame)]
        # every fully intact frame whose prefix garbage contains no fake magic
        # must come through; allow a few casualties from unlucky garbage
        assert len(got) >= 15
        t_values = [m.t_us for m in got]
        assert t_values == sorted(t_values)


def _frame_stream(n: int) -> bytes:
    return b"".join(encode(Frame(i, (0.5, -0.25, 1.0), (1.0, 0.0, 0.0, 0.0), i * 1e-3,
                                 (i % 256, 2, 3))) for i in range(n))


class TestDecoderOffsets:
    def test_uneven_chunks_decode_like_one_feed(self):
        rng = np.random.default_rng(5)
        parts = []
        for i in range(400):
            parts.append(rng.integers(0, 256, size=rng.integers(0, 12), dtype=np.uint8).tobytes())
            parts.append(encode(Frame(i, (0.5, 0.0, 0.0), (1, 0, 0, 0), 0.25, (1, 2, 3))
                                if i % 3 else IntensityOnly(i, i * 0.5)))
        blob = b"".join(parts)
        whole = Decoder()
        expected = whole.feed(blob)
        chunked = Decoder()
        got, pos = [], 0
        while pos < len(blob):
            n = int(rng.choice([1, 2, 8, 53, 54, 55, 700]))
            got.extend(chunked.feed(blob[pos:pos + n]))
            pos += n
        assert got == expected
        assert chunked.resync_bytes == whole.resync_bytes
        assert chunked.errors == whole.errors
        assert chunked.pending() == whole.pending()

    def test_error_tally_does_not_depend_on_chunking(self):
        rng = np.random.default_rng(11)
        hello = bytearray(encode(Hello(4, 5000, 50)))
        hello[9] = 9  # unsupported version
        poisoned = encode(IntensityOnly(1, 0.5))[:-4] + struct.pack("<f", float("nan"))
        specials = [bytes(hello), poisoned, b"ISMP" + bytes([77]) + (3).to_bytes(4, "little")
                    + b"abc", b"ISMP" + bytes([2]) + (7).to_bytes(4, "little"), b"ISM", b"IS"]
        parts = []
        for i in range(600):
            garbage = 5000 if i % 50 == 0 else int(rng.integers(0, 30))  # some fill chunks
            parts.append(rng.integers(0, 256, size=garbage, dtype=np.uint8).tobytes())
            parts.append(specials[i // 3 % len(specials)] if i % 3 == 0
                         else encode(Frame(i, (0.5, 0.0, 0.0), (1, 0, 0, 0), 0.25, (1, 2, 3))))
        blob = b"".join(parts)
        whole = Decoder()
        expected = whole.feed(blob)
        assert set(whole.errors) >= {"version-mismatch:9", "unknown-type:77",
                                     "length-mismatch",
                                     "bad-field:intensity is not a finite float32: nan"}
        for size in (1, 7, 64, 4096):
            chunked = Decoder()
            got = []
            for start in range(0, len(blob), size):
                got.extend(chunked.feed(blob[start:start + size]))
            assert got == expected, size
            assert chunked.errors == whole.errors, size
            assert chunked.resync_bytes == whole.resync_bytes, size

    def test_decoded_fields_have_plain_types(self):
        (frame, ints) = Decoder().feed(encode(Frame(3, (1.5, 2, 3), (1, 0, 0, 0), 0.5, (4, 5, 6)))
                                       + encode(IntensityOnly(4, 0.75)))
        assert frame == Frame(3, (1.5, 2.0, 3.0), (1.0, 0.0, 0.0, 0.0), 0.5, (4, 5, 6))
        assert ints == IntensityOnly(4, 0.75)
        assert all(type(v) is float for v in (*frame.position, *frame.quaternion,
                                               frame.intensity, ints.intensity))
        assert all(type(v) is int for v in (frame.t_us, *frame.rgb, ints.t_us))

    @pytest.mark.parametrize("field, offset", [("position", 1), ("quaternion", 6),
                                               ("intensity", 8)])
    def test_nonfinite_decoded_field_is_named(self, field, offset):
        data = bytearray(encode(Frame(1, (0, 0, 0), (1, 0, 0, 0), 0.0, (0, 0, 0))))
        data[9 + 8 + 4 * (offset - 1):9 + 8 + 4 * offset] = struct.pack("<f", float("inf"))
        decoder = Decoder()
        assert decoder.feed(bytes(data) + encode(End())) == [End()]
        assert decoder.errors == {f"bad-field:{field} is not a finite float32: inf": 1}

    def test_nonfinite_intensity_only_is_named(self):
        data = encode(IntensityOnly(2, 1.0))[:-4] + struct.pack("<f", float("nan"))
        result = decode(data)
        assert result.message is None and result.consumed == len(data)
        assert result.error == "bad-field:intensity is not a finite float32: nan"

    def test_one_feed_takes_linear_time(self):
        """One feed of 80,000 Frames costs about 8x one of 10,000, not 64x."""
        small, large = _frame_stream(10_000), _frame_stream(80_000)

        def feed_s(blob):
            gc.collect()
            # the collector's passes grow with the whole heap, not the decoder
            gc.disable()
            try:
                start = time.perf_counter()
                n = len(Decoder().feed(blob))
                return time.perf_counter() - start, n
            finally:
                gc.enable()

        t_small, t_large = [], []
        for _ in range(3):
            t, n = feed_s(small)
            t_small.append(t)
            assert n == 10_000
            t, n = feed_s(large)
            t_large.append(t)
            assert n == 80_000
        assert min(t_large) < LINEAR_FEED_BOUND * min(t_small)


class TestEndpoint:
    def test_parse(self):
        assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)

    def test_bad_endpoint(self):
        with pytest.raises(DataError):
            parse_endpoint("no-port")


def _collect_receiver(listener, sink, errors):
    try:
        listener.receive(sink.append, accept_timeout=30.0)
    except Exception as exc:  # surfaced by the test thread's owner
        errors.append(exc)


class TestLoopback:
    def test_thousand_frames_lossless_in_order(self):
        listener = Listener("127.0.0.1:0")
        received, errors = [], []
        thread = threading.Thread(target=_collect_receiver,
                                  args=(listener, received, errors))
        thread.start()
        sender = FrameSender(listener.endpoint, queue_capacity=64, policy="block")
        sender.send(Hello(4, 5000, 50))
        for i in range(1000):
            sender.send(Frame(i, (0.0, 0.0, float(i)), (1.0, 0.0, 0.0, 0.0),
                              float(i), (0, 0, 0)))
        report = sender.close()
        thread.join(30.0)
        assert not errors
        assert report.error is None
        assert report.drops == 0
        frames = [m for m in received if isinstance(m, Frame)]
        assert len(frames) == 1000
        assert [f.t_us for f in frames] == list(range(1000))
        assert isinstance(received[0], Hello)
        assert isinstance(received[-1], End)

    def test_drop_oldest_preserves_newest(self):
        # stalled receiver: the sender is built unconnected, so nothing drains
        sender = FrameSender(queue_capacity=10)
        sender.send(Hello(4, 5000, 50))
        for i in range(100):
            sender.send(Frame(i, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0),
                              float(i), (0, 0, 0)))
        assert sender.drops == 90
        queued = [m for m in sender._queue if isinstance(m, Frame)]
        assert [f.t_us for f in queued] == list(range(90, 100))
        # the control message survived at the front
        assert isinstance(sender._queue[0], Hello)

        # when the receiver recovers, the newest frames arrive in order
        listener = Listener("127.0.0.1:0")
        received, errors = [], []
        thread = threading.Thread(target=_collect_receiver,
                                  args=(listener, received, errors))
        thread.start()
        sender.connect(listener.endpoint)
        report = sender.close()
        thread.join(30.0)
        assert not errors
        assert report.drops == 90
        frames = [m for m in received if isinstance(m, Frame)]
        assert [f.t_us for f in frames] == list(range(90, 100))

    def test_frame_before_hello_is_protocol_violation(self):
        listener = Listener("127.0.0.1:0")
        errors = []
        received = []
        thread = threading.Thread(target=_collect_receiver,
                                  args=(listener, received, errors))
        thread.start()
        sender = FrameSender(listener.endpoint)
        sender.send(Frame(0, (0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), 0.0, (0, 0, 0)))
        sender.close()
        thread.join(30.0)
        assert len(errors) == 1
        assert isinstance(errors[0], ProtocolError)

    def test_connect_refused_raises_protocol_error(self):
        with pytest.raises(ProtocolError):
            FrameSender("127.0.0.1:1")  # nothing listens on port 1

    def test_foreign_garbage_then_valid_stream_resyncs(self):
        import socket as socket_mod
        listener = Listener("127.0.0.1:0")
        received, stats_box, errors = [], [], []

        def run():
            try:
                stats_box.append(listener.receive(received.append))
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=run)
        thread.start()
        host, port = listener.endpoint.rsplit(":", 1)
        with socket_mod.create_connection((host, int(port))) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\nHost: wrong\r\n\r\n")  # foreign protocol
            sock.sendall(encode(Hello(4, 5000, 50)))
            sock.sendall(encode(End()))
        thread.join(30.0)
        assert not errors
        assert [type(m).__name__ for m in received] == ["Hello", "End"]
        assert stats_box[0].resync_bytes > 0

    def test_accept_timeout_closes_listening_socket(self):
        listener = Listener("127.0.0.1:0")
        with pytest.raises(ProtocolError, match="no sender connected"):
            listener.receive(lambda message: None, accept_timeout=0.1)
        assert listener._server.fileno() == -1


def _frame_of(t_us: int) -> Frame:
    return Frame(t_us, (0.0, 0.0, t_us * 1e-6), (1.0, 0.0, 0.0, 0.0), 0.5, (1, 2, 3))


class TestSenderQueue:
    def test_producers_share_blocking_queue_losslessly(self):
        """Four producers fill an 8-slot blocking queue while the writer drains it."""
        n_producers, per_producer = 4, 2000
        listener = Listener("127.0.0.1:0")
        received, errors = [], []
        receiver = threading.Thread(target=_collect_receiver,
                                    args=(listener, received, errors), daemon=True)
        receiver.start()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sender = FrameSender(listener.endpoint, queue_capacity=8, policy="block")
            sender.send(Hello(4, 5000, 50))

            def produce(p):
                for i in range(per_producer):
                    sender.send(_frame_of(p * 10 ** 6 + i))

            producers = [threading.Thread(target=produce, args=(p,), daemon=True)
                         for p in range(n_producers)]
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(60.0)
                assert not thread.is_alive()
            report = sender.close()
        finally:
            sys.setswitchinterval(interval)
        receiver.join(30.0)
        assert not receiver.is_alive()
        assert not errors
        assert report == SenderReport(sent=n_producers * per_producer + 2, drops=0)
        assert isinstance(received[0], Hello) and isinstance(received[-1], End)
        t_us = [m.t_us for m in received[1:-1]]
        assert sorted(t_us) == [p * 10 ** 6 + i for p in range(n_producers)
                                for i in range(per_producer)]
        for p in range(n_producers):
            mine = [t for t in t_us if t // 10 ** 6 == p]
            assert mine == sorted(mine), p

    def test_one_wake_up_per_batch(self):
        """A send wakes the writer thread only when it may wait: on an empty queue."""
        sender = FrameSender(queue_capacity=300)
        wakes = []
        notify_all = sender._wake.notify_all

        def counting_notify_all():
            wakes.append(len(sender._queue))
            notify_all()

        sender._wake.notify_all = counting_notify_all
        for i in range(100):
            sender.send(_frame_of(i))
        assert wakes == [0]
        sender.close()

    def test_queued_messages_go_in_one_sendall(self, monkeypatch):
        queued = [Hello(4, 5000, 50)] + [_frame_of(i) for i in range(300)]
        sender = FrameSender(queue_capacity=300)
        for message in queued:
            sender.send(message)
        writes = []
        sendall = socket.socket.sendall

        def counting_sendall(sock, data, *args):
            writes.append(bytes(data))
            return sendall(sock, data, *args)

        monkeypatch.setattr(socket.socket, "sendall", counting_sendall)
        listener = Listener("127.0.0.1:0")
        received, errors = [], []
        receiver = threading.Thread(target=_collect_receiver,
                                    args=(listener, received, errors), daemon=True)
        receiver.start()
        sender.connect(listener.endpoint)
        deadline = time.monotonic() + 30.0
        while sender.sent < len(queued) and time.monotonic() < deadline:
            time.sleep(0.001)
        before_close = list(writes)
        report = sender.close()
        receiver.join(30.0)
        assert not receiver.is_alive()
        assert not errors
        assert before_close == [b"".join(map(encode, queued))]
        assert report == SenderReport(sent=302, drops=0)
        assert received == queued + [End()]
