import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ismkit.errors import DataError, ProtocolError
from ismkit.wire import (Decoder, End, Frame, FrameSender, Hello, IntensityOnly,
                         Listener, decode, encode, parse_endpoint)

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

    def test_pad_bytes_zero(self):
        frame = Frame(1, (1.0, 2.0, 3.0), (1.0, 0.0, 0.0, 0.0), 0.5, (9, 8, 7))
        assert encode(frame)[-2:] == b"\x00\x00"


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
        assert result.needs_more
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
