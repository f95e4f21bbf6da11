import gc
import math
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ismkit import ism
from ismkit.errors import DataError, FileFormatError
from ismkit.session import (_CHUNK_HEADER, TAG_INTENSITY, TAG_META, TAG_POSE, TAG_VIBRATION,
                            ReplayClock, Session, SessionWriter, record, replay,
                            replay_events)
from ismkit.trajectory import PoseSample, load_pose_csv, save_pose_csv

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
# the record layouts of the format: u64 t_us + 3 + 4 f32, and u64 t_us + f32
_POSE_RECORD = struct.Struct("<Q7f")
_INTS_RECORD = struct.Struct("<Qf")


def _f32(values):
    return np.asarray(values, dtype=np.float32).astype(np.float64)


def _sample_session(path, n_poses=5, n_ints=5):
    rng = np.random.default_rng(0)
    vib = rng.standard_normal((100, 4)).astype(np.float32)
    poses = [PoseSample(i * 1000, _f32(rng.standard_normal(3)), IDENTITY_Q)
             for i in range(n_poses)]
    ints = [(i * 1000 + 500, float(np.float32(rng.uniform(0, 2))))
            for i in range(n_ints)]
    record(path, vibration=vib, poses=poses, intensities=ints,
           meta={"operator": "test"}, sample_rate_hz=5000.0, channels=4)
    return vib, poses, ints


class TestRoundTrip:
    def test_all_chunk_types_bit_exact(self, tmp_path):
        path = tmp_path / "s.isms"
        vib, poses, ints = _sample_session(path)
        session = Session.open(path)
        assert np.array_equal(session.vibration, vib)
        assert len(session.poses) == len(poses)
        for a, b in zip(poses, session.poses):
            assert a.t_us == b.t_us
            assert np.array_equal(np.float32(a.position), np.float32(b.position))
        assert session.intensities.shape == (len(ints), 2)
        for (t, v), row in zip(ints, session.intensities):
            assert row[0] == t
            assert np.float32(row[1]) == np.float32(v)
        assert session.meta == {"operator": "test"}

    def test_file_level_rewrite_identical(self, tmp_path):
        path_a = tmp_path / "a.isms"
        path_b = tmp_path / "b.isms"
        _sample_session(path_a)
        Session.open(path_a).save(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_vibration_only_session(self, tmp_path):
        path = tmp_path / "vib.isms"
        record(path, vibration=np.zeros((50, 1), dtype=np.float32),
               sample_rate_hz=5000.0)
        session = Session.open(path)
        assert session.vibration.shape == (50, 1)
        assert session.poses == []
        assert session.intensities.shape[0] == 0

    def test_header_fields(self, tmp_path):
        path = tmp_path / "h.isms"
        record(path, vibration=np.zeros((10, 4), dtype=np.float32),
               sample_rate_hz=48000.0, channels=4, segment_ms=2.5, model_id="m1")
        session = Session.open(path)
        assert session.sample_rate_hz == 48000.0
        assert session.channels == 4
        assert session.segment_ms == 2.5
        assert session.model_id == "m1"


class TestValidation:
    def test_pose_regression_rejected(self, tmp_path):
        writer = SessionWriter(tmp_path / "r.isms", channels=1)
        writer.append_pose(PoseSample(10, np.zeros(3), IDENTITY_Q))
        with pytest.raises(DataError):
            writer.append_pose(PoseSample(5, np.zeros(3), IDENTITY_Q))
        writer.close()

    def test_intensity_regression_rejected(self, tmp_path):
        writer = SessionWriter(tmp_path / "r2.isms", channels=1)
        writer.append_intensity(10, 1.0)
        with pytest.raises(DataError):
            writer.append_intensity(9, 1.0)
        writer.close()

    def test_channel_mismatch_rejected(self, tmp_path):
        writer = SessionWriter(tmp_path / "c.isms", channels=4)
        with pytest.raises(DataError):
            writer.append_vibration(np.zeros((10, 2), dtype=np.float32))
        writer.close()

    @pytest.mark.parametrize("t_us", [-5, -1, 2 ** 64, 2 ** 70])
    def test_timestamp_outside_u64_rejected_at_append(self, tmp_path, t_us):
        path = tmp_path / "t.isms"
        writer = SessionWriter(path, channels=1)
        writer.append_pose(PoseSample(0, np.zeros(3), IDENTITY_Q))
        writer.append_intensity(0, 1.0)
        with pytest.raises(DataError, match="u64"):
            writer.append_pose(PoseSample(t_us, np.zeros(3), IDENTITY_Q))
        with pytest.raises(DataError, match="u64"):
            writer.append_intensity(t_us, 1.0)
        writer.close()
        session = Session.open(path)
        assert [p.t_us for p in session.poses] == [0]
        assert session.intensities.tolist() == [[0.0, 1.0]]

    def test_largest_u64_timestamp_stored(self, tmp_path):
        path = tmp_path / "max.isms"
        record(path, poses=[PoseSample(2 ** 64 - 1, np.zeros(3), IDENTITY_Q)],
               intensities=[(2 ** 53, 0.5)], channels=1)
        session = Session.open(path)
        assert session.poses[0].t_us == 2 ** 64 - 1
        assert session.intensities[0, 0] == 2 ** 53
        session.save(tmp_path / "again.isms")
        assert (tmp_path / "again.isms").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("t_us", [2 ** 53 + 1, 2 ** 64 - 1])
    def test_intensity_timestamp_above_2_53_rejected(self, tmp_path, t_us):
        """float64 holds every intensity timestamp up to 2**53 exactly, and no more."""
        path = tmp_path / "big.isms"
        with pytest.raises(DataError, match="2\\*\\*53"):
            record(path, intensities=[(0, 1.0), (t_us, 1.0)], channels=1)
        assert Session.open(path).intensities.tolist() == [[0.0, 1.0]]
        # a file written by another recorder is refused when opened
        with open(path, "ab") as fh:
            fh.write(_CHUNK_HEADER.pack(TAG_INTENSITY, _INTS_RECORD.size)
                     + _INTS_RECORD.pack(t_us, 1.0))
        with pytest.raises(FileFormatError, match="2\\*\\*53"):
            Session.open(path)


    def test_records_have_the_documented_layout(self, tmp_path):
        path = tmp_path / "layout.isms"
        _, poses, ints = _sample_session(path, n_poses=3, n_ints=4)
        chunks = _chunks(path.read_bytes())
        assert chunks[TAG_POSE] == b"".join(
            _POSE_RECORD.pack(p.t_us, *p.position, *p.orientation) for p in poses)
        assert chunks[TAG_INTENSITY] == b"".join(_INTS_RECORD.pack(t, v) for t, v in ints)

    @pytest.mark.parametrize("position, intensity, message, kept", [
        ((0.0, 1e39, 0.0), 0.5, "pose position is not a finite float32: 1e+39", (5, 0)),
        ((0.0, 0.0, -3.5e38), 0.5, "pose position is not a finite float32: -3.5e+38", (5, 0)),
        ((0.0, 0.0, 0.0), 1e300, "intensity is not a finite float32: 1e+300", (6, 1)),
    ])
    def test_beyond_float32_is_refused_at_append(self, tmp_path, position, intensity,
                                                 message, kept):
        """The bad record is refused, and the file holds every record before it."""
        path = tmp_path / "big.isms"
        poses = [PoseSample(t_us, np.zeros(3), IDENTITY_Q) for t_us in range(5)]
        with pytest.raises(DataError) as raised:
            record(path, poses=poses + [PoseSample(5, np.array(position), IDENTITY_Q)],
                   intensities=[(0, 0.5), (1, intensity)], channels=1)
        assert type(raised.value) is DataError
        assert str(raised.value) == message
        session = Session.open(path)
        assert (len(session.poses), len(session.intensities)) == kept

    def test_float32_rounding_edge_ulp_by_ulp(self, tmp_path):
        """A value is refused exactly when numpy's float32 conversion overflows."""
        edge = 2.0 ** 128 - 2.0 ** 103  # halfway between float32's largest value and 2**128
        values = np.array([sign * (edge + k * 2.0 ** 75)  # 2**75 is one float64 ULP here
                           for k in range(-64, 65) for sign in (1.0, -1.0)])
        with np.errstate(over="ignore"):
            fits = np.isfinite(values.astype(np.float32))
        assert fits.sum() == 128
        path = tmp_path / "edge.isms"
        with SessionWriter(path, channels=1) as writer:
            for t_us, (value, fit) in enumerate(zip(values.tolist(), fits)):
                pose = PoseSample(t_us, (0.0, value, 0.0), IDENTITY_Q)
                if fit:
                    writer.append_pose(pose)
                    writer.append_intensity(t_us, value)
                    continue
                with pytest.raises(DataError) as pose_refused:
                    writer.append_pose(pose)
                with pytest.raises(DataError) as intensity_refused:
                    writer.append_intensity(t_us, value)
                assert str(pose_refused.value) == f"pose position is not a finite float32: {value}"
                assert str(intensity_refused.value) == f"intensity is not a finite float32: {value}"
        stored = values[fits].astype(np.float32).astype(np.float64).tolist()
        session = Session.open(path)
        assert [pose.position[1] for pose in session.poses] == stored
        assert session.intensities[:, 1].tolist() == stored

    def test_largest_float32_stored(self, tmp_path):
        big = float(np.finfo(np.float32).max)
        path = tmp_path / "f32max.isms"
        record(path, poses=[PoseSample(0, np.array([big, -big, 0.0]), IDENTITY_Q)],
               intensities=[(0, big)], channels=1)
        session = Session.open(path)
        assert session.poses[0].position.tolist() == [big, -big, 0.0]
        assert session.intensities.tolist() == [[0.0, big]]

    @pytest.mark.parametrize("t_us, intensity", [
        (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), ("soon", 0.5), (None, 0.5),
        (1.5j, 0.5), (0, "loud"), (0, None), (0, 10 ** 400), (0, math.nan), (0, -math.inf),
    ], ids=["t-nan", "t-inf", "t-minus-inf", "t-str", "t-none", "t-complex", "value-str",
            "value-none", "value-huge-int", "value-nan", "value-minus-inf"])
    def test_bad_intensity_is_data_error(self, tmp_path, t_us, intensity):
        with SessionWriter(tmp_path / "bad.isms", channels=1) as writer:
            with pytest.raises(DataError) as raised:
                writer.append_intensity(t_us, intensity)
        assert type(raised.value) is DataError

    def test_accepted_intensity_inputs_unchanged(self, tmp_path):
        path = tmp_path / "ok.isms"
        with SessionWriter(path, channels=1) as writer:
            for t_us, value in [(0, 0), ("5", np.float32(0.25)), (7.9, True),
                                (np.uint64(9), np.float64(1.5)), (np.int64(11), 2)]:
                writer.append_intensity(t_us, value)
        assert Session.open(path).intensities.tolist() == [
            [0.0, 0.0], [5.0, 0.25], [7.0, 1.0], [9.0, 1.5], [11.0, 2.0]]

    def test_columns_pack_as_records(self, tmp_path):
        """Buffered columns write the bytes that packing each record would."""
        rng = np.random.default_rng(8)
        poses = []
        for i in range(300):
            q = rng.standard_normal(4)
            poses.append(PoseSample(i * 8333, rng.uniform(-2, 2, 3), q / np.linalg.norm(q)))
        # a strided position array is buffered as its values
        poses.append(PoseSample(300 * 8333, np.arange(6.0)[::2], IDENTITY_Q))
        ints = [(i * 5000 + 2500, float(v)) for i, v in enumerate(rng.uniform(0, 3, 500))]
        path = tmp_path / "columns.isms"
        with SessionWriter(path, channels=1) as writer:
            for k, pose in enumerate(poses):
                writer.append_pose(pose)
                if k == 100:
                    writer.flush()
            for t_us, value in ints:
                writer.append_intensity(t_us, value)
        records = [c for c in _chunk_list(path.read_bytes()) if c[0] == TAG_POSE]
        assert b"".join(payload for _, payload in records) == b"".join(
            _POSE_RECORD.pack(p.t_us, *p.position, *p.orientation) for p in poses)
        assert len(records) == 2
        assert _chunks(path.read_bytes())[TAG_INTENSITY] == b"".join(
            _INTS_RECORD.pack(t, v) for t, v in ints)


def _no_file_left_open(run):
    """Call run() and fail if it leaves a file for the collector to close."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        run()
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestClosedOnError:
    """A one-shot write that fails on a bad record still closes its file."""

    def test_record(self, tmp_path):
        path = tmp_path / "regress.isms"

        def run():
            with pytest.raises(DataError, match="regression"):
                record(path, poses=[PoseSample(5, np.zeros(3), IDENTITY_Q),
                                    PoseSample(3, np.zeros(3), IDENTITY_Q)], channels=1)

        _no_file_left_open(run)
        # what came before the bad record is a readable session
        assert [p.t_us for p in Session.open(path).poses] == [5]

    def test_save(self, tmp_path):
        path = tmp_path / "src.isms"
        _sample_session(path)
        session = Session.open(path)
        session.intensities[2, 1] = math.nan

        def run():
            with pytest.raises(DataError, match="finite"):
                session.save(tmp_path / "copy.isms")

        _no_file_left_open(run)


def _chunk_list(data: bytes) -> list:
    """(tag, payload) of each chunk in a session file's bytes, in file order."""
    off = 4 + struct.calcsize("<HdBdH") + struct.unpack_from("<H", data, 4 + 2 + 8 + 1 + 8)[0]
    out = []
    while off < len(data):
        tag, length = _CHUNK_HEADER.unpack_from(data, off)
        off += _CHUNK_HEADER.size
        out.append((tag, data[off:off + length]))
        off += length
    return out


def _pack_session(rate, channels, segment_ms, model_id, chunks) -> bytes:
    """A session file's bytes from its header fields and (tag, payload) chunks.

    The inverse of `_chunk_list`, frozen from the documented layout.
    """
    ident = model_id.encode("utf-8")
    return (struct.pack("<4sHdBdH", b"ISMS", 1, rate, channels, segment_ms, len(ident))
            + ident + b"".join(struct.pack("<4sI", tag, len(payload)) + payload
                               for tag, payload in chunks))


def _chunks(data: bytes) -> dict:
    """Payload of each chunk tag in a session file's bytes (the last of a tag wins)."""
    return dict(_chunk_list(data))


def _append_pose_chunk(path, records):
    payload = b"".join(_POSE_RECORD.pack(t, *p, *q) for t, p, q in records)
    with open(path, "ab") as fh:
        fh.write(_CHUNK_HEADER.pack(TAG_POSE, len(payload)) + payload)


# how a caller may hand over frames it holds as float32 `base`
_VIB_INPUTS = {
    "mono": lambda base: base[:, 0] if base.shape[1] == 1 else base,
    "float32": lambda base: base,
    "float64": lambda base: base.astype(np.float64),
    "strided": lambda base: np.repeat(base, 2, axis=0)[::2],
    "fortran": np.asfortranarray,
    "big-endian": lambda base: base.astype(">f4"),
}
_UNIT_QUATERNIONS = [IDENTITY_Q, np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.6, 0.0, 0.8, 0.0])]
_SCHEDULES = st.lists(st.one_of(
    st.tuples(st.just("vibration"), st.sampled_from(sorted(_VIB_INPUTS)), st.integers(0, 40)),
    st.tuples(st.just("poses"), st.integers(1, 3)),
    st.tuples(st.just("intensities"), st.integers(1, 3)),
    st.just(("flush",))), max_size=20)


class TestVibrationChunks:
    """Each vibration append is one VIBR chunk, written at once from the caller's frames."""

    def test_reused_buffer_reads_back_as_appended(self, tmp_path):
        path = tmp_path / "reuse.isms"
        buf = np.ones((100, 4), dtype=np.float32)
        with SessionWriter(path, channels=4) as writer:
            writer.append_vibration(buf)
            buf[:] = 7.0
            writer.append_vibration(buf)
        vibration = Session.open(path).vibration
        assert vibration.shape == (200, 4)
        assert (vibration[:100] == 1.0).all() and (vibration[100:] == 7.0).all()

    def test_record_and_save_write_the_frozen_layout(self, tmp_path):
        path = tmp_path / "frozen.isms"
        vib, poses, ints = _sample_session(path)
        chunks = [
            (TAG_VIBRATION, vib.astype("<f4").tobytes()),
            (TAG_POSE, b"".join(_POSE_RECORD.pack(p.t_us, *p.position, *p.orientation)
                                for p in poses)),
            (TAG_INTENSITY, b"".join(_INTS_RECORD.pack(t, v) for t, v in ints)),
            (TAG_META, b"operator=test\n")]
        data = path.read_bytes()
        assert _chunk_list(data) == chunks
        assert data == _pack_session(5000.0, 4, 5.0, "", chunks)
        Session.open(path).save(tmp_path / "saved.isms")
        assert (tmp_path / "saved.isms").read_bytes() == data

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(channels=st.sampled_from([1, 3]), schedule=_SCHEDULES, seed=st.integers(0, 2**32 - 1))
    def test_open_returns_what_was_appended(self, tmp_path, channels, schedule, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "schedule.isms"
        chunks, vibration, poses, ints = [], [], [], []
        pending_poses, pending_ints = [], []
        t_pose = t_ints = 0

        def flushed():
            if pending_poses:
                chunks.append((TAG_POSE, b"".join(pending_poses)))
            if pending_ints:
                chunks.append((TAG_INTENSITY, b"".join(pending_ints)))
            pending_poses.clear()
            pending_ints.clear()

        with SessionWriter(path, 5000.0, channels, 5.0, "prop") as writer:
            for op in schedule:
                if op[0] == "vibration":
                    base = rng.standard_normal((op[2], channels)).astype(np.float32)
                    vibration.append(base.copy())
                    if op[2]:
                        chunks.append((TAG_VIBRATION, base.astype("<f4").tobytes()))
                    frames = _VIB_INPUTS[op[1]](base)
                    writer.append_vibration(frames)
                    frames[...] = 7.0  # the writer holds no reference to the caller's frames
                elif op[0] == "poses":
                    for _ in range(op[1]):
                        t_pose += int(rng.integers(0, 1000))
                        q = _UNIT_QUATERNIONS[rng.integers(len(_UNIT_QUATERNIONS))]
                        pose = PoseSample(t_pose, rng.uniform(-2, 2, 3), q)
                        writer.append_pose(pose)
                        poses.append(pose)
                        pending_poses.append(
                            _POSE_RECORD.pack(pose.t_us, *pose.position, *pose.orientation))
                elif op[0] == "intensities":
                    for _ in range(op[1]):
                        t_ints += int(rng.integers(0, 1000))
                        value = float(rng.uniform(0, 3))
                        writer.append_intensity(t_ints, value)
                        ints.append((t_ints, value))
                        pending_ints.append(_INTS_RECORD.pack(t_ints, value))
                else:
                    writer.flush()
                    flushed()
        flushed()
        assert path.read_bytes() == _pack_session(5000.0, channels, 5.0, "prop", chunks)
        session = Session.open(path)
        want = np.concatenate([np.zeros((0, channels), np.float32), *vibration])
        assert session.vibration.dtype == np.float32
        assert session.vibration.shape == want.shape
        assert session.vibration.tobytes() == want.tobytes()
        assert [p.t_us for p in session.poses] == [p.t_us for p in poses]
        for got, appended in zip(session.poses, poses):
            assert np.array_equal(got.position, _f32(appended.position))
            assert np.array_equal(got.orientation, _f32(appended.orientation))
        assert session.intensities.tolist() == [[float(t), float(np.float32(v))] for t, v in ints]


class TestPoseChunks:
    """POSE records are checked in bulk with the pose rule's types and messages."""

    @pytest.mark.parametrize("records, message", [
        ([(0, (0, 0, 0), (1, 0, 0, 0)), (10, (0, math.nan, 0), (1, 0, 0, 0))],
         "pose contains non-finite values"),
        ([(0, (0, 0, 0), (1, 0, math.inf, 0))], "pose contains non-finite values"),
        # the first bad record is reported, not the later non-finite one
        ([(0, (0, 0, 0), (1, 0, 0, 0)), (5, (0, 0, 0), (1, 0.1, 0, 0)),
          (9, (math.nan, 0, 0), (1, 0, 0, 0))],
         "quaternion norm 1.004987562260361 deviates from 1 beyond 1e-06"),
        ([(0, (0, 0, 0), (1.000002, 0, 0, 0))],
         "quaternion norm 1.0000020265579224 deviates from 1 beyond 1e-06"),
        ([(0, (1, 2, 3), (0, 0, 0, 0))],
         "quaternion norm 0.0 deviates from 1 beyond 1e-06"),
    ])
    def test_bad_record_fails_open(self, tmp_path, records, message):
        path = tmp_path / "bad_pose.isms"
        _sample_session(path)
        _append_pose_chunk(path, records)
        with pytest.raises(DataError) as raised:
            Session.open(path)
        assert type(raised.value) is DataError
        assert str(raised.value) == message

    def test_poses_equal_per_record_construction(self, tmp_path):
        rng = np.random.default_rng(3)
        records = []
        for i in range(500):
            q = rng.standard_normal(4)
            records.append((i * 8333, tuple(rng.uniform(-2, 2, 3)), tuple(q / np.linalg.norm(q))))
        path = tmp_path / "many.isms"
        record(path, channels=1)
        _append_pose_chunk(path, records[:200])
        _append_pose_chunk(path, [])
        _append_pose_chunk(path, records[200:])
        opened = Session.open(path).poses
        assert len(opened) == 500
        for pose, rec in zip(opened, _POSE_RECORD.iter_unpack(
                b"".join(_POSE_RECORD.pack(t, *p, *q) for t, p, q in records))):
            want = PoseSample(rec[0], np.array(rec[1:4]), np.array(rec[4:8]))
            assert type(pose.t_us) is int and pose.t_us == want.t_us
            assert pose.position.dtype == pose.orientation.dtype == np.float64
            assert pose.position.tobytes() == want.position.tobytes()
            assert pose.orientation.tobytes() == want.orientation.tobytes()


class TestUnknownChunks:
    def test_skipped_and_preserved(self, tmp_path):
        path = tmp_path / "x.isms"
        _sample_session(path)
        with open(path, "ab") as fh:
            fh.write(b"XTRA" + struct.pack("<I", 4) + b"beef")
        session = Session.open(path)
        assert session.extra_chunks == [(b"XTRA", b"beef")]
        path2 = tmp_path / "x2.isms"
        session.save(path2)
        assert Session.open(path2).extra_chunks == [(b"XTRA", b"beef")]

    def test_corrupt_chunk_length_reported(self, tmp_path):
        path = tmp_path / "bad.isms"
        _sample_session(path)
        with open(path, "ab") as fh:
            fh.write(b"VIBR" + struct.pack("<I", 999999) + b"short")
        with pytest.raises(FileFormatError, match="VIBR"):
            Session.open(path)

    @pytest.mark.parametrize("tag", [TAG_VIBRATION, TAG_POSE, TAG_INTENSITY, TAG_META, b"XTRA"])
    def test_declared_length_beyond_the_file_allocates_nothing(self, tmp_path, tag):
        path = tmp_path / "huge.isms"
        _sample_session(path)
        with open(path, "ab") as fh:
            fh.write(tag + struct.pack("<I", 4_294_967_280) + b"short")
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError) as raised:
                Session.open(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(raised.value) == (
            f"{path}: chunk {tag.decode()} of length 4294967280 overruns the file")
        assert peak < 1 << 20

    def test_not_a_session_rejected(self, tmp_path):
        path = tmp_path / "no.isms"
        path.write_bytes(b"RIFFxxxxWAVE")
        with pytest.raises(FileFormatError):
            Session.open(path)


class TestReplay:
    def _timed_session(self, path, duration_s=2.0, n=50):
        poses = [PoseSample(int(i * duration_s / n * 1e6),
                            np.array([i * 0.001, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(n)]
        ints = [(int((i * duration_s / n + 0.001) * 1e6), float(i)) for i in range(n)]
        record(path, poses=poses, intensities=ints, channels=1)

    def test_speed_two_halves_wall_clock(self, tmp_path):
        path = tmp_path / "paced.isms"
        self._timed_session(path, duration_s=2.0)
        session = Session.open(path)
        t0 = time.monotonic()
        replay(session, ReplayClock(speed=2.0))
        elapsed = time.monotonic() - t0
        assert 0.9 <= elapsed <= 1.1

    def test_fast_mode_preserves_order(self, tmp_path):
        path = tmp_path / "order.isms"
        self._timed_session(path)
        session = Session.open(path)

        def run(clock):
            events = []
            replay(session, clock,
                   on_pose=lambda p: events.append(("pose", p.t_us)),
                   on_intensity=lambda t, v: events.append(("ints", t)))
            return events

        fast = run(ReplayClock(speed=math.inf))
        paced = run(ReplayClock(speed=100.0))
        assert fast == paced
        times = [t for _, t in fast]
        assert times == sorted(times)

    def test_tie_break_pose_before_intensity(self, tmp_path):
        path = tmp_path / "tie.isms"
        poses = [PoseSample(1000, np.zeros(3), IDENTITY_Q)]
        record(path, poses=poses, intensities=[(1000, 7.0)], channels=1)
        events = []
        replay(Session.open(path), ReplayClock(speed=math.inf),
               on_pose=lambda p: events.append("pose"),
               on_intensity=lambda t, v: events.append("ints"))
        assert events == ["pose", "ints"]

    def test_bad_speed_rejected(self):
        with pytest.raises(DataError):
            ReplayClock(speed=0.0)

    def test_callbacks_follow_the_event_merge(self, tmp_path):
        path = tmp_path / "cb.isms"
        _sample_session(path, n_poses=6, n_ints=9)
        session = Session.open(path)
        calls = []
        replay(session, ReplayClock(speed=math.inf),
               on_pose=lambda p: calls.append((p.t_us, p, None)),
               on_intensity=lambda t, v: calls.append((t, None, v)))
        assert calls == list(replay_events(session, ReplayClock(speed=math.inf)))
        assert (sum(p is not None for _, p, _ in calls),
                sum(p is None for _, p, _ in calls)) == (6, 9)


def _brute_force_events(session):
    """The merge spelled out: sort by (time, pose first, stream order)."""
    events = ([(p.t_us, 0, k, p) for k, p in enumerate(session.poses)]
              + [(int(t), 1, k, float(v)) for k, (t, v) in enumerate(session.intensities)])
    events.sort(key=lambda e: e[:3])
    return [(t, payload, None) if kind == 0 else (t, None, payload)
            for t, kind, _, payload in events]


def _hand_written_session(path, rng, n_poses, n_ints, n_chunks):
    """A session whose POSE and INTS records sit in shuffled, interleaved chunks."""
    record(path, channels=1)
    poses = [_POSE_RECORD.pack(int(t), *_f32(rng.standard_normal(3)), 1.0, 0.0, 0.0, 0.0)
             for t in rng.integers(20, 60, n_poses) * 1000]
    # intensity times start earlier, so some precede every pose
    ints = [_INTS_RECORD.pack(int(t), float(np.float32(rng.uniform(0, 3))))
            for t in rng.integers(0, 60, n_ints) * 1000]
    chunks = [(tag, b"".join(records[i] for i in part))
              for tag, records in ((TAG_POSE, poses), (TAG_INTENSITY, ints))
              for part in np.array_split(rng.permutation(len(records)), n_chunks)]
    with open(path, "ab") as fh:
        for k in rng.permutation(len(chunks)):
            tag, payload = chunks[k]
            fh.write(_CHUNK_HEADER.pack(tag, len(payload)) + payload)


class TestReplayEvents:
    @pytest.mark.parametrize("seed, n_poses, n_ints", [
        (0, 0, 0), (1, 0, 30), (2, 30, 0), (3, 40, 40), (4, 70, 20), (5, 20, 70)])
    def test_matches_brute_force_merge(self, tmp_path, seed, n_poses, n_ints):
        rng = np.random.default_rng(seed)
        path = tmp_path / f"rand{seed}.isms"
        _hand_written_session(path, rng, n_poses, n_ints, n_chunks=3)
        session = Session.open(path)
        got = list(replay_events(session, ReplayClock(math.inf)))
        assert got == _brute_force_events(session)

    def test_hold_last_and_tie(self):
        poses = [PoseSample(t, np.zeros(3), IDENTITY_Q) for t in (0, 10, 10, 30)]
        session = Session(5000.0, 1, 5.0, "", np.zeros((0, 1), np.float32), poses,
                          np.array([[10, 2.0], [20, 3.0], [30, 4.0]]), {})
        got = [(t, p is not None, v)
               for t, p, v in replay_events(session, ReplayClock(math.inf))]
        assert got == [(0, True, None), (10, True, None), (10, True, None), (10, False, 2.0),
                       (20, False, 3.0), (30, True, None), (30, False, 4.0)]

    def test_negative_timestamp_rejected(self):
        session = Session(5000.0, 1, 5.0, "", np.zeros((0, 1), np.float32), [],
                          np.array([[-1.0, 1.0]]), {})
        with pytest.raises(DataError):
            list(replay_events(session))


class TestCsvExport:
    def test_intensity_csv(self, tmp_path):
        path = tmp_path / "s.isms"
        _sample_session(path, n_ints=3)
        out = tmp_path / "ints.csv"
        session = Session.open(path)
        ism.save_intensity_csv(session.intensities[:, 0] / 1e6, session.intensities[:, 1], out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t_s,intensity"
        assert len(lines) == 4

    def test_pose_csv(self, tmp_path):
        path = tmp_path / "s.isms"
        _, poses, _ = _sample_session(path, n_poses=4)
        out = tmp_path / "poses.csv"
        save_pose_csv(Session.open(path).poses, out)
        loaded = load_pose_csv(out)
        assert [p.t_us for p in loaded] == [p.t_us for p in poses]
