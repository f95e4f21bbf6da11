import math
import struct
import time

import numpy as np
import pytest

from ismkit import ism
from ismkit.errors import DataError, FileFormatError
from ismkit.session import (_CHUNK_HEADER, _INTS_RECORD, _POSE_RECORD, TAG_INTENSITY,
                            TAG_POSE, ReplayClock, Session, SessionWriter, record, replay,
                            replay_events)
from ismkit.trajectory import PoseSample, load_pose_csv, save_pose_csv

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


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

    def test_start_offset_skips_early_events(self, tmp_path):
        path = tmp_path / "off.isms"
        self._timed_session(path, duration_s=2.0, n=20)
        session = Session.open(path)
        report = replay(session, ReplayClock(speed=math.inf, start_offset_s=1.0))
        assert report.poses_delivered == 10

    def test_bad_speed_rejected(self):
        with pytest.raises(DataError):
            ReplayClock(speed=0.0)

    def test_callbacks_follow_the_event_merge(self, tmp_path):
        path = tmp_path / "cb.isms"
        _sample_session(path, n_poses=6, n_ints=9)
        session = Session.open(path)
        calls = []
        report = replay(session, ReplayClock(speed=math.inf),
                        on_pose=lambda p: calls.append((p.t_us, p, None)),
                        on_intensity=lambda t, v: calls.append((t, None, v)))
        expected = [(t, p, None if p is not None else v) for t, p, v in
                    replay_events(session, ReplayClock(speed=math.inf))]
        assert calls == expected
        assert (report.poses_delivered, report.intensities_delivered) == (6, 9)


def _brute_force_events(session, start_offset_s=0.0):
    """The merge spelled out: sort by (time, pose first, stream order), hold the last value."""
    events = ([(p.t_us, 0, k, p) for k, p in enumerate(session.poses)]
              + [(int(t), 1, k, float(v)) for k, (t, v) in enumerate(session.intensities)])
    events.sort(key=lambda e: e[:3])
    out, held = [], 0.0
    for t, kind, _, payload in events:
        if kind == 1:
            held = payload
        if t >= events[0][0] + int(start_offset_s * 1e6):
            out.append((t, payload if kind == 0 else None, held))
    return out


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
        for offset in (0.0, 0.0125, 0.03):
            got = list(replay_events(session, ReplayClock(math.inf, start_offset_s=offset)))
            assert got == _brute_force_events(session, offset)

    def test_hold_last_and_tie(self):
        poses = [PoseSample(t, np.zeros(3), IDENTITY_Q) for t in (0, 10, 10, 30)]
        session = Session(5000.0, 1, 5.0, "", np.zeros((0, 1), np.float32), poses,
                          np.array([[10, 2.0], [20, 3.0], [30, 4.0]]), {})
        got = [(t, p is not None, v)
               for t, p, v in replay_events(session, ReplayClock(math.inf))]
        assert got == [(0, True, 0.0), (10, True, 0.0), (10, True, 0.0), (10, False, 2.0),
                       (20, False, 3.0), (30, True, 3.0), (30, False, 4.0)]

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
