import threading

import numpy as np
import pytest

from ismkit import ism
from ismkit.cli import main
from ismkit.psychophysics import save_model, threshold_at
from ismkit.session import Session
from ismkit.signal import MultiChannelWaveform, Waveform
from ismkit.trajectory import PoseSample, load_ply, save_pose_csv
from ismkit.wavio import save_wav

FS = 5000.0
IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])

SCENARIO = """\
duration_s 1.5
roughness 0.8
sample_rate_hz 5000
impact 0.4 2.0 0.02
waypoint 0 0 0 0
waypoint 0.1 0 0 0.1
"""

# a steady resonance texture: constant speed, envelope centered on the
# 400 Hz crossing grid so the intensity profile is quasi-stationary
STEADY_SCENARIO = """\
duration_s 1.5
roughness 10
sample_rate_hz 5000
noise_band_hz 390 410
waypoint 0 0 0 0
waypoint 0.5 0 0 0.3
"""


def _tone_wav(path, freq, amp, duration=1.0):
    t = np.arange(int(duration * FS)) / FS
    save_wav(Waveform(amp * np.sin(2 * np.pi * freq * t), FS), path)


def _model_file(tmp_path, u_model):
    path = tmp_path / "model.txt"
    save_model(u_model, path)
    return str(path)


class TestAnalyze:
    def test_silence_gives_zero_csv(self, tmp_path):
        wav = tmp_path / "silence.wav"
        save_wav(Waveform(np.zeros(5000), FS), wav)
        out = tmp_path / "profile.csv"
        assert main(["analyze", str(wav), "--out", str(out)]) == 0
        profile = ism.load_profile_csv(out)
        assert len(profile) == 200
        assert np.all(profile.values == 0.0)

    def test_threshold_tone_rows_near_one(self, tmp_path, u_model):
        wav = tmp_path / "tone.wav"
        _tone_wav(wav, 200.0, threshold_at(u_model, 200.0))
        out = tmp_path / "profile.csv"
        code = main(["analyze", str(wav), "--out", str(out),
                     "--model", _model_file(tmp_path, u_model)])
        assert code == 0
        steady = ism.load_profile_csv(out).values[20:-20]
        assert np.all((steady >= 0.9) & (steady <= 1.1))

    def test_two_channel_wav_exits_with_data_error(self, tmp_path, capsys):
        import struct
        wav = tmp_path / "stereo.wav"
        payload = np.zeros(16, dtype="<i2").tobytes()
        fmt = struct.pack("<HHIIHH", 1, 2, 5000, 20000, 4, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
            + b"data" + struct.pack("<I", len(payload)) + payload
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        code = main(["analyze", str(wav), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]:")
        assert "\n" not in err.strip()

    def test_four_channel_fused(self, tmp_path, u_model):
        t = np.arange(5000) / FS
        amp = threshold_at(u_model, 200.0)
        loud = Waveform(2 * amp * np.sin(2 * np.pi * 200 * t), FS)
        quiet = Waveform(np.zeros(5000), FS)
        wav = tmp_path / "quad.wav"
        save_wav(MultiChannelWaveform((loud, loud, quiet, quiet)), wav)
        out = tmp_path / "fused.csv"
        code = main(["analyze", str(wav), "--out", str(out),
                     "--model", _model_file(tmp_path, u_model)])
        assert code == 0
        steady = ism.load_profile_csv(out).values[20:-20]
        # mean of (2, 2, 0, 0) intensity
        assert np.median(steady) == pytest.approx(1.0, rel=0.1)

    def test_session_output(self, tmp_path):
        wav = tmp_path / "s.wav"
        save_wav(Waveform(np.zeros(5000), FS), wav)
        session_path = tmp_path / "s.isms"
        code = main(["analyze", str(wav), "--out", str(tmp_path / "p.csv"),
                     "--session", str(session_path)])
        assert code == 0
        session = Session.open(session_path)
        assert session.vibration.shape == (5000, 1)
        assert session.intensities.shape[0] == 200


class TestConvert:
    def test_silence(self, tmp_path):
        wav = tmp_path / "in.wav"
        save_wav(Waveform(np.zeros(5000), FS), wav)
        out = tmp_path / "out.wav"
        assert main(["convert", str(wav), str(out)]) == 0
        from ismkit.wavio import load_wav
        assert np.max(np.abs(load_wav(out).samples)) < 1e-12

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = main(["convert", str(tmp_path / "nope.wav"),
                     str(tmp_path / "out.wav")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error[io]:")


class TestRender:
    def test_pose_csv_plus_profile(self, tmp_path):
        poses = [PoseSample(int(i * 1e4), np.array([i * 0.005, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(100)]
        pose_csv = tmp_path / "poses.csv"
        save_pose_csv(poses, pose_csv)
        profile_csv = tmp_path / "profile.csv"
        ism.save_profile_csv(ism.IntensityProfile(np.full(200, 0.5)), profile_csv)
        out = tmp_path / "out.ply"
        code = main(["render", str(pose_csv), "--profile", str(profile_csv),
                     "--out", str(out), "--imax", "1.0"])
        assert code == 0
        pos, rgb = load_ply(out)
        assert pos.shape[0] > 10

    def test_stationary_pose_renders_single_point(self, tmp_path):
        poses = [PoseSample(int(i * 1e4), np.zeros(3), IDENTITY_Q) for i in range(50)]
        pose_csv = tmp_path / "still.csv"
        save_pose_csv(poses, pose_csv)
        profile_csv = tmp_path / "p.csv"
        ism.save_profile_csv(ism.IntensityProfile(np.full(100, 0.7)), profile_csv)
        out = tmp_path / "one.ply"
        assert main(["render", str(pose_csv), "--profile", str(profile_csv),
                     "--out", str(out)]) == 0
        pos, _ = load_ply(out)
        assert pos.shape[0] == 1

    def test_pose_csv_without_profile_is_usage_error(self, tmp_path, capsys):
        poses = [PoseSample(0, np.zeros(3), IDENTITY_Q)]
        pose_csv = tmp_path / "poses.csv"
        save_pose_csv(poses, pose_csv)
        code = main(["render", str(pose_csv), "--out", str(tmp_path / "o.ply")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error[usage]:")


class TestSimulate:
    def test_deterministic_under_seed(self, tmp_path):
        scn = tmp_path / "scn.txt"
        scn.write_text(SCENARIO)
        a = tmp_path / "a.isms"
        b = tmp_path / "b.isms"
        assert main(["simulate", str(scn), "--out", str(a), "--seed", "9"]) == 0
        assert main(["simulate", str(scn), "--out", str(b), "--seed", "9"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_scenario_reports_line(self, tmp_path, capsys):
        scn = tmp_path / "bad.txt"
        scn.write_text("duration_s 1\nnot_a_key 2\nwaypoint 0 0 0 0\n")
        code = main(["simulate", str(scn), "--out", str(tmp_path / "x.isms")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err


class TestCalibrate:
    def test_noiseless_recovery(self, tmp_path, capsys):
        from ismkit.trajectory import quat_to_matrix
        rng = np.random.default_rng(11)
        offset = np.array([0.01, -0.02, 0.15])
        pivot = np.array([0.3, 0.2, 0.1])
        poses = []
        for i in range(30):
            q = rng.standard_normal(4)
            q /= np.linalg.norm(q)
            poses.append(PoseSample(i * 1000, pivot - quat_to_matrix(q) @ offset, q))
        pose_csv = tmp_path / "pivot.csv"
        save_pose_csv(poses, pose_csv)
        out = tmp_path / "calib.txt"
        assert main(["calibrate", str(pose_csv), "--out", str(out)]) == 0
        from ismkit.trajectory import load_calibration
        got = load_calibration(out)
        assert np.max(np.abs(got.tip_offset - offset)) < 1e-6

    def test_degenerate_is_data_error(self, tmp_path, capsys):
        poses = [PoseSample(i, np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(10)]
        pose_csv = tmp_path / "flat.csv"
        save_pose_csv(poses, pose_csv)
        code = main(["calibrate", str(pose_csv), "--out", str(tmp_path / "c.txt")])
        assert code == 2


class TestConfigFile:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "config.txt"
        cfg.write_text("i_max 2.0\nbogus_key 1\n")
        wav = tmp_path / "w.wav"
        save_wav(Waveform(np.zeros(5000), FS), wav)
        code = main(["--config", str(cfg), "analyze", str(wav),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 1
        assert ":2:" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        # config carrier would put the carrier above Nyquist; flag rescues it
        cfg = tmp_path / "config.txt"
        cfg.write_text("carrier_hz 4000\n")
        wav = tmp_path / "w.wav"
        save_wav(Waveform(np.zeros(5000), FS), wav)
        out = tmp_path / "o.wav"
        code_bad = main(["--config", str(cfg), "convert", str(wav), str(out)])
        assert code_bad == 2
        code_good = main(["--config", str(cfg), "convert", str(wav), str(out),
                          "--carrier", "200"])
        assert code_good == 0

    def test_usage_error_on_unknown_command(self, capsys):
        assert main(["definitely-not-a-command"]) == 1

    def test_endpoint_env_var_default(self, tmp_path, monkeypatch, capsys):
        # a bad env endpoint surfaces as a usage-level parse error at connect
        from ismkit.session import record
        src = tmp_path / "e.isms"
        record(src, intensities=[(0, 1.0)], channels=1)
        monkeypatch.setenv("ISMKIT_ENDPOINT", "not-an-endpoint")
        code = main(["stream-send", str(src)])
        assert code == 2  # endpoint string fails to parse as host:port
        monkeypatch.delenv("ISMKIT_ENDPOINT")
        code = main(["stream-send", str(src)])
        assert code == 1  # no endpoint configured at all
        assert capsys.readouterr().err.splitlines()[-1].startswith("error[usage]:")


class TestStreamLoopback:
    def test_session_round_trip_over_wire(self, tmp_path):
        from ismkit.session import record
        poses = [PoseSample(int(i * 1e4),
                            np.array([i * 0.001, 0.0, 0.0], dtype=np.float32)
                            .astype(np.float64), IDENTITY_Q)
                 for i in range(50)]
        ints = [(int(i * 1e4 + 5000), float(np.float32(i * 0.1))) for i in range(50)]
        src = tmp_path / "src.isms"
        record(src, poses=poses, intensities=ints, channels=1)

        out = tmp_path / "recv.isms"
        results = {}

        def recv():
            results["code"] = main(["stream-recv", "--endpoint", "127.0.0.1:0",
                                    "--out", str(out)])

        # race-free: use a fixed port chosen by binding first
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        endpoint = f"127.0.0.1:{port}"

        def recv_fixed():
            results["code"] = main(["stream-recv", "--endpoint", endpoint,
                                    "--out", str(out), "--timeout", "20"])

        thread = threading.Thread(target=recv_fixed)
        thread.start()
        import time
        time.sleep(0.3)
        send_code = main(["stream-send", str(src), "--endpoint", endpoint])
        thread.join(30.0)
        assert send_code == 0
        assert results["code"] == 0
        received = Session.open(out)
        assert len(received.poses) == 50
        assert received.intensities.shape[0] == 100  # 50 frames + 50 intensity-only

    def test_stream_recv_of_bad_frame_closes_its_session(self, tmp_path, capsys):
        import gc
        import socket
        import time
        import warnings
        from ismkit.errors import ProtocolError
        from ismkit.wire import Frame, FrameSender, Hello
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        endpoint = f"127.0.0.1:{probe.getsockname()[1]}"
        probe.close()
        # the last Frame's quaternion is not unit-norm: a valid message, a bad pose
        frames = [Frame(t_us, (0.0, 0.0, 0.0), (w, 0.0, 0.0, 0.0), 0.5, (1, 2, 3))
                  for t_us, w in ((0, 1.0), (1, 1.0), (2, 2.0))]

        def send():
            deadline = time.monotonic() + 20.0
            while True:
                try:
                    sender = FrameSender(endpoint, policy="block")
                    break
                except ProtocolError:
                    if time.monotonic() > deadline:
                        return
                    time.sleep(0.05)
            sender.send(Hello(1, 5000, 50))
            for frame in frames:
                sender.send(frame)
            sender.close()

        thread = threading.Thread(target=send)
        thread.start()
        out = tmp_path / "recv.isms"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(["stream-recv", "--endpoint", endpoint, "--out", str(out),
                         "--timeout", "20"])
            gc.collect()
        thread.join(30.0)
        assert not thread.is_alive()
        assert code == 2
        assert capsys.readouterr().err.startswith("error[data]: quaternion norm 2.0 ")
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert [p.t_us for p in Session.open(out).poses] == [0, 1]

    def test_render_from_received_session(self, tmp_path):
        # a session holding both poses and intensities renders directly
        from ismkit.session import record
        poses = [PoseSample(int(i * 1e4), np.array([i * 0.003, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(100)]
        ints = [(int(i * 1e4), 0.5 + 0.001 * i) for i in range(100)]
        src = tmp_path / "both.isms"
        record(src, poses=poses, intensities=ints, channels=1)
        out = tmp_path / "both.ply"
        assert main(["render", str(src), "--out", str(out), "--imax", "2"]) == 0
        pos, rgb = load_ply(out)
        assert pos.shape[0] > 10

    def test_corrupt_session_is_data_error(self, tmp_path, capsys):
        import struct
        from ismkit.session import record
        src = tmp_path / "corrupt.isms"
        record(src, intensities=[(0, 1.0)], channels=1)
        with open(src, "ab") as fh:
            fh.write(b"POSE" + struct.pack("<I", 10_000) + b"short")
        code = main(["replay", str(src), "--speed", "inf"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error[data]:")

    def test_replay_to_wire_sink(self, tmp_path):
        from ismkit.session import record
        from ismkit.wire import Frame, Hello, Listener
        poses = [PoseSample(int(i * 1e5), np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(8)]
        src = tmp_path / "w.isms"
        record(src, poses=poses, intensities=[(0, 1.0)], channels=1)
        listener = Listener("127.0.0.1:0")
        received = []
        thread = threading.Thread(target=lambda: listener.receive(received.append))
        thread.start()
        code = main(["replay", str(src), "--speed", "inf",
                     "--endpoint", listener.endpoint])
        thread.join(30.0)
        assert code == 0
        assert isinstance(received[0], Hello)
        assert sum(isinstance(m, Frame) for m in received) == 8

    def test_replay_speed_inf_to_csv(self, tmp_path):
        from ismkit.session import record
        poses = [PoseSample(int(i * 1e5), np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(10)]
        src = tmp_path / "r.isms"
        record(src, poses=poses, channels=1)
        out_csv = tmp_path / "poses_out.csv"
        code = main(["replay", str(src), "--speed", "inf",
                     "--pose-csv", str(out_csv)])
        assert code == 0
        from ismkit.trajectory import load_pose_csv
        assert len(load_pose_csv(out_csv)) == 10

    def test_stream_send_and_replay_endpoint_send_the_same_messages(self, tmp_path):
        from ismkit.session import record
        from ismkit.wire import End, Frame, Hello, IntensityOnly, Listener
        rng = np.random.default_rng(7)
        poses = [PoseSample(int(t), np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                 for i, t in enumerate(np.sort(rng.integers(10, 60, 40)) * 1000)]
        # intensities before the first pose and on pose timestamps
        ints = [(int(t), float(np.float32(rng.uniform(0, 3))))
                for t in np.sort(rng.integers(0, 60, 40)) * 1000]
        src = tmp_path / "same.isms"
        record(src, poses=poses, intensities=ints, channels=1)

        def capture(argv):
            listener = Listener("127.0.0.1:0")
            received = []
            thread = threading.Thread(target=lambda: listener.receive(received.append))
            thread.start()
            assert main(argv + ["--endpoint", listener.endpoint, "--imax", "2"]) == 0
            thread.join(30.0)
            return received

        sent = capture(["stream-send", str(src)])
        replayed = capture(["replay", str(src), "--speed", "inf"])
        assert sent == replayed
        assert isinstance(sent[0], Hello) and isinstance(sent[-1], End)
        assert sum(isinstance(m, Frame) for m in sent) == 40
        assert sum(isinstance(m, IntensityOnly) for m in sent) == 40
        assert len({m.rgb for m in sent if isinstance(m, Frame)}) > 1

    def test_replay_speed_inf_endpoint_delivers_every_message(self, tmp_path, capsys):
        from ismkit.session import record
        from ismkit.wire import End, Listener
        # far more messages than the sender's queue holds
        poses = [PoseSample(i * 8333, np.array([i * 1e-4, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(3000)]
        ints = [(i * 5000 + 2500, float(np.float32(i % 7 * 0.25))) for i in range(5000)]
        src = tmp_path / "many.isms"
        record(src, poses=poses, intensities=ints, channels=1)
        listener = Listener("127.0.0.1:0")
        received = []
        thread = threading.Thread(target=lambda: listener.receive(received.append))
        thread.start()
        assert main(["replay", str(src), "--speed", "inf",
                     "--endpoint", listener.endpoint]) == 0
        thread.join(30.0)
        assert len(received) == 1 + 3000 + 5000 + 1
        assert isinstance(received[-1], End)
        assert f"sent={len(received)} drops=0" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("bad", [float("nan"), -0.5])
    def test_stream_send_of_bad_intensity_sends_nothing(self, tmp_path, capsys, bad):
        import struct
        from ismkit.errors import ProtocolError
        from ismkit.session import record
        from ismkit.wire import Listener
        poses = [PoseSample(i * 1000, np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(20)]
        src = tmp_path / "bad.isms"
        record(src, poses=poses, intensities=[(i * 1000 + 500, 0.5) for i in range(20)],
               channels=1)
        # the bad value comes last, after every good event
        with open(src, "ab") as fh:
            fh.write(b"INTS" + struct.pack("<I", 12) + struct.pack("<Qf", 10 ** 6, bad))
        listener = Listener("127.0.0.1:0")
        assert main(["stream-send", str(src), "--endpoint", listener.endpoint]) == 2
        assert capsys.readouterr().err.startswith("error[data]:")
        received = []
        with pytest.raises(ProtocolError, match="no sender connected"):
            listener.receive(received.append, accept_timeout=0.5)
        assert received == []

    def test_replay_intensity_csv_reads_back_as_profile(self, tmp_path):
        from ismkit.session import record
        ints = [(int((k + 0.5) * 5000), float(np.float32(0.1 * k))) for k in range(30)]
        src = tmp_path / "ints.isms"
        record(src, intensities=ints, channels=1)
        out_csv = tmp_path / "ints_out.csv"
        assert main(["replay", str(src), "--speed", "inf",
                     "--intensity-csv", str(out_csv)]) == 0
        profile = ism.load_profile_csv(out_csv)
        # nine significant digits carry a float32 value exactly
        assert np.array_equal(profile.values.astype(np.float32),
                              np.float32([v for _, v in ints]))
        assert profile.segment_duration_ms == pytest.approx(5.0)
        assert profile.start_time_s == pytest.approx(0.0, abs=1e-9)


class TestComposition:
    def test_simulate_analyze_convert_analyze(self, tmp_path, u_model):
        scn = tmp_path / "scn.txt"
        scn.write_text(STEADY_SCENARIO)
        session_path = tmp_path / "sim.isms"
        assert main(["simulate", str(scn), "--out", str(session_path),
                     "--seed", "4"]) == 0
        session = Session.open(session_path)
        wav = tmp_path / "sim.wav"
        chans = tuple(Waveform(np.ascontiguousarray(session.vibration[:, c]).astype(np.float64),
                               session.sample_rate_hz) for c in range(4))
        save_wav(MultiChannelWaveform(chans), wav)
        model = _model_file(tmp_path, u_model)

        p1 = tmp_path / "p1.csv"
        assert main(["analyze", str(wav), "--out", str(p1), "--model", model]) == 0
        conv = tmp_path / "conv.wav"
        assert main(["convert", str(wav), str(conv), "--model", model]) == 0
        p2 = tmp_path / "p2.csv"
        assert main(["analyze", str(conv), "--out", str(p2), "--model", model]) == 0

        v1 = ism.load_profile_csv(p1).values
        v2 = ism.load_profile_csv(p2).values
        mask = v1 >= 0.05
        mask[:20] = mask[-20:] = False
        rel = np.abs(v2[mask] - v1[mask]) / v1[mask]
        assert np.median(rel) <= 0.05
