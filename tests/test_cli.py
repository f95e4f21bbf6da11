import socket
import struct
import threading
import time

import numpy as np
import pytest

from ismkit import ism, wire
from ismkit.cli import SETTINGS, build_cli_config, build_parser, main
from ismkit.colormap import NormalizationConfig, map_color, normalize
from ismkit.errors import ProtocolError
from ismkit.psychophysics import DEFAULT_MODEL, save_model, threshold_at
from ismkit.scenario import load_scenario, simulate
from ismkit.session import Session, record
from ismkit.signal import MultiChannelWaveform, Waveform
from ismkit.trajectory import (PoseSample, TrajectoryConfig, aligned_intensity,
                               build_trajectory, load_ply, save_pose_csv)
from ismkit.wavio import load_wav, save_wav

from .test_session import _hand_written_session

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


def _free_endpoint() -> str:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    endpoint = f"127.0.0.1:{probe.getsockname()[1]}"
    probe.close()
    return endpoint


def _stream_recv_while(send, recv_argv) -> int:
    """Run stream-recv on a free endpoint while send(endpoint) sends to it.

    send returns False while nothing listens there yet; returns
    stream-recv's exit code.
    """
    endpoint = _free_endpoint()
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(
        ["stream-recv", "--endpoint", endpoint, "--timeout", "20", *recv_argv])))
    thread.start()
    deadline = time.monotonic() + 20.0
    while not send(endpoint) and time.monotonic() < deadline:
        time.sleep(0.05)
    thread.join(30.0)
    assert not thread.is_alive()
    return codes[0]


def _send_messages(messages):
    """A send for _stream_recv_while: these messages and End, once a receiver listens."""
    def send(endpoint):
        try:
            sender = wire.FrameSender(endpoint, policy="block")
        except ProtocolError:
            return False
        for message in messages:
            sender.send(message)
        sender.close()
        return True
    return send


def _messages_sent(argv) -> list:
    """What the command in argv sends to a listener given as its --endpoint; exits 0."""
    listener = wire.Listener("127.0.0.1:0")
    messages = []
    thread = threading.Thread(target=lambda: listener.receive(messages.append))
    thread.start()
    assert main([*argv, "--endpoint", listener.endpoint]) == 0
    thread.join(30.0)
    assert not thread.is_alive()
    return messages


def _frames(messages) -> list:
    return [m for m in messages if isinstance(m, wire.Frame)]


def _tone_wav(path, freq, amp, duration=1.0):
    t = np.arange(int(duration * FS)) / FS
    save_wav(Waveform(amp * np.sin(2 * np.pi * freq * t), FS), path)


def _model_file(tmp_path, u_model):
    path = tmp_path / "model.txt"
    save_model(u_model, path)
    return str(path)


def _noise_wav(path, n_channels, seed=3):
    """A 0.5 s noise WAV, mono or 4-channel, with a different level per channel."""
    rng = np.random.default_rng(seed)
    channels = tuple(Waveform((c + 1) * rng.standard_normal(2500), FS)
                     for c in range(n_channels))
    save_wav(channels[0] if n_channels == 1 else MultiChannelWaveform(channels), path)
    loaded = load_wav(path)
    return loaded.channels if n_channels == 4 else (loaded,)


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("line", ["exponent 100 inf", "threshold 100 nan",
                                      "threshold inf 1.0", "exponent nan 0.5"])
    def test_non_finite_model_value_is_one_data_error(self, tmp_path, capsys, line):
        model = tmp_path / "model.txt"
        model.write_text(f"threshold 50 1.0\nexponent 50 0.5\n{line}\n")
        wav = tmp_path / "tone.wav"
        _tone_wav(wav, 200.0, 1.0)
        code = main(["analyze", str(wav), "--out", str(tmp_path / "p.csv"),
                     "--model", str(model)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error[data]: {model}") and len(err.splitlines()) == 1

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

    @pytest.mark.parametrize("command", ["analyze", "convert"])
    @pytest.mark.parametrize("n_channels,n_bytes", [(1, 1001), (4, 2 * 1002)])
    def test_partial_frame_wav_exits_with_data_error(self, tmp_path, capsys, command,
                                                     n_channels, n_bytes):
        import struct
        # a PCM16 data chunk of an odd byte count, or 4-channel samples
        # that do not fill the last frame
        wav = tmp_path / "partial.wav"
        payload = bytes(n_bytes)
        fmt = struct.pack("<HHIIHH", 1, n_channels, 5000, 5000 * 2 * n_channels,
                          2 * n_channels, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt \
            + b"data" + struct.pack("<I", n_bytes) + payload + b"\x00" * (n_bytes % 2)
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        out = ["--out", str(tmp_path / "out.csv")] if command == "analyze" else [
            str(tmp_path / "out.wav")]
        code = main([command, str(wav), *out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[data]:") and str(wav) in err
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

    def test_four_channel_session_holds_the_frames_and_the_fused_profile(self, tmp_path):
        wav = tmp_path / "quad.wav"
        channels = _noise_wav(wav, 4)
        session_path = tmp_path / "quad.isms"
        assert main(["analyze", str(wav), "--out", str(tmp_path / "p.csv"),
                     "--session", str(session_path)]) == 0
        session = Session.open(session_path)
        assert (session.channels, session.sample_rate_hz, session.segment_ms,
                session.model_id) == (4, FS, 5.0, "builtin")
        frames = np.stack([ch.samples for ch in channels], axis=1).astype(np.float32)
        assert session.vibration.dtype == np.float32
        assert np.array_equal(session.vibration, frames)
        profile = ism.fuse_channels([ism.analyze(ch, DEFAULT_MODEL).profile for ch in channels])
        assert np.array_equal(session.intensities[:, 0], np.round(profile.midpoints_s() * 1e6))
        assert np.array_equal(session.intensities[:, 1], profile.values.astype(np.float32))

    def test_mono_profile_is_the_library_profile(self, tmp_path):
        wav = tmp_path / "mono.wav"
        (channel,) = _noise_wav(wav, 1)
        out = tmp_path / "p.csv"
        assert main(["analyze", str(wav), "--out", str(out)]) == 0
        expected = tmp_path / "expected.csv"
        ism.save_profile_csv(ism.analyze(channel, DEFAULT_MODEL).profile, expected)
        assert out.read_bytes() == expected.read_bytes()


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

    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    def test_reports_the_clipped_sample_count(self, tmp_path, capsys, encoding):
        wav = tmp_path / "loud.wav"
        _tone_wav(wav, 300.0, 3 * threshold_at(DEFAULT_MODEL, 300.0))
        out = tmp_path / "out.wav"
        assert main(["convert", str(wav), str(out), "--encoding", encoding]) == 0
        converted = ism.convert(load_wav(wav), DEFAULT_MODEL).samples
        over = int(np.count_nonzero(np.abs(converted) > 1.0))
        assert over > 0
        want = over if encoding == "pcm16" else 0
        assert capsys.readouterr().out == (
            f"converted samples={converted.size} clipped={want} out={out}\n")

    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    @pytest.mark.parametrize("n_channels", [1, 4])
    def test_each_channel_is_the_library_conversion(self, tmp_path, n_channels, encoding):
        wav = tmp_path / "in.wav"
        channels = _noise_wav(wav, n_channels)
        out = tmp_path / "out.wav"
        assert main(["convert", str(wav), str(out), "--encoding", encoding]) == 0
        converted = tuple(ism.convert(ch, DEFAULT_MODEL) for ch in channels)
        expected = tmp_path / "expected.wav"
        save_wav(converted[0] if n_channels == 1 else MultiChannelWaveform(converted),
                 expected, encoding=encoding)
        assert out.read_bytes() == expected.read_bytes()


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

    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    @pytest.mark.parametrize("bad_time", ["nan", "inf"])
    def test_profile_with_a_non_finite_time_is_a_data_error(self, tmp_path, capsys, bad_time):
        poses = [PoseSample(i * 10_000, np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(20)]
        pose_csv = tmp_path / "poses.csv"
        save_pose_csv(poses, pose_csv)
        profile_csv = tmp_path / "p.csv"
        profile_csv.write_text(f"t_s,intensity\n0.0025,1.0\n{bad_time},2.0\n0.0125,0.5\n")
        out = tmp_path / "o.ply"
        code = main(["render", str(pose_csv), "--profile", str(profile_csv), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[data]:") and len(err.splitlines()) == 1
        assert not out.exists()

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

    def test_records_the_analysis_of_its_vibration(self, tmp_path, capsys):
        scn = tmp_path / "scn.txt"
        scn.write_text(SCENARIO)
        sim = tmp_path / "sim.isms"
        assert main(["simulate", str(scn), "--out", str(sim), "--seed", "9"]) == 0
        session = Session.open(sim)
        assert f" intensities={session.intensities.shape[0]} " in capsys.readouterr().out
        wav = tmp_path / "sim.wav"
        save_wav(MultiChannelWaveform(tuple(Waveform(session.vibration[:, c], FS)
                                            for c in range(4))), wav)
        analyzed = tmp_path / "analyzed.isms"
        assert main(["analyze", str(wav), "--out", str(tmp_path / "p.csv"),
                     "--session", str(analyzed)]) == 0
        assert session.model_id == Session.open(analyzed).model_id == "builtin"
        assert np.array_equal(session.intensities, Session.open(analyzed).intensities)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("old, new", [
        ("duration_s 1.5", "duration_s nan"),
        ("duration_s 1.5", "duration_s inf"),
        ("sample_rate_hz 5000", "sample_rate_hz inf"),
        ("roughness 0.8", "roughness inf"),
        ("impact 0.4 2.0 0.02", "impact nan 1 0.01"),
        ("impact 0.4 2.0 0.02", "impact 0.4 inf 0.02"),
        ("impact 0.4 2.0 0.02", "impact 0.4 2.0 inf"),
        ("waypoint 0.1 0 0 0.1", "waypoint 0.1 0 0 nan"),
        ("waypoint 0.1 0 0 0.1", "waypoint 0.1 0 0 inf"),
    ])
    def test_non_finite_scenario_value_is_one_data_error(self, tmp_path, capsys, old, new):
        scn = tmp_path / "scn.txt"
        scn.write_text(SCENARIO.replace(old, new))
        out = tmp_path / "x.isms"
        code = main(["simulate", str(scn), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error[data]: {scn}") and len(err.splitlines()) == 1
        assert not out.exists()

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


class TestNonFiniteSettings:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [key for key, (kind, *_) in SETTINGS.items()
                                     if kind is float])
    def test_exits_with_a_data_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "config.txt"
        config.write_text(f"{key} {value}\n")
        out = str(tmp_path / "out")
        if SETTINGS[key][3] is ism.IsmConfig:
            wav = tmp_path / "w.wav"
            save_wav(Waveform(np.zeros(1000), FS), wav)
            argv = ["analyze", str(wav), "--out", out]
        else:
            poses = tmp_path / "poses.csv"
            save_pose_csv([PoseSample(i * 10_000, np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                           for i in range(20)], poses)
            profile = tmp_path / "profile.csv"
            ism.save_profile_csv(ism.IntensityProfile(np.full(100, 0.5)), profile)
            argv = ["render", str(poses), "--profile", str(profile), "--out", out]
        code = main(["--config", str(config), *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error[data]: {key} must be a positive finite number")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


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
        assert received.intensities.shape[0] == 50

    def test_received_session_renders_as_its_source(self, tmp_path):
        scn = tmp_path / "scn.txt"
        scn.write_text(SCENARIO)
        vibration, poses = simulate(load_scenario(scn), seed=305)
        profile = ism.fuse_channels([ism.analyze(ch).profile for ch in vibration.channels])
        src = tmp_path / "src.isms"
        record(src, vibration=np.stack([ch.samples for ch in vibration.channels], axis=1),
               poses=poses, intensities=[(int(round(t_s * 1e6)), float(value)) for t_s, value
                                         in zip(profile.midpoints_s(), profile.values)],
               sample_rate_hz=FS)
        imax = ["--imax", "3"]
        send_codes = []

        def send(endpoint):
            send_codes.append(main(["stream-send", str(src), "--endpoint", endpoint, *imax]))
            return send_codes[-1] != 4  # 4: nothing listens there yet

        for out in ("recv.isms", "streamed.ply"):
            assert _stream_recv_while(send, ["--out", str(tmp_path / out), *imax]) == 0
            assert send_codes[-1] == 0
        source, received = Session.open(src), Session.open(tmp_path / "recv.isms")
        assert ([(p.t_us, *p.position, *p.orientation) for p in received.poses]
                == [(p.t_us, *p.position, *p.orientation) for p in source.poses])
        assert np.array_equal(received.intensities, source.intensities)
        for name in ("src", "recv"):
            assert main(["render", str(tmp_path / f"{name}.isms"),
                         "--out", str(tmp_path / f"{name}.ply"), *imax]) == 0
        rendered = (tmp_path / "src.ply").read_bytes()
        assert (tmp_path / "recv.ply").read_bytes() == rendered
        assert (tmp_path / "streamed.ply").read_bytes() == rendered

        # every Frame at a pose render kept carries that PLY row's colour
        frame_rgb = {m.t_us: m.rgb for m in _frames(_messages_sent(["stream-send", str(src),
                                                                    *imax]))}
        kept = build_trajectory(source.poses, source.intensities, norm=NormalizationConfig(3.0))
        _, colours = load_ply(tmp_path / "src.ply")
        assert [frame_rgb[p.t_us] for p in kept] == [tuple(c) for c in colours.tolist()]
        assert len({tuple(c) for c in colours.tolist()}) > 1

    def test_frames_of_an_out_of_order_session_carry_their_own_colour(self, tmp_path):
        path = tmp_path / "shuffled.isms"
        _hand_written_session(path, np.random.default_rng(7), n_poses=40, n_ints=15,
                              n_chunks=3)
        session = Session.open(path)
        pose_t = [p.t_us for p in session.poses]
        assert pose_t != sorted(pose_t)
        assert list(session.intensities[:, 0]) != sorted(session.intensities[:, 0])
        messages = _messages_sent(["stream-send", str(path), "--imax", "3"])
        # the stream arrives in time order, so it aligns as render would align it
        frames = _frames(messages)
        ints = [m for m in messages if isinstance(m, wire.IntensityOnly)]
        expected = aligned_intensity(
            [PoseSample(m.t_us, m.position, m.quaternion) for m in frames],
            [(m.t_us, m.intensity) for m in ints], TrajectoryConfig())
        assert len(set(expected.tolist())) > 1
        assert [m.intensity for m in frames] == expected.tolist()
        assert [m.rgb for m in frames] == [map_color(normalize(v, NormalizationConfig(3.0)))
                                           for v in expected.tolist()]

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

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_stream_recv_timeout_must_be_positive_and_finite(self, tmp_path, capsys, timeout):
        code = main(["stream-recv", "--endpoint", "127.0.0.1:0",
                     "--out", str(tmp_path / "r.isms"), "--timeout", timeout])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[data]: accept timeout must be a positive finite number")
        assert len(err.splitlines()) == 1

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

    @pytest.mark.parametrize("out", ["recv.isms", "recv.ply"])
    def test_stream_recv_of_a_stream_without_hello_is_a_protocol_error(self, tmp_path, capsys,
                                                                       out):
        # the peer connects, sends End alone and closes
        assert _stream_recv_while(_send_messages([]), ["--out", str(tmp_path / out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error[protocol]: stream ended without a Hello"]
        assert not (tmp_path / out).exists()


# 10 s of steady motion at 120 Hz: every third pose sits on a 5 ms segment
# boundary, and render keeps about one pose in three
LONG_SCENARIO = """\
duration_s 10
roughness 0.8
sample_rate_hz 5000
impact 0.4 2.0 0.02
waypoint 0 0 0 0
waypoint 1 0 0 0.1
"""


def _stepping_poses(times_ms) -> list[PoseSample]:
    """Poses 5 mm apart at these times, far enough apart for render to keep each."""
    return [PoseSample(t_ms * 1000, np.array([0.005 * i, 0.0, 0.0]), IDENTITY_Q)
            for i, t_ms in enumerate(times_ms)]


class TestAlignmentToRecordedTimes:
    """A pose takes the intensity recorded nearest its time, the earlier on a tie."""

    def test_a_pose_on_a_segment_boundary_takes_the_earlier_segment(self, tmp_path):
        scn = tmp_path / "scn.txt"
        scn.write_text(LONG_SCENARIO)
        src = tmp_path / "src.isms"
        assert main(["simulate", str(scn), "--out", str(src), "--seed", "305"]) == 0
        session = Session.open(src)
        profile = ism.fuse_channels([ism.analyze(Waveform(session.vibration[:, c], FS)).profile
                                     for c in range(session.channels)])
        recorded = session.intensities[:, 1]  # float32 values, as a session holds them
        assert np.array_equal(recorded, profile.values.astype(np.float32))
        # a pose at k whole segments is as far from midpoint k - 1 as from midpoint k
        seg_us = 5000
        earlier = {p.t_us: p.t_us // seg_us - 1 for p in session.poses
                   if p.t_us and p.t_us % seg_us == 0}
        assert sum(recorded[k] != recorded[k + 1] for k in earlier.values()) > 300

        norm = NormalizationConfig(3.0)
        points = build_trajectory(session.poses, profile, norm=norm)
        kept = [(i, earlier[pt.t_us]) for i, pt in enumerate(points) if pt.t_us in earlier]
        assert len(kept) > 300
        assert [points[i].intensity for i, _ in kept] == [profile.values[k] for _, k in kept]

        assert main(["render", str(src), "--out", str(tmp_path / "session.ply"),
                     "--imax", "3"]) == 0
        _, colours = load_ply(tmp_path / "session.ply")
        assert ([tuple(colours[i]) for i, _ in kept]
                == [map_color(normalize(recorded[k], norm)) for _, k in kept])
        pose_csv, ints_csv = tmp_path / "poses.csv", tmp_path / "ints.csv"
        assert main(["replay", str(src), "--speed", "inf", "--pose-csv", str(pose_csv),
                     "--intensity-csv", str(ints_csv)]) == 0
        assert main(["render", str(pose_csv), "--profile", str(ints_csv),
                     "--out", str(tmp_path / "csv.ply"), "--imax", "3"]) == 0
        assert (tmp_path / "csv.ply").read_bytes() == (tmp_path / "session.ply").read_bytes()

        frames = _frames(_messages_sent(["stream-send", str(src), "--imax", "3"]))
        assert ([(m.t_us, m.intensity) for m in frames if m.t_us in earlier]
                == [(t, recorded[k]) for t, k in earlier.items()])

    def test_an_irregular_stream_is_aligned_to_its_own_times(self, tmp_path):
        src = tmp_path / "irregular.isms"
        record(src, poses=_stepping_poses(range(0, 101, 10)),
               intensities=[(0, 0.0), (1000, 0.0), (2000, 0.0), (90_000, 3.0)], channels=1)
        # 10-20 ms are nearest 2 ms; 30-60 ms hold it; 70 ms is 20 ms from 90 ms
        expected = [0.0] * 7 + [3.0] * 4
        ply = tmp_path / "irregular.ply"
        assert main(["render", str(src), "--out", str(ply), "--imax", "3"]) == 0
        _, colours = load_ply(ply)
        norm = NormalizationConfig(3.0)
        assert ([tuple(c) for c in colours.tolist()]
                == [map_color(normalize(v, norm)) for v in expected])
        frames = _frames(_messages_sent(["stream-send", str(src), "--imax", "3"]))
        assert [m.intensity for m in frames] == expected

    def test_tied_intensity_times_render_and_send(self, tmp_path):
        src = tmp_path / "tied.isms"
        record(src, poses=_stepping_poses(range(0, 101, 10)),
               intensities=[(50_000, 1.0), (50_000, 2.0), (50_000, 3.0), (60_000, 0.5)],
               channels=1)
        assert main(["render", str(src), "--out", str(tmp_path / "tied.ply")]) == 0
        for argv in (["stream-send", str(src)], ["replay", str(src), "--speed", "inf"]):
            assert len(_frames(_messages_sent(argv))) == 11


class TestSessionHeaderValues:
    @pytest.mark.parametrize("case", ["recv-rate-0", "recv-segment-0", "send-nan-rate",
                                      "replay-0-channels", "replay-negative-segment",
                                      "replay-inf-rate"])
    def test_exits_with_one_data_error(self, tmp_path, capsys, case):
        command, _, fault = case.partition("-")
        if command == "recv":
            hello = wire.Hello(4, 0, 50) if fault == "rate-0" else wire.Hello(4, 5000, 0)
            code = _stream_recv_while(_send_messages([hello]),
                                      ["--out", str(tmp_path / "recv.isms")])
        else:
            rate, channels, segment_ms = {"nan-rate": (float("nan"), 1, 5.0),
                                          "0-channels": (FS, 0, 5.0),
                                          "negative-segment": (FS, 1, -5.0),
                                          "inf-rate": (float("inf"), 1, 5.0)}[fault]
            src = tmp_path / "bad.isms"
            src.write_bytes(struct.pack("<4sHdBdH", b"ISMS", 1, rate, channels, segment_ms, 0)
                            + b"VIBR" + struct.pack("<I", 8) + bytes(8))
            code = main({"send": ["stream-send", str(src), "--endpoint", "127.0.0.1:9"],
                         "replay": ["replay", str(src), "--speed", "inf"]}[command])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error[data]:") and len(err.splitlines()) == 1


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


def _settings(cfg) -> dict:
    """Every setting as the commands see it, by config key."""
    ism_config, trajectory_config = cfg.ism_config(), cfg.trajectory_config()
    return {"model": cfg.model_path, "i_max": cfg.norm().i_max,
            "carrier_hz": ism_config.carrier_hz, "buffer_ms": ism_config.buffer_ms,
            "segment_ms": ism_config.segment_ms, "endpoint": cfg.endpoint,
            "min_spacing_m": trajectory_config.min_spacing_m,
            "max_point_rate_hz": trajectory_config.max_point_rate_hz,
            "align_tolerance_ms": trajectory_config.align_tolerance_ms}


class TestSettings:
    FILE = {"model": "file_model.txt", "i_max": 2.5, "carrier_hz": 180.0, "buffer_ms": 120.0,
            "segment_ms": 6.0, "endpoint": "127.0.0.1:1001", "min_spacing_m": 0.003,
            "max_point_rate_hz": 150.0, "align_tolerance_ms": 30.0}
    FLAGS = {"--model": "flag_model.txt", "--imax": "3.5", "--carrier": "190",
             "--buffer-ms": "90", "--segment-ms": "3", "--endpoint": "127.0.0.1:1002",
             "--min-spacing": "0.004", "--max-rate": "120"}

    def _resolve(self, tmp_path, *argv):
        config = tmp_path / "config.txt"
        config.write_text("".join(f"{k} {v}\n" for k, v in self.FILE.items()))
        args = build_parser().parse_args(
            [arg.replace("CONFIG", str(config)) for arg in argv])
        return _settings(build_cli_config(args))

    def test_each_key_sets_its_field_from_the_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ISMKIT_ENDPOINT", "127.0.0.1:1003")
        assert self._resolve(tmp_path, "--config", "CONFIG", "replay", "s.isms") == self.FILE

    def test_flag_beats_file(self, tmp_path):
        flags = [part for item in self.FLAGS.items() for part in item]
        got = self._resolve(tmp_path, "--config", "CONFIG", "replay", "s.isms", *flags)
        # align_tolerance_ms has no flag, so the file's value stands
        assert got == {"model": "flag_model.txt", "i_max": 3.5, "carrier_hz": 190.0,
                       "buffer_ms": 90.0, "segment_ms": 3.0, "endpoint": "127.0.0.1:1002",
                       "min_spacing_m": 0.004, "max_point_rate_hz": 120.0,
                       "align_tolerance_ms": 30.0}

    def test_environment_endpoint_when_neither_gives_one(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ISMKIT_ENDPOINT", "127.0.0.1:1003")
        assert self._resolve(tmp_path, "replay", "s.isms") == {
            "model": None, "i_max": 1.0, "carrier_hz": 200.0, "buffer_ms": 100.0,
            "segment_ms": 5.0, "endpoint": "127.0.0.1:1003", "min_spacing_m": 0.002,
            "max_point_rate_hz": 200.0, "align_tolerance_ms": 20.0}


NOT_UTF8 = b"\xff\xfe\x80 not text\n"


def _undecodable_case(tmp_path, case):
    """argv for a command whose `case` input holds bytes that are not UTF-8, and that input."""
    poses = tmp_path / "poses.csv"
    save_pose_csv([PoseSample(i * 10_000, np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                   for i in range(20)], poses)
    profile = tmp_path / "profile.csv"
    ism.save_profile_csv(ism.IntensityProfile(np.full(100, 0.5)), profile)
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    out = ["--out", str(tmp_path / "out")]
    if case in ("replay", "stream-send"):
        bad = tmp_path / "bad_meta.isms"
        record(bad, intensities=[(0, 1.0)], channels=1)
        with open(bad, "ab") as fh:
            fh.write(b"META" + struct.pack("<I", len(NOT_UTF8)) + NOT_UTF8)
    elif case == "render-model-id":
        bad = tmp_path / "bad_id.isms"
        bad.write_bytes(struct.pack("<4sHdBdH", b"ISMS", 1, FS, 1, 5.0, 2) + b"\xc3\x28")
    wav = tmp_path / "w.wav"
    save_wav(Waveform(np.zeros(500), FS), wav)
    return {
        "calibrate": ["calibrate", str(bad), *out],
        "render-poses": ["render", str(bad), "--profile", str(profile), *out],
        "simulate": ["simulate", str(bad), *out],
        "render-profile": ["render", str(poses), "--profile", str(bad), *out],
        "analyze-model": ["analyze", str(wav), "--model", str(bad), *out],
        "render-calibration": ["render", str(poses), "--profile", str(profile),
                               "--calibration", str(bad), *out],
        "replay": ["replay", str(bad), "--speed", "inf"],
        "render-model-id": ["render", str(bad), *out],
        "stream-send": ["stream-send", str(bad), "--endpoint", "127.0.0.1:9"],
        "config": ["--config", str(bad), "analyze", str(wav), *out],
    }[case], bad


class TestUndecodableInput:
    @pytest.mark.parametrize("case", ["calibrate", "render-poses", "simulate", "render-profile",
                                      "analyze-model", "render-calibration", "replay",
                                      "render-model-id", "stream-send", "config"])
    def test_exits_with_its_documented_code(self, tmp_path, capsys, case):
        argv, bad = _undecodable_case(tmp_path, case)
        code = main(argv)
        err = capsys.readouterr().err
        kind, expected = ("usage", 1) if case == "config" else ("data", 2)
        assert code == expected
        assert err.startswith(f"error[{kind}]: {bad}: not utf-8 text")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


class TestReplayOfBadSession:
    @pytest.mark.parametrize("pose_follows", [False, True])
    def test_replay_endpoint_sends_nothing(self, tmp_path, capsys, pose_follows):
        import gc
        import socket
        import warnings
        poses = [PoseSample(i * 1000, np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(20)]
        # the bad value sits just before a pose, or after every other event
        ints = [(i * 1000 + 500, -1.0 if pose_follows and i == 3 else 0.5) for i in range(20)]
        if not pose_follows:
            ints.append((10 ** 6, -1.0))
        src = tmp_path / "bad.isms"
        record(src, poses=poses, intensities=ints, channels=1)
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        server.settimeout(0.5)
        endpoint = f"127.0.0.1:{server.getsockname()[1]}"
        with server, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(["replay", str(src), "--speed", "inf", "--endpoint", endpoint])
            gc.collect()
            assert code == 2
            assert capsys.readouterr().err.startswith("error[data]:")
            with pytest.raises(socket.timeout):
                server.accept()[0].close()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
