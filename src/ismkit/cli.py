"""Command-line entry point wiring the whole pipeline.

Commands are batch/file oriented plus two streaming commands. Every error
exits nonzero with a single machine-parseable stderr line of the form
`error[<kind>]: <message>`; exit codes are 0 ok, 1 usage, 2 data, 3 I/O,
4 protocol.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import ism, psychophysics as psy, session as sess, wire
from .colormap import NormalizationConfig, map_color, normalize
from .errors import DataError, FileFormatError, IsmkitError, ProtocolError, UsageError
from .scenario import load_scenario, simulate
from .signal import MultiChannelWaveform, Waveform
from .trajectory import (IDENTITY_CALIBRATION, PoseSample, TrajectoryConfig,
                         TrajectoryPoint, build_trajectory, export_ply,
                         load_calibration, load_pose_csv, pivot_calibrate,
                         save_calibration, save_pose_csv)
from .wavio import load_wav, save_wav

ENDPOINT_ENV = "ISMKIT_ENDPOINT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4

CONFIG_KEYS = {
    "model": str,
    "i_max": float,
    "carrier_hz": float,
    "buffer_ms": float,
    "segment_ms": float,
    "endpoint": str,
    "min_spacing_m": float,
    "max_point_rate_hz": float,
    "align_tolerance_ms": float,
}


@dataclass
class CliConfig:
    model_path: str | None = None
    i_max: float = 1.0
    carrier_hz: float = 200.0
    buffer_ms: float = 100.0
    segment_ms: float = 5.0
    endpoint: str | None = None
    min_spacing_m: float = 0.002
    max_point_rate_hz: float = 200.0
    align_tolerance_ms: float = 20.0

    def model(self) -> psy.PsychoModel:
        if self.model_path is None:
            return psy.DEFAULT_MODEL
        return psy.load_model(self.model_path)

    def ism_config(self) -> ism.IsmConfig:
        return ism.IsmConfig(carrier_hz=self.carrier_hz, buffer_ms=self.buffer_ms,
                             segment_ms=self.segment_ms)

    def trajectory_config(self) -> TrajectoryConfig:
        return TrajectoryConfig(min_spacing_m=self.min_spacing_m,
                                max_point_rate_hz=self.max_point_rate_hz,
                                align_tolerance_ms=self.align_tolerance_ms)

    def norm(self) -> NormalizationConfig:
        return NormalizationConfig(self.i_max)


def load_config_file(path) -> dict:
    """Parse `key value` lines; unknown keys are rejected with the offending line."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            if not value:
                raise UsageError(f"{path}:{lineno}: missing value for {key!r}")
            try:
                out[key] = CONFIG_KEYS[key](value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return out


def build_cli_config(args) -> CliConfig:
    cfg = CliConfig()
    if args.config:
        file_values = load_config_file(args.config)
        if "model" in file_values:
            cfg.model_path = file_values["model"]
        for key in ("i_max", "carrier_hz", "buffer_ms", "segment_ms", "endpoint",
                    "min_spacing_m", "max_point_rate_hz", "align_tolerance_ms"):
            if key in file_values:
                setattr(cfg, key, file_values[key])
    if cfg.endpoint is None:
        cfg.endpoint = os.environ.get(ENDPOINT_ENV)
    # flags override the file
    for attr, flag in (("model_path", "model"), ("i_max", "imax"),
                       ("carrier_hz", "carrier"), ("buffer_ms", "buffer_ms"),
                       ("segment_ms", "segment_ms"), ("endpoint", "endpoint"),
                       ("min_spacing_m", "min_spacing"),
                       ("max_point_rate_hz", "max_rate")):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _analyze_input(waveform, model, config) -> tuple[ism.IntensityProfile, Waveform]:
    """Analyze mono or 4-channel input; multichannel profiles are fused to their mean."""
    if isinstance(waveform, MultiChannelWaveform):
        results = [ism.analyze(ch, model, config) for ch in waveform.channels]
        profile = ism.fuse_channels([r.profile for r in results])
        lowfreq = results[0].lowfreq
    else:
        result = ism.analyze(waveform, model, config)
        profile, lowfreq = result.profile, result.lowfreq
    return profile, lowfreq


def cmd_analyze(args) -> int:
    cfg = build_cli_config(args)
    model = cfg.model()
    loaded = load_wav(args.input)
    profile, _ = _analyze_input(loaded, model, cfg.ism_config())
    ism.save_profile_csv(profile, args.out)
    if args.session:
        rate = loaded.sample_rate_hz
        if isinstance(loaded, MultiChannelWaveform):
            frames = np.stack([ch.samples for ch in loaded.channels], axis=1)
            channels = 4
        else:
            frames = loaded.samples[:, None]
            channels = 1
        writer = sess.SessionWriter(args.session, rate, channels, cfg.segment_ms,
                                    model_id=cfg.model_path or "builtin")
        writer.append_vibration(frames)
        for t_s, value in zip(profile.midpoints_s(), profile.values):
            writer.append_intensity(int(round(t_s * 1e6)), float(value))
        writer.close()
    print(f"analyzed segments={len(profile)} out={args.out}")
    return EXIT_OK


def cmd_convert(args) -> int:
    cfg = build_cli_config(args)
    model = cfg.model()
    config = cfg.ism_config()
    loaded = load_wav(args.input)
    if isinstance(loaded, MultiChannelWaveform):
        converted = MultiChannelWaveform(tuple(
            ism.convert(ch, model, config) for ch in loaded.channels))
        n = len(converted)
    else:
        converted = ism.convert(loaded, model, config)
        n = len(converted)
    save_wav(converted, args.out, encoding=args.encoding)
    print(f"converted samples={n} out={args.out}")
    return EXIT_OK


def _profile_from_intensities(intensities: np.ndarray) -> ism.IntensityProfile:
    if intensities.shape[0] == 0:
        raise DataError("session has no intensity stream; pass --profile")
    return ism.profile_from_times(intensities[:, 0] / 1e6, intensities[:, 1])


def cmd_render(args) -> int:
    cfg = build_cli_config(args)
    if str(args.input).endswith(".isms"):
        session = sess.Session.open(args.input)
        poses = session.poses
        profile = (ism.load_profile_csv(args.profile) if args.profile
                   else _profile_from_intensities(session.intensities))
    else:
        poses = load_pose_csv(args.input)
        if not args.profile:
            raise UsageError("pose CSV input requires --profile")
        profile = ism.load_profile_csv(args.profile)
    calibration = load_calibration(args.calibration) if args.calibration \
        else IDENTITY_CALIBRATION
    points = build_trajectory(poses, profile, calibration=calibration,
                              norm=cfg.norm(), config=cfg.trajectory_config())
    export_ply(points, args.out)
    print(f"rendered points={len(points)} out={args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    vibration, poses = simulate(scenario, seed=args.seed)
    frames = np.stack([ch.samples for ch in vibration.channels], axis=1)
    writer = sess.SessionWriter(args.out, scenario.sample_rate_hz, 4,
                                model_id="simulated")
    writer.append_vibration(frames)
    for pose in poses:
        writer.append_pose(pose)
    writer.add_meta("scenario", str(args.scenario))
    writer.add_meta("seed", str(args.seed))
    summary = writer.close()
    print(f"simulated duration_s={summary['vibration_duration_s']:g} "
          f"poses={summary['poses']} out={args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    poses = load_pose_csv(args.input)
    calibration, residual = pivot_calibrate(poses)
    save_calibration(calibration, residual, args.out)
    off = calibration.tip_offset
    print(f"calibrated tip_offset=({off[0]:.6f},{off[1]:.6f},{off[2]:.6f}) "
          f"residual_rms_m={residual:.6g} out={args.out}")
    return EXIT_OK


def _hello(session: sess.Session) -> wire.Hello:
    return wire.Hello(channels=session.channels,
                      sample_rate_hz=int(round(session.sample_rate_hz)),
                      segment_ms_x10=int(round(session.segment_ms * 10)))


def _message(t_us: int, pose: PoseSample | None, intensity: float,
             norm: NormalizationConfig) -> wire.WireMessage:
    """The wire message for one replay event: a colored Frame for a pose."""
    if pose is None:
        return wire.IntensityOnly(t_us, intensity)
    return wire.Frame(t_us=t_us, position=pose.position,
                      quaternion=pose.orientation, intensity=intensity,
                      rgb=map_color(normalize(intensity, norm)))


def cmd_stream_send(args) -> int:
    cfg = build_cli_config(args)
    if not cfg.endpoint:
        raise UsageError("no endpoint given (flag --endpoint, config, or "
                         f"{ENDPOINT_ENV})")
    session = sess.Session.open(args.session)
    norm = cfg.norm()
    # Session.open checked the poses; with these intensities every message
    # builds, so a bad session sends nothing
    values = session.intensities[:, 1]
    if not (np.isfinite(values) & (values >= 0)).all():
        raise DataError("session intensities must be finite and non-negative")
    events = sess.replay_events(session, sess.ReplayClock(speed=math.inf))
    # bulk transfer of a recorded session is lossless; drop-oldest is for live feeds
    sender = wire.FrameSender(cfg.endpoint, queue_capacity=args.queue, policy="block")
    sender.send(_hello(session))
    for event in events:
        sender.send(_message(*event, norm))
    report = sender.close()
    print(f"sent={report.sent} drops={report.drops}")
    if report.error:
        raise ProtocolError(f"stream aborted: {report.error}")
    return EXIT_OK


def cmd_stream_recv(args) -> int:
    cfg = build_cli_config(args)
    endpoint = cfg.endpoint
    if not endpoint:
        raise UsageError("no endpoint given")
    listener = wire.Listener(endpoint)
    received: list[wire.WireMessage] = []
    stats = listener.receive(received.append, accept_timeout=args.timeout)
    out = str(args.out)
    if out.endswith(".ply"):
        points = [TrajectoryPoint(m.t_us, np.array(m.position), m.intensity, m.rgb)
                  for m in received if isinstance(m, wire.Frame)]
        export_ply(points, out)
    else:
        hello = next((m for m in received if isinstance(m, wire.Hello)), None)
        writer = sess.SessionWriter(
            out,
            sample_rate_hz=hello.sample_rate_hz if hello else 5000.0,
            channels=hello.channels if hello else 4,
            segment_ms=hello.segment_ms_x10 / 10.0 if hello else 5.0,
            model_id="received")
        for m in received:
            if isinstance(m, wire.Frame):
                writer.append_pose(PoseSample(m.t_us, np.array(m.position),
                                              np.array(m.quaternion)))
                writer.append_intensity(m.t_us, m.intensity)
            elif isinstance(m, wire.IntensityOnly):
                writer.append_intensity(m.t_us, m.intensity)
        writer.close()
    print(f"received={stats.messages} frames={stats.frames} "
          f"resync_bytes={stats.resync_bytes} out={args.out}")
    return EXIT_OK


def cmd_replay(args) -> int:
    cfg = build_cli_config(args)
    session = sess.Session.open(args.session)
    clock = sess.ReplayClock(speed=args.speed)

    sender = None
    norm = cfg.norm()
    if args.endpoint or (cfg.endpoint and args.to_wire):
        # unpaced replay is a bulk transfer and lossless, as stream-send is;
        # paced replay is a live feed, where stale frames make way
        policy = "block" if math.isinf(args.speed) else "drop-oldest"
        sender = wire.FrameSender(args.endpoint or cfg.endpoint, policy=policy)
        sender.send(_hello(session))

    poses_out: list[PoseSample] = []
    times_s: list[float] = []
    values: list[float] = []
    start_wall = time.monotonic()
    for t_us, pose, intensity in sess.replay_events(session, clock):
        if pose is not None:
            poses_out.append(pose)
        else:
            times_s.append(t_us / 1e6)
            values.append(intensity)
        if sender is not None:
            sender.send(_message(t_us, pose, intensity, norm))
    wall_s = time.monotonic() - start_wall
    if sender is not None:
        sender_report = sender.close()
        print(f"sent={sender_report.sent} drops={sender_report.drops}")
        if sender_report.error:
            raise ProtocolError(f"replay stream aborted: {sender_report.error}")
    if args.pose_csv:
        save_pose_csv(poses_out, args.pose_csv)
    if args.intensity_csv:
        ism.save_intensity_csv(times_s, values, args.intensity_csv)
    print(f"replayed poses={len(poses_out)} intensities={len(values)} "
          f"wall_s={wall_s:.3f}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ismkit",
                     description="Vibration capture to perceptual intensity, "
                                 "AM resynthesis, colored trajectories, "
                                 "streaming and replay.")
    parser.add_argument("--config", help="key-value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, endpoint=False):
        p.add_argument("--model", help="psychophysical model file")
        p.add_argument("--imax", type=float, help="normalization maximum intensity")
        p.add_argument("--carrier", type=float, help="carrier frequency Hz")
        p.add_argument("--buffer-ms", dest="buffer_ms", type=float)
        p.add_argument("--segment-ms", dest="segment_ms", type=float)
        p.add_argument("--min-spacing", dest="min_spacing", type=float)
        p.add_argument("--max-rate", dest="max_rate", type=float)
        if endpoint:
            p.add_argument("--endpoint", help="host:port")

    p = sub.add_parser("analyze", help="WAV to intensity profile CSV")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--session", help="also record input + profile to a .isms file")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("convert", help="re-express a WAV on the carrier")
    p.add_argument("input")
    p.add_argument("out")
    p.add_argument("--encoding", choices=("float32", "pcm16"), default="float32")
    common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("render", help="poses + profile to colored PLY")
    p.add_argument("input", help=".isms session or pose CSV")
    p.add_argument("--profile", help="profile CSV (required for pose CSV input)")
    p.add_argument("--calibration", help="tool-tip calibration file")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("simulate", help="scenario file to synthetic session")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="pivot-calibrate a tool tip from poses")
    p.add_argument("input", help="pose CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("stream-send", help="send a session over the wire")
    p.add_argument("session")
    p.add_argument("--queue", type=int, default=256)
    common(p, endpoint=True)
    p.set_defaults(func=cmd_stream_send)

    p = sub.add_parser("stream-recv", help="receive a stream into .isms or .ply")
    p.add_argument("--out", required=True)
    p.add_argument("--timeout", type=float, default=30.0)
    common(p, endpoint=True)
    p.set_defaults(func=cmd_stream_recv)

    p = sub.add_parser("replay", help="replay a session to sinks")
    p.add_argument("session")
    p.add_argument("--speed", type=float, default=1.0)
    p.add_argument("--pose-csv", dest="pose_csv")
    p.add_argument("--intensity-csv", dest="intensity_csv")
    p.add_argument("--to-wire", dest="to_wire", action="store_true",
                   help="stream to the configured endpoint while replaying")
    common(p, endpoint=True)
    p.set_defaults(func=cmd_replay)

    return parser


def _fail(kind: str, message: str, code: int) -> int:
    sys.stderr.write(f"error[{kind}]: {message}\n")
    return code


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        return _fail("usage", str(exc), EXIT_USAGE)
    except (DataError, FileFormatError) as exc:
        return _fail("data", str(exc), EXIT_DATA)
    except ProtocolError as exc:
        return _fail("protocol", str(exc), EXIT_PROTOCOL)
    except OSError as exc:
        return _fail("io", str(exc), EXIT_IO)
    except IsmkitError as exc:
        return _fail("data", str(exc), EXIT_DATA)


if __name__ == "__main__":
    sys.exit(main())
