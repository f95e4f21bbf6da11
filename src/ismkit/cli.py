"""Command-line entry point wiring the whole pipeline.

Commands are batch/file oriented plus two streaming commands. Every error
exits nonzero with a single machine-parseable stderr line of the form
`error[<kind>]: <message>`; exit codes are 0 ok, 1 usage, 2 data, 3 I/O,
4 protocol, and 130 for a run stopped by SIGINT (`error[interrupted]`).

`render` aligns poses to intensity rows at their recorded times: a
session's rows, or a `--profile` CSV's rows as written (times rounded to
whole microseconds), never a grid rebuilt from them.
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
from .errors import (DataError, FileFormatError, IsmkitError, ProtocolError, UsageError,
                     decoding)
from .scenario import load_scenario, simulate
from .signal import MultiChannelWaveform, Waveform
from .trajectory import (IDENTITY_CALIBRATION, PoseSample, aligned_intensity,
                         build_trajectory, export_ply, load_calibration, load_pose_csv,
                         pivot_calibrate, save_calibration, save_pose_csv)
from .wavio import load_wav, save_wav

ENDPOINT_ENV = "ISMKIT_ENDPOINT"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_IO = 3
EXIT_PROTOCOL = 4
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

# config key: (value type, argparse dest of its flag, flag help)
SETTINGS = {
    "model": (str, "model", "psychophysical model file"),
    "i_max": (float, "imax", "normalization maximum intensity"),
    "endpoint": (str, "endpoint", "host:port"),
}


@dataclass
class CliConfig:
    """The settings given, by config key."""

    values: dict

    @property
    def model_path(self) -> str | None:
        return self.values.get("model")

    @property
    def endpoint(self) -> str | None:
        return self.values.get("endpoint")

    def model(self) -> psy.PsychoModel:
        if self.model_path is None:
            return psy.DEFAULT_MODEL
        return psy.load_model(self.model_path)

    def norm(self) -> NormalizationConfig:
        return NormalizationConfig(self.values.get("i_max", 1.0))


def load_config_file(path) -> dict:
    """Parse `key value` lines; unknown keys are rejected with the offending line."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh, decoding(path, UsageError):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            value = value.strip()
            if key not in SETTINGS:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            if not value:
                raise UsageError(f"{path}:{lineno}: missing value for {key!r}")
            try:
                out[key] = SETTINGS[key][0](value)
            except ValueError:
                raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return out


def build_cli_config(args) -> CliConfig:
    """Each setting from its flag, else the --config file, else (endpoint) ISMKIT_ENDPOINT."""
    values = load_config_file(args.config) if args.config else {}
    if ENDPOINT_ENV in os.environ:
        values.setdefault("endpoint", os.environ[ENDPOINT_ENV])
    flags = vars(args)
    values.update((key, flags[dest]) for key, (_, dest, _) in SETTINGS.items()
                  if flags.get(dest) is not None)
    return CliConfig(values)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _channels(loaded: Waveform | MultiChannelWaveform) -> tuple[Waveform, ...]:
    """A WAV's channels; a mono file is the one-channel case."""
    return loaded.channels if isinstance(loaded, MultiChannelWaveform) else (loaded,)


def _record_analysis(path, channels: tuple[Waveform, ...], profile: ism.IntensityProfile,
                     model_id: str, **streams) -> dict:
    """Record the channels and their profile, one intensity per segment midpoint."""
    return sess.record(
        path, vibration=np.stack([ch.samples for ch in channels], axis=1),
        intensities=zip(profile.midpoints_us().astype(np.int64).tolist(),
                        profile.values.tolist()),
        sample_rate_hz=channels[0].sample_rate_hz, segment_ms=profile.segment_duration_ms,
        model_id=model_id, **streams)


def cmd_analyze(args) -> int:
    cfg = build_cli_config(args)
    channels = _channels(load_wav(args.input))
    model = cfg.model()
    # the mean of one profile is that profile, bit for bit
    profile = ism.fuse_channels([ism.analyze(ch, model).profile for ch in channels])
    if args.session:
        _record_analysis(args.session, channels, profile, cfg.model_path or "builtin")
    ism.save_profile_csv(profile, args.out)
    print(f"analyzed segments={len(profile)} out={args.out}")
    return EXIT_OK


def cmd_convert(args) -> int:
    cfg = build_cli_config(args)
    model = cfg.model()
    converted = tuple(ism.convert(ch, model) for ch in _channels(load_wav(args.input)))
    clipped = save_wav(converted[0] if len(converted) == 1 else MultiChannelWaveform(converted),
                       args.out, encoding=args.encoding)
    print(f"converted samples={len(converted[0])} clipped={clipped} out={args.out}")
    return EXIT_OK


def _render(poses, profile, cfg: CliConfig, out, calibration=IDENTITY_CALIBRATION) -> int:
    """Write the coloured trajectory of poses to a PLY; returns its point count."""
    points = build_trajectory(poses, profile, calibration=calibration, norm=cfg.norm())
    export_ply(points, out)
    return len(points)


def _profile_rows(path) -> np.ndarray:
    """A profile CSV's (t_us, value) rows as written, as a session holds its intensities."""
    times_s, values = ism.load_intensity_csv(path)
    return np.column_stack([np.round(np.array(times_s) * 1e6), values])


def cmd_render(args) -> int:
    cfg = build_cli_config(args)
    if str(args.input).endswith(".isms"):
        session = sess.Session.open(args.input)
        poses = session.poses
        profile = _profile_rows(args.profile) if args.profile else session.intensities
    else:
        poses = load_pose_csv(args.input)
        if not args.profile:
            raise UsageError("pose CSV input requires --profile")
        profile = _profile_rows(args.profile)
    calibration = load_calibration(args.calibration) if args.calibration else IDENTITY_CALIBRATION
    points = _render(poses, profile, cfg, args.out, calibration)
    print(f"rendered points={points} out={args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    vibration, poses = simulate(scenario, seed=args.seed)
    # analyzed in float32, as recorded, so analyze --session of its WAV agrees
    channels = tuple(Waveform(ch.samples.astype(np.float32), ch.sample_rate_hz)
                     for ch in vibration.channels)
    profile = ism.fuse_channels([ism.analyze(ch).profile for ch in channels])
    summary = _record_analysis(args.out, channels, profile, "builtin", poses=poses,
                               meta={"scenario": str(args.scenario), "seed": str(args.seed)})
    print(f"simulated duration_s={summary['vibration_duration_s']:g} "
          f"poses={summary['poses']} intensities={summary['intensities']} out={args.out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    poses = load_pose_csv(args.input)
    calibration, residual = pivot_calibrate(poses)
    save_calibration(calibration, residual, args.out)
    off = calibration.tip_offset
    print(f"calibrated tip_offset=({off[0]:.6f},{off[1]:.6f},{off[2]:.6f}) "
          f"residual_rms_m={residual:.6g} out={args.out}")
    return EXIT_OK


def _replay(session: sess.Session, clock: sess.ReplayClock, endpoint: str | None,
            cfg: CliConfig, sink=None) -> float:
    """Replay a session's replay_events to sink and, given an endpoint, over the
    wire after a Hello; returns the event loop's wall time.

    A pose's Frame carries the intensity render gives it (0.0 with no
    intensity stream), found with every intensity checked before the sender
    connects, so a bad session sends nothing. Unpaced replay is a bulk
    transfer and loses nothing; paced replay is a live feed, where the
    oldest queued frames make way.
    """
    sender = None
    if endpoint:
        hello = wire.Hello(session.channels, int(round(session.sample_rate_hz)),
                           int(round(session.segment_ms * 10)))
        # replay_events yields the poses in this order, a stable sort by time
        poses = sorted(session.poses, key=lambda pose: pose.t_us)
        pose_values = iter(aligned_intensity(poses, session.intensities).tolist())
        norm = cfg.norm()
        sender = wire.FrameSender(
            endpoint, policy="block" if math.isinf(clock.speed) else "drop-oldest")
    try:
        if sender is not None:
            sender.send(hello)
        start_wall = time.monotonic()
        for event in sess.replay_events(session, clock):
            if sink is not None:
                sink(event)
            if sender is None:
                continue
            t_us, pose, value = event
            if pose is None:
                sender.send(wire.IntensityOnly(t_us, value))
            else:
                value = next(pose_values)
                sender.send(wire.Frame(t_us, pose.position, pose.orientation, value,
                                       map_color(normalize(value, norm))))
        wall_s = time.monotonic() - start_wall
    except BaseException:
        # a cut stream ends without End, so the peer does not take it for whole
        if sender is not None:
            sender.close(send_end=False)
        raise
    if sender is not None:
        report = sender.close()
        print(f"sent={report.sent} drops={report.drops}")
        if report.error:
            raise ProtocolError(f"stream aborted: {report.error}")
    return wall_s


def cmd_stream_send(args) -> int:
    cfg = build_cli_config(args)
    if not cfg.endpoint:
        raise UsageError(f"no endpoint given (flag --endpoint, config, or {ENDPOINT_ENV})")
    session = sess.Session.open(args.session)
    _replay(session, sess.ReplayClock(speed=math.inf), cfg.endpoint, cfg)
    return EXIT_OK


def cmd_stream_recv(args) -> int:
    cfg = build_cli_config(args)
    if not cfg.endpoint:
        raise UsageError("no endpoint given")
    listener = wire.Listener(cfg.endpoint)
    received: list[wire.WireMessage] = []
    stats = listener.receive(received.append, accept_timeout=args.timeout)
    hello = next((m for m in received if isinstance(m, wire.Hello)), None)
    if hello is None:
        raise ProtocolError("stream ended without a Hello")
    out = str(args.out)
    if out.endswith(".ply"):
        poses = [PoseSample(m.t_us, m.position, m.quaternion)
                 for m in received if isinstance(m, wire.Frame)]
        ints = [(m.t_us, m.intensity) for m in received if isinstance(m, wire.IntensityOnly)]
        _render(poses, ints, cfg, out)
    else:
        with sess.SessionWriter(out, hello.sample_rate_hz, hello.channels,
                                hello.segment_ms_x10 / 10.0, model_id="received") as writer:
            for m in received:
                if isinstance(m, wire.Frame):
                    writer.append_pose(PoseSample(m.t_us, m.position, m.quaternion))
                elif isinstance(m, wire.IntensityOnly):
                    writer.append_intensity(m.t_us, m.intensity)
    print(f"received={stats.messages} frames={stats.frames} "
          f"resync_bytes={stats.resync_bytes} "
          f"decode_errors={sum(stats.decode_errors.values())} out={args.out}")
    if not stats.got_end:
        raise ProtocolError(f"stream ended without End after {stats.messages} messages")
    return EXIT_OK


def cmd_replay(args) -> int:
    cfg = build_cli_config(args)
    session = sess.Session.open(args.session)
    endpoint = cfg.endpoint if args.endpoint or args.to_wire else None
    events: list[tuple] = []
    wall_s = _replay(session, sess.ReplayClock(speed=args.speed), endpoint, cfg,
                     events.append)
    poses = [pose for _, pose, _ in events if pose is not None]
    times_s = [t_us / 1e6 for t_us, pose, _ in events if pose is None]
    values = [value for _, pose, value in events if pose is None]
    if args.pose_csv:
        save_pose_csv(poses, args.pose_csv)
    if args.intensity_csv:
        ism.save_intensity_csv(times_s, values, args.intensity_csv)
    print(f"replayed poses={len(poses)} intensities={len(values)} wall_s={wall_s:.3f}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ismkit",
                     description="Vibration capture to perceptual intensity, "
                                 "AM resynthesis, colored trajectories, "
                                 "streaming and replay.")
    parser.add_argument("--config", help="key-value configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, endpoint=False):
        for key, (kind, dest, help_text) in SETTINGS.items():
            if endpoint or key != "endpoint":
                p.add_argument("--" + dest.replace("_", "-"), type=kind, help=help_text)

    p = sub.add_parser("analyze", help="WAV to intensity profile CSV")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--session", help="also record input + profile to a .isms file")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("convert", help="re-express a WAV on the 200 Hz carrier")
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
    except KeyboardInterrupt:
        return _fail("interrupted", "stopped by SIGINT", EXIT_INTERRUPTED)


if __name__ == "__main__":
    sys.exit(main())
