"""Synthetic capture scenarios: a desk-scale stand-in for live hardware.

A scenario is a plain-text file describing a tool path and its texture:

    duration_s 2.0
    sample_rate_hz 5000          # optional
    roughness 1.0                # vibration gain per m/s of tool speed
    noise_band_hz 500 1500       # optional
    impact 0.5 2.0 0.02          # t_s  amplitude  decay_s   (repeatable)
    waypoint 0 0 0 0             # x y z speed_mps (speed of travel TO here)
    waypoint 0.1 0 0 0.05

Vibration per channel is speed-proportional band-limited noise plus decaying
800 Hz impact bursts; poses are sampled at 120 Hz along the path. Everything
is driven by one seed, so a scenario regenerates bit-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal as sp_signal

from .errors import DataError, FileFormatError, decoding
from .signal import MultiChannelWaveform, Waveform
from .trajectory import PoseSample

POSE_RATE_HZ = 120.0
IMPACT_TONE_HZ = 800.0
N_CHANNELS = 4


@dataclass(frozen=True)
class Impact:
    t_s: float
    amplitude: float
    decay_s: float

    def __post_init__(self):
        if not (0 <= self.t_s < math.inf and 0 <= self.amplitude < math.inf
                and 0 < self.decay_s < math.inf):
            raise DataError("impact needs finite t_s >= 0, amplitude >= 0, decay_s > 0")


@dataclass(frozen=True)
class Waypoint:
    position: np.ndarray
    speed_mps: float

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise DataError("waypoint position must be a finite 3-vector")
        if not 0 <= self.speed_mps < math.inf:
            raise DataError("waypoint speed must be finite and >= 0")
        object.__setattr__(self, "position", pos)


@dataclass(frozen=True)
class SyntheticScenario:
    duration_s: float
    waypoints: tuple[Waypoint, ...]
    roughness: float = 1.0
    impacts: tuple[Impact, ...] = ()
    sample_rate_hz: float = 5000.0
    noise_band_hz: tuple[float, float] = (500.0, 1500.0)

    def __post_init__(self):
        if not 0 < self.duration_s < math.inf:
            raise DataError("duration must be positive and finite")
        if not self.waypoints:
            raise DataError("scenario needs at least one waypoint")
        if not 0 <= self.roughness < math.inf:
            raise DataError("roughness must be finite and >= 0")
        if not 0 < self.sample_rate_hz < math.inf:
            raise DataError("sample rate must be positive and finite")
        lo, hi = self.noise_band_hz
        if not 0 < lo < hi < self.sample_rate_hz / 2:
            raise DataError(f"noise band {self.noise_band_hz} invalid for rate "
                            f"{self.sample_rate_hz}")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if b.speed_mps == 0 and np.linalg.norm(b.position - a.position) > 0:
                raise DataError("zero speed on a segment with nonzero length")


def load_scenario(path) -> SyntheticScenario:
    """Parse a scenario file; unknown keys are rejected with their line number."""
    values: dict[str, float] = {}
    band: tuple[float, float] | None = None
    impacts: list[Impact] = []
    waypoints: list[Waypoint] = []
    with open(path, "r", encoding="utf-8") as fh, decoding(path):
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            key, args = parts[0], parts[1:]
            try:
                if key in ("duration_s", "roughness", "sample_rate_hz"):
                    if len(args) != 1:
                        raise ValueError("expected one value")
                    values[key] = float(args[0])
                elif key == "noise_band_hz":
                    if len(args) != 2:
                        raise ValueError("expected two values")
                    band = (float(args[0]), float(args[1]))
                elif key == "impact":
                    if len(args) != 3:
                        raise ValueError("expected t_s amplitude decay_s")
                    impacts.append(Impact(*map(float, args)))
                elif key == "waypoint":
                    if len(args) != 4:
                        raise ValueError("expected x y z speed")
                    waypoints.append(Waypoint(np.array([float(a) for a in args[:3]]),
                                              float(args[3])))
                else:
                    raise FileFormatError(f"{path}:{lineno}: unknown key {key!r}")
            except (ValueError, DataError) as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    if "duration_s" not in values:
        raise FileFormatError(f"{path}: missing duration_s")
    if not waypoints:
        raise FileFormatError(f"{path}: missing waypoint lines")
    try:
        return SyntheticScenario(
            duration_s=values["duration_s"],
            waypoints=tuple(waypoints),
            roughness=values.get("roughness", 1.0),
            impacts=tuple(impacts),
            sample_rate_hz=values.get("sample_rate_hz", 5000.0),
            noise_band_hz=band or (500.0, 1500.0),
        )
    except DataError as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def _path_profile(scenario: SyntheticScenario, t: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Position (n, 3) and speed (n,) along the waypoint path at times t.

    The tool moves through the waypoints at each leg's speed and then holds
    at the final waypoint with zero speed.
    """
    legs = []  # (t_start, t_end, p0, p1, speed)
    t_cursor = 0.0
    wp = scenario.waypoints
    for a, b in zip(wp, wp[1:]):
        dist = float(np.linalg.norm(b.position - a.position))
        if dist == 0:
            continue
        dt = dist / b.speed_mps
        legs.append((t_cursor, t_cursor + dt, a.position, b.position, b.speed_mps))
        t_cursor += dt

    pos = np.tile(wp[-1].position, (t.size, 1))
    speed = np.zeros(t.size)
    if not legs:
        return np.tile(wp[0].position, (t.size, 1)), speed
    for t0, t1, p0, p1, v in legs:
        mask = (t >= t0) & (t < t1)
        if np.any(mask):
            frac = ((t[mask] - t0) / (t1 - t0))[:, None]
            pos[mask] = p0 + (p1 - p0) * frac
            speed[mask] = v
    return pos, speed


def simulate(scenario: SyntheticScenario, seed: int = 0
             ) -> tuple[MultiChannelWaveform, list[PoseSample]]:
    """Generate the four-channel vibration and the 120 Hz pose stream.

    Per channel: roughness * speed(t) * unit-RMS band-limited noise, plus the
    impact bursts (decaying 800 Hz tones, shared across channels). The same
    seed always produces the same session.
    """
    rate = scenario.sample_rate_hz
    n = int(round(scenario.duration_s * rate))
    t = np.arange(n) / rate
    _, speed = _path_profile(scenario, t)

    bursts = np.zeros(n)
    for impact in scenario.impacts:
        i0 = int(round(impact.t_s * rate))
        if i0 >= n:
            continue
        tail = t[i0:] - impact.t_s
        bursts[i0:] += impact.amplitude * np.exp(-tail / impact.decay_s) * np.sin(
            2.0 * np.pi * IMPACT_TONE_HZ * tail)

    sos = sp_signal.butter(4, scenario.noise_band_hz, btype="band", fs=rate, output="sos")
    rng = np.random.default_rng(seed)
    channels = []
    for _ in range(N_CHANNELS):
        noise = sp_signal.sosfilt(sos, rng.standard_normal(n))
        rms = float(np.sqrt(np.mean(noise ** 2))) if n else 1.0
        if rms > 0:
            noise /= rms
        channels.append(Waveform(scenario.roughness * speed * noise + bursts, rate))
    vibration = MultiChannelWaveform(tuple(channels))

    n_poses = int(round(scenario.duration_s * POSE_RATE_HZ))
    pose_t = np.arange(n_poses) / POSE_RATE_HZ
    pose_pos, _ = _path_profile(scenario, pose_t)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    poses = [PoseSample(int(round(ts * 1e6)), pose_pos[i], identity)
             for i, ts in enumerate(pose_t)]
    return vibration, poses
