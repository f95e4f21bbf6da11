"""Synthetic capture scenarios: a desk-scale stand-in for live hardware.

A scenario is a plain-text file describing a tool path and its texture:

    duration_s 2.0
    # optional
    sample_rate_hz 5000
    # vibration gain per m/s of tool speed
    roughness 1.0
    # optional
    noise_band_hz 500 1500
    # t_s amplitude decay_s (repeatable)
    impact 0.5 2.0 0.02
    # x y z speed_mps (speed of travel TO here)
    waypoint 0 0 0 0
    waypoint 0.1 0 0 0.05

Vibration per channel is speed-proportional band-limited noise plus decaying
800 Hz impact bursts; poses are sampled at 120 Hz along the path. Everything
is driven by one seed, so a scenario regenerates bit-identically.

`simulate` works once per call, not per sample or pose. One search over
the legs' end times finds each time's leg, for the vibration's speed and
the poses' positions alike; the band-pass is signal.py's Butterworth,
designed once per (band, rate); and the poses pass one check in
poses_from_arrays and share one identity orientation array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FileFormatError, decoding
from .signal import MultiChannelWaveform, Waveform, butter_filter
from .trajectory import PoseSample, poses_from_arrays

POSE_RATE_HZ = 120.0
IMPACT_TONE_HZ = 800.0
# exp(-x) underflows to exactly 0.0 from x of about 745.13; a burst ends here
BURST_DECAYS = 750.0
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
        # simulate draws round(duration * rate) samples, and 0.5 rounds to none
        if not self.duration_s * self.sample_rate_hz > 0.5:
            raise DataError(f"duration {self.duration_s} s holds no sample at "
                            f"{self.sample_rate_hz} Hz")
        lo, hi = self.noise_band_hz
        if not 0 < lo < hi < self.sample_rate_hz / 2:
            raise DataError(f"noise band {self.noise_band_hz} invalid for rate "
                            f"{self.sample_rate_hz}")
        object.__setattr__(self, "noise_band_hz", (float(lo), float(hi)))
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


def _legs(scenario: SyntheticScenario) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The path's legs of nonzero length: their bounds (0, then each leg's end
    time), start and end positions (legs, 3), and speeds, then a 0 for the hold.

    The tool moves through the waypoints at each leg's speed and then holds
    at the final waypoint with zero speed; each leg starts where the last ends.
    """
    bounds, starts, ends, speeds = [0.0], [], [], []
    wp = scenario.waypoints
    for a, b in zip(wp, wp[1:]):
        dist = float(np.linalg.norm(b.position - a.position))
        if dist:
            bounds.append(bounds[-1] + dist / b.speed_mps)
            starts.append(a.position)
            ends.append(b.position)
            speeds.append(b.speed_mps)
    return (np.array(bounds), np.reshape(starts, (-1, 3)), np.reshape(ends, (-1, 3)),
            np.array(speeds + [0.0]))


def _leg_index(bounds: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Each time's leg: leg k holds bounds[k] to before bounds[k + 1]; -1
    before the first leg and the leg count from the last one's end."""
    # the legs tile [0, end) in order (a leg that ends where it starts holds no time)
    return np.searchsorted(bounds, t, side="right") - 1


def _path_positions(scenario: SyntheticScenario, legs, t: np.ndarray) -> np.ndarray:
    """Position (n, 3) along the waypoint path at times t; outside the legs,
    the final waypoint's own values (the first's, if no leg moves)."""
    bounds, starts, ends, _ = legs
    wp = scenario.waypoints
    pos = np.tile((wp[-1] if starts.size else wp[0]).position, (t.size, 1))
    leg = _leg_index(bounds, t)
    moving = (leg >= 0) & (leg < len(starts))
    leg = leg[moving]
    frac = ((t[moving] - bounds[leg]) / (bounds[leg + 1] - bounds[leg]))[:, None]
    pos[moving] = starts[leg] + (ends[leg] - starts[leg]) * frac
    return pos


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
    legs = bounds, _, _, speeds = _legs(scenario)
    speed = speeds[_leg_index(bounds, t)]  # before and after the legs: speeds[-1], 0

    bursts = np.zeros(n)
    for impact in scenario.impacts:
        i0 = int(round(impact.t_s * rate))  # past the end, the slices are empty
        # past BURST_DECAYS decay constants exp is exactly 0, so the burst adds
        # only zeros of either sign, which leave every sum as it is
        span = BURST_DECAYS * impact.decay_s * rate
        i1 = n if span >= n else i0 + math.ceil(span) + 1
        tail = t[i0:i1] - impact.t_s
        bursts[i0:i1] += impact.amplitude * np.exp(-tail / impact.decay_s) * np.sin(
            2.0 * np.pi * IMPACT_TONE_HZ * tail)

    gain = scenario.roughness * speed
    rng = np.random.default_rng(seed)
    channels = []
    for _ in range(N_CHANNELS):
        noise = butter_filter(rng.standard_normal(n), scenario.noise_band_hz, "band", rate)
        rms = float(np.sqrt(np.mean(noise ** 2)))
        if rms > 0:
            noise /= rms
        channels.append(Waveform(gain * noise + bursts, rate))
    vibration = MultiChannelWaveform(tuple(channels))

    n_poses = int(round(scenario.duration_s * POSE_RATE_HZ))
    pose_t = np.arange(n_poses) / POSE_RATE_HZ
    # rint rounds half to even, as round() does
    t_us = np.rint(pose_t * 1e6).astype(np.int64).tolist()
    return vibration, poses_from_arrays(t_us, _path_positions(scenario, legs, pose_t),
                                        np.array([1.0, 0.0, 0.0, 0.0]))
