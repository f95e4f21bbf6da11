"""Seeded capture generation for the benchmark workloads.

All inputs come from `ismkit.scenario.simulate`, the repository's load
generator. A capture is a chain of 10 s pieces. Each piece travels three
legs, one at each of three speeds in a random order, with impact bursts
scattered over them, then holds still in silence for 2.5 s, so whole
buffers stop EMD at once. The mix of holds, speeds and impacts is the same
for every seed; the seed draws the noise, the leg order and directions, and
the impact times and strengths. That keeps the work per capture nearly the
same from seed to seed. The same seed always gives the same capture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ismkit.scenario import Impact, SyntheticScenario, Waypoint, simulate
from ismkit.trajectory import PoseSample

SAMPLE_RATE_HZ = 5000.0
PIECE_S = 10.0
SPEEDS_MPS = (0.04, 0.12, 0.3)
HOLD_S = 2.5
ROUGHNESS = 2.0
IMPACTS_PER_PIECE = 4
SEGMENT_MS = 5.0


@dataclass
class Capture:
    """Four-channel vibration (n, 4), 120 Hz poses and per-5 ms intensities."""

    vibration: np.ndarray
    poses: list[PoseSample]
    intensities: list[tuple[int, float]]


def _moving(rng: np.random.Generator, start: np.ndarray, duration_s: float
            ) -> SyntheticScenario:
    waypoints = [Waypoint(start, 0.0)]
    pos = start
    for speed in rng.permutation(SPEEDS_MPS):
        direction = rng.standard_normal(3)
        direction /= np.linalg.norm(direction)
        pos = pos + direction * speed * duration_s / len(SPEEDS_MPS)
        waypoints.append(Waypoint(pos, float(speed)))
    impacts = tuple(Impact(float(t), float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.01, 0.02)))
                    for t in np.sort(rng.uniform(0.0, duration_s, size=IMPACTS_PER_PIECE)))
    return SyntheticScenario(duration_s=duration_s, waypoints=tuple(waypoints),
                             roughness=ROUGHNESS, impacts=impacts, sample_rate_hz=SAMPLE_RATE_HZ)


def make_capture(seed: int, duration_s: float) -> Capture:
    """Generate `duration_s` (a multiple of 10 s) of capture from `seed`."""
    pieces = int(round(duration_s / PIECE_S))
    rng = np.random.default_rng(seed)
    start = np.zeros(3)
    vib_parts = []
    poses: list[PoseSample] = []
    t0_s = 0.0
    for _ in range(pieces):
        moving = _moving(rng, start, PIECE_S - HOLD_S)
        start = moving.waypoints[-1].position
        hold = SyntheticScenario(duration_s=HOLD_S, waypoints=(Waypoint(start, 0.0),),
                                 sample_rate_hz=SAMPLE_RATE_HZ)
        for scenario in (moving, hold):
            vibration, part_poses = simulate(scenario, seed=int(rng.integers(2**31)))
            vib_parts.append(np.stack([ch.samples for ch in vibration.channels], axis=1))
            offset_us = int(round(t0_s * 1e6))
            poses.extend(PoseSample(p.t_us + offset_us, p.position, p.orientation)
                         for p in part_poses)
            t0_s += scenario.duration_s
    vibration = np.concatenate(vib_parts, axis=0)
    return Capture(vibration, poses, _intensities(vibration))


def _intensities(vibration: np.ndarray) -> list[tuple[int, float]]:
    """A stand-in intensity stream: RMS of the channel mean per 5 ms segment.

    Stamped at segment midpoints, like an analyzed profile. Generating it
    this way keeps the session set-up cheap; the session workload only moves
    and stores these values, it never recomputes them.
    """
    seg = int(round(SEGMENT_MS / 1000.0 * SAMPLE_RATE_HZ))
    n_seg = vibration.shape[0] // seg
    mean = vibration[:n_seg * seg].mean(axis=1).reshape(n_seg, seg)
    rms = np.sqrt(np.mean(mean * mean, axis=1)).astype(np.float32)
    t_us = ((np.arange(n_seg) + 0.5) * SEGMENT_MS * 1000.0).round().astype(np.int64)
    return list(zip(t_us.tolist(), rms.astype(np.float64).tolist()))

