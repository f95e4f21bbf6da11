"""Per-pose trajectory builder used as a cross-check oracle in tests.

The straightforward loop `build_trajectory` is measured against: one pose
at a time, its own scalar rotation matrix, a searchsorted lookup per pose
and the spacing and rate gates in order. Shares no code with the package's
alignment, rotation or decimation.
"""

import numpy as np

from ismkit.colormap import map_color, normalize
from ismkit.errors import DataError
from ismkit.trajectory import SPACING_EPSILON_M, TrajectoryPoint


def _quat_to_matrix(q):
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def reference_trajectory(poses, profile, calibration, lut, norm, config):
    if not poses:
        raise DataError("empty pose stream")
    if len(profile) == 0:
        raise DataError("empty intensity profile")
    t_prev = None
    for pose in poses:
        if t_prev is not None and pose.t_us <= t_prev:
            raise DataError(f"pose timestamps not strictly increasing at t_us={pose.t_us}")
        t_prev = pose.t_us

    midpoints = profile.midpoints_s()
    values = profile.values
    tol_s = config.align_tolerance_ms / 1000.0
    min_interval_us = 1e6 / config.max_point_rate_hz

    points = []
    last_tip = None
    last_t_us = None
    held_intensity = 0.0
    for pose in poses:
        t_s = pose.t_us / 1e6
        j = int(np.searchsorted(midpoints, t_s))
        best = None
        for cand in (j - 1, j):
            if 0 <= cand < midpoints.size:
                d = abs(midpoints[cand] - t_s)
                if best is None or d < best[0]:
                    best = (d, cand)
        if best is not None and best[0] <= tol_s:
            held_intensity = float(values[best[1]])

        tip = pose.position + _quat_to_matrix(pose.orientation) @ calibration.tip_offset
        if last_tip is not None:
            if np.linalg.norm(tip - last_tip) < config.min_spacing_m - SPACING_EPSILON_M:
                continue
            if pose.t_us - last_t_us < min_interval_us:
                continue
        rgb = map_color(normalize(held_intensity, norm), lut)
        points.append(TrajectoryPoint(t_us=pose.t_us, tip_position=tip,
                                      intensity=held_intensity, rgb=rgb))
        last_tip = tip
        last_t_us = pose.t_us
    return points
