"""Rigid-body poses, tool-tip pivot calibration, and colored trajectory export.

Poses arrive from an external tracker as timestamped position + unit
quaternion. The tool tip is found by rotating a fixed body-frame offset; the
offset itself is recovered by pivoting the tool around a stationary point
and solving the stacked least-squares system R_i * o + p_i = c for the
offset o and the pivot c.
"""

from __future__ import annotations

import csv
import math
import sys
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .colormap import NormalizationConfig, map_color, normalize
from .errors import DataError, FileFormatError, decoding
from .ism import IntensityProfile

QUAT_NORM_TOL = 1e-6
MAX_PIVOT_CONDITION = 1e6
# Slack on the spacing gate: keeps decimation deterministic when step sizes
# land exactly on min_spacing and absorbs float32 quantization of positions
# stored in session files (ULP ~1e-7 m at meter scale). One micron is far
# below any meaningful spacing threshold.
SPACING_EPSILON_M = 1e-6


@dataclass(frozen=True, slots=True, init=False)
class PoseSample:
    """Timestamped rigid-body pose: position in meters, orientation (w, x, y, z)."""

    t_us: int
    position: np.ndarray
    orientation: np.ndarray

    def __init__(self, t_us: int, position: np.ndarray, orientation: np.ndarray):
        pos, quat = (_plain_pose(position, orientation)
                     or validate_poses(position, orientation, ndim=1))
        _set_t_us(self, int(t_us))
        _set_position(self, pos)
        _set_orientation(self, quat)


# a frozen dataclass's own __setattr__ refuses every field; these fill its slots
_set_t_us, _set_position, _set_orientation = (getattr(PoseSample, f.name).__set__
                                              for f in fields(PoseSample))

# A norm this far inside the tolerance passes validate_poses however numpy
# orders the sum of squares: four products and three sums differ by a few
# ULP of 1 between summation orders.
_PLAIN_NORM_TOL = QUAT_NORM_TOL - 16 * sys.float_info.epsilon
_FLOAT64 = np.dtype(np.float64)


def _plain_pose(position, orientation) -> tuple[np.ndarray, np.ndarray] | None:
    """One pose as validate_poses returns it, if it surely passes, checked without numpy.

    Takes tuples or lists of Python floats, and float64 vectors, which are
    returned as they are. Anything else, including every pose the rule
    rejects, gives None, and validate_poses decides it.
    """
    if type(position) is np.ndarray and type(orientation) is np.ndarray:
        if not (position.dtype is orientation.dtype is _FLOAT64
                and position.shape == (3,) and orientation.shape == (4,)):
            return None
        checked = position, orientation
        position, orientation = position.tolist(), orientation.tolist()
    elif type(position) in (tuple, list) and type(orientation) in (tuple, list):
        checked = None
    else:
        return None
    try:
        px, py, pz = position
        w, x, y, z = orientation
    except ValueError:
        return None
    if not type(px) is type(py) is type(pz) is type(w) is type(x) is type(y) is type(z) is float:
        return None
    # NaN fails the comparison; a finite sum has finite terms
    if not (abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0) <= _PLAIN_NORM_TOL
            and math.isfinite(px + py + pz)):
        return None
    return checked or (np.array(position), np.array(orientation))


def validate_poses(positions, orientations, ndim: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """The pose rule, over one pose (ndim=1) or a stack of them (ndim=2).

    Positions are 3-vectors and orientations 4-vectors, all values finite,
    and every quaternion's norm within QUAT_NORM_TOL of 1. Returns both as
    float64 arrays; a DataError describes the first pose that breaks the rule.
    """
    pos = np.asarray(positions, dtype=np.float64)
    quat = np.asarray(orientations, dtype=np.float64)
    if pos.ndim != ndim or pos.shape[-1:] != (3,) or quat.shape != pos.shape[:-1] + (4,):
        raise DataError("pose needs a 3-vector position and 4-vector quaternion")
    # vecdot is the per-row dot that np.linalg.norm takes; NaN fails the
    # comparison, so a non-finite quaternion fails it too
    norm = np.sqrt(np.vecdot(quat, quat))
    ok = (abs(norm - 1.0) <= QUAT_NORM_TOL) & np.isfinite(pos).all(axis=-1)
    # one pose gives a numpy bool, whose all() costs more than the check
    if not (ok if ndim == 1 else ok.all()):
        first = int(np.argmin(ok))
        if not (np.isfinite(pos.reshape(-1, 3)[first]).all()
                and np.isfinite(quat.reshape(-1, 4)[first]).all()):
            raise DataError("pose contains non-finite values")
        raise DataError(f"quaternion norm {float(norm.flat[first])} deviates from 1 "
                        f"beyond {QUAT_NORM_TOL}")
    return pos, quat


def poses_from_arrays(t_us: list[int], positions: np.ndarray,
                      orientations: np.ndarray) -> list[PoseSample]:
    """PoseSamples over the rows of pose arrays, checked once by validate_poses."""
    pos, quat = validate_poses(positions, orientations)
    poses = []
    for t, p, q in zip(t_us, pos, quat):
        pose = object.__new__(PoseSample)
        _set_t_us(pose, t)
        _set_position(pose, p)
        _set_orientation(pose, q)
        poses.append(pose)
    return poses


@dataclass(frozen=True)
class ToolCalibration:
    tip_offset: np.ndarray

    def __post_init__(self):
        off = np.asarray(self.tip_offset, dtype=np.float64)
        if off.shape != (3,) or not np.all(np.isfinite(off)):
            raise DataError("tip offset must be a finite 3-vector")
        object.__setattr__(self, "tip_offset", off)


IDENTITY_CALIBRATION = ToolCalibration(np.zeros(3))


@dataclass(frozen=True)
class TrajectoryPoint:
    t_us: int
    tip_position: np.ndarray
    intensity: float
    rgb: tuple[int, int, int]


@dataclass(frozen=True)
class TrajectoryConfig:
    min_spacing_m: float = 0.002
    max_point_rate_hz: float = 200.0
    align_tolerance_ms: float = 20.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise DataError(f"{f.name} must be a positive finite number, got {value}")


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of unit quaternions (w, x, y, z): shape (..., 4) to (..., 3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = np.moveaxis(q, -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(q.shape[:-1] + (3, 3))


def tip_position(pose: PoseSample, calibration: ToolCalibration) -> np.ndarray:
    """World position of the tool tip: p + R(q) @ offset."""
    return pose.position + quat_to_matrix(pose.orientation) @ calibration.tip_offset


def pivot_calibrate(poses: list[PoseSample]) -> tuple[ToolCalibration, float]:
    """Recover the tip offset from poses pivoting about a fixed point.

    Solves R_i * o + p_i = c for (o, c) by least squares over all poses and
    returns the calibration plus the per-equation residual RMS (comparable to
    the per-axis tracker noise). Orientation diversity is required: the
    stacked system must be reasonably conditioned, otherwise the offset is
    unobservable.
    """
    if len(poses) < 3:
        raise DataError(f"pivot calibration needs at least 3 poses, got {len(poses)}")
    n = len(poses)
    a = np.zeros((3 * n, 6))
    b = np.zeros(3 * n)
    for i, pose in enumerate(poses):
        a[3 * i:3 * i + 3, 0:3] = quat_to_matrix(pose.orientation)
        a[3 * i:3 * i + 3, 3:6] = -np.eye(3)
        b[3 * i:3 * i + 3] = -pose.position
    cond = np.linalg.cond(a)
    if not np.isfinite(cond) or cond > MAX_PIVOT_CONDITION:
        raise DataError(
            f"orientations too similar for pivot calibration (condition number {cond:.3g})")
    sol, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    residual = a @ sol - b
    rms = float(np.sqrt(np.mean(residual ** 2)))
    return ToolCalibration(sol[:3]), rms


def build_trajectory(poses: list[PoseSample], profile: IntensityProfile | np.ndarray,
                     calibration: ToolCalibration = IDENTITY_CALIBRATION,
                     norm: NormalizationConfig = NormalizationConfig(1.0),
                     config: TrajectoryConfig = TrajectoryConfig()) -> list[TrajectoryPoint]:
    """Decimate poses into colored trajectory points.

    A pose is emitted only when its tip has moved at least min_spacing_m from
    the last emitted point AND at least 1/max_point_rate_hz has elapsed.
    Each point takes its pose's aligned_intensity and that value's TURBO colour;
    profile is what aligned_intensity takes.
    Everything but the sequential decimation runs over whole arrays.
    """
    if not poses:
        raise DataError("empty pose stream")
    if len(profile) == 0:
        raise DataError("empty intensity profile")
    t_us = [p.t_us for p in poses]
    for prev, t in zip(t_us, t_us[1:]):
        if t <= prev:
            raise DataError(f"pose timestamps not strictly increasing at t_us={t}")

    intensity = aligned_intensity(poses, profile, config)
    # a stacked matmul forms each pose's product as tip_position's does
    tips = (np.array([p.position for p in poses])
            + np.matmul(quat_to_matrix(np.array([p.orientation for p in poses])),
                        calibration.tip_offset))

    kept = _decimate(t_us, tips, config)
    points: list[TrajectoryPoint] = []
    for i, tip in zip(kept, tips[kept]):
        held = float(intensity[i])
        points.append(TrajectoryPoint(t_us=t_us[i], tip_position=tip, intensity=held,
                                      rgb=map_color(normalize(held, norm))))
    return points


def aligned_intensity(poses: list[PoseSample], profile: IntensityProfile | np.ndarray,
                      config: TrajectoryConfig) -> np.ndarray:
    """Per pose, the value recorded nearest its time within align_tolerance_ms
    (the earlier on a tie), else the last such value, from 0.

    profile is an IntensityProfile, aligned at its segment midpoints rounded
    to whole microseconds, or (t_us, value) rows in any order, each value
    finite and non-negative. Times compare as float64 microseconds, exact
    below 2^53.
    """
    if isinstance(profile, IntensityProfile):
        times, values = profile.midpoints_us(), profile.values
    else:
        rows = np.asarray(profile, dtype=np.float64).reshape(-1, 2)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        # the profile's own rule checks the values
        times, values = rows[:, 0], IntensityProfile(rows[:, 1]).values
    t_us = np.array([p.t_us for p in poses], dtype=np.float64)
    n = times.size
    if n == 0:
        return np.zeros(t_us.size)
    j = np.searchsorted(times, t_us)
    before, after = np.maximum(j - 1, 0), np.minimum(j, n - 1)
    d_before = np.where(j > 0, np.abs(times[before] - t_us), np.inf)
    d_after = np.where(j < n, np.abs(times[after] - t_us), np.inf)
    take_after = d_after < d_before
    nearest = np.where(take_after, after, before)
    aligned = np.where(take_after, d_after, d_before) <= config.align_tolerance_ms * 1000.0
    last = np.maximum.accumulate(np.where(aligned, np.arange(t_us.size), -1))
    return np.where(last >= 0, values[nearest[np.maximum(last, 0)]], 0.0)


def _decimate(t_us: list[int], tips: np.ndarray, config: TrajectoryConfig) -> list[int]:
    """Indices of the poses the spacing and rate gates emit, first pose always."""
    min_spacing = config.min_spacing_m - SPACING_EPSILON_M
    min_interval_us = 1e6 / config.max_point_rate_hz
    rows = tips.tolist()
    kept = [0]
    last_t, (lx, ly, lz) = t_us[0], rows[0]
    for i in range(1, len(rows)):
        t, (x, y, z) = t_us[i], rows[i]
        dx, dy, dz = x - lx, y - ly, z - lz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if math.isclose(dist, min_spacing, rel_tol=1e-12):
            # np.linalg.norm may round differently; let it decide near-ties
            dist = float(np.linalg.norm(tips[i] - tips[kept[-1]]))
        if dist < min_spacing or t - last_t < min_interval_us:
            continue
        kept.append(i)
        last_t, lx, ly, lz = t, x, y, z
    return kept


def export_ply(points: list[TrajectoryPoint], path) -> None:
    """Write trajectory points as an ASCII PLY point cloud with vertex colors."""
    if not points:
        raise DataError("refusing to write an empty PLY")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("ply\n"
                 "format ascii 1.0\n"
                 f"element vertex {len(points)}\n"
                 "property float x\n"
                 "property float y\n"
                 "property float z\n"
                 "property uchar red\n"
                 "property uchar green\n"
                 "property uchar blue\n"
                 "end_header\n")
        for p in points:
            x, y, z = p.tip_position
            r, g, b = p.rgb
            fh.write(f"{x:g} {y:g} {z:g} {r} {g} {b}\n")


def load_ply(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back an ASCII PLY written by export_ply: (positions Nx3, colors Nx3)."""
    with open(path, "r", encoding="ascii") as fh, decoding(path):
        line = fh.readline().strip()
        if line != "ply":
            raise FileFormatError(f"{path}: not a PLY file")
        n = None
        while True:
            line = fh.readline()
            if not line:
                raise FileFormatError(f"{path}: header never ends")
            line = line.strip()
            if line.startswith("element vertex"):
                n = line.split()[-1]
            if line == "end_header":
                break
        if n is None:
            raise FileFormatError(f"{path}: no vertex element")
        try:
            count = int(n)
        except ValueError:
            count = -1
        if count < 0:
            raise FileFormatError(f"{path}: bad vertex count {n!r}")
        # rows are kept as they are read, so the file, not the count it
        # declares, bounds the memory taken
        pos, rgb = array("d"), array("q")
        for i in range(count):
            parts = fh.readline().split()
            if len(parts) < 6:
                raise FileFormatError(f"{path}: truncated vertex list at row {i}")
            try:
                pos.extend([float(v) for v in parts[:3]])
                rgb.extend([int(v) for v in parts[3:6]])
            except (ValueError, OverflowError):
                raise FileFormatError(f"{path}: bad number in vertex row {i}") from None
    return np.array(pos).reshape(-1, 3), np.array(rgb, dtype=np.int64).reshape(-1, 3)


def save_pose_csv(poses: list[PoseSample], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_us", "px", "py", "pz", "qw", "qx", "qy", "qz"])
        for p in poses:
            writer.writerow([p.t_us,
                             *(f"{v:.9g}" for v in p.position),
                             *(f"{v:.9g}" for v in p.orientation)])


def load_pose_csv(path) -> list[PoseSample]:
    """Read `t_us,px,py,pz,qw,qx,qy,qz` rows into pose samples."""
    poses: list[PoseSample] = []
    with open(path, "r", newline="", encoding="utf-8") as fh, decoding(path):
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["t_us", "px", "py", "pz", "qw", "qx", "qy", "qz"]
        if header is None or [h.strip() for h in header[:8]] != expected:
            raise FileFormatError(f"{path}: expected header {','.join(expected)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                t_us = int(row[0])
                vals = [float(v) for v in row[1:8]]
            except (ValueError, IndexError):
                raise FileFormatError(f"{path}:{lineno}: bad pose row {row!r}") from None
            try:
                poses.append(PoseSample(t_us, np.array(vals[0:3]), np.array(vals[3:7])))
            except DataError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from None
    return poses


def save_calibration(calibration: ToolCalibration, residual_rms: float, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        off = calibration.tip_offset
        fh.write(f"tip_offset {off[0]:.9g} {off[1]:.9g} {off[2]:.9g}\n")
        fh.write(f"residual_rms_m {residual_rms:.9g}\n")


def load_calibration(path) -> ToolCalibration:
    with open(path, "r", encoding="utf-8") as fh, decoding(path):
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if parts and parts[0] == "tip_offset":
                if len(parts) != 4:
                    raise FileFormatError(f"{path}:{lineno}: tip_offset needs 3 values")
                try:
                    return ToolCalibration(np.array([float(v) for v in parts[1:4]]))
                except ValueError:
                    raise FileFormatError(f"{path}:{lineno}: non-numeric offset") from None
    raise FileFormatError(f"{path}: no tip_offset line found")
