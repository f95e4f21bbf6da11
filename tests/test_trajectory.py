import math
import pickle
import sys
from dataclasses import FrozenInstanceError, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ismkit import trajectory
from ismkit.colormap import TURBO, NormalizationConfig, map_color, normalize
from ismkit.errors import DataError, FileFormatError
from ismkit.ism import IntensityProfile
from ismkit.trajectory import (QUAT_NORM_TOL, SPACING_EPSILON_M, PoseSample, ToolCalibration,
                               aligned_intensity, build_trajectory, export_ply,
                               load_calibration, load_ply, load_pose_csv,
                               pivot_calibrate, poses_from_arrays, quat_to_matrix,
                               save_calibration, save_pose_csv, tip_position, validate_poses)

from .reference_trajectory import reference_trajectory

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])
EPS = sys.float_info.epsilon


def _gates(**changed) -> SimpleNamespace:
    """The trajectory gates as reference_trajectory takes them: the constants, some changed."""
    return SimpleNamespace(**{"min_spacing_m": trajectory.MIN_SPACING_M,
                              "max_point_rate_hz": trajectory.MAX_POINT_RATE_HZ,
                              "align_tolerance_ms": trajectory.ALIGN_TOLERANCE_MS} | changed)


def _patched(gates: SimpleNamespace):
    """Set the trajectory constants to these gates while the context lasts."""
    return mock.patch.multiple(trajectory, MIN_SPACING_M=gates.min_spacing_m,
                               MAX_POINT_RATE_HZ=gates.max_point_rate_hz,
                               ALIGN_TOLERANCE_MS=gates.align_tolerance_ms)


def _random_quat(rng):
    q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


def _pivot_poses(offset, pivot, n=40, seed=7, noise=0.0):
    rng = np.random.default_rng(seed)
    poses = []
    for i in range(n):
        q = _random_quat(rng)
        p = pivot - quat_to_matrix(q) @ offset
        if noise:
            p = p + rng.normal(0.0, noise, 3)
        poses.append(PoseSample(i * 10_000, p, q))
    return poses


class TestPoseSample:
    def test_quaternion_norm_enforced(self):
        with pytest.raises(DataError):
            PoseSample(0, np.zeros(3), np.array([1.0, 0.1, 0.0, 0.0]))

    def test_valid(self):
        p = PoseSample(5, np.array([1.0, 2.0, 3.0]), IDENTITY_Q)
        assert p.t_us == 5

    def test_huge_finite_position_accepted(self):
        # its squared length overflows, which must not read as non-finite
        p = PoseSample(0, np.array([1e200, -1e300, 0.0]), IDENTITY_Q)
        assert p.position[1] == -1e300

    @pytest.mark.parametrize("position, orientation, message", [
        ([0.0, np.nan, 0.0], [1.0, 0.0, 0.0, 0.0], "pose contains non-finite values"),
        ([0.0, 0.0, 0.0], [1.0, 0.0, np.inf, 0.0], "pose contains non-finite values"),
        ([0.0, 0.0, 0.0], [1.0, 0.1, 0.0, 0.0],
         "quaternion norm 1.004987562112089 deviates from 1 beyond 1e-06"),
        ([0.0, 0.0, 0.0], [1e200, 0.0, 0.0, 0.0],
         "quaternion norm inf deviates from 1 beyond 1e-06"),
        ([0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
         "pose needs a 3-vector position and 4-vector quaternion"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_rule_messages(self, position, orientation, message):
        with pytest.raises(DataError) as single:
            PoseSample(0, np.array(position), np.array(orientation))
        assert str(single.value) == message

    def test_stack_reports_first_bad_pose(self):
        pos = np.zeros((6, 3))
        quat = np.tile(IDENTITY_Q, (6, 1))
        quat[2] = [1.0, 0.1, 0.0, 0.0]
        pos[4, 1] = np.inf
        with pytest.raises(DataError, match="quaternion norm 1.004987562112089"):
            validate_poses(pos, quat)
        quat[2] = IDENTITY_Q
        with pytest.raises(DataError, match="non-finite"):
            validate_poses(pos, quat)
        pos[4, 1] = 1e300
        out_pos, out_quat = validate_poses(pos, quat)
        assert out_pos.dtype == out_quat.dtype == np.float64

    def test_stack_agrees_with_single_pose_rule(self):
        rng = np.random.default_rng(11)
        quat = rng.standard_normal((4000, 4))
        quat /= np.linalg.norm(quat, axis=1)[:, None]
        # norms spread across the tolerance edge
        quat *= 1.0 + rng.uniform(-2e-6, 2e-6, (4000, 1))
        pos = rng.standard_normal((4000, 3))
        for i in range(4000):
            try:
                validate_poses(pos[i:i + 1], quat[i:i + 1])
                stack_ok = True
            except DataError:
                stack_ok = False
            try:
                PoseSample(i, pos[i], quat[i])
                single_ok = True
            except DataError:
                single_ok = False
            ref_ok = abs(float(np.linalg.norm(quat[i])) - 1.0) <= 1e-6
            assert stack_ok == single_ok == ref_ok


def _scaled_unit(direction, scale):
    """A quaternion along direction with norm scale, as Python floats."""
    q = np.asarray(direction, dtype=np.float64)
    norm = float(np.linalg.norm(q))
    if not norm or not math.isfinite(norm):
        q, norm = np.array([1.0, 0.0, 0.0, 0.0]), 1.0
    return (q / norm * scale).tolist()


plain = st.floats(allow_nan=True, allow_infinity=True)
# values the pose rule converts, accepts or rejects: NaN and inf, ints,
# numpy scalars of other widths
pose_value = st.one_of(
    plain, plain, st.integers(-2 ** 70, 2 ** 70), st.booleans(),
    st.floats(width=32).map(np.float32), plain.map(np.float64),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.sampled_from([0.0, -0.0, 1.0, 1e308, -1e308, 5e-324, float("nan"), float("inf")]))
# norms within a few ULP of either tolerance edge, and well inside it
edge_scale = st.one_of(
    st.builds(lambda edge, k: edge + k * EPS,
              st.sampled_from([1.0 - QUAT_NORM_TOL, 1.0 + QUAT_NORM_TOL]),
              st.integers(-40, 40)),
    st.floats(1.0 - 2 * QUAT_NORM_TOL, 1.0 + 2 * QUAT_NORM_TOL))
edge_quaternion = st.builds(_scaled_unit, st.lists(st.floats(-1, 1), min_size=4, max_size=4),
                            edge_scale)


def _container(values):
    """The same values as a tuple, a list, or a numpy array of its own or another dtype."""
    return st.sampled_from([
        tuple, list, np.array, lambda v: np.array(v, dtype=np.float32),
        lambda v: np.array(v, dtype=">f8"), lambda v: np.array([v])]).map(
            lambda make: make(values))


def _vector(n):
    return st.one_of(
        st.lists(pose_value, min_size=n, max_size=n),
        st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n),
        st.lists(pose_value, min_size=n - 1, max_size=n + 1)).flatmap(_container)


def _pose_arrays(position, orientation):
    pose = PoseSample(1, position, orientation)
    return pose.position, pose.orientation


def _pose_outcome(build):
    """Both arrays' dtype and bits, or the type and message of what build() raises."""
    try:
        position, orientation = build()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return (position.dtype, position.shape, position.tobytes(),
            orientation.dtype, orientation.shape, orientation.tobytes())


class TestOnePoseCheck:
    """PoseSample decides one pose as validate_poses(..., ndim=1) does, to the bit."""

    @settings(max_examples=800, deadline=None)
    @given(position=_vector(3),
           orientation=st.one_of(_vector(4), edge_quaternion.flatmap(_container)))
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_matches_validate_poses(self, position, orientation):
        got = _pose_outcome(lambda: _pose_arrays(position, orientation))
        want = _pose_outcome(lambda: validate_poses(position, orientation, ndim=1))
        assert got == want

    @pytest.mark.parametrize("make", [tuple, np.array])
    @pytest.mark.parametrize("edge", [1.0 - QUAT_NORM_TOL, 1.0 + QUAT_NORM_TOL])
    def test_tolerance_edge_ulp_by_ulp(self, edge, make):
        rng = np.random.default_rng(5)
        position = make((0.5, -0.25, 2.0))
        for k in range(-64, 65):
            quat = make(_scaled_unit(rng.standard_normal(4), edge + k * EPS))
            got = _pose_outcome(lambda: _pose_arrays(position, quat))
            assert got == _pose_outcome(lambda: validate_poses(position, quat, ndim=1))

    def test_record_is_slotted(self):
        pose = PoseSample(7, (0.5, -0.25, 2.0), (1.0, 0.0, 0.0, 0.0))
        assert not hasattr(pose, "__dict__")
        with pytest.raises(FrozenInstanceError):
            pose.t_us = 8
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(pose, protocol))
            assert type(copy) is PoseSample and copy.t_us == 7
            assert copy.position.tobytes() == pose.position.tobytes()
            assert copy.orientation.tobytes() == pose.orientation.tobytes()
        assert replace(pose) == pose
        moved = replace(pose, t_us=9)
        assert moved.t_us == 9 and moved.position is pose.position
        with pytest.raises(DataError, match="quaternion norm 2.0"):
            replace(pose, orientation=(2.0, 0.0, 0.0, 0.0))


class TestPosesFromArrays:
    def _arrays(self, n):
        rng = np.random.default_rng(n)
        quats = rng.standard_normal((n, 4))
        quats /= np.linalg.norm(quats, axis=1, keepdims=True)
        return list(range(0, 1000 * n, 1000)), rng.standard_normal((n, 3)), quats

    def test_rows_equal_one_pose_sample_each(self):
        t_us, positions, quats = self._arrays(7)
        poses = poses_from_arrays(t_us, positions, quats)
        for pose, t, p, q in zip(poses, t_us, positions, quats):
            want = PoseSample(t, p, q)
            assert type(pose.t_us) is int and pose.t_us == want.t_us
            assert pose.position.tobytes() == want.position.tobytes()
            assert pose.orientation.tobytes() == want.orientation.tobytes()

    def test_one_orientation_is_shared_as_one_array(self):
        t_us, positions, _ = self._arrays(9)
        quat = np.array([0.5, -0.5, 0.5, -0.5])
        poses = poses_from_arrays(t_us, positions, quat)
        assert len(poses) == 9 and all(pose.orientation is quat for pose in poses)
        per_row = poses_from_arrays(t_us, positions, np.tile(quat, (9, 1)))
        for pose, want in zip(poses, per_row):
            assert pose.t_us == want.t_us
            assert pose.position.tobytes() == want.position.tobytes()
            assert pose.orientation.tobytes() == want.orientation.tobytes()

    @pytest.mark.parametrize("orientations", [np.array([1.0, 0.0, 0.0, 0.0]), np.zeros((0, 4))])
    def test_no_poses_give_an_empty_list(self, orientations):
        assert poses_from_arrays([], np.zeros((0, 3)), orientations) == []

    @pytest.mark.parametrize("orientation, match", [
        ((2.0, 0.0, 0.0, 0.0), "quaternion norm 2.0"),
        ((1.0, 0.0, 0.0), "4-vector quaternion"),
        ((np.nan, 0.0, 0.0, 0.0), "non-finite")])
    def test_a_shared_orientation_is_checked(self, orientation, match):
        t_us, positions, _ = self._arrays(3)
        with pytest.raises(DataError, match=match):
            poses_from_arrays(t_us, positions, orientation)


class TestTipPosition:
    def test_identity_orientation(self):
        pose = PoseSample(0, np.array([1.0, 2.0, 3.0]), IDENTITY_Q)
        calib = ToolCalibration(np.array([0.0, 0.0, 0.1]))
        assert tip_position(pose, calib) == pytest.approx([1.0, 2.0, 3.1])

    def test_half_turn_about_x(self):
        pose = PoseSample(0, np.zeros(3), np.array([0.0, 1.0, 0.0, 0.0]))
        calib = ToolCalibration(np.array([0.0, 0.0, 0.1]))
        assert tip_position(pose, calib) == pytest.approx([0.0, 0.0, -0.1], abs=1e-12)

    def test_zero_offset(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            pose = PoseSample(0, rng.standard_normal(3), _random_quat(rng))
            assert tip_position(pose, ToolCalibration(np.zeros(3))) == pytest.approx(
                pose.position)

    def test_matrix_stack_matches_single_quaternions(self):
        rng = np.random.default_rng(4)
        quats = np.array([_random_quat(rng) for _ in range(50)])
        stacked = quat_to_matrix(quats)
        assert stacked.shape == (50, 3, 3)
        for q, m in zip(quats, stacked):
            assert np.array_equal(quat_to_matrix(q), m)
            assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)

    def test_rigidity_under_global_transform(self):
        rng = np.random.default_rng(2)
        calib = ToolCalibration(np.array([0.01, -0.02, 0.15]))
        poses = [PoseSample(i, rng.standard_normal(3), _random_quat(rng))
                 for i in range(2)]
        d_before = np.linalg.norm(tip_position(poses[0], calib)
                                  - tip_position(poses[1], calib))

        # apply one rigid transform (Rg, tg) to both poses
        qg = _random_quat(rng)
        rg = quat_to_matrix(qg)
        tg = rng.standard_normal(3)

        def compose(qg, q):
            w1, x1, y1, z1 = qg
            w2, x2, y2, z2 = q
            return np.array([
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2])

        moved = [PoseSample(p.t_us, rg @ p.position + tg,
                            compose(qg, p.orientation) /
                            np.linalg.norm(compose(qg, p.orientation)))
                 for p in poses]
        d_after = np.linalg.norm(tip_position(moved[0], calib)
                                 - tip_position(moved[1], calib))
        assert d_after == pytest.approx(d_before, abs=1e-9)


class TestPivotCalibrate:
    def test_noiseless_recovery(self):
        offset = np.array([0.01, -0.02, 0.15])
        poses = _pivot_poses(offset, np.array([0.3, 0.2, 0.1]))
        calib, rms = pivot_calibrate(poses)
        assert np.max(np.abs(calib.tip_offset - offset)) < 1e-6
        assert rms < 1e-8
        # independent check by direct substitution: R o + p lands on one point
        tips = np.array([tip_position(p, calib) for p in poses])
        assert np.max(np.std(tips, axis=0)) < 1e-9

    def test_noisy_recovery_under_1mm(self):
        offset = np.array([0.01, -0.02, 0.15])
        noise = 1e-4  # 0.1 mm
        errors = []
        rmss = []
        for seed in range(20):
            poses = _pivot_poses(offset, np.array([0.3, 0.2, 0.1]),
                                 seed=seed, noise=noise)
            calib, rms = pivot_calibrate(poses)
            errors.append(np.linalg.norm(calib.tip_offset - offset))
            rmss.append(rms)
        assert max(errors) < 1e-3
        assert np.median(rmss) == pytest.approx(noise, rel=0.5)

    def test_degenerate_orientations_rejected(self):
        poses = [PoseSample(i, np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(10)]
        with pytest.raises(DataError):
            pivot_calibrate(poses)

    def test_too_few_poses_rejected(self):
        poses = _pivot_poses(np.array([0.0, 0.0, 0.1]), np.zeros(3))[:2]
        with pytest.raises(DataError):
            pivot_calibrate(poses)


def _line_poses(length_m=0.1, speed=0.05, rate_hz=1000.0):
    n = int(length_m / speed * rate_hz)
    poses = []
    for i in range(n + 1):
        x = min(speed * i / rate_hz, length_m)
        poses.append(PoseSample(int(i / rate_hz * 1e6), np.array([x, 0.0, 0.0]),
                                IDENTITY_Q))
    return poses


class TestBuildTrajectory:
    def test_stationary_tool_single_point(self):
        poses = [PoseSample(i * 10_000, np.zeros(3), IDENTITY_Q) for i in range(100)]
        profile = IntensityProfile(np.linspace(0, 1, 50))
        points = build_trajectory(poses, profile)
        assert len(points) == 1

    def test_line_point_count_and_spacing(self):
        poses = _line_poses()
        profile = IntensityProfile(np.full(400, 0.5))
        points = build_trajectory(poses, profile)
        assert abs(len(points) - 51) <= 2
        positions = np.array([p.tip_position for p in points])
        gaps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
        assert np.all(gaps >= 0.002 - 1e-6)

    def test_hold_last_through_gap(self):
        # profile covers only the first 50 ms; later poses hold the last value
        profile = IntensityProfile(np.full(10, 3.0))
        poses = [PoseSample(i * 50_000, np.array([i * 0.01, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(10)]
        norm_cfg = NormalizationConfig(4.0)
        points = build_trajectory(poses, profile, norm=norm_cfg)
        assert all(p.intensity == pytest.approx(3.0) for p in points)

    def test_rgb_consistent_with_colormap(self):
        rng = np.random.default_rng(3)
        profile = IntensityProfile(rng.uniform(0, 2, 200))
        poses = _line_poses()
        norm_cfg = NormalizationConfig(1.5)
        points = build_trajectory(poses, profile, norm=norm_cfg)
        for p in points:
            assert p.rgb == map_color(normalize(p.intensity, norm_cfg))

    def test_unsorted_timestamps_rejected(self):
        poses = [PoseSample(10, np.zeros(3), IDENTITY_Q),
                 PoseSample(5, np.ones(3) * 0.1, IDENTITY_Q)]
        with pytest.raises(DataError):
            build_trajectory(poses, IntensityProfile(np.ones(5)))

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError):
            build_trajectory([], IntensityProfile(np.ones(5)))
        with pytest.raises(DataError):
            build_trajectory([PoseSample(0, np.zeros(3), IDENTITY_Q)],
                             IntensityProfile(np.zeros(0)))

    def test_rate_cap(self):
        # dense fast motion: 1000 Hz poses moving 1 mm per sample with a
        # 200 Hz cap -> no two emitted points closer than 5 ms
        poses = [PoseSample(i * 1000, np.array([i * 0.001, 0.0, 0.0]), IDENTITY_Q)
                 for i in range(1000)]
        profile = IntensityProfile(np.full(200, 1.0))
        with _patched(_gates(min_spacing_m=0.0001)):
            points = build_trajectory(poses, profile)
        dts = np.diff([p.t_us for p in points])
        assert np.all(dts >= 5000)


def _same_points(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.t_us == b.t_us
        assert np.array_equal(a.tip_position, b.tip_position)
        assert a.intensity == b.intensity and type(a.intensity) is float
        assert a.rgb == b.rgb


@st.composite
def _trajectory_case(draw):
    """Poses, profile and gates that sit on the edges of every rule."""
    seg_ms = draw(st.sampled_from([5.0, 2.5, 10.0, 7.3]))
    start_s = draw(st.sampled_from([0.0, 0.0123]))
    n_seg = draw(st.integers(1, 40))
    values = draw(st.lists(st.floats(0.0, 5.0), min_size=n_seg, max_size=n_seg))
    profile = IntensityProfile(np.array(values), seg_ms, start_time_s=start_s)
    tol_ms = draw(st.sampled_from([20.0, 2.5, seg_ms / 2, 0.5]))
    config = _gates(
        min_spacing_m=draw(st.sampled_from([0.002, 0.0005, 0.01])),
        max_point_rate_hz=draw(st.sampled_from([200.0, 1000.0, 37.0])),
        align_tolerance_ms=tol_ms)

    seg_us = seg_ms * 1000.0
    start_us = start_s * 1e6
    times = set()
    for _ in range(draw(st.integers(1, 50))):
        k = draw(st.integers(-2, n_seg + 2))
        kind = draw(st.sampled_from(["between", "edge", "midpoint", "any"]))
        if kind == "between":  # tied between midpoints k and k + 1
            t = start_us + (k + 1) * seg_us
        elif kind == "edge":  # at the alignment tolerance
            t = start_us + (k + 0.5) * seg_us + draw(st.sampled_from([-1, 1])) * tol_ms * 1e3
        elif kind == "midpoint":
            t = start_us + (k + 0.5) * seg_us
        else:
            t = draw(st.floats(0.0, start_us + (n_seg + 3) * seg_us))
        times.add(max(0, int(round(t))) + draw(st.sampled_from([0, 0, 1, -1])))
    times = sorted(t for t in times if t >= 0)

    direction = draw(st.sampled_from([(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.6, 0.0, 0.8)]))
    spacing = config.min_spacing_m
    steps = st.sampled_from([spacing, spacing - SPACING_EPSILON_M, spacing / 3,
                             2 * spacing, 0.0])
    rotate = draw(st.booleans())
    poses, x = [], 0.0
    for t in times:
        x += draw(st.one_of(steps, st.floats(0.0, 3 * spacing)))
        if rotate:
            q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
            q = q / np.linalg.norm(q) if np.linalg.norm(q) > 0.1 else IDENTITY_Q
        else:
            q = IDENTITY_Q
        poses.append(PoseSample(t, x * np.array(direction), q))
    offset = draw(st.sampled_from([(0.0, 0.0, 0.0), (0.01, -0.02, 0.15),
                                   (-0.3, 0.07, 0.002)]))
    norm = NormalizationConfig(draw(st.sampled_from([1.0, 0.5, 3.0])))
    return poses, profile, ToolCalibration(np.array(offset)), norm, config


class TestAlignedIntensity:
    def test_a_profile_aligns_as_its_rows_recorded_to_the_microsecond(self):
        rng = np.random.default_rng(11)
        profile = IntensityProfile(rng.uniform(0, 2, 300), 5.0, start_time_s=0.0123457)
        rows = np.column_stack([np.round(profile.midpoints_s() * 1e6), profile.values])
        poses = [PoseSample(int(t), np.zeros(3), IDENTITY_Q)
                 for t in np.unique(rng.integers(0, 1_600_000, 500))]
        assert np.array_equal(aligned_intensity(poses, profile),
                              aligned_intensity(poses, rows))

    def test_rows_in_any_order_align_as_in_time_order(self):
        rng = np.random.default_rng(12)
        rows = np.column_stack([np.sort(rng.choice(500_000, 80, replace=False)),
                                rng.uniform(0, 1, 80)])
        poses = [PoseSample(t, np.zeros(3), IDENTITY_Q) for t in range(0, 500_000, 3_000)]
        want = aligned_intensity(poses, rows)
        assert len(set(want.tolist())) > 10
        assert np.array_equal(aligned_intensity(poses, rows[rng.permutation(80)]), want)

    def test_no_rows_give_zero_per_pose(self):
        poses = [PoseSample(t, np.zeros(3), IDENTITY_Q) for t in (0, 10, 20)]
        assert aligned_intensity(poses, []).tolist() == [0.0] * 3

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_a_bad_value_is_a_data_error_even_with_no_poses(self, bad):
        with pytest.raises(DataError, match="finite and non-negative"):
            aligned_intensity([], [(0, 1.0), (5, bad)])


class TestBuildTrajectoryMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(case=_trajectory_case())
    def test_matches_per_pose_loop(self, case):
        poses, profile, calibration, norm, config = case
        if not poses:
            return
        with _patched(config):
            got = build_trajectory(poses, profile, calibration, norm=norm)
        want = reference_trajectory(poses, profile, calibration, TURBO, norm, config)
        _same_points(got, want)

    def test_pivoting_tool_with_calibration(self):
        offset = np.array([0.01, -0.02, 0.15])
        poses = _pivot_poses(offset, np.array([0.3, 0.2, 0.1]), n=300, noise=0.01)
        profile = IntensityProfile(np.random.default_rng(2).uniform(0, 2, 700))
        for calibration in (ToolCalibration(np.zeros(3)), ToolCalibration(offset)):
            config = _gates(min_spacing_m=0.005)
            with _patched(config):
                got = build_trajectory(poses, profile, calibration)
            _same_points(got, reference_trajectory(poses, profile, calibration, TURBO,
                                              NormalizationConfig(1.0), config))

    def test_exact_spacing_threshold(self):
        # steps of exactly MIN_SPACING_M - SPACING_EPSILON_M sit on the gate
        config = _gates()
        step = config.min_spacing_m - SPACING_EPSILON_M
        poses = [PoseSample(i * 10_000, np.array([0.0, i * step, 0.0]), IDENTITY_Q)
                 for i in range(60)]
        profile = IntensityProfile(np.ones(200))
        got = build_trajectory(poses, profile)
        _same_points(got, reference_trajectory(poses, profile, ToolCalibration(np.zeros(3)),
                                               TURBO, NormalizationConfig(1.0), config))

    def test_distance_rounding_tie_follows_numpy_norm(self):
        # a step whose plain-float length rounds differently from
        # np.linalg.norm, with the gate set exactly to np.linalg.norm's value
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            d = rng.uniform(0.001, 0.01, 3)
            length = float(np.linalg.norm(d))
            plain = math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
            spacing = length + SPACING_EPSILON_M
            if plain != length and spacing - SPACING_EPSILON_M == length:
                break
        else:
            pytest.skip("no rounding tie found")
        config = _gates(min_spacing_m=spacing)
        poses = [PoseSample(0, np.zeros(3), IDENTITY_Q),
                 PoseSample(100_000, d, IDENTITY_Q)]
        profile = IntensityProfile(np.ones(50))
        with _patched(config):
            got = build_trajectory(poses, profile)
        want = reference_trajectory(poses, profile, ToolCalibration(np.zeros(3)), TURBO,
                                    NormalizationConfig(1.0), config)
        assert len(got) == len(want) == 2

    def test_first_regression_named(self):
        poses = [PoseSample(t, np.zeros(3), IDENTITY_Q) for t in (1, 5, 9, 9, 3)]
        with pytest.raises(DataError, match="at t_us=9$"):
            build_trajectory(poses, IntensityProfile(np.ones(5)))


class TestPlyExport:
    def test_single_point_layout(self, tmp_path):
        from ismkit.trajectory import TrajectoryPoint
        path = tmp_path / "one.ply"
        points = [TrajectoryPoint(0, np.zeros(3), 1.0, (255, 0, 0))]
        export_ply(points, path)
        text = path.read_text().splitlines()
        assert "element vertex 1" in text
        assert text[-1] == "0 0 0 255 0 0"

    def test_count_matches(self, tmp_path):
        from ismkit.trajectory import TrajectoryPoint
        points = [TrajectoryPoint(i, np.array([i * 0.1, 0.0, 0.0]), 0.0, (0, 0, 0))
                  for i in range(7)]
        path = tmp_path / "seven.ply"
        export_ply(points, path)
        pos, rgb = load_ply(path)
        assert pos.shape == (7, 3)
        assert np.allclose(pos[:, 0], np.arange(7) * 0.1, atol=1e-6)

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(DataError):
            export_ply([], tmp_path / "empty.ply")

    @pytest.mark.parametrize("count,row", [
        ("two", b"0 0 0 1 2 3"), ("-1", b"0 0 0 1 2 3"), ("", b"0 0 0 1 2 3"),
        ("1", b"0 0 x 1 2 3"), ("1", b"0 0 0 1 2.5 3"), ("1", b"0 0 0 1 2 \xff"),
        ("1", b"0 0 0 1 2 " + str(2 ** 70).encode()),
    ])
    def test_malformed_number_is_a_format_error(self, tmp_path, count, row):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex " + count.encode()
                         + b"\nend_header\n" + row + b"\n")
        with pytest.raises(FileFormatError, match="bad.ply"):
            load_ply(path)

    @pytest.mark.parametrize("count", ["2", "1000000000000"])
    def test_declared_count_beyond_the_rows_is_a_format_error(self, tmp_path, count):
        """Rows are read as they come: a huge declared count allocates nothing up front."""
        path = tmp_path / "short.ply"
        path.write_bytes(b"ply\nformat ascii 1.0\nelement vertex " + count.encode()
                         + b"\nend_header\n0 0 0 1 2 3\n")
        with pytest.raises(FileFormatError, match="short.ply: truncated vertex list at row 1"):
            load_ply(path)


class TestPoseCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        poses = [PoseSample(i * 100, rng.standard_normal(3), _random_quat(rng))
                 for i in range(5)]
        path = tmp_path / "poses.csv"
        save_pose_csv(poses, path)
        loaded = load_pose_csv(path)
        assert len(loaded) == 5
        for a, b in zip(poses, loaded):
            assert a.t_us == b.t_us
            assert b.position == pytest.approx(a.position, abs=1e-8)
            assert b.orientation == pytest.approx(a.orientation, abs=1e-8)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(FileFormatError):
            load_pose_csv(path)


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        calib = ToolCalibration(np.array([0.01, -0.02, 0.15]))
        path = tmp_path / "calib.txt"
        save_calibration(calib, 1.5e-4, path)
        loaded = load_calibration(path)
        assert loaded.tip_offset == pytest.approx(calib.tip_offset)

    def test_missing_offset_rejected(self, tmp_path):
        path = tmp_path / "none.txt"
        path.write_text("residual_rms_m 0.001\n")
        with pytest.raises(FileFormatError):
            load_calibration(path)
