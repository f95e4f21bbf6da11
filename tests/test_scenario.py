import textwrap

import numpy as np
import pytest
from scipy import signal as sp_signal

from ismkit import scenario as scenario_module
from ismkit.errors import DataError, FileFormatError
from ismkit.scenario import (IMPACT_TONE_HZ, N_CHANNELS, POSE_RATE_HZ, Impact, SyntheticScenario,
                             Waypoint, _leg_index, _legs, _path_positions, load_scenario,
                             simulate)
from ismkit.signal import butter_sos
from ismkit.trajectory import PoseSample


def _write(tmp_path, text):
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    return path


BASIC = """\
duration_s 1.0
roughness 0.5
waypoint 0 0 0 0
waypoint 0.05 0 0 0.05
"""


class TestLoadScenario:
    def test_basic(self, tmp_path):
        scenario = load_scenario(_write(tmp_path, BASIC))
        assert scenario.duration_s == 1.0
        assert scenario.roughness == 0.5
        assert len(scenario.waypoints) == 2

    def test_the_module_docstring_example_loads(self, tmp_path):
        block = next(part for part in scenario_module.__doc__.split("\n\n")
                     if part.startswith("    "))
        scenario = load_scenario(_write(tmp_path, textwrap.dedent(block)))
        assert (scenario.duration_s, scenario.sample_rate_hz, scenario.roughness,
                scenario.noise_band_hz, scenario.impacts) == (
                    2.0, 5000.0, 1.0, (500.0, 1500.0), (Impact(0.5, 2.0, 0.02),))
        assert [(w.position.tolist(), w.speed_mps) for w in scenario.waypoints] == [
            ([0.0, 0.0, 0.0], 0.0), ([0.1, 0.0, 0.0], 0.05)]

    def test_unknown_key_reports_line(self, tmp_path):
        path = _write(tmp_path, "duration_s 1\nwhatever 3\nwaypoint 0 0 0 0\n")
        with pytest.raises(FileFormatError, match=r":2:"):
            load_scenario(path)

    def test_bad_impact_reports_line(self, tmp_path):
        path = _write(tmp_path, "duration_s 1\nimpact 0.5\nwaypoint 0 0 0 0\n")
        with pytest.raises(FileFormatError, match=r":2:"):
            load_scenario(path)

    def test_missing_waypoints_rejected(self, tmp_path):
        with pytest.raises(FileFormatError):
            load_scenario(_write(tmp_path, "duration_s 1\n"))

    def test_zero_speed_segment_rejected(self, tmp_path):
        path = _write(tmp_path, "duration_s 1\nwaypoint 0 0 0 0\nwaypoint 1 0 0 0\n")
        with pytest.raises(FileFormatError):
            load_scenario(path)

    @pytest.mark.parametrize("duration, rate", [(0.0001, 5000.0), (0.5 / 44100, 44100.0)])
    def test_duration_without_a_sample_rejected(self, duration, rate):
        # half a sample rounds to none; simulate would have nothing to filter
        with pytest.raises(DataError, match="no sample"):
            SyntheticScenario(duration_s=duration, sample_rate_hz=rate,
                              waypoints=(Waypoint(np.zeros(3), 0.0),))
        one, _ = simulate(SyntheticScenario(duration_s=2.0 / rate, sample_rate_hz=rate,
                                            waypoints=(Waypoint(np.zeros(3), 0.0),)))
        assert len(one) == 2


class TestSimulate:
    def test_zero_speed_silent_and_stationary(self):
        scenario = SyntheticScenario(
            duration_s=0.5,
            waypoints=(Waypoint(np.zeros(3), 0.0),),
            roughness=1.0)
        vibration, poses = simulate(scenario, seed=1)
        for ch in vibration.channels:
            assert np.max(np.abs(ch.samples)) == 0.0
        positions = np.array([p.position for p in poses])
        assert np.all(positions == positions[0])

    def test_doubling_speed_doubles_rms(self):
        def scenario_with(speed):
            # path long enough that motion spans the whole duration either way
            return SyntheticScenario(
                duration_s=1.0,
                waypoints=(Waypoint(np.zeros(3), 0.0),
                           Waypoint(np.array([10.0, 0.0, 0.0]), speed)),
                roughness=1.0)

        slow, _ = simulate(scenario_with(0.05), seed=3)
        fast, _ = simulate(scenario_with(0.10), seed=3)
        rms_slow = np.sqrt(np.mean(slow.channels[0].samples ** 2))
        rms_fast = np.sqrt(np.mean(fast.channels[0].samples ** 2))
        assert rms_fast == pytest.approx(2 * rms_slow, rel=1e-9)

    def test_seed_determinism(self):
        scenario = SyntheticScenario(
            duration_s=0.5,
            waypoints=(Waypoint(np.zeros(3), 0.0),
                       Waypoint(np.array([0.1, 0.0, 0.0]), 0.05)),
            impacts=(Impact(0.1, 1.0, 0.02),))
        a, poses_a = simulate(scenario, seed=42)
        b, poses_b = simulate(scenario, seed=42)
        for ca, cb in zip(a.channels, b.channels):
            assert np.array_equal(ca.samples, cb.samples)
        assert [p.t_us for p in poses_a] == [p.t_us for p in poses_b]

    def test_different_seed_differs(self):
        scenario = SyntheticScenario(
            duration_s=0.5,
            waypoints=(Waypoint(np.zeros(3), 0.0),
                       Waypoint(np.array([0.1, 0.0, 0.0]), 0.05)))
        a, _ = simulate(scenario, seed=1)
        b, _ = simulate(scenario, seed=2)
        assert not np.array_equal(a.channels[0].samples, b.channels[0].samples)

    def test_impact_adds_energy_after_onset(self):
        scenario = SyntheticScenario(
            duration_s=0.5,
            waypoints=(Waypoint(np.zeros(3), 0.0),),
            impacts=(Impact(0.25, 2.0, 0.02),))
        vibration, _ = simulate(scenario, seed=0)
        x = vibration.channels[0].samples
        n = len(x)
        assert np.max(np.abs(x[:n // 2])) == 0.0
        assert np.max(np.abs(x[n // 2:])) > 0.5

    def test_pose_rate(self):
        scenario = SyntheticScenario(duration_s=1.0,
                                     waypoints=(Waypoint(np.zeros(3), 0.0),))
        _, poses = simulate(scenario, seed=0)
        assert len(poses) == 120
        dts = np.diff([p.t_us for p in poses])
        assert np.all(np.abs(dts - 1e6 / 120) <= 1)


def _reference_path_profile(scenario, t):
    """Position and speed along the path, as simulate built them per sample
    before it took the speed alone: one (n, 3) position array and a mask per leg."""
    legs = []
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


def _reference_simulate(scenario, seed):
    """simulate built per sample and per pose: a band-pass designed each call and a
    PoseSample checked one by one. Returns (n, 4) vibration and the poses."""
    rate = scenario.sample_rate_hz
    n = int(round(scenario.duration_s * rate))
    t = np.arange(n) / rate
    _, speed = _reference_path_profile(scenario, t)
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
        channels.append(scenario.roughness * speed * noise + bursts)
    n_poses = int(round(scenario.duration_s * POSE_RATE_HZ))
    pose_t = np.arange(n_poses) / POSE_RATE_HZ
    pose_pos, _ = _reference_path_profile(scenario, pose_t)
    identity = np.array([1.0, 0.0, 0.0, 0.0])
    poses = [PoseSample(int(round(ts * 1e6)), pose_pos[i], identity)
             for i, ts in enumerate(pose_t)]
    return np.stack(channels, axis=1), poses


def _path(*legs, start=(0.0, 0.0, 0.0)):
    """Waypoints from a start and (x, y, z, speed) legs."""
    return (Waypoint(np.array(start), 0.0),
            *(Waypoint(np.array(leg[:3]), leg[3]) for leg in legs))


def _leg_lookup(scenario, t):
    """Position and speed at times t through simulate's one leg lookup."""
    legs = bounds, _, _, speeds = _legs(scenario)
    return _path_positions(scenario, legs, t), speeds[_leg_index(bounds, t)]


# a hold, a zero-length leg, several legs, an impact in the last samples
# and one past the end, at the default rate, 44.1 kHz and an odd rate, and
# a hold at a final waypoint with -0.0 coordinates after a zero-length leg
# from +0.0
BULK_CASES = {
    "hold": SyntheticScenario(duration_s=0.7, waypoints=_path(start=(0.1, -0.2, 0.3)),
                              impacts=(Impact(0.3, 1.0, 0.02),)),
    "zero-length-leg": SyntheticScenario(
        duration_s=1.3, roughness=1.7,
        waypoints=_path((0.0, 0.0, 0.0, 0.2), (0.05, 0.02, 0.0, 0.1), (0.05, 0.02, 0.0, 0.3),
                        (0.05, 0.08, 0.01, 0.07))),
    "impact-near-end-44k": SyntheticScenario(
        duration_s=1.0, sample_rate_hz=44100.0, noise_band_hz=(200.0, 4000.0),
        waypoints=_path((0.03, 0.0, 0.0, 0.05), (0.03, 0.04, 0.0, 0.2)),
        impacts=(Impact(0.1, 2.0, 0.01), Impact(1.0 - 1 / 44100, 3.0, 0.05),
                 Impact(1.5, 1.0, 0.02))),
    "44k-longer-than-the-path": SyntheticScenario(
        duration_s=2.0, sample_rate_hz=44100.0,
        waypoints=_path((0.1, 0.0, 0.0, 0.1), (0.1, 0.1, 0.0, 0.5))),
    "odd-rate": SyntheticScenario(
        duration_s=0.9, sample_rate_hz=3333.3, noise_band_hz=(300.0, 900.0),
        waypoints=_path((0.0, 0.0, 0.2, 0.4)), impacts=(Impact(0.899, 1.0, 0.01),)),
    "negative-zero-hold": SyntheticScenario(
        duration_s=1.2, waypoints=_path((0.05, 0.0, 0.0, 0.1), (-0.0, 0.0, 0.0, 0.2),
                                        (-0.0, -0.0, -0.0, 0.3), start=(0.0, 0.01, -0.0))),
}


class TestSimulateInBulk:
    @pytest.mark.parametrize("case", sorted(BULK_CASES))
    def test_equals_the_per_sample_and_per_pose_construction(self, case):
        scenario = BULK_CASES[case]
        for seed in (0, 17):
            vibration, poses = simulate(scenario, seed=seed)
            want_vibration, want_poses = _reference_simulate(scenario, seed)
            got = np.stack([ch.samples for ch in vibration.channels], axis=1)
            assert got.tobytes() == want_vibration.tobytes()
            assert len(poses) == len(want_poses)
            for pose, want in zip(poses, want_poses):
                assert type(pose.t_us) is int and pose.t_us == want.t_us
                assert pose.position.dtype == np.float64
                assert pose.position.tobytes() == want.position.tobytes()
                assert pose.orientation.tobytes() == want.orientation.tobytes()

    @pytest.mark.parametrize("case", sorted(BULK_CASES))
    def test_speed_alone_is_the_path_profile_speed(self, case):
        scenario = BULK_CASES[case]
        rate = scenario.sample_rate_hz
        t = np.arange(int(round(scenario.duration_s * rate))) / rate
        _, want = _reference_path_profile(scenario, t)
        assert _leg_lookup(scenario, t)[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(BULK_CASES))
    def test_positions_are_the_path_profile_positions(self, case):
        scenario = BULK_CASES[case]
        bounds = _legs(scenario)[0]
        # the pose times, each leg's bounds and their neighbours, and times
        # before the path starts
        t = np.concatenate([np.arange(int(round(scenario.duration_s * POSE_RATE_HZ)))
                            / POSE_RATE_HZ, bounds, np.nextafter(bounds, -np.inf),
                            np.nextafter(bounds, np.inf), [-1.0, -0.0]])
        got_pos, got_speed = _leg_lookup(scenario, t)
        want_pos, want_speed = _reference_path_profile(scenario, t)
        assert got_pos.tobytes() == want_pos.tobytes()
        assert got_speed.tobytes() == want_speed.tobytes()

    def test_bursts_stop_where_their_decay_reaches_zero(self):
        # 10 ms bursts reach exactly 0.0 about 7.5 s after onset, well inside
        # 60 s; the path stops moving at 4 s, so from there each sample is the
        # bursts alone, down to their last subnormal. One impact starts in
        # the final millisecond.
        scenario = SyntheticScenario(
            duration_s=60.0, waypoints=_path((0.2, 0.0, 0.0, 0.05)),
            impacts=(Impact(0.5, 2.0, 0.01), Impact(1.25, 1.0, 0.01), Impact(3.0, 0.5, 0.002),
                     Impact(60.0 - 0.0005, 3.0, 0.01)))
        vibration, _ = simulate(scenario, seed=4)
        want, _ = _reference_simulate(scenario, 4)
        got = np.stack([ch.samples for ch in vibration.channels], axis=1)
        assert got.tobytes() == want.tobytes()
        hold = got[int(4.5 * scenario.sample_rate_hz):, 0]
        assert 0.0 < np.abs(hold[hold != 0.0]).min() < np.finfo(np.float64).tiny

    def test_a_leg_too_short_to_move_the_clock_holds_no_time(self):
        # 1e-18 s after 1 s of travel adds nothing to the float clock
        scenario = SyntheticScenario(duration_s=3.0, waypoints=_path(
            (0.1, 0.0, 0.0, 0.1), (0.1, 1e-19, 0.0, 0.1), (0.3, 1e-19, 0.0, 0.2)))
        t = np.concatenate([np.arange(3000) / 1000.0, [1.0, np.nextafter(1.0, 2.0), -1.0]])
        want_pos, want_speed = _reference_path_profile(scenario, t)
        got_pos, got_speed = _leg_lookup(scenario, t)
        assert got_speed.tobytes() == want_speed.tobytes()
        assert got_pos.tobytes() == want_pos.tobytes()

    def test_a_hold_keeps_the_final_waypoints_own_values(self):
        # -0.0 + 0.0 * 0.0 would give +0.0: the hold copies the waypoint instead
        _, poses = simulate(BULK_CASES["negative-zero-hold"], seed=2)
        assert poses[-1].t_us > 1_000_000
        assert np.signbit(poses[-1].position).all()

    def test_each_call_gets_its_own_writable_band_pass(self):
        a = butter_sos((500.0, 1500.0), "band", 5000.0)
        b = butter_sos((500.0, 1500.0), "band", 5000.0)
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b)
        want = sp_signal.butter(4, (500.0, 1500.0), btype="band", fs=5000.0, output="sos")
        assert a.tobytes() == want.tobytes()
        a[:] = 0.0
        assert butter_sos((500.0, 1500.0), "band", 5000.0).tobytes() == want.tobytes()

    def test_one_calls_poses_share_one_orientation_array(self):
        _, poses = simulate(BULK_CASES["zero-length-leg"], seed=1)
        _, other = simulate(BULK_CASES["zero-length-leg"], seed=1)
        assert len({id(p.orientation) for p in poses}) == 1
        assert poses[0].orientation is not other[0].orientation
