import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ismkit import emd, ism
from ismkit.errors import DataError, FileFormatError
from ismkit.psychophysics import amplitude_for_intensity, threshold_at
from ismkit.signal import Waveform, lowfreq_extract, segment_length

FS = 5000.0


def _tone(freq, duration=1.0, amp=1.0):
    t = np.arange(int(duration * FS)) / FS
    return Waveform(amp * np.sin(2 * np.pi * freq * t), FS)


def _steady(values, edge_segments=20):
    return values[edge_segments:-edge_segments]


def _silence(profile):
    """A zero low-frequency channel spanning a profile's segments at FS: carrier-only synthesis."""
    return Waveform(np.zeros(len(profile) * segment_length(profile.segment_duration_ms, FS)),
                    FS)


class TestAnalyze:
    def test_silence(self, u_model):
        result = ism.analyze(Waveform(np.zeros(5000), FS), u_model)
        assert len(result.profile) == 200
        assert np.all(result.profile.values == 0.0)
        assert np.max(np.abs(result.lowfreq.samples)) < 1e-12

    def test_threshold_tone_steady_state(self, u_model):
        a_t = threshold_at(u_model, 200.0)
        result = ism.analyze(_tone(200.0, amp=a_t), u_model)
        steady = _steady(result.profile.values)
        assert np.all(steady >= 0.9)
        assert np.all(steady <= 1.1)

    def test_double_threshold_tone(self, u_model):
        a_t = threshold_at(u_model, 200.0)
        steady = _steady(ism.analyze(_tone(200.0, amp=2 * a_t), u_model).profile.values)
        assert np.all(steady >= 1.8)
        assert np.all(steady <= 2.2)

    def test_amplitude_step_transition(self, u_model):
        a_t = threshold_at(u_model, 200.0)
        t = np.arange(5000) / FS
        x = 2 * a_t * np.sin(2 * np.pi * 200.0 * t)
        x[:2500] = 0.0  # step at t = 0.5 s, segment 100
        values = ism.analyze(Waveform(x, FS), u_model).profile.values
        high = 2.0 ** (2 * 0.5)
        assert np.all(values[10:98] <= 0.1 * high)
        assert np.all(values[102:190] >= 0.8 * high)

    def test_input_shorter_than_buffer_rejected(self, u_model):
        with pytest.raises(DataError):
            ism.analyze(Waveform(np.zeros(400), FS), u_model)

    def test_lowfreq_matches_direct_extraction(self, u_model):
        x = Waveform(np.random.default_rng(0).standard_normal(1000), FS)
        result = ism.analyze(x, u_model)
        direct = lowfreq_extract(x)
        assert np.array_equal(result.lowfreq.samples, direct.samples)

    def test_profile_covers_full_segments_of_partial_buffer(self, u_model):
        # 1.01 s = 202 segments = 10 full buffers + 2 extra segments
        result = ism.analyze(Waveform(np.zeros(5050), FS), u_model)
        assert len(result.profile) == 202

    def test_tail_too_short_for_emd_is_dropped(self, u_model):
        # at 1 kHz one 5-sample segment and its context sample are 6 samples,
        # fewer than EMD needs; two segments (11 samples) are analyzed
        x = np.random.default_rng(2).standard_normal(1410)
        assert len(ism.analyze(Waveform(x[:1405], 1000.0), u_model).profile) == 280
        assert len(ism.analyze(Waveform(x, 1000.0), u_model).profile) == 282


class TestFuseChannels:
    def test_identical_profiles(self):
        p = ism.IntensityProfile(np.array([1.0, 2.0, 3.0]))
        fused = ism.fuse_channels([p, p, p, p])
        assert np.array_equal(fused.values, p.values)

    def test_arithmetic_mean(self):
        profiles = [ism.IntensityProfile(np.array([v])) for v in (1.0, 2.0, 3.0, 4.0)]
        assert ism.fuse_channels(profiles).values[0] == pytest.approx(2.5)

    def test_zero_channel(self):
        profiles = [ism.IntensityProfile(np.array([0.0]))] * 3 \
            + [ism.IntensityProfile(np.array([4.0]))]
        assert ism.fuse_channels(profiles).values[0] == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            ism.fuse_channels([ism.IntensityProfile(np.zeros(3)),
                               ism.IntensityProfile(np.zeros(4))])

    @settings(max_examples=30)
    @given(values=st.lists(st.floats(0, 100), min_size=2, max_size=8),
           perm_seed=st.integers(0, 1000))
    def test_permutation_invariant(self, values, perm_seed):
        rng = np.random.default_rng(perm_seed)
        profiles = [ism.IntensityProfile(np.array([v, v / 2 + 1])) for v in values]
        shuffled = [profiles[i] for i in rng.permutation(len(profiles))]
        assert np.allclose(ism.fuse_channels(profiles).values,
                           ism.fuse_channels(shuffled).values, rtol=1e-12, atol=1e-12)

    def test_idempotent_on_identical(self):
        p = ism.IntensityProfile(np.array([5.0, 7.0]))
        once = ism.fuse_channels([p, p, p, p])
        twice = ism.fuse_channels([once, once, once, once])
        assert np.array_equal(once.values, twice.values)


class TestSynthesize:
    def test_zero_profile(self, u_model):
        profile = ism.IntensityProfile(np.zeros(10))
        out = ism.synthesize(profile, _silence(profile), u_model)
        assert np.all(out.samples == 0.0)
        assert len(out) == 10 * 25

    def test_unit_intensity_amplitude(self, u_model):
        profile = ism.IntensityProfile(np.ones(40))
        out = ism.synthesize(profile, _silence(profile), u_model)
        a_t = threshold_at(u_model, 200.0)
        # steady segments after the first carry exactly the threshold amplitude
        seg = out.samples[30 * 25:31 * 25]
        assert np.sqrt(2 * np.mean(seg ** 2)) == pytest.approx(a_t, rel=1e-6)

    def test_intensity_four_amplitude(self, u_model):
        profile = ism.IntensityProfile(np.full(40, 4.0))
        out = ism.synthesize(profile, _silence(profile), u_model)
        a_t = threshold_at(u_model, 200.0)
        seg = out.samples[30 * 25:31 * 25]
        assert np.sqrt(2 * np.mean(seg ** 2)) == pytest.approx(4 * a_t, rel=1e-6)

    def test_periodic_after_the_first_ramp(self, u_model):
        profile = ism.IntensityProfile(np.full(20, 2.0))
        out = ism.synthesize(profile, _silence(profile), u_model)
        x = out.samples
        # at a 200 Hz carrier each 5 ms segment spans exactly one period; only
        # the first segment ramps up from silence
        period = 25
        tail = x[period:]
        assert np.max(np.abs(tail[:-period] - tail[period:])) < 1e-9

    def test_no_click_at_boundaries(self, u_model):
        rng = np.random.default_rng(4)
        values = rng.uniform(0.0, 5.0, 60)
        profile = ism.IntensityProfile(values)
        out = ism.synthesize(profile, _silence(profile), u_model)
        x = out.samples
        amps = amplitude_for_intensity(values, 200.0, u_model)
        seg_len = 25
        bound = 2 * np.pi * 200.0 / FS
        for k in range(1, 60):
            n = k * seg_len
            jump = abs(x[n] - x[n - 1])
            localexc = max(amps[k - 1], amps[k])
            assert jump <= 1.1 * localexc * bound + 1e-12

    def test_phase_continuity(self, u_model):
        # constant-rate phase accumulation: after the first segment's ramp from
        # silence, unit-amplitude output is one long sine
        profile = ism.IntensityProfile(np.ones(20))
        out = ism.synthesize(profile, _silence(profile), u_model)
        a_t = threshold_at(u_model, 200.0)
        n = np.arange(len(out))
        expected = a_t * np.sin(2 * np.pi * 200.0 * n / FS)
        assert np.allclose(out.samples[25:], expected[25:], atol=1e-9 * a_t)

    def test_carrier_above_nyquist_rejected(self, u_model):
        profile = ism.IntensityProfile(np.ones(5))
        with pytest.raises(DataError):
            ism.synthesize(profile, _silence(profile), u_model,
                           ism.IsmConfig(carrier_hz=3000.0))

    def test_empty_profile_rejected(self, u_model):
        with pytest.raises(DataError):
            ism.synthesize(ism.IntensityProfile(np.zeros(0)), Waveform(np.zeros(25), FS),
                           u_model)


class TestConvert:
    def test_silence_to_silence(self, u_model):
        out = ism.convert(Waveform(np.zeros(5000), FS), u_model)
        assert np.max(np.abs(out.samples)) < 1e-12

    def test_round_trip_400hz(self, u_model):
        w = _tone(400.0, amp=2 * threshold_at(u_model, 400.0))
        original = ism.analyze(w, u_model).profile.values
        converted = ism.convert(w, u_model)
        back = ism.analyze(converted, u_model).profile.values
        mask = original >= 0.05
        mask[:20] = mask[-20:] = False
        rel = np.abs(back[mask] - original[mask]) / original[mask]
        assert np.median(rel) <= 0.05

    def test_low_tone_passes_through_lowfreq_path(self, u_model):
        w = _tone(50.0, amp=5.0)
        result = ism.analyze(w, u_model)
        assert np.max(result.profile.values) < 0.05  # unresolvable at 5 ms windows
        out = ism.convert(w, u_model)
        # output is essentially the low-passed original: no carrier got added
        expected = lowfreq_extract(w).samples[:len(out)]
        err = np.linalg.norm(out.samples - expected) / np.linalg.norm(expected)
        assert err < 1e-6

    def test_output_rate_matches_input(self, u_model):
        out = ism.convert(Waveform(np.zeros(16000), 8000.0), u_model)
        assert out.sample_rate_hz == 8000.0


class TestIntensityPreservation:
    def test_steady_fixture_preserved(self, u_model):
        for freq, factor in ((200.0, 1.5), (400.0, 2.0), (300.0, 3.0)):
            w = _tone(freq, amp=factor * threshold_at(u_model, freq))
            original = ism.analyze(w, u_model).profile.values
            back = ism.analyze(ism.convert(w, u_model), u_model).profile.values
            mask = original >= 0.05
            mask[:20] = mask[-20:] = False
            rel = np.abs(back[mask] - original[mask]) / original[mask]
            assert np.median(rel) <= 0.05, f"{freq} Hz failed"


class TestStreamingAnalyzer:
    def test_matches_batch_exactly(self, u_model):
        rng = np.random.default_rng(17)
        x = rng.standard_normal(6150)  # 1.23 s: 12 full buffers + 6 segments
        batch = ism.analyze(Waveform(x, FS), u_model)

        analyzer = ism.StreamingAnalyzer(FS, u_model)
        values = []
        lows = []
        pos = 0
        # deliberately awkward chunk sizes
        for size in [137, 953, 64, 2048, 1, 500]:
            v, low = analyzer.feed(x[pos:pos + size])
            values.append(v)
            lows.append(low.samples)
            pos += size
        v, low = analyzer.feed(x[pos:])
        values.append(v)
        lows.append(low.samples)
        values.append(analyzer.finish())

        streamed = np.concatenate(values)
        assert np.array_equal(streamed, batch.profile.values)
        assert np.array_equal(np.concatenate(lows), batch.lowfreq.samples)
        assert streamed.size == len(batch.profile)

    def test_feed_after_finish_rejected(self, u_model):
        analyzer = ism.StreamingAnalyzer(FS, u_model)
        analyzer.finish()
        with pytest.raises(DataError):
            analyzer.feed(np.zeros(10))

    def test_empty_chunk_is_noop(self, u_model):
        analyzer = ism.StreamingAnalyzer(FS, u_model)
        v, low = analyzer.feed(np.zeros(0))
        assert v.size == 0 and len(low) == 0


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        profile = ism.IntensityProfile(np.array([0.5, 1.5, 2.5]), 5.0, 0.0)
        path = tmp_path / "profile.csv"
        ism.save_profile_csv(profile, path)
        loaded = ism.load_profile_csv(path)
        assert np.allclose(loaded.values, profile.values)
        assert loaded.segment_duration_ms == pytest.approx(5.0)
        assert np.allclose(loaded.midpoints_s(), profile.midpoints_s(), atol=1e-9)

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.0,1.0\n")
        with pytest.raises(Exception):
            ism.load_profile_csv(path)

    @pytest.mark.parametrize("times, bad_line", [(("0.0025", "nan", "0.0125"), 3),
                                                 (("0.0025", "inf", "0.0125"), 3),
                                                 (("-inf", "0.0075", "0.0125"), 2),
                                                 (("nan",), 2)])
    def test_non_finite_times_rejected(self, tmp_path, times, bad_line):
        path = tmp_path / "p.csv"
        path.write_text("t_s,intensity\n" + "".join(f"{t},1.0\n" for t in times))
        with pytest.raises(FileFormatError, match=f"{path}:{bad_line}:"):
            ism.load_profile_csv(path)

    @pytest.mark.parametrize("duration_ms, start_s", [(math.nan, 0.0), (math.inf, 0.0),
                                                      (5.0, math.nan), (5.0, -math.inf)])
    def test_profile_timing_must_be_finite(self, duration_ms, start_s):
        with pytest.raises(DataError):
            ism.IntensityProfile(np.ones(3), duration_ms, start_s)


class TestIsmConfig:
    def test_buffer_must_be_segment_multiple(self):
        with pytest.raises(DataError):
            ism.IsmConfig(buffer_ms=101.0)

    @pytest.mark.parametrize("field", ["carrier_hz", "buffer_ms", "segment_ms"])
    @pytest.mark.parametrize("value", [0.0, -5.0, float("nan"), float("inf")])
    def test_floats_must_be_positive_and_finite(self, field, value):
        with pytest.raises(DataError, match=field):
            ism.IsmConfig(**{field: value})

    def test_buffer_of_no_whole_segment_rejected(self):
        # 100 / 1e12 rounds to 0 segments per buffer
        with pytest.raises(DataError):
            ism.IsmConfig(segment_ms=1e12)

    def test_defaults(self):
        cfg = ism.IsmConfig()
        assert cfg.carrier_hz == 200.0
        assert cfg.segments_per_buffer == 20

    def test_nondefault_segment_length(self, u_model):
        # 10 ms segments: a 100 Hz tone becomes resolvable (2 crossings)
        cfg = ism.IsmConfig(segment_ms=10.0)
        a_t = threshold_at(u_model, 100.0)
        w = _tone(100.0, amp=a_t)
        values = ism.analyze(w, u_model, cfg).profile.values
        assert len(values) == 100
        steady = values[10:-10]
        assert np.median(steady) == pytest.approx(1.0, rel=0.1)
        profile = ism.analyze(w, u_model, cfg).profile
        out = ism.synthesize(profile, _silence(profile), u_model, cfg)
        assert len(out) == 100 * 50


@pytest.fixture
def cpus(monkeypatch):
    """Set the CPU count the split sees, so a one-CPU runner takes the pool path too.

    The pool is shut down before and after the test, so each test forks its own.
    """
    def set_cpus(n):
        monkeypatch.setattr(ism, "_usable_cpus", lambda: n)

    def drop():
        if ism._pool is not None:
            ism._drop_pool(ism._pool)
    drop()
    yield set_cpus
    drop()


def _stack(n_rows, offset, n_seg=4, seg_len=25, seed=5):
    """n_rows noise buffers of n_seg segments after `offset` context samples, as analyze cuts them."""
    buf_len = n_seg * seg_len
    x = np.random.default_rng(seed).standard_normal(n_rows * buf_len + offset)
    return sliding_window_view(x, buf_len + offset)[::buf_len][:n_rows]


class TestParallelSplit:
    @pytest.mark.parametrize("n_cpus", [2, 3])
    @pytest.mark.parametrize("offset", [0, 1])
    @pytest.mark.parametrize("rows_past", [-1, 0, 1, 44])
    def test_split_equals_serial_block_loop(self, cpus, u_model, n_cpus, offset, rows_past):
        n_rows = ism.PARALLEL_MIN_ROWS + rows_past
        chunks = _stack(n_rows, offset)
        args = (offset, 25, u_model, ism.IsmConfig())
        cpus(n_cpus)
        got = ism._start_intensities(chunks, *args)()
        assert (ism._pool is not None) == (n_rows >= ism.PARALLEL_MIN_ROWS)
        assert np.array_equal(got, ism._block_intensities(chunks, *args))
        assert got.shape == (n_rows, 4)

    @pytest.mark.parametrize("boundary", [1, 3, 5])
    def test_split_equals_serial_across_emd_configs(self, cpus, u_model, monkeypatch,
                                                    boundary):
        # the pool forks after the patch, so its workers sift by the same recipe
        monkeypatch.setattr(emd, "BOUNDARY", boundary)
        monkeypatch.setattr(emd, "SIFT_SD_THRESHOLD", 0.05)
        chunks = _stack(ism.PARALLEL_MIN_ROWS + 44, 1, seed=boundary)
        args = (1, 25, u_model, ism.IsmConfig())
        cpus(2)
        got = ism._start_intensities(chunks, *args)()
        assert ism._pool is not None
        assert np.array_equal(got, ism._block_intensities(chunks, *args))

    def test_stays_serial_while_other_threads_run(self, cpus, u_model):
        chunks = _stack(ism.PARALLEL_MIN_ROWS, 1)
        args = (1, 25, u_model, ism.IsmConfig())
        cpus(2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            got = ism._start_intensities(chunks, *args)()
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert ism._pool is None
        assert np.array_equal(got, ism._block_intensities(chunks, *args))

    def test_streaming_long_chunk_then_buffers_equals_analyze(self, cpus, u_model):
        n_buffers = ism.PARALLEL_MIN_ROWS + 70
        x = np.random.default_rng(23).standard_normal(n_buffers * 500 + 60)
        cpus(1)
        serial = ism.analyze(Waveform(x, FS), u_model).profile.values
        cpus(2)
        batch = ism.analyze(Waveform(x, FS), u_model).profile.values
        assert ism._pool is not None
        analyzer = ism.StreamingAnalyzer(FS, u_model)
        head = (ism.PARALLEL_MIN_ROWS + 20) * 500
        values = [analyzer.feed(x[:head])[0]]
        values += [analyzer.feed(x[i:i + 500])[0] for i in range(head, x.size, 500)]
        values.append(analyzer.finish())
        assert np.array_equal(batch, serial)
        assert np.array_equal(np.concatenate(values), serial)

    def test_lowpass_runs_once_per_feed_on_the_pool_path(self, cpus, u_model):
        n_buffers = ism.PARALLEL_MIN_ROWS + 70
        x = np.random.default_rng(31).standard_normal(n_buffers * 500 + 60)
        cpus(1)
        want = ism.analyze(Waveform(x, FS), u_model)
        cpus(2)
        analyzer = ism.StreamingAnalyzer(FS, u_model)
        head = (ism.PARALLEL_MIN_ROWS + 20) * 500
        lows = [analyzer.feed(x[:head])[1].samples]
        assert ism._pool is not None
        lows += [analyzer.feed(x[i:i + 500])[1].samples for i in range(head, x.size, 500)]
        assert np.array_equal(np.concatenate(lows), want.lowfreq.samples)
        # with the pool killed, the workers' runs are sifted again in this
        # process; the filter still runs once
        for pid in list(ism._pool._processes):
            os.kill(pid, signal.SIGKILL)
        analyzer = ism.StreamingAnalyzer(FS, u_model)
        values, low = analyzer.feed(x)
        assert ism._pool is None
        assert np.array_equal(low.samples, want.lowfreq.samples)
        values = np.concatenate([values, analyzer.finish()])
        assert np.array_equal(values, want.profile.values)

    def test_broken_pool_falls_back_to_serial_then_is_replaced(self, cpus, u_model):
        # analyze sifts the first buffer alone, then the rest as one stack
        w = Waveform(np.random.default_rng(29).standard_normal(
            (ism.PARALLEL_MIN_ROWS + 1) * 500), FS)
        cpus(1)
        want = ism.analyze(w, u_model).profile.values
        cpus(2)
        assert np.array_equal(ism.analyze(w, u_model).profile.values, want)
        pool = ism._pool
        for pid in list(pool._processes):
            os.kill(pid, signal.SIGKILL)
        assert np.array_equal(ism.analyze(w, u_model).profile.values, want)
        assert ism._pool is None
        assert np.array_equal(ism.analyze(w, u_model).profile.values, want)
        assert ism._pool is not None and ism._pool is not pool

    def test_pool_found_broken_before_handing_out_runs(self, cpus, u_model):
        chunks = _stack(ism.PARALLEL_MIN_ROWS + 44, 1)
        args = (1, 25, u_model, ism.IsmConfig())
        cpus(2)
        want = ism._block_intensities(chunks, *args)
        assert np.array_equal(ism._start_intensities(chunks, *args)(), want)
        pool = ism._pool
        for pid in list(pool._processes):
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken  # so submitting the runs raises BrokenProcessPool
        assert np.array_equal(ism._start_intensities(chunks, *args)(), want)
        assert ism._pool is None

    def test_no_process_left_running_after_exit(self):
        code = textwrap.dedent("""
            import numpy as np
            from ismkit import ism
            from ismkit.signal import Waveform
            ism._usable_cpus = lambda: 2
            x = np.random.default_rng(3).standard_normal((ism.PARALLEL_MIN_ROWS + 1) * 500)
            ism.analyze(Waveform(x, 5000.0))
            assert ism._pool is not None
            """)
        src = str(Path(ism.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-c", code], env=env, start_new_session=True)
        try:
            assert proc.wait(timeout=120) == 0
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=10)
