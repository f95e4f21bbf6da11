import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal as sp_signal

from ismkit.errors import DataError
from ismkit import signal as ism_signal
from ismkit.ism import StreamingAnalyzer, analyze
from ismkit.signal import (LOWFREQ_CUTOFF_HZ, MultiChannelWaveform, Waveform, butter_filter,
                           butter_sos, lowfreq_extract, segment_length)


class TestWaveform:
    def test_basic(self):
        w = Waveform(np.zeros(10), 5000.0)
        assert len(w) == 10
        assert w.duration_s == pytest.approx(0.002)

    def test_rejects_nan(self):
        with pytest.raises(DataError):
            Waveform(np.array([0.0, np.nan]), 5000.0)

    def test_rejects_inf(self):
        with pytest.raises(DataError):
            Waveform(np.array([np.inf]), 5000.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(DataError):
            Waveform(np.zeros(4), 0.0)

    def test_multichannel_requires_four(self):
        chans = tuple(Waveform(np.zeros(8), 5000.0) for _ in range(3))
        with pytest.raises(DataError):
            MultiChannelWaveform(chans)

    def test_multichannel_requires_equal_lengths(self):
        chans = (Waveform(np.zeros(8), 5000.0),) * 3 + (Waveform(np.zeros(9), 5000.0),)
        with pytest.raises(DataError):
            MultiChannelWaveform(chans)


def _segment_count(n, rate):
    """Segments in the profile analyze gives for n samples at rate."""
    return len(analyze(Waveform(np.zeros(n), rate)).profile)


class TestSegment:
    def test_one_second_at_5k(self):
        assert segment_length(5.0, 5000.0) == 25
        assert _segment_count(5000, 5000.0) == 200

    def test_partial_tail_dropped(self):
        assert _segment_count(5015, 5000.0) == 200

    def test_48k(self):
        assert segment_length(5.0, 48000.0) == 240

    @pytest.mark.parametrize("segment_ms, rate", [(0.2, 5000.0), (0.29, 5000.0), (1e308, 5000.0)])
    def test_length_outside_2_to_finite_rejected(self, segment_ms, rate):
        with pytest.raises(DataError, match="need 2 to a finite count"):
            segment_length(segment_ms, rate)

    def test_too_short(self):
        with pytest.raises(DataError):
            analyze(Waveform(np.zeros(10), 5000.0))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=25, max_value=20000),
           rate=st.sampled_from([1000.0, 5000.0, 8000.0, 44100.0, 48000.0]))
    def test_grid_covers_signal(self, n, rate):
        seg_len = int(round(0.005 * rate))
        if n < 20 * seg_len:  # shorter than one 100 ms buffer
            with pytest.raises(DataError):
                analyze(Waveform(np.zeros(n), rate))
            return
        # a trailing partial buffer's segments, dropped when they and their
        # context sample are fewer than the 8 samples EMD needs
        trailing = n % (20 * seg_len) // seg_len
        dropped = trailing if 1 + trailing * seg_len < 8 else 0
        assert _segment_count(n, rate) == n // seg_len - dropped


# (cutoff, type, rate): the low-pass at 1, 5 and 44.1 kHz and scenario band-passes
DESIGNS = [(LOWFREQ_CUTOFF_HZ, "low", 1000.0), (LOWFREQ_CUTOFF_HZ, "low", 5000.0),
           (LOWFREQ_CUTOFF_HZ, "low", 44100.0), ((500.0, 1500.0), "band", 5000.0),
           ((200.0, 4000.0), "band", 44100.0), ((300.0, 900.0), "band", 3333.3)]


class TestButterDesign:
    @pytest.mark.parametrize("cutoff, btype, rate", DESIGNS)
    def test_each_call_gets_a_fresh_designs_bits_in_its_own_writable_copy(
            self, cutoff, btype, rate):
        want = sp_signal.butter(4, cutoff, btype=btype, fs=rate, output="sos")
        a, b = butter_sos(cutoff, btype, rate), butter_sos(cutoff, btype, rate)
        assert a.shape == want.shape and a.tobytes() == want.tobytes()
        assert a.flags.writeable and b.flags.writeable and not np.shares_memory(a, b)
        a[:] = 0.0
        assert butter_sos(cutoff, btype, rate).tobytes() == want.tobytes()
        x = np.random.default_rng(4).standard_normal(2000)
        assert (butter_filter(x, cutoff, btype, rate).tobytes()
                == sp_signal.sosfilt(want, x).tobytes())

    def test_a_repeated_design_is_a_cache_hit(self):
        design = ism_signal._butter_design
        butter_sos((700.0, 900.0), "band", 4321.0)
        before = design.cache_info()
        butter_sos((700.0, 900.0), "band", 4321.0)
        after = design.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    @pytest.mark.parametrize("rate", [1000.0, 5000.0, 44100.0])
    def test_the_streaming_low_pass_starts_at_rest(self, rate):
        # a zero state gives the bits of sosfilt without one, and of sosfilt_zi * 0
        x = np.random.default_rng(5).standard_normal(int(rate) // 2)
        sos = sp_signal.butter(4, LOWFREQ_CUTOFF_HZ, fs=rate, output="sos")
        want = sp_signal.sosfilt(sos, x)
        assert sp_signal.sosfilt(sos, x, zi=sp_signal.sosfilt_zi(sos) * 0.0)[0].tobytes() \
            == want.tobytes()
        analyzer = StreamingAnalyzer(rate)
        step = x.size // 3 + 1
        low = [analyzer.feed(x[i:i + step])[1].samples for i in range(0, x.size, step)]
        assert np.concatenate(low).tobytes() == want.tobytes()


class TestLowfreqExtract:
    def test_dc_passes(self):
        w = Waveform(np.full(10000, 0.3), 5000.0)
        out = lowfreq_extract(w)
        assert abs(out.samples[-1] - 0.3) < 0.003  # within 1%

    def _steady_rms_ratio(self, freq):
        fs = 5000.0
        t = np.arange(int(2 * fs)) / fs
        x = np.sin(2 * np.pi * freq * t)
        y = lowfreq_extract(Waveform(x, fs)).samples
        half = len(t) // 2
        return np.sqrt(np.mean(y[half:] ** 2)) / np.sqrt(np.mean(x[half:] ** 2))

    def test_200hz_attenuated_20db(self):
        ratio = self._steady_rms_ratio(200.0)
        assert 20 * np.log10(ratio) <= -20.0
        # oracle: the designed filter's frequency response at 200 Hz
        sos = butter_sos(LOWFREQ_CUTOFF_HZ, "low", 5000.0)
        _, h = sp_signal.sosfreqz(sos, worN=[200.0], fs=5000.0)
        assert ratio == pytest.approx(abs(h[0]), rel=1e-3)

    def test_10hz_within_1db(self):
        ratio = self._steady_rms_ratio(10.0)
        assert abs(20 * np.log10(ratio)) <= 1.0
        sos = butter_sos(LOWFREQ_CUTOFF_HZ, "low", 5000.0)
        _, h = sp_signal.sosfreqz(sos, worN=[10.0], fs=5000.0)
        assert ratio == pytest.approx(abs(h[0]), rel=1e-3)

    def test_cutoff_at_nyquist_rejected(self):
        # at 200 Hz the 100 Hz cutoff is the Nyquist frequency
        with pytest.raises(DataError):
            lowfreq_extract(Waveform(np.zeros(100), 200.0))

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-5, 5, allow_nan=False), b=st.floats(-5, 5, allow_nan=False),
           seed=st.integers(0, 2 ** 16))
    def test_linearity(self, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(2000)
        y = rng.standard_normal(2000)
        fs = 5000.0
        fx = lowfreq_extract(Waveform(x, fs)).samples
        fy = lowfreq_extract(Waveform(y, fs)).samples
        fxy = lowfreq_extract(Waveform(a * x + b * y, fs)).samples
        combined = a * fx + b * fy
        scale = max(np.linalg.norm(combined), 1e-30)
        assert np.linalg.norm(fxy - combined) / scale < 1e-9

    def test_output_same_length_and_rate(self):
        w = Waveform(np.random.default_rng(0).standard_normal(1234), 8000.0)
        out = lowfreq_extract(w)
        assert len(out) == 1234
        assert out.sample_rate_hz == 8000.0
