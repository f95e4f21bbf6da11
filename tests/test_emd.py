import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ismkit.emd import (EmdConfig, _component_arrays, _extrema_rows, _has_extrema_rows,
                        emd_decompose)
from ismkit.errors import DataError
from ismkit.signal import Waveform

from .reference_emd import dominant_freq, reference_sift

FS = 5000.0
SEG_LEN = 25  # samples in a 5 ms segment at FS


def _tone(freq, duration=1.0, amp=1.0, phase=0.0):
    t = np.arange(int(duration * FS)) / FS
    return amp * np.sin(2 * np.pi * freq * t + phase)


def find_extrema(x):
    """(maxima, minima) of one signal, from the stacked extrema scan."""
    _, locs, is_max = _extrema_rows(np.asarray(x, dtype=np.float64)[None])
    return locs[is_max], locs[~is_max]


class TestFindExtrema:
    def test_simple_sine(self):
        x = _tone(200.0)
        maxima, minima = find_extrema(x)
        # 200 peaks and 200 troughs in one second, interior only
        assert 198 <= maxima.size <= 200
        assert 198 <= minima.size <= 200
        assert np.all(x[maxima] > 0.99)
        assert np.all(x[minima] < -0.99)

    def test_constant_has_none(self):
        maxima, minima = find_extrema(np.full(100, 2.5))
        assert maxima.size == 0 and minima.size == 0

    def test_plateau_counts_once(self):
        x = np.array([0.0, 1.0, 2.0, 2.0, 2.0, 1.0, 0.0, -1.0, 0.0])
        maxima, minima = find_extrema(x)
        assert maxima.tolist() == [3]
        assert minima.tolist() == [7]


def _crossings(x):
    """Zero crossings of x as one segment of a one-row _component_arrays call."""
    _, freq, _ = _component_arrays(np.asarray(x, dtype=np.float64)[None], x.size, x.size / FS)
    return round(freq[0, 0] * 2.0 * x.size / FS)


class TestZeroCrossings:
    def test_full_period_counts_two(self):
        seg = _tone(200.0, duration=0.005)
        assert _crossings(seg) == 2

    def test_all_zero_counts_none(self):
        assert _crossings(np.zeros(25)) == 0

    def test_crossing_through_exact_zero(self):
        assert _crossings(np.array([1.0, 0.0, -1.0])) == 1

    def test_touch_without_crossing(self):
        assert _crossings(np.array([1.0, 0.0, 1.0])) == 0


def _brute_crossings(row, offset, n_seg, seg_len):
    """Crossings per segment, one sample at a time.

    A zero sample takes the sign of the last nonzero one before it (none
    before the first), and a flip counts in the segment of its later sample.
    Unless the whole span is zero, a zero first sample (offset 0 only) adds a
    crossing to the first segment and a zero last sample one to the last.
    """
    end = offset + n_seg * seg_len
    filled, sign = [], 0.0
    for v in row[:end]:
        sign = np.sign(v) if v != 0 else sign
        filled.append(sign)
    counts = [sum(1 for i in range(max(lo, 1), lo + seg_len)
                  if filled[i - 1] != 0 and filled[i] != filled[i - 1])
              for lo in range(offset, end, seg_len)]
    if any(v != 0 for v in row[:end]):
        counts[0] += offset == 0 and row[0] == 0
        counts[-1] += row[end - 1] == 0
    return counts


@st.composite
def _zero_rich_stacks(draw):
    """(rows, offset, n_seg, seg_len): few distinct values, exact zeros, zero spans."""
    offset = draw(st.sampled_from([0, 1, 2]))
    seg_len = draw(st.integers(1, 6))
    n_seg = draw(st.integers(1, 5))
    n = offset + n_seg * seg_len + draw(st.integers(0, 2))  # samples past the grid
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = np.array(draw(st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0]),
                                     min_size=n, max_size=n)))
        lo = draw(st.integers(0, n))
        row[lo:lo + draw(st.integers(0, n))] = 0.0
        rows.append(row)
    # the samples past the grid add a segment when they fill one
    return np.stack(rows), offset, (n - offset) // seg_len, seg_len


class TestCrossingCount:
    @seed(16)
    @settings(max_examples=400, deadline=None)
    @given(case=_zero_rich_stacks())
    def test_matches_brute_force_count(self, case):
        rows, offset, n_seg, seg_len = case
        amp, freq, resolvable = _component_arrays(rows, seg_len, seg_len / FS, offset)
        for r, row in enumerate(rows):
            counts = np.array(_brute_crossings(row, offset, n_seg, seg_len))
            segs = row[offset:offset + n_seg * seg_len].reshape(n_seg, seg_len)
            want_amp = np.sqrt((2.0 / seg_len) * (segs ** 2).sum(axis=1))
            assert np.array_equal(freq[r], counts / (2.0 * seg_len / FS))
            assert np.array_equal(resolvable[r], counts >= 2)
            assert np.allclose(amp[r], want_amp, rtol=1e-14, atol=0.0)


# length-8 rows, each named by the shape that matters to the keep rule
KEEP_RULE_ROWS = {
    "constant": [2.0] * 8,
    "zeros": [0.0] * 8,
    "rising": [0, 1, 2, 3, 4, 5, 6, 7],
    "rising_with_flat_steps": [0, 1, 1, 2, 3, 3, 3, 4],
    "falling_with_flat_steps": [4, 4, 3, 3, 2, 1, 1, 0],
    "flat_then_one_step": [1, 1, 1, 1, 1, 1, 1, 0],
    "one_maximum": [0, 1, 2, 3, 2, 1, 0, -1],
    "one_minimum_at_second_sample": [1, 0, 1, 2, 3, 4, 5, 6],
    "plateau_maximum": [0, 1, 2, 2, 2, 1, 0, -1],
    "plateau_minimum": [3, 2, 1, 1, 1, 1, 2, 3],
    "flip_only_across_a_plateau": [0, 1, 1, 1, 1, 1, 1, 0],
    "flat_steps_between_turns": [0, 1, 1, 0, 0, 1, 1, 0],
    "zigzag": [0, 1, 0, 1, 0, 1, 0, 1],
    "nan_step": [0, 1, np.nan, 2, 3, 4, 5, 6],
}


class TestImfKeepRule:
    @pytest.mark.parametrize("name", KEEP_RULE_ROWS)
    def test_agrees_with_extrema_scan_per_row(self, name):
        row = np.array(KEEP_RULE_ROWS[name], dtype=np.float64)[None]
        assert _has_extrema_rows(row)[0] == (_extrema_rows(row)[0].size > 0)

    def test_agrees_with_extrema_scan_on_stacks(self):
        named = np.array(list(KEEP_RULE_ROWS.values()), dtype=np.float64)
        # small integer walks: flat steps, plateaus and monotone rows are common
        walks = np.random.default_rng(16).integers(-1, 2, size=(2000, 8)).cumsum(axis=1)
        for h in (named, walks.astype(np.float64)):
            want = np.zeros(h.shape[0], dtype=bool)
            want[_extrema_rows(h)[0]] = True
            assert np.array_equal(_has_extrema_rows(h), want)


class TestDecompose:
    def test_constant_signal(self):
        result = emd_decompose(Waveform(np.full(1000, 3.25), FS))
        assert len(result.imfs) == 0
        assert np.array_equal(result.residual.samples, np.full(1000, 3.25))

    def test_pure_tone_first_imf_dominates(self):
        x = _tone(200.0)
        result = emd_decompose(Waveform(x, FS))
        assert len(result.imfs) >= 1
        frac = np.sum(result.imfs[0].samples ** 2) / np.sum(x ** 2)
        assert frac >= 0.95
        # oracle: an independent minimal sift agrees the first mode dominates
        ref_imfs, _ = reference_sift(x)
        ref_frac = np.sum(ref_imfs[0] ** 2) / np.sum(x ** 2)
        assert ref_frac >= 0.95

    def test_two_tone_separation(self):
        x = _tone(50.0) + 0.5 * _tone(400.0)
        result = emd_decompose(Waveform(x, FS))
        freqs = [dominant_freq(imf.samples, FS) for imf in result.imfs]
        assert abs(freqs[0] - 400.0) <= 40.0
        assert any(abs(f - 50.0) <= 5.0 for f in freqs[1:])
        # oracle cross-check on the same fixture
        ref_imfs, _ = reference_sift(x)
        ref_freqs = [dominant_freq(imf, FS) for imf in ref_imfs]
        assert abs(ref_freqs[0] - 400.0) <= 40.0
        assert any(abs(f - 50.0) <= 5.0 for f in ref_freqs[1:])

    def test_reconstruction_identity(self):
        rng = np.random.default_rng(3)
        fixtures = [
            np.full(2000, 1.0),
            _tone(50.0), _tone(200.0), _tone(400.0),
            _tone(50.0) + 0.5 * _tone(400.0),
            rng.standard_normal(5000) * (0.5 + 0.5 * np.sin(2 * np.pi * 0.5 *
                                                            np.arange(5000) / FS)),
        ]
        for x in fixtures:
            result = emd_decompose(Waveform(x, FS))
            err = np.linalg.norm(result.reconstruct() - x) / max(np.linalg.norm(x), 1e-30)
            assert err <= 1e-9

    def test_deterministic(self):
        x = np.random.default_rng(5).standard_normal(3000)
        a = emd_decompose(Waveform(x, FS))
        b = emd_decompose(Waveform(x, FS))
        assert len(a.imfs) == len(b.imfs)
        for ia, ib in zip(a.imfs, b.imfs):
            assert np.array_equal(ia.samples, ib.samples)
        assert np.array_equal(a.residual.samples, b.residual.samples)

    def test_imf_criterion_approximately(self):
        h = emd_decompose(Waveform(_tone(200.0), FS)).imfs[0].samples
        max_idx, min_idx = find_extrema(h)
        signs = np.sign(h)
        signs = signs[signs != 0]
        crossings = np.count_nonzero(signs[1:] != signs[:-1])
        assert abs(max_idx.size + min_idx.size - crossings) <= 2

    def test_monotone_frequency_ordering(self):
        x = _tone(50.0) + 0.7 * _tone(200.0) + 0.5 * _tone(400.0)
        result = emd_decompose(Waveform(x, FS))
        freqs = [dominant_freq(imf.samples, FS) for imf in result.imfs[:3]]
        assert all(f1 >= f2 for f1, f2 in zip(freqs, freqs[1:]))

    def test_too_short_rejected(self):
        with pytest.raises(DataError):
            emd_decompose(Waveform(np.zeros(4), FS))

    @settings(max_examples=60, deadline=None)
    @given(x=arrays(np.float64, st.integers(8, 300),
                    elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_reconstruction_on_arbitrary_signals(self, x):
        result = emd_decompose(Waveform(x, FS))
        err = np.linalg.norm(result.reconstruct() - x) / max(np.linalg.norm(x), 1e-30)
        assert err < 1e-9

    def test_respects_max_imfs(self):
        x = np.random.default_rng(6).standard_normal(4000)
        result = emd_decompose(Waveform(x, FS), EmdConfig(max_imfs=3))
        assert len(result.imfs) <= 3


def _components(imf_set):
    """(amplitude, frequency, resolvable), each (segments, IMFs), of an IMF set's 5 ms segments."""
    return [a.T for a in _component_arrays(
        np.stack([imf.samples for imf in imf_set.imfs]), SEG_LEN, SEG_LEN / FS)]


class TestSegmentComponents:
    def test_one_period_sine_segment(self):
        w = Waveform(_tone(200.0, duration=0.005), FS)
        imf_set = emd_decompose(Waveform(_tone(200.0), FS))
        amp, freq, res = _components(imf_set)
        assert amp.shape[0] == 200
        # away from ends, first IMF
        assert res[100, 0]
        assert amp[100, 0] == pytest.approx(1.0, rel=0.02)
        assert freq[100, 0] == pytest.approx(200.0, abs=1.0)
        assert len(w) == SEG_LEN

    def test_all_zero_segment_unresolvable(self):
        imf_set = emd_decompose(Waveform(np.concatenate([
            np.zeros(500), _tone(200.0, duration=0.2)]), FS))
        amp, _, res = _components(imf_set)
        assert not res[0, 0]
        assert amp[0, 0] == pytest.approx(0.0, abs=1e-6)

    def test_slow_component_unresolvable(self):
        # 50 Hz has under 2 crossings in any 5 ms window
        x = _tone(50.0, duration=0.1)
        imf_set = emd_decompose(Waveform(x, FS))
        _, _, res = _components(imf_set)
        assert not res[:, 0].any()

    def test_amplitudes_non_negative(self):
        x = np.random.default_rng(9).standard_normal(1000)
        imf_set = emd_decompose(Waveform(x, FS))
        amp, freq, _ = _components(imf_set)
        assert np.all(amp >= 0)
        assert np.all(freq >= 0)
