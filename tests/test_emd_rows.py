"""Decomposition of single rows and of stacks against the frozen per-buffer sift, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.inputs import make_capture
from ismkit import emd, ism
from ismkit.emd import EmdConfig, emd_decompose, emd_decompose_rows, _component_arrays
from ismkit.errors import DataError
from ismkit.scenario import Impact, SyntheticScenario, Waypoint, simulate
from ismkit.signal import Waveform

from . import reference_sift
from .reference_sift import envelope_mean, find_extrema, mirror_knots, reference_decompose

FS = 5000.0
BUF = 500  # 100 ms at FS

CONFIGS = [
    EmdConfig(),
    # a threshold no sift reaches in 3 iterations: every row runs to the cap
    EmdConfig(max_sift_iterations=3, sift_sd_threshold=1e-9),
    EmdConfig(boundary=1, max_imfs=3),
    EmdConfig(boundary=3),
    # more mirrored knots than some rows have extrema
    EmdConfig(boundary=5),
]


def _capture(duration_s: float, seed: int) -> np.ndarray:
    """(samples, 4): a quarter each at three speeds, then a silent hold; impacts in both."""
    leg = duration_s / 4
    p1 = np.array([0.3 * leg, 0.0, 0.0])
    p2 = p1 + [0.0, 0.12 * leg, 0.0]
    scenario = SyntheticScenario(
        duration_s=duration_s,
        waypoints=(Waypoint(np.zeros(3), 0.0), Waypoint(p1, 0.3), Waypoint(p2, 0.12),
                   Waypoint(p2 + [0.0, 0.0, 0.04 * leg], 0.04)),
        roughness=2.0,
        impacts=(Impact(0.3, 2.0, 0.01), Impact(duration_s - 0.7, 1.5, 0.02)),
        sample_rate_hz=FS)
    vibration, _ = simulate(scenario, seed=seed)
    return np.stack([ch.samples for ch in vibration.channels], axis=1)


def _buffer_rows(x: np.ndarray) -> np.ndarray:
    """Every full buffer of x with its one context sample, as (rows, BUF + 1)."""
    n = (x.size - 1) // BUF
    return np.stack([x[k * BUF:(k + 1) * BUF + 1] for k in range(n)])


def _ramp_row() -> np.ndarray:
    """Three maxima and minima, then a ramp past the last maximum: the right
    edge mirrors the endpoint and all three maxima at boundary 4 and above."""
    n = np.arange(BUF + 1)
    x = np.sin(2 * np.pi * n / 160.0 + 0.5)
    return np.where(n > 440, x[440] + 0.05 * (n - 440), x)


def _hand_built_rows() -> np.ndarray:
    n = np.arange(BUF + 1)
    rng = np.random.default_rng(7)
    sine = np.sin(2 * np.pi * n / 23.0)
    late = np.where(n >= 200, np.sin(2 * np.pi * (n - 200) / 20.0), 0.0)
    return np.stack([
        np.repeat(sine, 3)[:BUF + 1],                        # plateaus
        np.round(2.0 * np.sin(2 * np.pi * n / 37.0)),        # exact zeros and plateaus
        np.sin(2 * np.pi * n / 250.0),                       # two maxima, two minima
        np.sin(2 * np.pi * n / 400.0),                       # one maximum
        *(np.sin(2 * np.pi * n / 160.0 + phase)              # three or four of each
          for phase in (0.5, 2.0, 3.5, 5.0)),
        np.full(BUF + 1, 1.5),                               # constant
        np.zeros(BUF + 1),
        np.linspace(-1.0, 1.0, BUF + 1),                     # monotone
        late,                                                # needs the span guard
        late[::-1].copy(),
        _ramp_row(),                                         # few knots past the right edge
        _ramp_row()[::-1].copy(),
        rng.standard_normal(BUF + 1),
        sine + 0.3 * rng.standard_normal(BUF + 1),
    ])


def _reference(x: np.ndarray, cfg: EmdConfig):
    return reference_decompose(x, cfg.max_imfs, cfg.sift_sd_threshold,
                               cfg.max_sift_iterations, cfg.boundary)


def _assert_rows_match(x: np.ndarray, cfg: EmdConfig) -> None:
    """Every row, decomposed in the stack x and alone, equals the reference."""
    imfs, residual = emd_decompose_rows(x, cfg)
    for r in range(x.shape[0]):
        ref_imfs, ref_residual = _reference(x[r], cfg)
        alone = emd_decompose(Waveform(x[r], FS), cfg)
        stacked = [stack[rows == r][0] for rows, stack in imfs if np.any(rows == r)]
        assert len(stacked) == len(alone.imfs) == len(ref_imfs), f"row {r}"
        for j, ref in enumerate(ref_imfs):
            assert np.array_equal(stacked[j], ref), f"row {r}, IMF {j} in the stack"
            assert np.array_equal(alone.imfs[j].samples, ref), f"row {r}, IMF {j} alone"
        assert np.array_equal(residual[r], ref_residual), f"row {r} residual in the stack"
        assert np.array_equal(alone.residual.samples, ref_residual), f"row {r} residual alone"


def _capture_buffers(seed: int, duration_s: float) -> np.ndarray:
    vibration = make_capture(seed, duration_s).vibration
    return np.concatenate([_buffer_rows(vibration[:, c]) for c in range(4)])


class TestDecomposeRows:
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_capture_buffers_match_one_by_one(self, cfg):
        x = _capture(3.0, seed=31)
        rows = np.concatenate([_buffer_rows(x[:, c]) for c in range(4)])
        _assert_rows_match(rows, cfg)

    def test_benchmark_capture_buffers_match(self):
        rows = _capture_buffers(seed=35, duration_s=10.0)
        for b in range(0, rows.shape[0], ism.BLOCK_ROWS):
            _assert_rows_match(rows[b:b + ism.BLOCK_ROWS], EmdConfig())

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_hand_built_rows_match_one_by_one(self, cfg):
        _assert_rows_match(_hand_built_rows(), cfg)

    def test_span_guard_rows_match_reference(self, monkeypatch):
        late = _hand_built_rows()[11:13]
        with monkeypatch.context() as patched:
            patched.setattr(reference_sift, "_ensure_span", lambda x, t, v, idx, k, last: (t, v))
            for row in late:  # without the guard, some envelope misses an edge
                t_up, _, t_lo, _ = mirror_knots(row, *find_extrema(row), 2)
                assert min(t_up[0], t_lo[0]) > 0 or max(t_up[-1], t_lo[-1]) < BUF
        for boundary in (1, 2, 3):
            _assert_rows_match(late, EmdConfig(boundary=boundary))

    @pytest.mark.parametrize("boundary", [4, 5, 6])
    def test_short_edge_runs_do_not_wrap(self, boundary):
        # The endpoint and every maximum are mirrored past the right edge,
        # however many more the boundary asks for.
        x = _ramp_row()
        t_up, _, _, _ = emd._mirror_knots(x, *find_extrema(x), boundary)
        assert np.count_nonzero(t_up > BUF) == 3
        rows = np.stack([x, x[::-1].copy()])
        _assert_rows_match(rows, EmdConfig(boundary=boundary))

    def test_sd_stop_matches_np_dot(self):
        # A threshold equal to a row's first SD, as the reference computes it
        # with np.dot, does not stop that row. A sum that rounds differently
        # lands on either side of it and flips the decision.
        rows = np.random.default_rng(5).standard_normal((8, BUF + 1))
        for r in rows:
            mean = envelope_mean(r, 2)
            sd = float(np.dot(mean, mean)) / float(np.dot(r, r))
            _assert_rows_match(rows, EmdConfig(sift_sd_threshold=sd))

    def test_single_row_is_emd_decompose(self):
        x = _capture(1.0, seed=32)[:BUF + 1, :1].T
        _assert_rows_match(x, EmdConfig())

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(8, 700), seed=st.integers(0, 2**32 - 1),
           boundary=st.integers(1, 6), max_imfs=st.integers(1, 8),
           max_sift=st.integers(1, 50), sd=st.floats(1e-6, 1.0))
    def test_fuzzed_rows_match(self, n, seed, boundary, max_imfs, max_sift, sd):
        rng = np.random.default_rng(seed)
        t = np.arange(n)
        rows = np.stack([
            rng.standard_normal(n),
            np.sin(2 * np.pi * t / rng.uniform(4.0, 200.0)) + 0.2 * rng.standard_normal(n),
            np.round(3.0 * np.sin(2 * np.pi * t / rng.uniform(6.0, 90.0))),  # plateaus
            np.where(t < rng.integers(0, n), 0.0, rng.standard_normal(n)),   # silent start
        ])
        _assert_rows_match(rows, EmdConfig(max_imfs=max_imfs, sift_sd_threshold=sd,
                                           max_sift_iterations=max_sift, boundary=boundary))

    def test_empty_stack(self):
        imfs, residual = emd_decompose_rows(np.zeros((0, BUF + 1)))
        assert imfs == [] and residual.shape == (0, BUF + 1)

    def test_rejects_non_stack(self):
        with pytest.raises(DataError):
            emd_decompose_rows(np.zeros(600))


class TestComponentArraysRows:
    @pytest.mark.parametrize("offset", [0, 1])
    def test_stack_matches_rows_with_exact_zeros(self, offset):
        n = np.arange(BUF + offset)
        tone = np.sin(2 * np.pi * n / 10.0)
        rows = np.stack([
            tone,
            np.round(tone),                                   # zeros inside
            np.where(n < 40, 0.0, tone),                      # zeros at the start
            np.where(n > BUF - 30, 0.0, tone),                # zeros at the end
            np.zeros(BUF + offset),
            np.where((n // 25) % 2 == 0, 0.0, tone),          # whole zero segments
        ])
        stacked = _component_arrays(rows, 25, 0.005, offset)
        assert not stacked[1][4].any()  # an all-zero span has no crossings
        for r in range(rows.shape[0]):
            alone = _component_arrays(rows[r:r + 1], 25, 0.005, offset)
            for a, b in zip(stacked, alone):
                assert np.array_equal(a[r], b[0])


def _per_buffer_feeds(x: np.ndarray) -> np.ndarray:
    analyzer = ism.StreamingAnalyzer(FS)
    values = [analyzer.feed(x[k:k + BUF])[0] for k in range(0, x.size, BUF)]
    return np.concatenate(values + [analyzer.finish()])


class TestStreamingStacks:
    def test_one_feed_equals_buffer_feeds_and_analyze(self):
        x = _capture(3.0, seed=33)[:3 * 5000 + 7 * 25 + 11, 1]  # trailing partial buffer
        analyzer = ism.StreamingAnalyzer(FS)
        whole, low = analyzer.feed(x)
        whole = np.concatenate([whole, analyzer.finish()])
        assert whole.size == x.size // 25
        assert np.array_equal(whole, _per_buffer_feeds(x))
        result = ism.analyze(Waveform(x, FS))
        assert np.array_equal(whole, result.profile.values)
        assert np.array_equal(low.samples, result.lowfreq.samples)

    def test_block_edges(self):
        x = _capture(13.0, seed=34)[:, 2]
        reference = _per_buffer_feeds(x[:129 * BUF])
        for n_buf in (63, 64, 65, 66, 129):
            values = ism.analyze(Waveform(x[:n_buf * BUF], FS)).profile.values
            assert np.array_equal(values, reference[:n_buf * 20]), n_buf
