"""Lockstep decomposition of buffer stacks against the one-buffer path, bit for bit."""

import numpy as np
import pytest

from ismkit import emd, ism
from ismkit.emd import EmdConfig, emd_decompose, emd_decompose_rows, _component_arrays
from ismkit.errors import DataError
from ismkit.scenario import Impact, SyntheticScenario, Waypoint, simulate
from ismkit.signal import SegmentGrid, Waveform

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
        rng.standard_normal(BUF + 1),
        sine + 0.3 * rng.standard_normal(BUF + 1),
    ])


def _assert_rows_match(x: np.ndarray, cfg: EmdConfig) -> None:
    imfs, residual = emd_decompose_rows(x, cfg)
    for r in range(x.shape[0]):
        ref = emd_decompose(Waveform(x[r], FS), cfg)
        mine = [stack[rows == r][0] for rows, stack in imfs if np.any(rows == r)]
        assert len(mine) == len(ref.imfs), f"row {r}"
        for j, (a, b) in enumerate(zip(mine, ref.imfs)):
            assert np.array_equal(a, b.samples), f"row {r}, IMF {j}"
        assert np.array_equal(residual[r], ref.residual.samples), f"row {r} residual"


class TestDecomposeRows:
    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_capture_buffers_match_one_by_one(self, cfg):
        x = _capture(3.0, seed=31)
        rows = np.concatenate([_buffer_rows(x[:, c]) for c in range(4)])
        _assert_rows_match(rows, cfg)

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_hand_built_rows_match_one_by_one(self, cfg):
        _assert_rows_match(_hand_built_rows(), cfg)

    def test_irregular_knots_take_the_one_row_envelope(self, monkeypatch):
        calls = []
        one_row = emd._envelope_mean

        def counting(x, boundary):
            calls.append(x.size)
            return one_row(x, boundary)

        monkeypatch.setattr(emd, "_envelope_mean", counting)
        rows = _hand_built_rows()
        late = rows[11:13]
        emd_decompose_rows(late)
        assert calls  # the late-starting rows need the span guard
        monkeypatch.undo()
        _assert_rows_match(late, EmdConfig())

    def test_sd_stop_matches_np_dot(self):
        # A threshold equal to a row's first SD, as emd_decompose computes it
        # with np.dot, does not stop that row. A sum that rounds differently
        # lands on either side of it and flips the decision.
        rows = np.random.default_rng(5).standard_normal((8, BUF + 1))
        for r in rows:
            mean = emd._envelope_mean(r, 2)
            sd = float(np.dot(mean, mean)) / float(np.dot(r, r))
            _assert_rows_match(rows, EmdConfig(sift_sd_threshold=sd))

    def test_single_row_is_emd_decompose(self):
        x = _capture(1.0, seed=32)[:BUF + 1, :1].T
        _assert_rows_match(x, EmdConfig())

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
        grid = SegmentGrid(25, BUF // 25, 0.005)
        stacked = _component_arrays(rows, grid, offset)
        assert not stacked[1][4].any()  # an all-zero span has no crossings
        for r in range(rows.shape[0]):
            alone = _component_arrays(rows[r:r + 1], grid, offset)
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
