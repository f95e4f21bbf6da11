import numpy as np
import pytest
from hypothesis import given, strategies as st

from ismkit._turbo_data import TURBO_TABLE
from ismkit.colormap import NormalizationConfig, TURBO, map_color, map_colors, normalize
from ismkit.errors import DataError


class TestNormalize:
    def test_clamps_above_max(self):
        assert normalize(5.0, NormalizationConfig(2.0)) == 1.0

    def test_zero(self):
        assert normalize(0.0, NormalizationConfig(2.0)) == 0.0

    def test_plain_division(self):
        assert normalize(0.5, NormalizationConfig(2.0)) == pytest.approx(0.25)

    def test_negative_rejected(self):
        with pytest.raises(DataError):
            normalize(-0.1, NormalizationConfig(1.0))

    def test_nonpositive_imax_rejected(self):
        with pytest.raises(DataError):
            NormalizationConfig(0.0)

    @given(i1=st.floats(0, 100), i2=st.floats(0, 100), imax=st.floats(0.01, 50))
    def test_monotone_and_clamped(self, i1, i2, imax):
        cfg = NormalizationConfig(imax)
        lo, hi = sorted((i1, i2))
        assert normalize(lo, cfg) <= normalize(hi, cfg)
        if hi >= imax:
            assert normalize(hi, cfg) == 1.0


class TestMapColor:
    def test_turbo_first_entry(self):
        assert map_color(0.0) == (48, 18, 59)

    def test_turbo_last_entry(self):
        assert map_color(1.0) == (122, 4, 3)

    def test_knot_identity_everywhere(self):
        for k in range(256):
            assert map_color(k / 255.0) == TURBO.table[k]

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            map_color(1.0001)
        with pytest.raises(DataError):
            map_color(-0.0001)

    def test_midpoint_interpolates(self):
        # knots 58 and 59 differ by an even step in every channel, so halfway
        # between them is a whole colour and no rounding tie
        a, b = TURBO.table[58], TURBO.table[59]
        assert map_color(58.5 / 255.0) == tuple((x + y) // 2 for x, y in zip(a, b))

    @given(t=st.floats(0.0, 1.0), eps=st.floats(1e-6, 0.01))
    def test_continuity(self, t, eps):
        t2 = min(t + eps, 1.0)
        c1 = np.array(map_color(t))
        c2 = np.array(map_color(t2))
        max_step = np.abs(np.diff(np.array(TURBO.table, dtype=int), axis=0)).max()
        bound = np.ceil(256 * (t2 - t)) * max_step + 1  # +1 for rounding
        assert np.all(np.abs(c2 - c1) <= bound)

    def test_deterministic(self):
        assert map_color(0.3137) == map_color(0.3137)


def _one_by_one(values, cfg):
    """map_color(normalize(v, cfg)) per value, as map_colors returns them."""
    return np.array([map_color(normalize(v, cfg)) for v in values], dtype=np.uint8).reshape(-1, 3)


def _knot_positions():
    """t = 0 and 1, every knot k/255 and its float neighbours, and eighths of
    each knot interval, where a channel's interpolation can land on a half."""
    knots = np.arange(256) / 255.0
    eighths = (np.arange(255)[:, None] + np.arange(1, 8) / 8.0).ravel() / 255.0
    t = np.concatenate([[0.0, 1.0], knots, np.nextafter(knots, 0.0),
                        np.nextafter(knots, 1.0), eighths])
    return t[(t >= 0.0) & (t <= 1.0)]


class TestMapColors:
    """The whole-array lookup is map_color(normalize(v)) per value, bit for bit."""

    @pytest.mark.parametrize("i_max", [1.0, 3.0, 0.7])
    def test_every_knot_and_its_neighbours(self, i_max):
        cfg = NormalizationConfig(i_max)
        values = _knot_positions() * i_max
        got = map_colors(values, cfg)
        assert got.dtype == np.uint8 and got.shape == (values.size, 3)
        assert np.array_equal(got, _one_by_one(values.tolist(), cfg))

    def test_some_positions_round_a_half(self):
        # the eighths hold exact ties, which round half to even as round() does
        t = _knot_positions()
        x = t * 255.0
        knot = np.minimum(x.astype(int), 254)
        table = np.array(TURBO.table, dtype=np.float64)
        exact = table[knot] + (table[knot + 1] - table[knot]) * (x - knot)[:, None]
        assert np.any(exact % 1.0 == 0.5)
        assert np.array_equal(map_colors(t, NormalizationConfig(1.0)),
                              _one_by_one(t.tolist(), NormalizationConfig(1.0)))

    def test_ends_and_values_above_i_max(self):
        cfg = NormalizationConfig(2.5)
        values = [0.0, -0.0, 2.5, np.nextafter(2.5, 0.0), np.nextafter(2.5, 3.0), 3.0,
                  1e6, 1e308, np.inf]
        got = map_colors(values, cfg)
        assert got[0].tolist() == list(TURBO.table[0]) and got[2].tolist() == list(TURBO.table[-1])
        assert np.array_equal(got, _one_by_one(values, cfg))

    def test_no_values_give_no_colours(self):
        assert map_colors([], NormalizationConfig(1.0)).shape == (0, 3)

    @pytest.mark.parametrize("values,message", [
        ([0.5, -0.1, np.nan], "intensity must be non-negative, got -0.1"),
        ([0.5, np.nan, -0.1], "color position nan outside"),
    ])
    def test_the_first_refused_value_raises_as_one_by_one(self, values, message):
        cfg = NormalizationConfig(1.0)
        with pytest.raises(DataError, match=message):
            _one_by_one(values, cfg)
        with pytest.raises(DataError, match=message):
            map_colors(values, cfg)

    @given(values=st.lists(st.floats(0.0, allow_nan=False, allow_infinity=False),
                           max_size=50),
           i_max=st.floats(0.0, exclude_min=True, allow_nan=False, allow_infinity=False))
    def test_random_intensities_and_i_max(self, values, i_max):
        cfg = NormalizationConfig(i_max)
        assert np.array_equal(map_colors(values, cfg), _one_by_one(values, cfg))


class TestTurboTable:
    def test_256_entries_each_0_to_255(self):
        assert len(TURBO_TABLE) == 256
        assert all(len(rgb) == 3 and all(type(c) is int and 0 <= c <= 255 for c in rgb)
                   for rgb in TURBO_TABLE)
