import numpy as np
import pytest
from hypothesis import given, strategies as st

from ismkit._turbo_data import TURBO_TABLE
from ismkit.colormap import NormalizationConfig, TURBO, map_color, normalize
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


class TestTurboTable:
    def test_256_entries_each_0_to_255(self):
        assert len(TURBO_TABLE) == 256
        assert all(len(rgb) == 3 and all(type(c) is int and 0 <= c <= 255 for c in rgb)
                   for rgb in TURBO_TABLE)
