import math

import pytest
from hypothesis import given, strategies as st

from ismkit.errors import DataError, FileFormatError
from ismkit.psychophysics import (DEFAULT_MODEL, PsychoModel, amplitude_for_intensity,
                                  exponent_at, intensity_single, load_model,
                                  save_model, threshold_at)


class TestThresholdAt:
    def test_knot_identity(self, u_model):
        for f, a in u_model.threshold_points:
            assert threshold_at(u_model, f) == pytest.approx(a, rel=1e-12)

    def test_log_log_midpoint_is_geometric_mean(self, u_model):
        f = math.sqrt(100.0 * 200.0)
        expected = math.sqrt(2.5 * 0.65)
        assert threshold_at(u_model, f) == pytest.approx(expected, rel=1e-12)

    def test_clamped_above_table(self, u_model):
        assert threshold_at(u_model, 5000.0) == pytest.approx(8.0)

    def test_clamped_below_table(self, u_model):
        assert threshold_at(u_model, 1.0) == pytest.approx(100.0)

    def test_rejects_nonpositive_frequency(self, u_model):
        with pytest.raises(DataError):
            threshold_at(u_model, 0.0)


class TestIntensitySingle:
    def test_threshold_gives_one(self, u_model):
        for f in (10.0, 77.0, 200.0, 650.0):
            a_t = threshold_at(u_model, f)
            assert intensity_single(a_t, f, u_model) == pytest.approx(1.0, rel=1e-12)

    def test_zero_amplitude(self, u_model):
        assert intensity_single(0.0, 123.0, u_model) == 0.0

    def test_double_threshold_alpha_half(self, u_model):
        a_t = threshold_at(u_model, 200.0)
        assert intensity_single(2 * a_t, 200.0, u_model) == pytest.approx(2.0, rel=1e-12)

    def test_negative_amplitude_rejected(self, u_model):
        with pytest.raises(DataError):
            intensity_single(-0.1, 100.0, u_model)

    @given(a1=st.floats(0.001, 100.0), factor=st.floats(1.001, 10.0),
           f=st.floats(10.0, 800.0))
    def test_monotone_in_amplitude(self, u_model, a1, factor, f):
        assert intensity_single(a1, f, u_model) < intensity_single(a1 * factor, f, u_model)


class TestInverse:
    def test_unit_intensity(self, u_model):
        assert amplitude_for_intensity(1.0, 200.0, u_model) == pytest.approx(
            threshold_at(u_model, 200.0), rel=1e-12)

    def test_zero_intensity(self, u_model):
        assert amplitude_for_intensity(0.0, 200.0, u_model) == 0.0

    def test_closed_form(self, u_model):
        a_t = threshold_at(u_model, 200.0)
        assert amplitude_for_intensity(4.0, 200.0, u_model) == pytest.approx(
            4.0 * a_t, rel=1e-12)

    @given(i=st.floats(1e-9, 1e4), f=st.floats(10.0, 800.0))
    def test_round_trip(self, u_model, i, f):
        a = amplitude_for_intensity(i, f, u_model)
        back = intensity_single(a, f, u_model)
        assert back == pytest.approx(i, rel=1e-12)


class TestModelSwap:
    def test_models_agree_where_tables_agree(self, u_model):
        other = PsychoModel(threshold_points=((200.0, 0.65), (400.0, 1.0)),
                            exponent_points=((200.0, 0.5),))
        for a in (0.1, 0.65, 2.0):
            assert intensity_single(a, 200.0, u_model) == pytest.approx(
                intensity_single(a, 200.0, other), rel=1e-12)


class TestModelValidation:
    def test_frequencies_must_increase(self):
        with pytest.raises(DataError):
            PsychoModel(threshold_points=((100.0, 1.0), (50.0, 2.0)),
                        exponent_points=((100.0, 0.5),))

    def test_thresholds_must_be_positive(self):
        with pytest.raises(DataError):
            PsychoModel(threshold_points=((100.0, 0.0),),
                        exponent_points=((100.0, 0.5),))

    def test_default_model_shape(self):
        assert threshold_at(DEFAULT_MODEL, 250.0) == pytest.approx(0.5)
        assert exponent_at(DEFAULT_MODEL, 123.0) == pytest.approx(0.5)


class TestModelFile:
    def test_round_trip(self, tmp_path, u_model):
        path = tmp_path / "model.txt"
        save_model(u_model, path)
        loaded = load_model(path)
        assert loaded.threshold_points == u_model.threshold_points
        assert loaded.exponent_points == u_model.exponent_points

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("threshold 100 2.5\nbogus line here\n")
        with pytest.raises(FileFormatError, match=r":2:"):
            load_model(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("threshold 100 abc\n")
        with pytest.raises(FileFormatError, match=r":1:"):
            load_model(path)

    @pytest.mark.parametrize("line", ["threshold 100 nan", "threshold 100 inf",
                                      "exponent 100 inf", "exponent nan 0.5",
                                      "threshold inf 2.5"])
    def test_non_finite_value_rejected(self, tmp_path, line):
        path = tmp_path / "model.txt"
        path.write_text(f"threshold 50 2.5\nexponent 50 0.5\n{line}\n")
        with pytest.raises(FileFormatError, match=str(path)):
            load_model(path)

    def test_missing_exponent_rejected(self, tmp_path):
        path = tmp_path / "incomplete.txt"
        path.write_text("threshold 100 2.5\n")
        with pytest.raises(FileFormatError):
            load_model(path)
