"""Tests for ASCII figure rendering."""

import pytest

from repro.experiments.figures import render_series


class TestRenderSeries:
    def test_basic_shape(self):
        text = render_series(
            ["1%", "2%"],
            {"A": [100.0, 50.0], "B": [25.0, 25.0]},
            title="t",
        )
        lines = text.splitlines()
        assert lines[0] == "t"
        assert sum("A |" in line or "A  |" in line for line in lines) >= 1
        assert text.count("#") > 0

    def test_scaling_to_peak(self):
        text = render_series(["x"], {"big": [100.0], "small": [50.0]}, width=10)
        big_line = next(line for line in text.splitlines() if "big" in line)
        small_line = next(line for line in text.splitlines() if "small" in line)
        assert big_line.count("#") == 10
        assert small_line.count("#") == 5

    def test_zero_values_render(self):
        text = render_series(["x"], {"z": [0.0]})
        assert "| 0" in text.replace("  ", " ")

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            render_series([], {"a": []})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_series(["x", "y"], {"a": [1.0]})
