"""Text renderers."""

from __future__ import annotations

import pytest

from repro.analysis.render import (
    format_table,
    series_panel,
    sparkline,
    share_table,
)
from repro.core.errors import ExperimentError


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["A", "Bee"], [["x", "y"], ["longer", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("A")
        # All rows same width structure: header separator present.
        assert set(lines[1].replace("  ", "")) == {"-"}

    def test_cell_count_mismatch_rejected(self):
        with pytest.raises(ExperimentError):
            format_table(["A", "B"], [["only-one"]])

    def test_numeric_cells_stringified(self):
        text = format_table(["n"], [[42]])
        assert "42" in text


class TestShareTable:
    def test_percentages(self):
        text = share_table({"GPU": 0.42, "CPU": 0.08})
        assert "42.0%" in text
        assert "8.0%" in text

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            share_table({})


class TestSparkline:
    def test_length_preserved(self):
        assert len(sparkline([1, 2, 3, 4])) == 4

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_series_monotone_glyphs(self):
        glyphs = sparkline(range(8))
        assert list(glyphs) == sorted(glyphs)

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            sparkline([])


class TestSeriesPanel:
    def test_labels_and_endpoints(self):
        text = series_panel({"curve": [-0.5, 0.0, 0.25]})
        assert "curve" in text
        assert "-50.0%" in text and "+25.0%" in text

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            series_panel({})
