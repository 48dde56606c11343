"""The total-footprint split (Eq. 1)."""

from __future__ import annotations

import math

import pytest

from repro.core.errors import UnitError
from repro.core.model import FootprintReport


class TestFootprintReport:
    def test_eq1_total(self):
        report = FootprintReport(embodied_g=1000.0, operational_g=500.0)
        assert report.total_g == 1500.0
        assert report.total.grams == 1500.0

    def test_shares(self):
        report = FootprintReport(embodied_g=750.0, operational_g=250.0)
        assert report.embodied_share == pytest.approx(0.75)
        assert report.operational_share == pytest.approx(0.25)

    def test_zero_report_shares(self):
        report = FootprintReport(0.0, 0.0)
        assert report.embodied_share == 0.0
        assert report.operational_share == 0.0

    def test_addition(self):
        total = FootprintReport(1.0, 2.0) + FootprintReport(3.0, 4.0)
        assert total.embodied_g == 4.0
        assert total.operational_g == 6.0

    def test_negative_rejected(self):
        with pytest.raises(UnitError):
            FootprintReport(-1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("term", ["embodied_g", "operational_g"])
    def test_non_finite_rejected(self, term, bad):
        with pytest.raises(UnitError, match="finite"):
            FootprintReport(**{"embodied_g": 1.0, "operational_g": 1.0, term: bad})

    def test_str_mentions_both_terms(self):
        text = str(FootprintReport(1000.0, 2000.0))
        assert "C_em" in text and "C_op" in text
