"""Whole-center audit."""

from __future__ import annotations

import pytest

from repro.analysis.audit import CenterAuditor
from repro.core.errors import ExperimentError
from repro.core.lifecycle import LifecyclePhases, TransportMode
from repro.hardware.replacement import ReplacementModel
from repro.hardware.systems import perlmutter


class TestCenterAuditor:
    @pytest.fixture(scope="class")
    def audit(self):
        auditor = CenterAuditor(
            intensity=240.0,
            n_nodes=4608,
            lifecycle=LifecyclePhases(
                mass_kg=250_000.0,
                transport_km={TransportMode.ROAD: 1500.0},
                installation_g=5e6,
            ),
        )
        return auditor.audit(perlmutter(), service_years=5.0)

    def test_line_items_present(self, audit):
        shares = audit.shares()
        for label in ("GPU", "DRAM", "Network", "Replacements", "Operation"):
            assert label in shares

    def test_shares_sum_to_one(self, audit):
        assert sum(audit.shares().values()) == pytest.approx(1.0)

    def test_totals_consistent(self, audit):
        assert audit.total_g == pytest.approx(
            audit.embodied_total_g + audit.operational_g
        )
        assert audit.report().total_g == pytest.approx(audit.total_g)

    def test_logistics_counted(self, audit):
        assert audit.logistics_g > 5e6  # at least the installation term

    def test_operation_dominates_on_fossil_grid(self, audit):
        assert audit.shares()["Operation"] > 0.5

    def test_green_grid_shifts_dominance_toward_embodied(self):
        green = CenterAuditor(intensity=20.0, n_nodes=4608).audit(
            perlmutter(), service_years=5.0
        )
        fossil = CenterAuditor(intensity=400.0, n_nodes=4608).audit(
            perlmutter(), service_years=5.0
        )
        green_share = green.embodied_total_g / green.total_g
        fossil_share = fossil.embodied_total_g / fossil.total_g
        # RQ4 implication: greener energy makes embodied carbon the
        # growing concern — an order of magnitude more of the total.
        assert green_share > 5 * fossil_share
        assert green_share > 0.2

    def test_summary_lines_render(self, audit):
        text = "\n".join(audit.summary_lines())
        assert "TOTAL" in text and "Perlmutter" in text

    def test_optional_pieces_can_be_disabled(self):
        auditor = CenterAuditor(intensity=100.0, replacement=None)
        audit = auditor.audit(perlmutter())
        assert audit.replacement_g == 0.0
        assert "Network" not in audit.build_g

    def test_replacements_scale_with_service_years(self):
        auditor = CenterAuditor(intensity=100.0, replacement=ReplacementModel())
        short = auditor.audit(perlmutter(), service_years=2.0)
        long = auditor.audit(perlmutter(), service_years=8.0)
        assert long.replacement_g == pytest.approx(4 * short.replacement_g, rel=1e-6)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            CenterAuditor(intensity=100.0, gpu_usage=0.0)
        with pytest.raises(ExperimentError):
            CenterAuditor(intensity=100.0).audit(perlmutter(), service_years=0.0)
