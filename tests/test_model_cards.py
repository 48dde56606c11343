"""Training model cards (carbontracker-style footprint reports)."""

from __future__ import annotations

import pytest

from repro.core.errors import WorkloadError
from repro.intensity.generator import generate_trace
from repro.workloads.energy import model_card, model_card_table
from repro.workloads.suites import suite_models
from repro.workloads.models import Suite


class TestModelCard:
    def test_card_fields_consistent(self):
        card = model_card("BERT", "A100", 200.0, epochs=5)
        assert card.epochs == 5
        assert card.total_g == pytest.approx(
            card.operational_g + card.amortized_embodied_g
        )
        assert card.kg_per_epoch == pytest.approx(card.total_g / 1000.0 / 5)

    def test_operational_matches_eq6(self):
        card = model_card("BERT", "A100", 200.0, epochs=2, pue=1.2)
        assert card.operational_g == pytest.approx(
            card.energy_kwh * 200.0 * 1.2, rel=1e-6
        )

    def test_amortization_scales_with_service_life(self):
        short = model_card("BERT", "A100", 200.0, node_service_years=2.0)
        long = model_card("BERT", "A100", 200.0, node_service_years=8.0)
        assert short.amortized_embodied_g == pytest.approx(
            4 * long.amortized_embodied_g
        )
        assert short.operational_g == pytest.approx(long.operational_g)

    def test_newer_generation_lower_footprint(self):
        old = model_card("ResNet50", "P100", 300.0)
        new = model_card("ResNet50", "A100", 300.0)
        assert new.total_g < old.total_g
        assert new.train_hours < old.train_hours

    def test_greener_grid_lower_operational(self):
        dirty = model_card("ViT", "V100", 500.0)
        clean = model_card("ViT", "V100", 20.0)
        assert clean.operational_g < dirty.operational_g / 10
        # Embodied attribution is grid-independent.
        assert clean.amortized_embodied_g == pytest.approx(
            dirty.amortized_embodied_g
        )

    def test_trace_intensity_reports_mean(self):
        card = model_card("BERT", "A100", generate_trace("TK"))
        assert card.mean_intensity_g_per_kwh > 300.0

    def test_summary_text(self):
        card = model_card("NT3", "V100", 100.0)
        text = card.summary()
        assert "NT3" in text and "V100" in text and "gCO2" in text

    @pytest.mark.parametrize("years", [0.0, float("nan"), float("inf")])
    def test_invalid_service_life(self, years):
        # Unchecked, NaN would give a NaN card and inf 0 g embodied.
        with pytest.raises(WorkloadError, match="finite and positive"):
            model_card("BERT", "A100", 100.0, node_service_years=years)


class TestModelCardTable:
    def test_suite_table(self):
        cards = model_card_table(
            [m.name for m in suite_models(Suite.CANDLE)], "A100", 200.0, epochs=3
        )
        assert len(cards) == 5
        assert {c.model_name for c in cards} == {"Combo", "NT3", "P1B1", "ST1", "TC1"}

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            model_card_table([], "A100", 200.0)
