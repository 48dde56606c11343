"""Per-model energy and carbon characterization ("model cards").

carbontracker's purpose — telling a practitioner what training a model
costs — packaged over the calibrated performance/power models: for any
Table 4 model, GPU generation and region, report time-to-train, energy,
and operational carbon, plus the embodied share attributable to the run
(the node's embodied carbon amortized over its service life, prorated by
the run's duration — the standard LCA attribution for shared
infrastructure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.accounting.ledger import amortized_embodied_g
from repro.core.errors import WorkloadError
from repro.core.units import format_co2, format_energy
from repro.hardware.node import NodeSpec, get_node_generation
from repro.intensity.trace import IntensityTrace
from repro.workloads.models import ModelSpec
from repro.workloads.runner import simulate_training_run

__all__ = ["ModelCard", "model_card", "model_card_table"]


@dataclass(frozen=True)
class ModelCard:
    """Training footprint summary for one (model, node, region) tuple."""

    model_name: str
    node_name: str
    n_gpus: int
    epochs: int
    train_hours: float
    energy_kwh: float
    operational_g: float
    amortized_embodied_g: float
    mean_intensity_g_per_kwh: float

    @property
    def total_g(self) -> float:
        """Operational plus the run's amortized share of node embodied."""
        return self.operational_g + self.amortized_embodied_g

    @property
    def kg_per_epoch(self) -> float:
        return self.total_g / 1000.0 / self.epochs

    def summary(self) -> str:
        return (
            f"{self.model_name} on {self.node_name} x{self.n_gpus} GPUs: "
            f"{self.train_hours:.1f} h, {format_energy(self.energy_kwh)}, "
            f"{format_co2(self.operational_g)} operational + "
            f"{format_co2(self.amortized_embodied_g)} amortized embodied "
            f"(grid {self.mean_intensity_g_per_kwh:.0f} gCO2/kWh)"
        )


def model_card(
    model: Union[ModelSpec, str],
    node: Union[NodeSpec, str],
    intensity: Union[float, IntensityTrace],
    *,
    epochs: int = 10,
    n_gpus: Optional[int] = None,
    node_service_years: float = 5.0,
    pue: Optional[float] = None,
) -> ModelCard:
    """Characterize one training run.

    ``node_service_years`` sets the amortization base for the embodied
    attribution: the run is charged
    ``node_embodied * duration / (service_years * 8760 h)``.
    """
    if not (math.isfinite(node_service_years) and node_service_years > 0.0):
        raise WorkloadError(
            "node service life must be finite and positive, got "
            f"{node_service_years!r}"
        )
    node_spec = get_node_generation(node) if isinstance(node, str) else node
    result = simulate_training_run(
        model, node_spec, n_gpus=n_gpus, epochs=epochs, intensity=intensity, pue=pue
    )
    amortized = amortized_embodied_g(
        node_spec.embodied().total_g, result.duration_h, node_service_years
    )
    return ModelCard(
        model_name=result.model_name,
        node_name=result.node_name,
        n_gpus=result.n_gpus,
        epochs=epochs,
        train_hours=result.duration_h,
        energy_kwh=result.energy.kwh,
        operational_g=result.carbon.grams,
        amortized_embodied_g=amortized,
        mean_intensity_g_per_kwh=result.report.average_intensity_g_per_kwh,
    )


def model_card_table(
    models: Sequence[Union[ModelSpec, str]],
    node: Union[NodeSpec, str],
    intensity: Union[float, IntensityTrace],
    *,
    epochs: int = 10,
    **kwargs,
) -> List[ModelCard]:
    """Cards for a set of models on one node/region."""
    if not models:
        raise WorkloadError("no models given")
    return [
        model_card(model, node, intensity, epochs=epochs, **kwargs)
        for model in models
    ]
