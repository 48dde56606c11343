"""Carbon-aware system rankings (paper RQ5 / Green500 implication).

The paper argues greenness rankings should account for the energy mix
feeding each machine and its embodied carbon, not only FLOPS/W.  This
module ranks arbitrary deployments (a node fleet in a region) under
three metrics:

1. ``efficiency`` — peak FP64 GFLOPS per busy watt (Green500-style),
2. ``operational`` — projected operational carbon per year on the
   deployment's actual grid,
3. ``total`` — embodied + operational over a service life (Eq. 1).

:func:`rank_deployments` returns the ordering per metric so inversions
(a less efficient machine on a cleaner grid beating a more efficient one
on fossil energy) become directly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Dict, List, Optional, Sequence, Union

from repro.core.config import effective_pue as resolve_pue
from repro.core.errors import ExperimentError
from repro.core.units import HOURS_PER_YEAR
from repro.hardware.node import NodeSpec
from repro.intensity.trace import IntensityTrace
from repro.power.node import NodePowerModel

__all__ = ["Deployment", "DeploymentMetrics", "evaluate_deployment", "rank_deployments"]


@dataclass(frozen=True)
class Deployment:
    """A homogeneous fleet of nodes on one grid."""

    name: str
    node: NodeSpec
    n_nodes: int
    intensity: Union[float, IntensityTrace]
    usage: float = 0.40
    #: ``None`` uses the active :class:`~repro.core.config.ModelConfig`'s PUE.
    pue: Optional[float] = None

    def __post_init__(self) -> None:
        # NaN slips past every </<= comparison: each range check below is
        # written so that NaN (and infinity) fails it.
        n_nodes = self.n_nodes
        if (
            isinstance(n_nodes, bool)
            or not isinstance(n_nodes, Real)
            or not 1 <= n_nodes < math.inf
            or n_nodes != int(n_nodes)
        ):
            raise ExperimentError(
                f"{self.name}: fleet needs a whole number of nodes >= 1, "
                f"got {n_nodes!r}"
            )
        object.__setattr__(self, "n_nodes", int(n_nodes))
        if not (0.0 < self.usage <= 1.0):
            raise ExperimentError(f"{self.name}: usage must be in (0, 1]")
        if self.pue is not None and not 1.0 <= self.pue < math.inf:
            raise ExperimentError(
                f"{self.name}: PUE must be finite and >= 1.0, got {self.pue!r}"
            )
        if isinstance(self.intensity, (int, float)) and not (
            0.0 <= float(self.intensity) < math.inf
        ):
            raise ExperimentError(
                f"{self.name}: intensity must be finite and non-negative, "
                f"got {self.intensity!r}"
            )

    def effective_pue(self) -> float:
        return resolve_pue(self.pue)

    def mean_intensity(self) -> float:
        if isinstance(self.intensity, IntensityTrace):
            return self.intensity.mean()
        return float(self.intensity)


@dataclass(frozen=True)
class DeploymentMetrics:
    """The three ranking metrics for one deployment."""

    name: str
    gflops_per_w: float
    operational_g_per_year: float
    total_g_over_life: float


def evaluate_deployment(
    deployment: Deployment, *, service_years: float = 5.0
) -> DeploymentMetrics:
    """Compute all three metrics for one deployment."""
    if not 0.0 < service_years < math.inf:
        raise ExperimentError(
            f"{deployment.name}: service life must be positive and finite, "
            f"got {service_years!r}"
        )
    node = deployment.node
    power = NodePowerModel(node)
    gpu = node.gpu_spec()
    peak_gflops = node.gpu_count * gpu.fp64_tflops * 1000.0
    busy_w = power.busy_power_w()
    efficiency = peak_gflops / busy_w

    avg_node_w = deployment.usage * busy_w + (1.0 - deployment.usage) * power.power_w(
        0.0, 0.0
    )
    fleet_kwh_per_year = (
        deployment.n_nodes * avg_node_w / 1000.0 * HOURS_PER_YEAR
    )
    operational_per_year = (
        fleet_kwh_per_year * deployment.mean_intensity() * deployment.effective_pue()
    )
    embodied = deployment.n_nodes * node.embodied().total_g
    total = embodied + service_years * operational_per_year
    return DeploymentMetrics(
        name=deployment.name,
        gflops_per_w=efficiency,
        operational_g_per_year=operational_per_year,
        total_g_over_life=total,
    )


def rank_deployments(
    deployments: Sequence[Deployment], *, service_years: float = 5.0
) -> Dict[str, List[DeploymentMetrics]]:
    """Orderings under every metric (best first).

    ``efficiency`` ranks descending (more GFLOPS/W is better);
    ``operational`` and ``total`` rank ascending (less carbon is better).
    """
    if not deployments:
        raise ExperimentError("no deployments to rank")
    names = [d.name for d in deployments]
    if len(set(names)) != len(names):
        raise ExperimentError("deployment names must be unique")
    metrics = [
        evaluate_deployment(d, service_years=service_years) for d in deployments
    ]
    return {
        "efficiency": sorted(metrics, key=lambda m: -m.gflops_per_w),
        "operational": sorted(metrics, key=lambda m: m.operational_g_per_year),
        "total": sorted(metrics, key=lambda m: m.total_g_over_life),
    }
