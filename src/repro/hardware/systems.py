"""Leadership supercomputer bills of materials (paper Table 2, Fig. 5).

The paper analyzes Frontier, LUMI and Perlmutter — three top-10 systems
of the November-2022 Top500 list — and reports the *relative* embodied
carbon contribution of GPU / CPU / DRAM / SSD / HDD (Fig. 5).  It
deliberately does not publish absolute totals.

The BOMs here come from the systems' public architecture documents
(node counts, sockets and GPUs per node, DRAM per node, parallel
file-system capacities).  Storage inventories are the least certain
numbers publicly; where documents are ambiguous we pick values within
the published envelope that reproduce the paper's Fig. 5 shares (see
DESIGN.md section 2).  Frontier's 695 PB of HDD capacity is the paper's
own number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.config import ModelConfig
from repro.core.embodied import EmbodiedBreakdown
from repro.core.errors import CatalogError
from repro.hardware.catalog import (
    CPU_EPYC_7763,
    DRAM_64GB,
    GPU_A100_SXM4,
    GPU_MI250X,
    HDD_16TB,
    SSD_3_2TB,
)
from repro.hardware.parts import ComponentClass, PartSpec
from repro.session.types import SystemDeployment

__all__ = [
    "SystemSpec",
    "frontier",
    "lumi",
    "perlmutter",
    "studied_systems",
    "get_system",
    "drives_for_capacity",
    "frontier_deployment",
    "lumi_deployment",
    "perlmutter_deployment",
]

_PB_TO_GB = 1_000_000.0


def drives_for_capacity(capacity_pb: float, drive: PartSpec) -> int:
    """Number of drives/modules needed for a usable capacity in PB."""
    if capacity_pb < 0.0:
        raise CatalogError(f"capacity must be non-negative, got {capacity_pb!r}")
    capacity_gb = getattr(drive, "capacity_gb", None)
    if capacity_gb is None:
        raise CatalogError(f"part {drive.name!r} has no capacity")
    return math.ceil(capacity_pb * _PB_TO_GB / capacity_gb)


@dataclass(frozen=True)
class SystemSpec:
    """A supercomputer as a flat component inventory (Table 2 rows)."""

    name: str
    location: str
    year: int
    cores: int
    components: Mapping[PartSpec, int]

    def __post_init__(self) -> None:
        frozen: Dict[PartSpec, int] = {}
        for part, count in self.components.items():
            if count < 0:
                raise CatalogError(
                    f"system {self.name!r}: negative count for {part.name!r}"
                )
            if count > 0:
                frozen[part] = int(count)
        if not frozen:
            raise CatalogError(f"system {self.name!r} has no components")
        object.__setattr__(self, "components", frozen)

    def embodied_by_class(
        self, config: Optional[ModelConfig] = None
    ) -> Dict[ComponentClass, EmbodiedBreakdown]:
        """Embodied carbon per component class across the whole system."""
        result: Dict[ComponentClass, EmbodiedBreakdown] = {}
        for part, count in self.components.items():
            cls = part.component_class
            contribution = part.embodied(config).scaled(count)
            existing = result.get(cls)
            result[cls] = contribution if existing is None else existing + contribution
        return result

    def embodied_total(self, config: Optional[ModelConfig] = None) -> EmbodiedBreakdown:
        total = EmbodiedBreakdown(0.0, 0.0)
        for breakdown in self.embodied_by_class(config).values():
            total = total + breakdown
        return total

    def embodied_shares(
        self, config: Optional[ModelConfig] = None
    ) -> Dict[ComponentClass, float]:
        """The Fig. 5 ring-chart fractions (sum to 1 over present classes)."""
        by_class = self.embodied_by_class(config)
        total = sum(b.total_g for b in by_class.values())
        if total == 0.0:
            return {cls: 0.0 for cls in by_class}
        return {cls: b.total_g / total for cls, b in by_class.items()}

    def memory_and_storage_share(self, config: Optional[ModelConfig] = None) -> float:
        """Combined DRAM+SSD+HDD fraction of embodied carbon (RQ4 text)."""
        shares = self.embodied_shares(config)
        return sum(
            shares.get(cls, 0.0)
            for cls in (ComponentClass.DRAM, ComponentClass.SSD, ComponentClass.HDD)
        )


def frontier() -> SystemSpec:
    """Frontier (Oak Ridge, 2021): 9,408 nodes of 1x EPYC 7763-class CPU +
    4x MI250X, 512 GB DDR4 per node; 695 PB HDD (the paper's figure) plus
    NVMe performance/metadata tiers and node-local burst-buffer flash."""
    nodes = 9408
    components: Dict[PartSpec, int] = {
        GPU_MI250X: 4 * nodes,
        CPU_EPYC_7763: nodes,
        DRAM_64GB: 8 * nodes,
        HDD_16TB: drives_for_capacity(695.0, HDD_16TB),
        SSD_3_2TB: drives_for_capacity(53.0, SSD_3_2TB),
    }
    return SystemSpec(
        name="Frontier",
        location="Oak Ridge, TN, United States",
        year=2021,
        cores=8_730_112,
        components=components,
    )


def lumi() -> SystemSpec:
    """LUMI (Kajaani, 2022): 2,978 GPU nodes (4x MI250X + 1 CPU, 512 GB)
    plus 2,048 CPU nodes (2x EPYC 7763, 256 GB); flash and object/parallel
    disk storage tiers."""
    gpu_nodes = 2978
    cpu_nodes = 2048
    components: Dict[PartSpec, int] = {
        GPU_MI250X: 4 * gpu_nodes,
        CPU_EPYC_7763: gpu_nodes + 2 * cpu_nodes,
        DRAM_64GB: 8 * gpu_nodes + 4 * cpu_nodes,
        SSD_3_2TB: drives_for_capacity(20.0, SSD_3_2TB),
        HDD_16TB: drives_for_capacity(45.0, HDD_16TB),
    }
    return SystemSpec(
        name="LUMI",
        location="Kajaani, Finland",
        year=2022,
        cores=2_220_288,
        components=components,
    )


def perlmutter() -> SystemSpec:
    """Perlmutter (Berkeley, 2021): 1,536 GPU nodes (4x A100 SXM4 +
    1x EPYC 7763, 256 GB) plus 3,072 CPU nodes (2x EPYC 7763, 512 GB);
    an all-flash Lustre scratch file system (no HDDs)."""
    gpu_nodes = 1536
    cpu_nodes = 3072
    components: Dict[PartSpec, int] = {
        GPU_A100_SXM4: 4 * gpu_nodes,
        CPU_EPYC_7763: gpu_nodes + 2 * cpu_nodes,
        DRAM_64GB: 4 * gpu_nodes + 8 * cpu_nodes,
        SSD_3_2TB: drives_for_capacity(35.0, SSD_3_2TB),
    }
    return SystemSpec(
        name="Perlmutter",
        location="Berkeley, CA, United States",
        year=2021,
        cores=761_856,
        components=components,
    )


def studied_systems() -> Tuple[SystemSpec, ...]:
    """The three Table 2 systems, in table order."""
    return (frontier(), lumi(), perlmutter())


def get_system(name: str) -> SystemSpec:
    """Look up a studied system by name."""
    systems = {system.name: system for system in studied_systems()}
    try:
        return systems[name]
    except KeyError:
        known = ", ".join(sorted(systems))
        raise CatalogError(
            f"unknown system {name!r}; known systems: {known}"
        ) from None


# --- session-facade backends (the ``system`` kind) ----------------------------
# Node counts size the audit's fabric (Table 2 / the paper's audit scale).
# Frontier nodes carry 4 Slingshot NICs; LUMI and Perlmutter GPU nodes
# are modeled with 1 (consistent with the audit example and benchmarks).
def frontier_deployment() -> SystemDeployment:
    """``system:frontier``: 9408 nodes, 4 NICs each."""
    return SystemDeployment(spec=frontier(), n_nodes=9408, nics_per_node=4)


def lumi_deployment() -> SystemDeployment:
    """``system:lumi``: 5026 nodes, 1 NIC each."""
    return SystemDeployment(spec=lumi(), n_nodes=5026, nics_per_node=1)


def perlmutter_deployment() -> SystemDeployment:
    """``system:perlmutter``: 4608 nodes, 1 NIC each."""
    return SystemDeployment(spec=perlmutter(), n_nodes=4608, nics_per_node=1)
