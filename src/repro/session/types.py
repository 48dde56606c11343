"""Light-weight records shared between the facade and backend factories.

Kept free of imports from the layer subpackages so a layer module that
defines a backend factory can import this module without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.systems import SystemSpec

__all__ = ["SystemDeployment"]


@dataclass(frozen=True, slots=True)
class SystemDeployment:
    """A registered system backend: the BOM plus its deployment facts.

    ``n_nodes`` / ``nics_per_node`` size the interconnect estimate in
    audits; scenarios can override both.
    """

    spec: "SystemSpec"
    n_nodes: int
    nics_per_node: int = 1
