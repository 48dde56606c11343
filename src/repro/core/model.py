"""Total carbon footprint (paper Eq. 1).

``C_total = C_em + C_op``: the overall footprint of a system over an
accounting window is the embodied carbon of its hardware plus the
operational carbon accumulated while running.  :class:`FootprintReport`
is that split.  The itemized entries behind it live in the one carbon
ledger, :class:`repro.accounting.CarbonLedger`, whose ``report()``
collapses them into a :class:`FootprintReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import UnitError
from repro.core.units import CarbonMass, format_co2

__all__ = ["FootprintReport"]


@dataclass(frozen=True, slots=True)
class FootprintReport:
    """An immutable snapshot of a system's carbon footprint (Eq. 1)."""

    embodied_g: float
    operational_g: float

    def __post_init__(self) -> None:
        # NaN fails both comparisons, so it is rejected with infinities.
        if not (
            0.0 <= self.embodied_g < math.inf
            and 0.0 <= self.operational_g < math.inf
        ):
            raise UnitError(
                "footprint components must be finite and non-negative, got "
                f"embodied={self.embodied_g!r}, operational={self.operational_g!r}"
            )

    @property
    def total_g(self) -> float:
        """Eq. 1: ``C_total = C_em + C_op`` in grams CO2."""
        return self.embodied_g + self.operational_g

    @property
    def total(self) -> CarbonMass:
        return CarbonMass(self.total_g)

    @property
    def embodied_share(self) -> float:
        total = self.total_g
        return 0.0 if total == 0.0 else self.embodied_g / total

    @property
    def operational_share(self) -> float:
        total = self.total_g
        return 0.0 if total == 0.0 else self.operational_g / total

    def __add__(self, other: "FootprintReport") -> "FootprintReport":
        if not isinstance(other, FootprintReport):
            return NotImplemented
        return FootprintReport(
            embodied_g=self.embodied_g + other.embodied_g,
            operational_g=self.operational_g + other.operational_g,
        )

    def __str__(self) -> str:
        return (
            f"C_total={format_co2(self.total_g)} "
            f"(C_em={format_co2(self.embodied_g)}, "
            f"C_op={format_co2(self.operational_g)})"
        )
