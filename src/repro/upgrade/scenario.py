"""Upgrade scenarios: embodied-vs-operational carbon trade-off (RQ7/RQ8).

The paper's Figs. 8-9 evaluate "carbon savings" of upgrading a node
generation, over five years after the upgrade, for three carbon-
intensity levels (400 / 200 / 20 gCO2/kWh) and three GPU usage levels
(60% / 40% / 26.7%).

Accounting model (matching the paper's GPU-centric simplification,
Sec. 5: "these experiments and analyses are primarily based on GPUs"):

* Keeping the old node costs only operational carbon — its embodied
  carbon is sunk.  The GPU subsystem runs a duty cycle: busy a fraction
  ``usage`` of the time, idle otherwise.
* Upgrading charges the full embodied carbon of the new node up front
  (GPUs + CPUs + DRAM — the hardware actually purchased), plus the new
  node's operational carbon.  The same job stream finishes faster on
  the new GPUs, so the new busy fraction is ``usage / speedup`` with
  the suite-calibrated speedup of Table 6.

Savings at time ``t`` after the upgrade::

    savings(t) = 1 - (C_em_new + C_op_new(t)) / C_op_old(t)

Negative at small ``t`` (the embodied "tax"), crossing zero at the
breakeven and approaching ``1 - P_new/P_old`` asymptotically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.accounting import CarbonLedger
from repro.accounting.pue import PUELike, cyclic_product_cycle, resolve_pue
from repro.core.config import ModelConfig
from repro.core.errors import UpgradeAnalysisError
from repro.core.units import HOURS_PER_YEAR
from repro.hardware.node import NodeSpec, get_node_generation
from repro.intensity.trace import IntensityTrace
from repro.power.node import NodePowerModel
from repro.workloads.models import Suite
from repro.workloads.performance import generation_speedup

__all__ = [
    "UsageLevel",
    "USAGE_LEVELS",
    "INTENSITY_LEVELS",
    "UpgradeScenario",
]

#: The paper's Fig. 9 usage levels: medium 40% (production traces), high
#: and low at 1.5x more / less.
USAGE_LEVELS = {"High Usage": 0.60, "Medium Usage": 0.40, "Low Usage": 0.40 / 1.5}

#: The paper's Fig. 8 carbon-intensity columns (gCO2/kWh); 20 is the
#: hydropower intensity cited from ACT.
INTENSITY_LEVELS = {
    "High Carbon Intensity": 400.0,
    "Medium Carbon Intensity": 200.0,
    "Low Carbon Intensity": 20.0,
}

UsageLevel = float


@dataclass(frozen=True)
class UpgradeScenario:
    """One (old node, new node, workload suite) upgrade analysis.

    Parameters
    ----------
    old_node / new_node:
        Table 5 generation names or explicit node specs.
    suite:
        Workload mix driving the speedup (Table 6 calibration).
    usage:
        Old node's GPU busy fraction (the paper's GPU usage rate).
    intensity:
        Constant gCO2/kWh or an hourly trace.
    """

    old_node: NodeSpec
    new_node: NodeSpec
    suite: Suite
    usage: float = 0.40
    intensity: Union[float, IntensityTrace] = 200.0
    pue: PUELike = None
    config: Optional[ModelConfig] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.usage <= 1.0):
            raise UpgradeAnalysisError(
                f"usage must be in (0, 1], got {self.usage!r}"
            )
        if isinstance(self.intensity, (int, float)) and float(self.intensity) < 0.0:
            raise UpgradeAnalysisError("carbon intensity must be non-negative")
        if self.old_node.name == self.new_node.name:
            raise UpgradeAnalysisError(
                f"upgrade from {self.old_node.name!r} to itself is not an upgrade"
            )

    @classmethod
    def from_generations(
        cls,
        old: str,
        new: str,
        suite: Suite | str,
        **kwargs,
    ) -> "UpgradeScenario":
        return cls(
            old_node=get_node_generation(old),
            new_node=get_node_generation(new),
            suite=Suite(suite) if isinstance(suite, str) else suite,
            **kwargs,
        )

    # --- model pieces -----------------------------------------------------
    @property
    def speedup(self) -> float:
        """Workload speedup of the new generation over the old one."""
        old = generation_speedup(self.suite, self.old_node.name)
        new = generation_speedup(self.suite, self.new_node.name)
        if new <= old:
            raise UpgradeAnalysisError(
                f"{self.suite}: {self.new_node.name} is not faster than "
                f"{self.old_node.name}"
            )
        return new / old

    @property
    def new_usage(self) -> float:
        """Busy fraction of the new node serving the same job stream."""
        return self.usage / self.speedup

    @property
    def embodied_cost_g(self) -> float:
        """Embodied carbon of the purchased node (GPUs + CPUs + DRAM)."""
        return self.new_node.embodied(config=self.config).total_g

    def _resolved_pue(self):
        """``(scalar, hourly_profile_or_None)`` for this scenario's PUE."""
        return resolve_pue(self.pue, config=self.config, error=UpgradeAnalysisError)

    def _pue(self) -> float:
        return self._resolved_pue()[0]

    def old_power_w(self) -> float:
        """Duty-cycled average GPU-subsystem power of the old node."""
        return NodePowerModel(self.old_node).gpu_average_power_w(self.usage)

    def new_power_w(self) -> float:
        """Duty-cycled average GPU-subsystem power of the new node."""
        return NodePowerModel(self.new_node).gpu_average_power_w(self.new_usage)

    # --- operational carbon ----------------------------------------------------
    @staticmethod
    def _cumulative_from_cycle(hourly_g: np.ndarray, hours: np.ndarray) -> np.ndarray:
        """Cumulative grams at each horizon, tiling ``hourly_g`` cyclically."""
        csum = np.cumsum(hourly_g)
        total = csum[-1]
        n = hourly_g.shape[0]
        whole = np.floor_divide(hours.astype(int), n)
        frac_idx = (hours.astype(int) % n).astype(int)
        partial = np.where(frac_idx > 0, csum[np.maximum(frac_idx - 1, 0)], 0.0)
        partial = np.where(frac_idx == 0, 0.0, partial)
        return whole * total + partial

    def _hourly_cycle_g(self, power_w: float) -> Optional[np.ndarray]:
        """Operational grams of each hour of one repeating cycle.

        ``None`` on a constant grid under a scalar PUE, where the rate
        is constant and no cycle is needed.
        """
        pue, pue_profile = self._resolved_pue()
        if isinstance(self.intensity, IntensityTrace):
            # An hourly PUE profile weights each hour, both series
            # wrapping independently (the combined cycle is their lcm,
            # so a weekly profile never phase-resets at a trace-year
            # boundary — consistent with the audit's cyclic mean).
            if pue_profile is None:
                return power_w / 1000.0 * pue * self.intensity.values
            return power_w / 1000.0 * cyclic_product_cycle(
                self.intensity.values, pue_profile
            )
        if pue_profile is not None:
            # Constant grid under an hourly overhead: the PUE profile is
            # the cycle.
            return power_w / 1000.0 * float(self.intensity) * pue_profile
        return None

    def _cumulative_operational_g(self, power_w: float, hours: np.ndarray) -> np.ndarray:
        """C_op(t) in grams for each horizon in ``hours`` (vectorized)."""
        hourly_g = self._hourly_cycle_g(power_w)
        if hourly_g is None:
            return power_w / 1000.0 * self._pue() * float(self.intensity) * hours
        # Cumulative gCO2 at hour boundaries, tiled across cycles.
        whole_hours = self._cumulative_from_cycle(hourly_g, hours)
        if isinstance(self.intensity, IntensityTrace):
            return whole_hours
        # The scalar constant-grid path is continuous in ``hours``, so a
        # constant grid under a PUE profile adds the fractional-hour
        # remainder too — a sub-hour horizon must not collapse to zero
        # just because a profile was supplied.
        int_hours = hours.astype(int)
        frac = hours - int_hours
        return whole_hours + frac * hourly_g[int_hours % hourly_g.shape[0]]

    # --- the Figs. 8-9 curves ------------------------------------------------
    def savings_curve(
        self, times_years: Sequence[float] | np.ndarray
    ) -> np.ndarray:
        """Fractional carbon savings of upgrading, per horizon.

        Returns ``1 - (C_em_new + C_op_new(t)) / C_op_old(t)``; the
        value at t -> 0+ diverges to -inf, so callers should start the
        grid strictly after zero (the paper's plots do too).
        """
        times = np.asarray(times_years, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise UpgradeAnalysisError("times must be a non-empty 1-D array")
        if float(times.min()) <= 0.0:
            raise UpgradeAnalysisError("horizons must be strictly positive")
        hours = times * HOURS_PER_YEAR
        old_op = self._cumulative_operational_g(self.old_power_w(), hours)
        new_op = self._cumulative_operational_g(self.new_power_w(), hours)
        return 1.0 - (self.embodied_cost_g + new_op) / old_op

    def breakeven_years(self, *, horizon_years: float = 30.0) -> Optional[float]:
        """Years until the upgrade's embodied carbon is amortized.

        Returns ``None`` if the upgrade never breaks even within
        ``horizon_years`` (e.g. a center already on near-zero-carbon
        energy, the paper's Insight 8 case) — including a trace or
        hourly-PUE horizon shorter than one whole hour.  Under a trace
        or an hourly PUE profile, the answer is the first whole hour
        whose cumulative savings cover the embodied cost.  The scan goes
        one trace cycle at a time (a year of whole cycles when the
        trace or PUE cycle is shorter) and stops at the first step that
        holds the crossing, so an early breakeven never pays for the
        full horizon.
        """
        if horizon_years <= 0.0:
            raise UpgradeAnalysisError("horizon must be positive")
        old_w, new_w = self.old_power_w(), self.new_power_w()
        if new_w >= old_w:
            return None
        old_cycle = self._hourly_cycle_g(old_w)
        if old_cycle is None:
            rate_g_per_h = (
                (old_w - new_w) / 1000.0 * self._pue() * float(self.intensity)
            )
            if rate_g_per_h <= 0.0:
                return None
            years = self.embodied_cost_g / rate_g_per_h / HOURS_PER_YEAR
            return years if years <= horizon_years else None
        embodied = self.embodied_cost_g
        last_hour = int(horizon_years * HOURS_PER_YEAR)
        n = old_cycle.shape[0]
        # Grams after h = q*n + r whole hours are q * total + partial[r]:
        # _cumulative_from_cycle's arithmetic, term by term, so the scan
        # answers exactly what a full-horizon hour grid would.
        old_csum = np.cumsum(old_cycle)
        new_csum = np.cumsum(self._hourly_cycle_g(new_w))
        old_partial = np.concatenate(([0.0], old_csum[:-1]))
        new_partial = np.concatenate(([0.0], new_csum[:-1]))
        # A year of whole cycles per step (one cycle when it is a year
        # or longer): short PUE cycles must not cost a step per cycle.
        step = max(1, int(HOURS_PER_YEAR) // n)
        last_cycle = last_hour // n
        for q0 in range(0, last_cycle + 1, step):
            q = np.arange(q0, min(q0 + step, last_cycle + 1))[:, None]
            hours = (q * n + np.arange(n)).ravel()
            old_op = q * old_csum[-1] + old_partial
            new_op = q * new_csum[-1] + new_partial
            crossed = (
                ((old_op - new_op - embodied).ravel() >= 0.0)
                & (hours >= 1)
                & (hours <= last_hour)
            )
            if crossed.any():
                return float(hours[np.argmax(crossed)]) / HOURS_PER_YEAR
        return None

    def asymptotic_savings(self) -> float:
        """Savings limit as the horizon grows: ``1 - P_new / P_old``."""
        return 1.0 - self.new_power_w() / self.old_power_w()

    # --- unified accounting ------------------------------------------------
    def to_ledger(self, at_years: float) -> CarbonLedger:
        """The upgrade decision as typed carbon-ledger entries.

        Two competing fleets share one ledger, distinguished by the
        ``policy`` axis: ``"keep"`` carries only the old node's
        operational carbon over ``at_years`` (its embodied cost is
        sunk), ``"upgrade"`` carries the new node's embodied cost plus
        its operational carbon.  ``ledger.by_policy()`` therefore *is*
        the savings comparison: ``1 - upgrade / keep`` equals
        :meth:`savings_curve` at the same horizon, bit for bit (the
        entries are recorded in the curve's own addition order).
        """
        if at_years <= 0.0:
            raise UpgradeAnalysisError(
                f"ledger horizon must be positive, got {at_years!r}"
            )
        hours = np.asarray([float(at_years) * HOURS_PER_YEAR])
        old_op = float(self._cumulative_operational_g(self.old_power_w(), hours)[0])
        new_op = float(self._cumulative_operational_g(self.new_power_w(), hours)[0])
        region = (
            self.intensity.region_code
            if isinstance(self.intensity, IntensityTrace)
            else None
        )
        ledger = CarbonLedger()
        ledger.add(
            "operational",
            f"keep:{self.old_node.name}",
            old_op,
            region=region,
            policy="keep",
        )
        ledger.charge_embodied(
            f"buy:{self.new_node.name}",
            self.embodied_cost_g,
            region=region,
            policy="upgrade",
        )
        ledger.add(
            "operational",
            f"run:{self.new_node.name}",
            new_op,
            region=region,
            policy="upgrade",
        )
        return ledger
