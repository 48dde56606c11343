"""Carbontracker-equivalent run tracking (paper Sec. 2.2).

The paper uses the carbontracker tool to measure a training run's
operational carbon: sample device power during the run, integrate to
energy, multiply by PUE and the grid's carbon intensity (Eq. 6).
:class:`CarbonTracker` reproduces that workflow against the simulated
node power model, including carbontracker's signature feature: measure
the first epoch, then *predict* the footprint of the full run.

``pue`` accepts the same spellings as every charge path (a float, an
hourly array, or a profile model such as
:class:`~repro.power.pue.SeasonalPUE`/:class:`~repro.power.pue.HourlyPUE`),
normalized through :func:`repro.accounting.resolve_pue`.  With a
profile, carbon is integrated **hour-resolved**: every metering sample
is weighted by that hour's facility overhead — the
:func:`~repro.power.pue.operational_carbon_seasonal` Eq. 6 arithmetic
applied at the tracker's resolution (pinned equal on whole-hour runs in
``tests/test_workload_sources.py``).  Constant profiles collapse to the
exact legacy scalar multiply, so plain-float callers charge
bit-identically to before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from repro.accounting.pue import PUELike, resolve_pue
from repro.core.config import ModelConfig
from repro.core.errors import PowerModelError
from repro.core.units import CarbonMass, Energy
from repro.hardware.node import NodeSpec
from repro.hardware.parts import ComponentClass
from repro.intensity.trace import IntensityTrace
from repro.power.node import NodePowerModel

__all__ = ["RunReport", "CarbonTracker"]


@dataclass(frozen=True)
class RunReport:
    """Measured footprint of one tracked run.

    ``energy_by_class_kwh`` is IC energy per component class (before
    PUE); ``carbon`` is the Eq. 6 operational carbon including PUE.
    ``pue`` is the facility overhead *applied to this run*: the scalar
    itself on the legacy path, the time-weighted mean of the hourly
    samples the run actually spanned on the hour-resolved path.  With a
    varying profile, ``carbon`` integrates intensity × PUE per sample,
    so it intentionally differs from ``mean intensity × pue`` whenever
    the two series correlate — the whole point of hour-resolved
    charging.
    """

    duration_h: float
    energy_by_class_kwh: Dict[ComponentClass, float]
    carbon: CarbonMass
    average_intensity_g_per_kwh: float
    pue: float

    @property
    def ic_energy(self) -> Energy:
        return Energy(sum(self.energy_by_class_kwh.values()))

    @property
    def facility_energy(self) -> Energy:
        return Energy(self.ic_energy.kwh * self.pue)

    @property
    def average_power_w(self) -> float:
        if self.duration_h <= 0.0:
            raise PowerModelError("run has zero duration")
        return self.ic_energy.kwh * 1000.0 / self.duration_h


class CarbonTracker:
    """Track simulated runs on a node against a carbon-intensity source.

    Parameters
    ----------
    node:
        The node the run executes on.
    intensity:
        Either a constant intensity in gCO2/kWh or an
        :class:`~repro.intensity.trace.IntensityTrace` for hour-resolved
        accounting.
    pue:
        Facility PUE: a float (defaults to the configured value), an
        hourly profile array, or a profile model — hourly specs charge
        every sample at its hour's overhead (see the module docstring).
    sample_step_h:
        Metering resolution.  Carbontracker samples every few seconds;
        for year-scale simulations 0.1 h keeps integration error under
        0.1% of the affine power model's exact value.
    """

    def __init__(
        self,
        node: NodeSpec,
        intensity: Union[float, IntensityTrace],
        *,
        pue: PUELike = None,
        sample_step_h: float = 0.1,
        config: Optional[ModelConfig] = None,
    ) -> None:
        if sample_step_h <= 0.0:
            raise PowerModelError(f"sample step must be positive, got {sample_step_h!r}")
        if isinstance(intensity, (int, float)) and float(intensity) < 0.0:
            raise PowerModelError("carbon intensity must be non-negative")
        self._node = node
        self._power = NodePowerModel(node)
        self._intensity = intensity
        # (scalar, hourly-profile-or-None); constant profiles collapse
        # to the scalar, preserving the legacy single-multiply bytes.
        self._pue, self._pue_profile = resolve_pue(
            pue, config=config, error=PowerModelError
        )
        self._step_h = sample_step_h

    # --- hourly lookups ---------------------------------------------------
    def _intensity_profile(self, start_hour: float, times_h: np.ndarray) -> np.ndarray:
        if isinstance(self._intensity, IntensityTrace):
            trace = self._intensity
            idx = (np.floor(start_hour + times_h).astype(int)) % len(trace)
            return trace.values[idx]
        return np.full(times_h.shape, float(self._intensity))

    def _pue_samples(self, start_hour: float, times_h: np.ndarray) -> np.ndarray:
        """Per-sample facility overhead (same wrap as the intensity)."""
        profile = self._pue_profile
        assert profile is not None
        idx = (np.floor(start_hour + times_h).astype(int)) % profile.shape[0]
        return profile[idx]

    # --- tracking -------------------------------------------------------------
    def track_run(
        self,
        duration_h: float,
        *,
        gpu_utilization: float,
        cpu_utilization: float,
        start_hour: float = 0.0,
    ) -> RunReport:
        """Measure a run of ``duration_h`` at fixed utilizations.

        With the affine power model, per-class energy is exact
        (power x time); carbon is integrated against the hourly
        intensity profile at the metering resolution.
        """
        if duration_h <= 0.0:
            raise PowerModelError(f"duration must be positive, got {duration_h!r}")
        breakdown = self._power.breakdown_w(gpu_utilization, cpu_utilization)
        energy_by_class = {
            cls: watts * duration_h / 1000.0 for cls, watts in breakdown.items()
        }
        total_power_w = sum(breakdown.values())

        n_steps = max(int(np.ceil(duration_h / self._step_h)), 1)
        edges = np.linspace(0.0, duration_h, n_steps + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        widths = np.diff(edges)
        intensity = self._intensity_profile(start_hour, mids)
        if self._pue_profile is None:
            # Legacy exact path: one scalar multiply at the end.
            grams = float(
                np.dot(intensity, widths) * total_power_w / 1000.0 * self._pue
            )
            run_pue = self._pue
        else:
            # Hour-resolved Eq. 6: each sample pays its own hour's
            # overhead (operational_carbon_seasonal's weighting at the
            # metering resolution).  The report carries the overhead
            # this run actually averaged, not the annual mean.
            pue_samples = self._pue_samples(start_hour, mids)
            grams = float(
                np.dot(intensity * pue_samples, widths)
                * total_power_w
                / 1000.0
            )
            run_pue = float(np.dot(pue_samples, widths) / duration_h)
        avg_intensity = float(np.dot(intensity, widths) / duration_h)
        return RunReport(
            duration_h=duration_h,
            energy_by_class_kwh=energy_by_class,
            carbon=CarbonMass(grams),
            average_intensity_g_per_kwh=avg_intensity,
            pue=run_pue,
        )

    def predict_total(
        self,
        first_epoch: RunReport,
        total_epochs: int,
    ) -> RunReport:
        """Carbontracker-style prediction: extrapolate the first measured
        epoch to the full training run (constant per-epoch cost)."""
        if total_epochs < 1:
            raise PowerModelError(f"total epochs must be >= 1, got {total_epochs}")
        factor = float(total_epochs)
        return RunReport(
            duration_h=first_epoch.duration_h * factor,
            energy_by_class_kwh={
                cls: kwh * factor
                for cls, kwh in first_epoch.energy_by_class_kwh.items()
            },
            carbon=first_epoch.carbon * factor,
            average_intensity_g_per_kwh=first_epoch.average_intensity_g_per_kwh,
            pue=first_epoch.pue,
        )
