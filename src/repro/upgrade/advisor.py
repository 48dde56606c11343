"""Upgrade decision advisor.

The paper's RQ8 implication asks for "methods ... to evaluate the
lifetime of a hardware generation and if extending it would be useful",
combining hardware, workload, regional carbon intensity, performance,
projected system lifetime and user usage pattern.  :class:`UpgradeAdvisor`
packages the scenario model into that decision: given the candidate
upgrade and the center's operating point, it reports the breakeven time,
savings at end of life, and a recommendation with the reasons.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from repro.accounting import CarbonLedger
from repro.accounting.pue import PUELike
from repro.core.config import ModelConfig
from repro.core.errors import UpgradeAnalysisError
from repro.intensity.trace import IntensityTrace
from repro.upgrade.scenario import UpgradeScenario
from repro.workloads.models import Suite
from repro.workloads.performance import suite_time_reduction

__all__ = ["Verdict", "UpgradeDecision", "UpgradeAdvisor"]


class Verdict(str, enum.Enum):
    """Recommendation categories (paper Insights 8-9 vocabulary)."""

    UPGRADE_NOW = "upgrade now"
    UPGRADE_IF_LONG_LIVED = "upgrade only if the system serves long enough"
    EXTEND_LIFETIME = "extend current hardware lifetime"


@dataclass(frozen=True)
class UpgradeDecision:
    """The advisor's answer for one candidate upgrade."""

    old: str
    new: str
    suite: Suite
    usage: float
    lifetime_years: float
    performance_gain: float
    breakeven_years: Optional[float]
    savings_at_lifetime: float
    verdict: Verdict
    rationale: str
    #: Itemized keep-vs-upgrade charges behind the numbers (shared
    #: accounting currency); not part of equality.
    ledger: Optional[CarbonLedger] = field(default=None, compare=False, repr=False)


class UpgradeAdvisor:
    """Carbon-aware upgrade recommendations for one HPC center.

    Parameters
    ----------
    intensity:
        The center's grid: constant gCO2/kWh or an hourly trace.
    usage:
        Observed GPU usage rate of the current system.
    quick_breakeven_years:
        Breakeven threshold below which upgrading immediately is
        recommended (default 1 year, the paper's medium-intensity
        amortization scale).
    """

    def __init__(
        self,
        intensity: Union[float, IntensityTrace],
        *,
        usage: float = 0.40,
        quick_breakeven_years: float = 1.0,
        pue: PUELike = None,
        config: Optional[ModelConfig] = None,
    ) -> None:
        if quick_breakeven_years <= 0.0:
            raise UpgradeAnalysisError("quick-breakeven threshold must be positive")
        if not (0.0 < usage <= 1.0):
            raise UpgradeAnalysisError(f"usage must be in (0, 1], got {usage!r}")
        self._intensity = intensity
        self._usage = usage
        self._quick = quick_breakeven_years
        self._pue = pue
        self._config = config

    def evaluate(
        self,
        old: str,
        new: str,
        suite: Suite | str,
        *,
        lifetime_years: float = 5.0,
    ) -> UpgradeDecision:
        """Assess one upgrade for a projected remaining system lifetime."""
        if lifetime_years <= 0.0:
            raise UpgradeAnalysisError("lifetime must be positive")
        suite_key = Suite(suite) if isinstance(suite, str) else suite
        scenario = UpgradeScenario.from_generations(
            old,
            new,
            suite_key,
            usage=self._usage,
            intensity=self._intensity,
            pue=self._pue,
            config=self._config,
        )
        breakeven = scenario.breakeven_years(horizon_years=max(lifetime_years * 4, 30.0))
        # Savings come off the scenario's carbon ledger: the keep/upgrade
        # attribution totals are the two alternatives' Eq. 1 accounts
        # (identical to savings_curve at the same horizon).  numpy
        # division keeps the zero-carbon-grid case (Insight 8) finite
        # semantics: keep == 0 yields -inf savings, not an exception.
        ledger = scenario.to_ledger(lifetime_years)
        alternatives = ledger.by_policy()
        with np.errstate(divide="ignore", invalid="ignore"):
            savings_at_lifetime = float(
                1.0 - np.float64(alternatives["upgrade"]) / np.float64(alternatives["keep"])
            )
        performance_gain = suite_time_reduction(suite_key, old, new)

        if breakeven is not None and breakeven <= self._quick:
            verdict = Verdict.UPGRADE_NOW
            rationale = (
                f"embodied carbon amortizes in {breakeven:.2f} years "
                f"(< {self._quick:.1f}); savings reach "
                f"{savings_at_lifetime:+.1%} by year {lifetime_years:.0f}"
            )
        elif breakeven is not None and breakeven <= lifetime_years:
            verdict = Verdict.UPGRADE_IF_LONG_LIVED
            rationale = (
                f"amortization takes {breakeven:.2f} years; worthwhile only "
                f"because the system is projected to serve "
                f"{lifetime_years:.0f} years"
            )
        else:
            verdict = Verdict.EXTEND_LIFETIME
            horizon = "never" if breakeven is None else f"{breakeven:.1f} years"
            rationale = (
                f"embodied carbon would amortize in {horizon}, beyond the "
                f"projected {lifetime_years:.0f}-year lifetime — extending "
                "the current hardware is the carbon-friendly option"
            )
        return UpgradeDecision(
            old=old,
            new=new,
            suite=suite_key,
            usage=self._usage,
            lifetime_years=lifetime_years,
            performance_gain=performance_gain,
            breakeven_years=breakeven,
            savings_at_lifetime=savings_at_lifetime,
            verdict=verdict,
            rationale=rationale,
            ledger=ledger,
        )

    def best_option(
        self,
        current: str,
        candidates: Sequence[str],
        suite: Suite | str,
        *,
        lifetime_years: float = 5.0,
    ) -> UpgradeDecision:
        """Among candidate new generations, the one with the highest
        savings at end of life (falling back to 'extend lifetime' if none
        ever pays off)."""
        if not candidates:
            raise UpgradeAnalysisError("no candidate generations supplied")
        decisions = [
            self.evaluate(current, candidate, suite, lifetime_years=lifetime_years)
            for candidate in candidates
        ]
        return max(decisions, key=lambda d: d.savings_at_lifetime)
