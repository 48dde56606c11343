"""Typed results of a facade run.

A :class:`ScenarioResult` is the single return value of
:meth:`~repro.session.Session.run`: every section the scenario asked for
(embodied inventory, whole-center audit, training characterization,
scheduling comparison, cluster simulation, upgrade advice) plus the
*provenance* of every configuration knob — whether it was set
explicitly, inherited from a default, and which registry backend
resolved it.

Sections hold plain floats/strings/dicts so the whole result serializes
losslessly through :func:`repro.analysis.export.write_scenario` /
:func:`~repro.analysis.export.read_scenario`; rich library objects that
back a section (the :class:`~repro.workloads.runner.TrainingResult`, the
per-job :class:`~repro.scheduler.evaluation.PolicyEvaluation`) ride
along in non-compared fields for callers that need them live.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.analysis.audit import CenterAudit
from repro.core.errors import SessionError
from repro.core.units import format_co2

__all__ = [
    "Provenance",
    "EmbodiedSection",
    "TrainingSection",
    "PolicyOutcome",
    "SchedulingSection",
    "ClusterSection",
    "UpgradeSection",
    "CarbonSection",
    "ScenarioResult",
    "SECTION_TYPES",
    "LEDGER_SECTIONS",
    "dump_section",
    "load_section",
]


@dataclass(frozen=True, slots=True)
class Provenance:
    """Where one configuration knob's value came from.

    ``source`` is ``"explicit"`` (set on the builder) or ``"default"``;
    ``backend`` names the registry entry that resolved the value
    (``"system:frontier"``) when one was involved.
    """

    knob: str
    value: str
    source: str
    backend: Optional[str] = None


@dataclass(frozen=True, slots=True)
class EmbodiedSection:
    """Embodied carbon of the scenario's hardware subject."""

    subject: str
    manufacturing_g: float
    packaging_g: float
    by_class_g: Dict[str, float]

    @property
    def total_g(self) -> float:
        return self.manufacturing_g + self.packaging_g

    def shares(self) -> Dict[str, float]:
        total = sum(self.by_class_g.values())
        if total == 0.0:
            return {cls: 0.0 for cls in self.by_class_g}
        return {cls: g / total for cls, g in self.by_class_g.items()}


@dataclass(frozen=True)
class TrainingSection:
    """One simulated training run, with the Eq. 1 embodied/operational split."""

    model: str
    node: str
    n_gpus: int
    epochs: int
    duration_h: float
    energy_kwh: float
    operational_g: float
    node_embodied_g: float
    #: The live run object (meter samples, throughput); not serialized.
    result: Any = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class PolicyOutcome:
    """Aggregate outcome of one scheduling policy over the workload."""

    policy: str
    carbon_g: float
    energy_kwh: float
    savings_fraction: float
    mean_delay_h: float
    migrations: int


@dataclass(frozen=True)
class SchedulingSection:
    """Policy comparison on one workload (savings vs the baseline)."""

    baseline: str
    n_jobs: int
    gpu_hours: float
    outcomes: Tuple[PolicyOutcome, ...]
    #: Live per-job evaluations keyed by policy name; not serialized.
    evaluations: Any = field(default=None, compare=False, repr=False)
    #: The best policy's operational ledger, which the carbon rollup
    #: merges (its regions are the placement regions); not serialized,
    #: but carried by the section-tier payload (:func:`dump_section`).
    ledger: Any = field(default=None, compare=False, repr=False)

    def best(self) -> PolicyOutcome:
        if not self.outcomes:
            raise SessionError("scheduling section has no outcomes")
        return min(self.outcomes, key=lambda o: o.carbon_g)


@dataclass(frozen=True, slots=True)
class ClusterSection:
    """Capacity-constrained cluster simulation of the workload."""

    simulator: str
    n_nodes: int
    horizon_h: float
    n_jobs: int
    ic_energy_kwh: float
    carbon_g: float
    average_usage: float
    mean_wait_h: float


@dataclass(frozen=True, slots=True)
class UpgradeSection:
    """Carbon-aware upgrade recommendation."""

    old: str
    new: str
    suite: str
    performance_gain: float
    breakeven_years: Optional[float]
    savings_at_lifetime: float
    verdict: str
    rationale: str
    #: The decision's keep/upgrade ledger, which the carbon rollup
    #: reads; not serialized, but carried by the section-tier payload
    #: (:func:`dump_section`).
    ledger: Any = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class CarbonSection:
    """The unified Eq. 1 rollup: one carbon account for the scenario.

    Every requested section charges into the shared accounting
    subsystem (:mod:`repro.accounting`); this section is the rollup.
    ``source`` names the *primary* account — the most complete model the
    scenario ran (best scheduling policy > training run > audit >
    upgrade recommendation > embodied inventory) — whose operational
    carbon and (amortized) embodied carbon make up ``total_g``.  A
    cluster simulation is never primary: a cluster needs a workload,
    which always brings the scheduling baseline.  ``by_source``
    keeps every contributing section's realized grams side by side
    *without* summing them: scheduling and cluster simulation are two
    models of the same jobs, not additive accounts.

    ``by_region`` and ``by_policy`` are the primary account's ledger
    attributions; ``backend`` records which charging engine produced
    the numbers (per-knob provenance carries its registry key too).
    """

    backend: str
    source: str
    operational_g: float
    embodied_g: float
    by_region: Dict[str, float]
    by_policy: Dict[str, float]
    by_source: Dict[str, float]
    #: The live primary-account ledger; not serialized.
    ledger: Any = field(default=None, compare=False, repr=False)

    @property
    def total_g(self) -> float:
        """Eq. 1 over the primary account."""
        return self.operational_g + self.embodied_g


#: Result-section name -> the dataclass that deserializes its payload
#: (the section tier of the sweep cache stores these payloads).
SECTION_TYPES: Dict[str, Any] = {
    "embodied": EmbodiedSection,
    "audit": CenterAudit,
    "training": TrainingSection,
    "scheduling": SchedulingSection,
    "cluster": ClusterSection,
    "upgrade": UpgradeSection,
    "carbon": CarbonSection,
}


#: Sections whose section-tier payload also carries the ledger the
#: carbon rollup reads from them (see :func:`dump_section`).
LEDGER_SECTIONS = ("scheduling", "upgrade")


def dump_section(name: str, section) -> Optional[Dict[str, Any]]:
    """One section's section-tier payload: its ``to_dict`` form, plus,
    for :data:`LEDGER_SECTIONS`, its ledger as plain JSON columns under
    ``"ledger"`` (:meth:`~repro.accounting.CarbonLedger.to_columns`).

    :func:`load_section` restores that ledger, so a delta run rebuilds
    the carbon rollup from cached sections alone.
    """
    if section is None:
        return None
    payload = ScenarioResult._plain(section)
    if name in LEDGER_SECTIONS and section.ledger is not None:
        payload["ledger"] = section.ledger.to_columns()
    return payload


def load_section(name: str, payload: Optional[Mapping[str, Any]]):
    """Rebuild one typed section from its ``to_dict`` payload.

    ``None`` payloads mean "the scenario did not request this section"
    and round-trip to ``None``.  The rebuilt section omits the live
    non-compared fields (``evaluations``, ``result``, ``ledger``) —
    exactly what :meth:`ScenarioResult.from_dict` produces, so a
    section assembled from the cache serializes to the same bytes a
    recompute would.  A :func:`dump_section` payload's ledger columns
    come back as a new :class:`~repro.accounting.CarbonLedger` with
    arrays of its own.
    """
    if payload is None:
        return None
    section_cls = SECTION_TYPES[name]
    payload = dict(payload)
    if section_cls is SchedulingSection:
        payload["outcomes"] = tuple(
            PolicyOutcome(**o) for o in payload.get("outcomes", ())
        )
    if name in LEDGER_SECTIONS and payload.get("ledger") is not None:
        from repro.accounting import CarbonLedger

        payload["ledger"] = CarbonLedger.from_columns(payload["ledger"])
    return section_cls(**payload)


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario produced, plus how it was configured."""

    name: str
    region: Optional[str]
    seed: int
    embodied: Optional[EmbodiedSection] = None
    audit: Optional[CenterAudit] = None
    training: Optional[TrainingSection] = None
    scheduling: Optional[SchedulingSection] = None
    cluster: Optional[ClusterSection] = None
    upgrade: Optional[UpgradeSection] = None
    carbon: Optional[CarbonSection] = None
    provenance: Tuple[Provenance, ...] = ()
    #: Provenance-keyed cache identity stamped by Session.run(); not
    #: serialized (to_dict/from_dict bytes are unchanged) and not
    #: compared, so cached and recomputed results stay equal.
    provenance_hash: Optional[str] = field(default=None, compare=False, repr=False)
    #: Sections this run computed live under delta evaluation:
    #: ``{section_name: (section_fingerprint, payload_or_None)}``, each
    #: payload a :func:`dump_section` one.  Stamped by
    #: ``Session.run(reuse=...)`` for the sweep service (or a pool
    #: worker) to write to the section tier; not serialized and not
    #: compared (plain full runs leave it ``None``).
    fresh_sections: Optional[Dict[str, Tuple[str, Optional[Dict[str, Any]]]]] = field(
        default=None, compare=False, repr=False
    )

    # --- identity ---------------------------------------------------------
    def fingerprint(self) -> Optional[str]:
        """The canonical-JSON provenance/knob hash this result was run under.

        Stamped by :meth:`Session.run` (``None`` for results rebuilt via
        :meth:`from_dict` or produced by scenarios whose knobs carry no
        stable identity).  Two runs share a fingerprint exactly when
        their scenarios resolve to the same knob map — the key the
        :mod:`repro.sweep` result cache stores entries under.
        """
        return self.provenance_hash

    # --- presentation -----------------------------------------------------
    def summary_lines(self) -> list[str]:
        """Human-readable digest (the ``text`` renderer's body)."""
        lines = [f"Scenario {self.name!r}" + (f" — region {self.region}" if self.region else "")]
        if self.embodied is not None:
            lines.append(
                f"  embodied ({self.embodied.subject}): "
                f"{format_co2(self.embodied.total_g)}"
            )
            for cls, share in self.embodied.shares().items():
                lines.append(f"    {cls:5s} {share:6.1%}")
        if self.audit is not None:
            lines.extend("  " + line for line in self.audit.summary_lines())
        if self.training is not None:
            t = self.training
            lines.append(
                f"  training {t.model} x{t.epochs} epochs on {t.node}: "
                f"{t.duration_h:.2f} h, {t.energy_kwh:.1f} kWh, "
                f"{format_co2(t.operational_g)} operational"
            )
        if self.scheduling is not None:
            s = self.scheduling
            lines.append(
                f"  scheduling ({s.n_jobs} jobs, {s.gpu_hours:,.0f} GPU-hours, "
                f"baseline {s.baseline}):"
            )
            for outcome in s.outcomes:
                lines.append(
                    f"    {outcome.policy:22s} {format_co2(outcome.carbon_g):>12s} "
                    f"({outcome.savings_fraction:+.1%}, "
                    f"delay {outcome.mean_delay_h:.1f} h, "
                    f"{outcome.migrations} migrated)"
                )
        if self.cluster is not None:
            c = self.cluster
            lines.append(
                f"  cluster sim ({c.simulator}, {c.n_nodes} nodes, "
                f"{c.horizon_h:.0f} h): {c.ic_energy_kwh:,.0f} kWh, "
                f"{format_co2(c.carbon_g)}, usage {c.average_usage:.1%}, "
                f"wait {c.mean_wait_h:.1f} h"
            )
        if self.upgrade is not None:
            u = self.upgrade
            breakeven = (
                "never" if u.breakeven_years is None else f"{u.breakeven_years:.2f} yr"
            )
            lines.append(
                f"  upgrade {u.old} -> {u.new} ({u.suite}): breakeven {breakeven}, "
                f"EOL savings {u.savings_at_lifetime:+.1%} — {u.verdict}"
            )
        if self.carbon is not None:
            c = self.carbon
            lines.append(
                f"  carbon ledger ({c.backend}, primary {c.source}): "
                f"{format_co2(c.total_g)} = {format_co2(c.operational_g)} "
                f"operational + {format_co2(c.embodied_g)} embodied"
            )
            if len(c.by_region) > 1:
                regions = ", ".join(
                    f"{code} {format_co2(grams)}"
                    for code, grams in c.by_region.items()
                )
                lines.append(f"    by region: {regions}")
        return lines

    # --- serialization ----------------------------------------------------
    @staticmethod
    def _plain(obj):
        """JSON-able view of a section, skipping non-compared fields.

        Unlike ``dataclasses.asdict``, this never recurses into the live
        payloads (``result``, ``evaluations``), so serializing a result
        stays O(summary) instead of deep-copying the whole workload.
        """
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {
                f.name: ScenarioResult._plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
                if f.compare
            }
        if isinstance(obj, (list, tuple)):
            return [ScenarioResult._plain(item) for item in obj]
        if isinstance(obj, dict):
            return {key: ScenarioResult._plain(value) for key, value in obj.items()}
        return obj

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able dict (live objects in non-compared fields dropped)."""

        def section(value) -> Optional[Dict[str, Any]]:
            return None if value is None else self._plain(value)

        return {
            "name": self.name,
            "region": self.region,
            "seed": self.seed,
            "embodied": section(self.embodied),
            "audit": section(self.audit),
            "training": section(self.training),
            "scheduling": section(self.scheduling),
            "cluster": section(self.cluster),
            "upgrade": section(self.upgrade),
            "carbon": section(self.carbon),
            "provenance": [self._plain(p) for p in self.provenance],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        """Rebuild a result from :meth:`to_dict` output (JSON round-trip)."""
        return cls(
            name=str(data["name"]),
            region=data.get("region"),
            seed=int(data["seed"]),
            provenance=tuple(
                Provenance(**p) for p in data.get("provenance", ())
            ),
            **{
                name: load_section(name, data.get(name))
                for name in SECTION_TYPES
            },
        )
