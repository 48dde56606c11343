"""Policy evaluation: charge placements against *true* intensities.

Policies decide with forecasts; the evaluator replays their placements
against the ground-truth traces and accounts operational carbon per job
(Eq. 6).  Job energy uses the node generation's per-GPU busy power — the
same GPU-centric scope as the paper's Figs. 8-9 — plus a data-transfer
overhead for migrated jobs (the paper's Insight 7 notes distribution is
not free).

Charging goes through :mod:`repro.accounting`: the old per-job
slice-and-mean loop is now one call into a charging engine (the
vectorized truth-table engine by default, byte-identical to the seed
loop), and every evaluation carries a
:class:`~repro.accounting.CarbonLedger` with per-job / per-region
attribution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

import numpy as np

from repro.accounting import CarbonLedger, VectorizedChargingEngine
from repro.accounting.pue import PUELike, resolve_pue
from repro.core.config import ModelConfig
from repro.core.errors import SchedulingError
from repro.core.units import CarbonMass, Energy
from repro.cluster.job import JobBatch, Placement
from repro.hardware.node import NodeSpec
from repro.intensity.api import CarbonIntensityService
from repro.scheduler.policies import JobStream, SchedulingPolicy, place_jobs

__all__ = ["JobOutcome", "PolicyEvaluation", "evaluate_policy", "compare_policies"]


@dataclass(frozen=True, slots=True)
class JobOutcome:
    """Realized footprint of one placed job."""

    job_id: int
    placement: Placement
    energy_kwh: float
    carbon_g: float
    delay_h: float


@dataclass(frozen=True)
class PolicyEvaluation:
    """Aggregate outcome of one policy over a workload."""

    policy_name: str
    outcomes: tuple[JobOutcome, ...]
    #: Itemized charges behind the outcomes (per-job/region attribution);
    #: not part of equality.
    ledger: Optional[CarbonLedger] = field(default=None, compare=False, repr=False)

    @property
    def total_carbon(self) -> CarbonMass:
        return CarbonMass(sum(o.carbon_g for o in self.outcomes))

    @property
    def total_energy(self) -> Energy:
        return Energy(sum(o.energy_kwh for o in self.outcomes))

    def mean_delay_h(self) -> float:
        if not self.outcomes:
            return 0.0
        return float(np.mean([o.delay_h for o in self.outcomes]))

    def migration_count(self) -> int:
        return sum(1 for o in self.outcomes if o.placement.migrated)

    def carbon_by_region(self) -> Dict[str, float]:
        """Realized grams per placement region (ledger attribution)."""
        if self.ledger is None:
            return {}
        return self.ledger.by_region()


def _validate_placements(
    batch: JobBatch, placements: Sequence[Placement], policy_name: str
) -> None:
    """The placement sanity contract the seed evaluator enforced.

    (Job/placement id pairing is already enforced by ``place_jobs``,
    the single chokepoint every evaluation path goes through.)  Works
    off the batch columns — no per-job objects.
    """
    seen: set[int] = set()
    submits = batch.submit_h
    latest = batch.submit_h + batch.slack_h
    job_ids = batch.job_ids
    for i, placement in enumerate(placements):
        if placement.job_id in seen:
            raise SchedulingError(f"job {int(job_ids[i])} placed twice")
        seen.add(placement.job_id)
        if placement.start_h < submits[i] - 1e-9:
            raise SchedulingError(
                f"policy {policy_name!r} started job {int(job_ids[i])} "
                "before submit"
            )
        if placement.start_h > latest[i] + 1e-9:
            raise SchedulingError(
                f"policy {policy_name!r} violated slack for job {int(job_ids[i])}"
            )


def evaluate_policy(
    jobs: JobStream,
    policy: SchedulingPolicy,
    service: CarbonIntensityService,
    node: NodeSpec,
    *,
    transfer_overhead_fraction: float = 0.02,
    transfer_model: Optional["TransferModel"] = None,
    pue: PUELike = None,
    config: Optional[ModelConfig] = None,
    accounting: Optional[object] = None,
    ledger: Optional[CarbonLedger] = None,
    batch: Optional[JobBatch] = None,
) -> PolicyEvaluation:
    """Place every job with ``policy`` and charge true intensities.

    Migration cost models (for jobs placed away from home):

    * default — ``transfer_overhead_fraction``: extra energy as a flat
      fraction of job energy;
    * physical — pass a :class:`~repro.scheduler.transfer.TransferModel`
      to charge the job's actual dataset size over the region-pair hop
      count, with the transfer's carbon split between both grids.

    ``pue`` takes a float (the legacy exact path) or an hourly profile /
    :class:`~repro.power.pue.SeasonalPUE`; ``accounting`` is the
    charging engine instance (``None``: a
    :class:`~repro.accounting.VectorizedChargingEngine`).  When
    ``ledger`` is given, the evaluation's charges are also folded into
    it (policy-attributed).

    ``jobs`` may be a job sequence or a columnar
    :class:`~repro.cluster.job.JobBatch`; a batch flows through
    placement, validation, and charging on its columns alone — no
    per-job Python objects on the hot path (sequences are columnized
    once at the door).  ``batch`` optionally supplies that columnar
    view precomputed (it must describe the same jobs) so multi-policy
    sweeps pay for one encoding, not one per policy.
    """
    if transfer_overhead_fraction < 0.0:
        raise SchedulingError("transfer overhead must be non-negative")
    # Resolve the PUE once, with this layer's error type; the engine
    # receives the already-normalized scalar or hourly profile (its own
    # re-resolution of either form is a cheap no-op).
    eff_pue, pue_profile = resolve_pue(pue, config=config, error=SchedulingError)
    resolved_pue = eff_pue if pue_profile is None else pue_profile
    engine = VectorizedChargingEngine() if accounting is None else accounting
    if batch is None:
        batch = JobBatch.coerce(jobs)
    elif len(batch) != len(jobs):
        raise SchedulingError(
            f"precomputed batch has {len(batch)} rows for {len(jobs)} jobs"
        )

    # Batched placement: one vectorized place_all call for the built-in
    # policies (scored off the shared window score tables), per-job
    # place for minimal third-party ones.  The *original* jobs go to
    # the policy — a place()-only third-party policy may rely on extra
    # state its own Job subclass carries, which the columnar batch's
    # reconstructed scalar views would drop.
    placements = place_jobs(policy, jobs)
    _validate_placements(batch, placements, policy.name)

    # Charging: the whole per-job accounting loop is one engine call.
    charges = engine.charge(
        batch,
        placements,
        service=service,
        node=node,
        pue=resolved_pue,
        config=config,
        transfer_overhead_fraction=transfer_overhead_fraction,
        transfer_model=transfer_model,
    )
    own_ledger = CarbonLedger()
    charges.record(own_ledger, policy=policy.name)
    if ledger is not None:
        ledger.merge(own_ledger)

    job_ids = batch.job_ids
    submits = batch.submit_h
    outcomes = tuple(
        JobOutcome(
            job_id=int(job_ids[i]),
            placement=placement,
            energy_kwh=float(charges.energy_kwh[i]),
            carbon_g=float(charges.carbon_g[i]),
            delay_h=float(placement.start_h - submits[i]),
        )
        for i, placement in enumerate(placements)
    )
    return PolicyEvaluation(
        policy_name=policy.name, outcomes=outcomes, ledger=own_ledger
    )


def compare_policies(
    jobs: JobStream,
    policies: Sequence[SchedulingPolicy],
    service: CarbonIntensityService,
    node: NodeSpec,
    **kwargs,
) -> Dict[str, PolicyEvaluation]:
    """Evaluate several policies on the same workload.

    ``jobs`` passes through verbatim (a third-party place()-only policy
    must see the caller's own job objects, subclass state included);
    the columnar view backing validation and charging is encoded once
    and shared across every policy.
    """
    shared = kwargs.pop("batch", None)
    if shared is None:
        shared = JobBatch.coerce(jobs)
    results: Dict[str, PolicyEvaluation] = {}
    for policy in policies:
        if policy.name in results:
            raise SchedulingError(f"duplicate policy name {policy.name!r}")
        results[policy.name] = evaluate_policy(
            jobs, policy, service, node, batch=shared, **kwargs
        )
    return results
