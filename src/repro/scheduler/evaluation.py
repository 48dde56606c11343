"""Policy evaluation: charge placements against *true* intensities.

Policies decide with forecasts; the evaluator replays their placements
against the ground-truth traces and accounts operational carbon per job
(Eq. 6).  Job energy uses the node generation's per-GPU busy power — the
same GPU-centric scope as the paper's Figs. 8-9 — plus a flat
data-transfer overhead for migrated jobs (the paper's Insight 7 notes
distribution is not free), priced at the destination grid.

Charging goes through :mod:`repro.accounting`: the old per-job
slice-and-mean loop is now one call into a charging engine (the
vectorized truth-table engine by default, byte-identical to the seed
loop), and every evaluation carries a
:class:`~repro.accounting.CarbonLedger` with per-job / per-region
attribution.

Placements and outcomes stay columnar: the policy's
:class:`~repro.cluster.job.PlacementBatch` is validated and charged on
its columns, and :class:`PolicyEvaluation` keeps it beside the per-job
energy, carbon and delay columns.  Its reductions read the columns in
the scalar path's order, bit for bit; the per-job :class:`JobOutcome`
tuple is built only when a caller reads ``outcomes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.accounting import CarbonLedger, VectorizedChargingEngine
from repro.accounting.engines import check_transfer_overhead
from repro.accounting.pue import PUELike, resolve_pue
from repro.core.config import ModelConfig
from repro.core.errors import SchedulingError
from repro.core.units import CarbonMass, Energy
from repro.cluster.job import JobBatch, Placement, PlacementBatch
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


@dataclass(frozen=True, eq=False)
class PolicyEvaluation:
    """Aggregate outcome of one policy over a workload.

    The placements and the per-job ``energy_kwh`` / ``carbon_g`` /
    ``delay_h`` columns are aligned with the input job order.
    Equality compares the policy name and the outcomes, never the
    ledger.
    """

    policy_name: str
    placements: PlacementBatch = field(repr=False)
    energy_kwh: np.ndarray = field(repr=False)
    carbon_g: np.ndarray = field(repr=False)
    delay_h: np.ndarray = field(repr=False)
    #: Itemized charges behind the outcomes (per-job/region attribution).
    ledger: Optional[CarbonLedger] = field(default=None, repr=False)

    @cached_property
    def outcomes(self) -> Tuple[JobOutcome, ...]:
        """Per-job outcomes, built from the columns on first access."""
        return tuple(
            JobOutcome(
                job_id=placement.job_id,
                placement=placement,
                energy_kwh=energy,
                carbon_g=carbon,
                delay_h=delay,
            )
            for placement, energy, carbon, delay in zip(
                self.placements,
                self.energy_kwh.tolist(),
                self.carbon_g.tolist(),
                self.delay_h.tolist(),
            )
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolicyEvaluation):
            return NotImplemented
        return (
            self.policy_name == other.policy_name
            and self.outcomes == other.outcomes
        )

    def __hash__(self) -> int:
        return hash((self.policy_name, self.outcomes))

    # The reductions add the per-job floats left to right, as a sum over
    # the outcomes does; np.sum adds pairwise and would move the bits.
    @property
    def total_carbon(self) -> CarbonMass:
        return CarbonMass(sum(self.carbon_g.tolist()))

    @property
    def total_energy(self) -> Energy:
        return Energy(sum(self.energy_kwh.tolist()))

    def mean_delay_h(self) -> float:
        if not self.delay_h.shape[0]:
            return 0.0
        return float(np.mean(self.delay_h))

    def migration_count(self) -> int:
        return int(np.count_nonzero(self.placements.migrated))

    def carbon_by_region(self) -> Dict[str, float]:
        """Realized grams per placement region (ledger attribution)."""
        if self.ledger is None:
            return {}
        return self.ledger.by_region()


def _validate_placements(
    batch: JobBatch, placements: PlacementBatch, policy_name: str
) -> None:
    """The placement sanity contract the seed evaluator enforced.

    (Job/placement id pairing is already enforced by ``place_jobs``,
    the single chokepoint every evaluation path goes through.)  Reads
    the batch and placement columns — no per-job objects — and reports
    the first offending job in input order; for that job the checks
    run in the seed's order (duplicate, before submit, slack), then a
    non-finite start, which every comparison above lets through.
    """
    starts = placements.start_h
    duplicate = np.ones(starts.shape[0], dtype=bool)
    duplicate[np.unique(placements.job_ids, return_index=True)[1]] = False
    early = starts < batch.submit_h - 1e-9
    late = starts > batch.submit_h + batch.slack_h + 1e-9
    non_finite = ~np.isfinite(starts)
    bad = duplicate | early | late | non_finite
    if not bad.any():
        return
    i = int(np.argmax(bad))
    job_id = int(batch.job_ids[i])
    if duplicate[i]:
        raise SchedulingError(f"job {job_id} placed twice")
    if early[i]:
        raise SchedulingError(
            f"policy {policy_name!r} started job {job_id} before submit"
        )
    if late[i]:
        raise SchedulingError(
            f"policy {policy_name!r} violated slack for job {job_id}"
        )
    raise SchedulingError(
        f"policy {policy_name!r} placed job {job_id} at non-finite start "
        f"{float(starts[i])!r}"
    )


def evaluate_policy(
    jobs: JobStream,
    policy: SchedulingPolicy,
    service: CarbonIntensityService,
    node: NodeSpec,
    *,
    transfer_overhead_fraction: float = 0.02,
    pue: PUELike = None,
    config: Optional[ModelConfig] = None,
    accounting: Optional[object] = None,
    ledger: Optional[CarbonLedger] = None,
    batch: Optional[JobBatch] = None,
) -> PolicyEvaluation:
    """Place every job with ``policy`` and charge true intensities.

    A job placed away from home pays ``transfer_overhead_fraction``
    (finite, non-negative) as extra energy, a flat fraction of its
    compute energy, priced at the destination grid with the rest.

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
    view precomputed so multi-policy sweeps pay for one encoding, not
    one per policy; it must describe the same jobs, and a batch whose
    ``job_ids`` differ from the placed jobs' raises
    :class:`SchedulingError` before anything is charged.
    """
    check_transfer_overhead(transfer_overhead_fraction, error=SchedulingError)
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
    mismatched = batch.job_ids != placements.job_ids
    if mismatched.any():
        i = int(np.argmax(mismatched))
        raise SchedulingError(
            f"precomputed batch row {i} holds job {int(batch.job_ids[i])}, "
            f"but the policy placed job {int(placements.job_ids[i])} there"
        )
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
    )
    own_ledger = CarbonLedger()
    charges.record(own_ledger, policy=policy.name)
    if ledger is not None:
        ledger.merge(own_ledger)

    return PolicyEvaluation(
        policy_name=policy.name,
        placements=placements,
        energy_kwh=np.asarray(charges.energy_kwh, dtype=float),
        carbon_g=np.asarray(charges.carbon_g, dtype=float),
        delay_h=placements.start_h - batch.submit_h,
        ledger=own_ledger,
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
