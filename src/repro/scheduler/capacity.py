"""Capacity-aware carbon scheduling: policies meet the cluster simulator.

The job-level evaluation in :mod:`repro.scheduler.evaluation` assumes
shifted jobs always find capacity.  Real centers queue: delaying jobs
toward the same clean hours concentrates load and creates waiting, which
erodes both the carbon savings and the service level.  This module
closes the loop:

1. a policy proposes per-job start times (within slack windows),
2. the proposals are replayed through the discrete-event cluster
   simulator (jobs may start later than proposed if GPUs are busy),
3. realized carbon/wait metrics come from the simulation.

:func:`simulate_with_policy` runs the pipeline;
:func:`temporal_shifting_with_capacity` compares it against the
carbon-oblivious baseline — the experiment behind the paper's caveat
that "exploiting this opportunity is not trivial".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence

from repro.cluster.job import Job, JobBatch
from repro.cluster.simulator import Cluster, SimulationResult, simulate_cluster
from repro.intensity.api import CarbonIntensityService
from repro.intensity.trace import IntensityTrace
from repro.scheduler.evaluation import _validate_placements
from repro.scheduler.policies import SchedulingPolicy, place_jobs

__all__ = [
    "CapacityAwareOutcome",
    "simulate_with_policy",
    "temporal_shifting_with_capacity",
]


@dataclass(frozen=True)
class CapacityAwareOutcome:
    """Realized (simulated) outcome of one policy on one cluster."""

    policy_name: str
    simulation: SimulationResult
    proposed_delay_h: float

    @property
    def carbon_g(self) -> float:
        return self.simulation.carbon_g

    @property
    def realized_wait_h(self) -> float:
        return self.simulation.mean_wait_h()


def _reshaped_jobs(jobs: Sequence[Job], policy: SchedulingPolicy) -> tuple[list[Job], float]:
    """Apply a policy's start proposals as new submit times.

    The simulator treats submit time as the earliest allowed start, so a
    proposal becomes a delayed resubmission.  Slack accounting stays
    intact for validation.  Returns the jobs plus the mean proposed
    delay.  Proposals pass the evaluator's validator, so a fault raises
    the same :class:`~repro.core.errors.SchedulingError` here as there.
    """
    batch = JobBatch.coerce(jobs)
    placements = place_jobs(policy, jobs)
    _validate_placements(batch, placements, policy.name)
    starts = placements.start_h.tolist()
    delays = (placements.start_h - batch.submit_h).tolist()
    reshaped = [
        replace(job, submit_h=start, slack_h=job.slack_h - delay)
        for job, start, delay in zip(jobs, starts, delays)
    ]
    mean_delay = sum(delays) / len(jobs) if jobs else 0.0
    return reshaped, mean_delay


def simulate_with_policy(
    jobs: Sequence[Job],
    policy: SchedulingPolicy,
    cluster: Cluster,
    trace: IntensityTrace,
    *,
    horizon_h: float,
    pue: float | None = None,
) -> CapacityAwareOutcome:
    """Replay a policy's proposals through the cluster simulator."""
    reshaped, mean_delay = _reshaped_jobs(jobs, policy)
    result = simulate_cluster(
        reshaped, cluster, horizon_h=horizon_h, intensity=trace, pue=pue
    )
    return CapacityAwareOutcome(
        policy_name=policy.name, simulation=result, proposed_delay_h=mean_delay
    )


def temporal_shifting_with_capacity(
    jobs: Sequence[Job],
    cluster: Cluster,
    service: CarbonIntensityService,
    region: str,
    *,
    horizon_h: float,
    pue: float | None = None,
) -> Dict[str, CapacityAwareOutcome]:
    """Baseline vs temporal shifting, both under real capacity limits.

    Returns outcomes keyed by policy name.  The shifted schedule's
    carbon includes any congestion it created, so the reported saving is
    the *realizable* one.
    """
    from repro.scheduler.policies import CarbonObliviousPolicy, TemporalShiftingPolicy

    trace = service.trace(region)
    baseline = simulate_with_policy(
        jobs,
        CarbonObliviousPolicy(service, region),
        cluster,
        trace,
        horizon_h=horizon_h,
        pue=pue,
    )
    shifted = simulate_with_policy(
        jobs,
        TemporalShiftingPolicy(service, region),
        cluster,
        trace,
        horizon_h=horizon_h,
        pue=pue,
    )
    return {baseline.policy_name: baseline, shifted.policy_name: shifted}
