"""Scalar reference implementations the parity tests pin the engines to.

:func:`simulate_cluster` here is the seed FCFS earliest-fit simulator:
per-job :class:`~repro.cluster.job.Job` views, one bisect-maintained
occupancy timeline per node (:class:`_NodeTimeline`), and a per-job
busy-hours loop.  The package's columnar engine,
:func:`repro.cluster.simulator.simulate_cluster`, must match it byte for
byte — schedule, busy array, energy, carbon and ledger — and both charge
through the package's ``_account_horizon``.

:func:`temporal_shifting_place`, :func:`geographic_place` and
:func:`temporal_geographic_place` are one scalar ``place`` scan per
carbon-aware policy, each its own loop over that policy's candidates,
with the candidate sets read from the policy's public fields.  The
search the policies share (``repro.scheduler.policies._ForecastSearch``)
must match them placement for placement, in ``place`` and
``place_all`` alike.

The tests import this module as ``oracles`` (pytest puts ``tests/`` on
``sys.path``); the benchmarks' oracle arms append ``tests/`` to
``sys.path`` first.  The accounting oracle,
:class:`repro.accounting.engines.ScalarReferenceChargingEngine`, still
lives in the package because ``perfbench/tracer.py`` patches it by name.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accounting import CarbonLedger
from repro.accounting.pue import PUELike, resolve_pue
from repro.core.config import ModelConfig
from repro.core.errors import SimulationError
from repro.core.units import CarbonMass, Energy
from repro.cluster.job import Job, JobBatch, Placement
from repro.cluster.simulator import Cluster, ScheduledJob, _account_horizon
from repro.intensity.trace import IntensityTrace
from repro.scheduler.policies import (
    _job_region,
    _slack_starts,
    _unique_floor_hours,
    _window_hours,
)

__all__ = [
    "SimulationResult",
    "simulate_cluster",
    "temporal_shifting_place",
    "geographic_place",
    "temporal_geographic_place",
]


class _NodeTimeline:
    """Incrementally maintained free-GPU timeline for one node.

    GPU occupancy on a node is piecewise constant, so the timeline keeps
    the sorted breakpoint times plus the running occupancy between
    consecutive breakpoints: ``occ[i]`` GPUs are busy on
    ``[times[i], times[i+1])`` and zero GPUs outside ``[times[0],
    times[-1])``.  Committing a job bisect-inserts its two boundaries
    and bumps the occupancy of the spanned segments; finding the
    earliest feasible start is a single forward scan that jumps past
    each blocking segment.  No per-job sorting — the per-placement cost
    is O(log segments + segments scanned) instead of the former
    sort-all-events-per-candidate sweep, and results are identical: the
    earliest feasible start is unique regardless of how candidates are
    enumerated.
    """

    __slots__ = ("capacity", "times", "occ")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.times: List[float] = []  # sorted breakpoints
        self.occ: List[int] = []  # occ[i] busy GPUs on [times[i], times[i+1])

    def _ensure_breakpoint(self, t: float) -> int:
        """Index of breakpoint ``t``, splitting a segment to create it."""
        times = self.times
        i = bisect.bisect_left(times, t)
        if i < len(times) and times[i] == t:
            return i
        times.insert(i, t)
        if len(times) == 1:
            pass  # first breakpoint: no segment yet
        elif i == 0:
            self.occ.insert(0, 0)  # new segment before the old first event
        elif i == len(times) - 1:
            self.occ.append(0)  # new segment after the old last event
        else:
            self.occ.insert(i, self.occ[i - 1])  # split: same occupancy
        return i

    def earliest_start(self, ready_h: float, duration_h: float, gpus: int) -> float:
        if gpus > self.capacity:
            raise SimulationError(
                f"job requesting {gpus} GPUs exceeds node capacity {self.capacity}"
            )
        times, occ = self.times, self.occ
        free = self.capacity - gpus
        t = ready_h
        seg = bisect.bisect_right(times, t) - 1
        while True:
            end = t + duration_h
            k = seg
            while True:
                seg_occ = occ[k] if 0 <= k < len(occ) else 0
                if seg_occ > free:
                    # Blocked: every start before this segment's end still
                    # overlaps it, so the next candidate is that boundary.
                    t = times[k + 1]
                    seg = k + 1
                    break
                seg_end = times[k + 1] if k + 1 < len(times) else None
                if seg_end is None or seg_end >= end:
                    return t  # window fits to the right of all events
                k += 1

    def commit(self, start_h: float, end_h: float, gpus: int) -> None:
        i0 = self._ensure_breakpoint(start_h)
        i1 = self._ensure_breakpoint(end_h)
        for k in range(i0, i1):
            self.occ[k] += gpus
            if self.occ[k] > self.capacity:
                raise SimulationError(
                    "internal placement error: capacity violated"
                )


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of a cluster simulation over a horizon."""

    cluster: Cluster
    horizon_h: float
    scheduled: Tuple[ScheduledJob, ...]
    busy_gpu_hours_per_hour: np.ndarray = field(repr=False)
    ic_energy_kwh: float
    carbon_g: float
    pue: float
    #: Itemized charge behind ``carbon_g`` (shared accounting currency);
    #: not part of equality.
    ledger: Optional[CarbonLedger] = field(default=None, compare=False, repr=False)

    # --- service metrics -------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return len(self.scheduled)

    def mean_wait_h(self) -> float:
        if not self.scheduled:
            return 0.0
        return float(np.mean([s.wait_h for s in self.scheduled]))

    def makespan_h(self) -> float:
        if not self.scheduled:
            return 0.0
        return max(s.end_h for s in self.scheduled)

    # --- utilization ------------------------------------------------------
    def utilization(self) -> np.ndarray:
        """Per-hour GPU usage rate (busy GPU-hours / total GPU-hours)."""
        return self.busy_gpu_hours_per_hour / self.cluster.total_gpus

    def average_usage(self) -> float:
        """Horizon-average GPU usage rate (the paper's 40% medium level)."""
        return float(self.utilization().mean())

    # --- footprint -------------------------------------------------------------
    @property
    def energy(self) -> Energy:
        return Energy(self.ic_energy_kwh)

    @property
    def carbon(self) -> CarbonMass:
        return CarbonMass(self.carbon_g)


def _place_fcfs(jobs: Sequence[Job], cluster: Cluster) -> List[ScheduledJob]:
    """FCFS earliest-fit placement across nodes."""
    states = [_NodeTimeline(cluster.gpus_per_node) for _ in range(cluster.n_nodes)]
    scheduled: List[ScheduledJob] = []
    ordered = sorted(jobs, key=lambda j: (j.submit_h, j.job_id))
    for job in ordered:
        if job.n_gpus > cluster.gpus_per_node:
            raise SimulationError(
                f"job {job.job_id} requests {job.n_gpus} GPUs; nodes have "
                f"{cluster.gpus_per_node}"
            )
        best_start = None
        best_node = -1
        for idx, state in enumerate(states):
            start = state.earliest_start(job.submit_h, job.duration_h, job.n_gpus)
            if best_start is None or start < best_start:
                best_start, best_node = start, idx
                if start <= job.submit_h:
                    # No node can admit before the submit time, so the
                    # first timeline yielding start == submit is the
                    # global minimum *and* the lowest-index tie-break:
                    # scanning the remaining nodes cannot change the
                    # choice (identical schedules by construction).
                    break
        assert best_start is not None
        states[best_node].commit(best_start, best_start + job.duration_h, job.n_gpus)
        scheduled.append(ScheduledJob(job=job, node_index=best_node, start_h=best_start))
    return scheduled


def _busy_gpu_hours(
    scheduled: Sequence[ScheduledJob], n_hours: int
) -> np.ndarray:
    """Accumulate busy GPU-hours into hourly bins, fractional at edges."""
    busy = np.zeros(n_hours)
    # One bin-index buffer for the whole schedule: per-job windows slice
    # views out of it instead of allocating a fresh ``np.arange`` each.
    all_hours = np.arange(n_hours)
    for entry in scheduled:
        start, end = entry.start_h, entry.end_h
        gpus = entry.job.n_gpus
        first = int(np.floor(start))
        last = int(np.ceil(end))
        if first >= n_hours:
            continue
        last = min(last, n_hours)
        hours = all_hours[first:last]
        lo = np.maximum(hours, start)
        hi = np.minimum(hours + 1, end)
        busy[first:last] += gpus * np.maximum(hi - lo, 0.0)
    return busy


def simulate_cluster(
    jobs: Union[Sequence[Job], JobBatch],
    cluster: Cluster,
    *,
    horizon_h: float,
    intensity: Union[float, IntensityTrace] = 200.0,
    pue: PUELike = None,
    config: Optional[ModelConfig] = None,
) -> SimulationResult:
    """Run the full pipeline: place jobs, account energy and carbon.

    Jobs still running at ``horizon_h`` contribute only their in-horizon
    portion to energy/carbon (the tail is truncated, as a fixed-window
    accounting period would).  ``pue`` takes a float (the legacy exact
    path) or an hourly profile / :class:`~repro.power.pue.SeasonalPUE`,
    which weights each simulated hour's charge by that hour's facility
    overhead.  A columnar :class:`JobBatch` is accepted and materialized
    into scalar views once (the simulator's schedule bookkeeping is
    per-job by nature).
    """
    if horizon_h <= 0.0:
        raise SimulationError(f"horizon must be positive, got {horizon_h!r}")
    if isinstance(jobs, JobBatch):
        jobs = jobs.to_jobs()
    eff_pue, pue_profile = resolve_pue(pue, config=config, error=SimulationError)

    scheduled = _place_fcfs(jobs, cluster)
    n_hours = int(np.ceil(horizon_h))
    busy = _busy_gpu_hours(scheduled, n_hours)
    ic_energy_kwh, carbon_g, ledger = _account_horizon(
        busy, cluster, n_hours, intensity, eff_pue, pue_profile
    )

    return SimulationResult(
        cluster=cluster,
        horizon_h=horizon_h,
        scheduled=tuple(scheduled),
        busy_gpu_hours_per_hour=busy,
        ic_energy_kwh=ic_energy_kwh,
        carbon_g=carbon_g,
        pue=eff_pue,
        ledger=ledger,
    )


# --- scalar placement scans ---------------------------------------------------
def _candidate_starts(policy, job: Job) -> np.ndarray:
    return _slack_starts(job.submit_h, job.slack_h, policy.step_h)


def _candidate_regions(policy) -> List[str]:
    return (
        list(policy.regions)
        if policy.regions is not None
        else policy.service.regions
    )


def temporal_shifting_place(policy, job: Job) -> Placement:
    """``TemporalShiftingPolicy.place``: the home region's slack grid."""
    region = _job_region(job, policy.default_region)
    window = _window_hours(job.duration_h)
    starts = _candidate_starts(policy, job)
    hours, first_idx = _unique_floor_hours(starts)
    scores = [
        policy.service.forecast_window_mean(region, int(h), window)
        for h in hours
    ]
    best = starts[int(first_idx[int(np.argmin(scores))])]
    return Placement(
        job_id=job.job_id,
        region=region,
        start_h=float(best),
        duration_h=job.duration_h,
    )


def geographic_place(policy, job: Job) -> Placement:
    """``GeographicPolicy.place``: the candidate regions at submit time."""
    home = _job_region(job, policy.default_region)
    window = _window_hours(job.duration_h)
    hour = int(np.floor(job.submit_h))
    best_region = min(
        _candidate_regions(policy),
        key=lambda code: policy.service.forecast_window_mean(code, hour, window),
    )
    return Placement(
        job_id=job.job_id,
        region=best_region,
        start_h=job.submit_h,
        duration_h=job.duration_h,
        migrated=best_region != home,
    )


def temporal_geographic_place(policy, job: Job) -> Placement:
    """``TemporalGeographicPolicy.place``: candidate regions × slack grid."""
    home = _job_region(job, policy.default_region)
    window = _window_hours(job.duration_h)
    starts = _candidate_starts(policy, job)
    # Distinct starts flooring to one hour share a score; ask the
    # service once per (region, hour) instead of once per start.
    hours, first_idx = _unique_floor_hours(starts)
    best: tuple[float, str, float] | None = None
    for region in _candidate_regions(policy):
        for k, hour in enumerate(hours):
            score = policy.service.forecast_window_mean(region, int(hour), window)
            if best is None or score < best[0]:
                best = (score, region, float(starts[first_idx[k]]))
    assert best is not None
    _score, region, start = best
    return Placement(
        job_id=job.job_id,
        region=region,
        start_h=start,
        duration_h=job.duration_h,
        migrated=region != home,
    )
