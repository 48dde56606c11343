"""Discrete-event GPU-cluster simulator.

Simulates a homogeneous cluster of Table 5 nodes serving a job stream
under FCFS-with-earliest-fit placement, then accounts energy and
operational carbon for the whole horizon.  This is the substrate behind
the paper's utilization analysis (RQ8: low GPU usage stretches upgrade
amortization) and the carbon-aware-scheduler evaluation (RQ6).

Modeling notes (kept deliberately explicit):

* GPUs are allocated whole, on a single node per job (the dominant case
  in the cited production traces).
* A node's CPUs are modeled busy in proportion to its busy-GPU
  fraction; DRAM/storage draw their active power whenever the node is
  powered (always, in this study).
* Placement reads :class:`~repro.cluster.job.JobBatch` columns and keeps
  a min-heap of running-job end times plus per-node free-GPU counters.
  While a node carries no queued future start, its GPU occupancy on
  ``[s, ∞)`` is non-increasing, so "admits the job at its submit time"
  is one integer compare.  Only nodes carrying queued jobs (and the
  rare fully-contended placement) fall back to an exact
  piecewise-constant occupancy sweep: the earliest feasible start, with
  the lowest node index breaking ties.
* Busy accumulation is one ``np.add.at`` pass over per-(job, hour-bin)
  fractional contributions laid out in schedule order; carbon is one
  dot product against the intensity trace (Eq. 6).
* Service metrics come off the schedule's ``start_h``/``end_h``
  columns; :attr:`SimulationResult.scheduled` builds scalar
  :class:`ScheduledJob` views lazily for code that wants objects.

The other scheduling disciplines (:mod:`repro.cluster.engine`) run
through the same pipeline, :func:`_simulate`: one FCFS intake, the
occupancy helpers, the busy-hours pass and the accounting tail.  The
seed's scalar simulator is kept with the tests (``tests/oracles.py``),
which pin this engine to it byte for byte.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from math import inf
from numbers import Real
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accounting import CarbonLedger
from repro.accounting.pue import PUELike, align_pue_profile, resolve_pue
from repro.core.config import ModelConfig
from repro.core.errors import SimulationError
from repro.core.units import CarbonMass, Energy
from repro.cluster.job import Job, JobBatch
from repro.hardware.node import NodeSpec
from repro.intensity.trace import IntensityTrace
from repro.power.node import NodePowerModel

__all__ = ["Cluster", "ScheduledJob", "SimulationResult", "simulate_cluster"]


@dataclass(frozen=True, slots=True)
class ScheduledJob:
    """A job with its realized start time and node assignment."""

    job: Job
    node_index: int
    start_h: float

    @property
    def end_h(self) -> float:
        return self.start_h + self.job.duration_h

    @property
    def wait_h(self) -> float:
        return self.start_h - self.job.submit_h


class Cluster:
    """A homogeneous cluster of ``n_nodes`` copies of one node spec."""

    def __init__(self, node: NodeSpec, n_nodes: int) -> None:
        if (
            isinstance(n_nodes, bool)
            or not isinstance(n_nodes, Real)
            or not 1 <= n_nodes < inf
            or n_nodes != int(n_nodes)
        ):
            raise SimulationError(
                f"cluster needs a whole number of nodes >= 1, got {n_nodes!r}"
            )
        self.node = node
        self.n_nodes = int(n_nodes)
        self.power_model = NodePowerModel(node)

    @property
    def gpus_per_node(self) -> int:
        return self.node.gpu_count

    @property
    def total_gpus(self) -> int:
        return self.n_nodes * self.gpus_per_node


class SimulationResult:
    """Outcome of a cluster simulation over a horizon.

    ``node_index``/``start_h`` are per-job arrays aligned with ``batch``
    (the workload in FCFS ``(submit_h, job_id)`` order); service metrics
    and utilization read the columns directly.  :attr:`scheduled`
    materializes the scalar :class:`ScheduledJob` tuple lazily, so
    object-level consumers pay for it only when they ask.
    """

    __slots__ = (
        "cluster", "horizon_h", "batch", "node_index", "start_h",
        "busy_gpu_hours_per_hour", "ic_energy_kwh", "carbon_g", "pue",
        "ledger", "_scheduled",
    )

    def __init__(
        self,
        *,
        cluster: Cluster,
        horizon_h: float,
        batch: JobBatch,
        node_index: np.ndarray,
        start_h: np.ndarray,
        busy_gpu_hours_per_hour: np.ndarray,
        ic_energy_kwh: float,
        carbon_g: float,
        pue: float,
        ledger: Optional[CarbonLedger],
    ) -> None:
        self.cluster = cluster
        self.horizon_h = horizon_h
        self.batch = batch
        self.node_index = node_index
        self.start_h = start_h
        self.busy_gpu_hours_per_hour = busy_gpu_hours_per_hour
        self.ic_energy_kwh = ic_energy_kwh
        self.carbon_g = carbon_g
        self.pue = pue
        #: Itemized charge behind ``carbon_g`` (shared accounting currency).
        self.ledger = ledger
        self._scheduled: Optional[Tuple[ScheduledJob, ...]] = None

    # --- columnar schedule ------------------------------------------------
    @property
    def end_h(self) -> np.ndarray:
        return self.start_h + self.batch.duration_h

    @property
    def wait_h(self) -> np.ndarray:
        return self.start_h - self.batch.submit_h

    @property
    def scheduled(self) -> Tuple[ScheduledJob, ...]:
        """Scalar schedule views, materialized on first access."""
        if self._scheduled is None:
            starts = self.start_h.tolist()
            nodes = self.node_index.tolist()
            self._scheduled = tuple(
                ScheduledJob(job=job, node_index=nodes[i], start_h=starts[i])
                for i, job in enumerate(self.batch)
            )
        return self._scheduled

    # --- service metrics --------------------------------------------------
    @property
    def n_jobs(self) -> int:
        return len(self.batch)

    def mean_wait_h(self) -> float:
        if not len(self.batch):
            return 0.0
        return float(np.mean(self.wait_h))

    def makespan_h(self) -> float:
        if not len(self.batch):
            return 0.0
        return float(np.max(self.end_h))

    # --- utilization ------------------------------------------------------
    def utilization(self) -> np.ndarray:
        """Per-hour GPU usage rate (busy GPU-hours / total GPU-hours)."""
        return self.busy_gpu_hours_per_hour / self.cluster.total_gpus

    def average_usage(self) -> float:
        """Horizon-average GPU usage rate (the paper's 40% medium level)."""
        return float(self.utilization().mean())

    # --- footprint --------------------------------------------------------
    @property
    def energy(self) -> Energy:
        return Energy(self.ic_energy_kwh)

    @property
    def carbon(self) -> CarbonMass:
        return CarbonMass(self.carbon_g)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n_jobs={self.n_jobs}, "
            f"horizon_h={self.horizon_h}, "
            f"ic_energy_kwh={self.ic_energy_kwh:.1f})"
        )


# --- exact occupancy primitives (slow path) ---------------------------------
def _prune(intervals: List[Tuple[float, float, int]], now: float) -> None:
    """Drop committed intervals that ended at or before ``now`` in place.

    Submit times are non-decreasing in FCFS order, so completed jobs can
    never influence a later query (intervals are half-open ``[start,
    end)``); pruning keeps the per-node sweeps proportional to the
    node's *live* job count instead of its whole history.
    """
    keep = [iv for iv in intervals if iv[1] > now]
    if len(keep) != len(intervals):
        intervals[:] = keep


def _admits_at(
    intervals: List[Tuple[float, float, int]],
    s: float,
    end_w: float,
    gpus: int,
    capacity: int,
) -> bool:
    """Exact window check: do ``gpus`` fit on ``[s, end_w)``?

    ``intervals`` are the node's uncompleted commitments (running and
    queued-future); occupancy is piecewise constant, so it suffices to
    check the occupancy at ``s`` and after each event inside the
    window.  Events are applied in time order with releases before
    acquisitions at equal times (half-open intervals), so intermediate
    sums never spuriously exceed the cap.
    """
    free_cap = capacity - gpus
    occ = 0
    events: List[Tuple[float, int]] = []
    for start, end, g in intervals:
        if start < end_w and end > s:
            if start <= s:
                occ += g
            else:
                events.append((start, g))
            if end < end_w:
                events.append((end, -g))
    if occ > free_cap:
        return False
    if not events:
        return True
    events.sort()
    for _, delta in events:
        occ += delta
        if occ > free_cap:
            return False
    return True


def _earliest_start(
    intervals: List[Tuple[float, float, int]],
    ready: float,
    duration: float,
    gpus: int,
    capacity: int,
    bound: float = inf,
) -> float:
    """Exact earliest feasible start on one node's commitments.

    Builds the node's breakpoint/occupancy profile from its uncompleted
    intervals and walks it forward from ``ready``, jumping past each
    blocking segment — the earliest feasible start is a unique function
    of the occupancy profile.  ``bound`` aborts the walk once the trial
    start can no longer beat a caller's best-so-far under a strict
    ``<`` comparison: the returned value is then some start ``>=
    bound``, not necessarily feasible, which such a caller discards
    anyway.
    """
    times, occ = _node_profile(intervals)
    return _walk_earliest(
        times, occ, ready, duration, capacity - gpus, bound
    )


def _node_profile(
    intervals: List[Tuple[float, float, int]],
) -> Tuple[List[float], List[int]]:
    """Breakpoint/occupancy profile of one node's commitments.

    The profile is a pure function of the interval list, so callers
    may cache it across queries at different ``ready`` times and only
    rebuild after appending a commitment.  Completed intervals merely
    prepend segments the walk's opening bisect skips — pruning is an
    optimization, never a correctness requirement.
    """
    events: List[Tuple[float, int]] = []
    for start, end, g in intervals:
        events.append((start, g))
        events.append((end, -g))
    events.sort()
    times: List[float] = []
    occ: List[int] = []
    current = 0
    i = 0
    n_events = len(events)
    while i < n_events:
        t = events[i][0]
        delta = 0
        while i < n_events and events[i][0] == t:
            delta += events[i][1]
            i += 1
        current += delta
        times.append(t)
        occ.append(current)
    return times, occ


def _walk_earliest(
    times: List[float],
    occ: List[int],
    ready: float,
    duration: float,
    free_cap: int,
    bound: float = inf,
) -> float:
    """Earliest ``t >= ready`` with occupancy ``<= free_cap`` across
    ``[t, t + duration)``, aborting once ``t`` reaches ``bound``."""
    t = ready
    seg = bisect_right(times, t) - 1
    n_times = len(times)
    while True:
        if t >= bound:
            return t
        end_w = t + duration
        k = seg
        while True:
            seg_occ = occ[k] if 0 <= k < n_times else 0
            if seg_occ > free_cap:
                t = times[k + 1]
                seg = k + 1
                break
            if k + 1 >= n_times or times[k + 1] >= end_w:
                return t
            k += 1


# --- FCFS earliest-fit on columns -------------------------------------------
def _place_fcfs_columnar(
    batch: JobBatch, n_nodes: int, capacity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """FCFS earliest-fit placement straight off the batch columns.

    ``batch`` arrives in FCFS ``(submit_h, job_id)`` order; returns the
    per-job ``(node_index, start_h)`` aligned with it.  The first node
    (index order) admitting at the submit time wins; otherwise the
    minimal earliest-feasible start with the lowest-index tie-break.
    """
    n = len(batch)
    submits = batch.submit_h.tolist()
    durations = batch.duration_h.tolist()
    gpus_list = batch.n_gpus.tolist()

    free = [capacity] * n_nodes
    running: List[Tuple[float, int, int]] = []  # (end, node, gpus)
    pending: List[Tuple[float, float, int, int]] = []  # (start, end, node, gpus)
    node_future = [0] * n_nodes  # queued future starts per node
    node_jobs: List[List[Tuple[float, float, int]]] = [
        [] for _ in range(n_nodes)
    ]
    nodes_out = [0] * n
    starts_out = [0.0] * n
    node_range = range(n_nodes)

    for i in range(n):
        s = submits[i]
        d = durations[i]
        g = gpus_list[i]
        # Advance the frontier: queued jobs whose start arrived begin
        # occupying, then finished jobs release their GPUs.
        while pending and pending[0][0] <= s:
            _, e, nd, gg = heappop(pending)
            node_future[nd] -= 1
            free[nd] -= gg
            heappush(running, (e, nd, gg))
        while running and running[0][0] <= s:
            _, nd, gg = heappop(running)
            free[nd] += gg
        # Fast path: the first node (index order) admitting at submit.
        # Without queued future starts a node's occupancy can only fall
        # after s, so the whole-window check is one integer compare.
        placed = -1
        for nd in node_range:
            if node_future[nd]:
                jobs_nd = node_jobs[nd]
                _prune(jobs_nd, s)
                if _admits_at(jobs_nd, s, s + d, g, capacity):
                    placed = nd
                    break
            elif free[nd] >= g:
                placed = nd
                break
        if placed >= 0:
            start = s
            free[placed] -= g
            end = s + d
            heappush(running, (end, placed, g))
        else:
            # Contended: every node's earliest feasible start is past
            # the submit time; take the minimum with the lowest-index
            # tie-break (strict <).
            best = None
            for nd in node_range:
                jobs_nd = node_jobs[nd]
                _prune(jobs_nd, s)
                cand = _earliest_start(jobs_nd, s, d, g, capacity)
                if best is None or cand < best:
                    best, placed = cand, nd
            start = best
            end = start + d
            if start > s:
                node_future[placed] += 1
                heappush(pending, (start, end, placed, g))
            else:  # pragma: no cover - fast path already admits at s
                free[placed] -= g
                heappush(running, (end, placed, g))
        node_jobs[placed].append((start, end, g))
        nodes_out[i] = placed
        starts_out[i] = start

    return np.asarray(nodes_out, dtype=np.int64), np.asarray(starts_out)


# --- vectorized busy accumulation --------------------------------------------
def _busy_gpu_hours_columnar(
    starts: np.ndarray,
    ends: np.ndarray,
    gpus: np.ndarray,
    n_hours: int,
) -> np.ndarray:
    """One-pass busy-GPU-hours accumulation, fractional at edges.

    Contributions are laid out job-major in schedule order and applied
    with the unbuffered ``np.add.at``, so every hour bin accumulates the
    same IEEE terms in the same order a per-job loop adds them.
    """
    busy = np.zeros(n_hours)
    if not starts.shape[0]:
        return busy
    first = np.floor(starts).astype(np.int64)
    last = np.minimum(np.ceil(ends).astype(np.int64), n_hours)
    keep = first < n_hours
    if not np.all(keep):
        first, last = first[keep], last[keep]
        starts, ends, gpus = starts[keep], ends[keep], gpus[keep]
    counts = last - first
    if not counts.sum():
        return busy
    # Concatenated per-job bin ranges without a Python loop: offset a
    # flat arange by each job's window start.
    bounds = np.cumsum(counts)
    idx = np.arange(int(bounds[-1])) - np.repeat(bounds - counts, counts)
    idx += np.repeat(first, counts)
    start_rep = np.repeat(starts, counts)
    end_rep = np.repeat(ends, counts)
    g_rep = np.repeat(gpus, counts)
    lo = np.maximum(idx, start_rep)
    hi = np.minimum(idx + 1, end_rep)
    np.add.at(busy, idx, g_rep * np.maximum(hi - lo, 0.0))
    return busy


def _account_horizon(
    busy: np.ndarray,
    cluster: Cluster,
    n_hours: int,
    intensity: Union[float, IntensityTrace],
    eff_pue: float,
    pue_profile,
) -> Tuple[float, float, CarbonLedger]:
    """Charge a simulated horizon's busy-GPU profile: energy + carbon.

    The single accounting tail shared by every ``simulator`` backend, so
    their energy/carbon/ledger outputs are identical whenever their busy
    arrays are.
    """
    if float(busy.max(initial=0.0)) > cluster.total_gpus + 1e-9:
        raise SimulationError("GPU occupancy exceeded cluster capacity")

    # Hourly power: busy GPUs at busy power, the rest idle; CPUs busy in
    # proportion to the busy-GPU fraction; memory/storage always active.
    node_power = cluster.power_model
    gpu_busy_w_node = node_power.gpu_power_w(busy=True)
    gpu_idle_w_node = node_power.gpu_power_w(busy=False)
    gpu_busy_w = gpu_busy_w_node / cluster.gpus_per_node
    gpu_idle_w = gpu_idle_w_node / cluster.gpus_per_node
    busy_frac = busy / cluster.total_gpus
    non_gpu_idle_w = cluster.n_nodes * (
        node_power.power_w(0.0, 0.0) - gpu_idle_w_node
    )
    non_gpu_busy_w = cluster.n_nodes * (
        node_power.busy_power_w() - gpu_busy_w_node
    )
    power_w = (
        busy * gpu_busy_w
        + (cluster.total_gpus - busy) * gpu_idle_w
        + busy_frac * non_gpu_busy_w
        + (1.0 - busy_frac) * non_gpu_idle_w
    )

    ic_energy_kwh = float(power_w.sum()) / 1000.0
    if isinstance(intensity, IntensityTrace):
        profile = intensity.slice_hours(0, n_hours)
        region = intensity.region_code
    else:
        if not 0.0 <= float(intensity) < inf:
            raise SimulationError(
                "carbon intensity must be finite and non-negative, "
                f"got {intensity!r}"
            )
        profile = np.full(n_hours, float(intensity))
        region = None

    # Charge the simulated horizon through the shared carbon ledger (the
    # exact historical dot product — see CarbonLedger.charge_power_profile's
    # exactness contract), so cluster results speak the same accounting
    # currency as scheduling evaluations and audits.
    ledger = CarbonLedger()
    carbon_g = ledger.charge_power_profile(
        "cluster",
        power_w,
        profile,
        pue=(
            eff_pue
            if pue_profile is None
            else align_pue_profile(pue_profile, n_hours)
        ),
        region=region,
    )
    return ic_energy_kwh, carbon_g, ledger


# --- the shared pipeline ------------------------------------------------------
def _simulate(
    jobs: Union[Sequence[Job], JobBatch],
    cluster: Cluster,
    placer: Callable[[JobBatch, int, int], Tuple[np.ndarray, np.ndarray]],
    *,
    horizon_h: float,
    intensity: Union[float, IntensityTrace],
    pue: PUELike,
    config: Optional[ModelConfig],
) -> SimulationResult:
    """Every discipline's pipeline: FCFS intake, placement, accounting.

    Orders the batch by ``(submit_h, job_id)``, rejects the first job in
    that order wider than a node, and calls ``placer(ordered, n_nodes,
    capacity)`` on the ordered, non-empty batch; it returns per-job
    ``(node_index, start_h)`` arrays aligned with it.  Jobs still
    running at ``horizon_h`` contribute only their in-horizon portion to
    energy and carbon.
    """
    if not 0.0 < horizon_h < inf:
        raise SimulationError(
            f"horizon must be positive and finite, got {horizon_h!r}"
        )
    batch = JobBatch.coerce(jobs)
    eff_pue, pue_profile = resolve_pue(pue, config=config, error=SimulationError)

    capacity = cluster.gpus_per_node
    ordered = batch.take(np.lexsort((batch.job_ids, batch.submit_h)))
    if len(ordered):
        too_wide = ordered.n_gpus > capacity
        if too_wide.any():
            bad = int(np.argmax(too_wide))
            raise SimulationError(
                f"job {int(ordered.job_ids[bad])} requests "
                f"{int(ordered.n_gpus[bad])} GPUs; nodes have {capacity}"
            )
        node_index, start_h = placer(ordered, cluster.n_nodes, capacity)
    else:
        node_index, start_h = np.zeros(0, dtype=np.int64), np.zeros(0)
    end_h = start_h + ordered.duration_h
    n_hours = int(np.ceil(horizon_h))
    busy = _busy_gpu_hours_columnar(start_h, end_h, ordered.n_gpus, n_hours)
    ic_energy_kwh, carbon_g, ledger = _account_horizon(
        busy, cluster, n_hours, intensity, eff_pue, pue_profile
    )
    return SimulationResult(
        cluster=cluster,
        horizon_h=horizon_h,
        batch=ordered,
        node_index=node_index,
        start_h=start_h,
        busy_gpu_hours_per_hour=busy,
        ic_energy_kwh=ic_energy_kwh,
        carbon_g=carbon_g,
        pue=eff_pue,
        ledger=ledger,
    )


def simulate_cluster(
    jobs: Union[Sequence[Job], JobBatch],
    cluster: Cluster,
    *,
    horizon_h: float,
    intensity: Union[float, IntensityTrace] = 200.0,
    pue: PUELike = None,
    config: Optional[ModelConfig] = None,
) -> SimulationResult:
    """FCFS earliest-fit placement, then energy and carbon accounting.

    Jobs start in ``(submit_h, job_id)`` order at their earliest
    feasible start on the lowest-indexed node offering it.  Jobs still
    running at ``horizon_h`` contribute only their in-horizon portion to
    energy/carbon (the tail is truncated, as a fixed-window accounting
    period would).  ``pue`` takes a float (the legacy exact path) or an
    hourly profile / :class:`~repro.power.pue.SeasonalPUE`, which
    weights each simulated hour's charge by that hour's facility
    overhead.  ``jobs`` may be a job sequence or a columnar
    :class:`JobBatch`.
    """
    return _simulate(
        jobs, cluster, _place_fcfs_columnar,
        horizon_h=horizon_h, intensity=intensity, pue=pue, config=config,
    )
