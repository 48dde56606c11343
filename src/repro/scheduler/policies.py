"""Carbon-aware scheduling policies (paper RQ5/RQ6 implications).

The paper identifies "a strong opportunity for systems researchers to
design, develop, and deploy carbon-intensity-aware job schedulers to
exploit temporal variations" and geographic distribution.  This module
implements that family:

* :class:`CarbonObliviousPolicy` — the baseline: run at submit time in
  the home region.  It reads no forecasts.
* :class:`TemporalShiftingPolicy` — delay a job within its slack window
  to the start hour minimizing the *forecast* mean intensity over the
  job's duration (Fig. 7's within-day variation).
* :class:`GeographicPolicy` — run the job in the forecast-cleanest
  region at submit time, paying a data-transfer overhead (the paper's
  Insight 7 caveat about transfer energy).
* :class:`TemporalGeographicPolicy` — joint choice of (region, start).

The three carbon-aware policies make one decision: the lowest forecast
window mean over candidate regions × candidate starts.  They differ
only in their candidate sets — the job's home region or the policy's
region list, the submit time or the slack grid — and share one search,
:class:`_ForecastSearch`, for both the scalar ``place`` and the batched
``place_all``.

Policies only see *forecasts* through the
:class:`~repro.intensity.api.CarbonIntensityService`; evaluation charges
true intensities, so imperfect forecasts degrade realized savings
realistically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import SchedulingError
from repro.cluster.job import (
    Job,
    JobBatch,
    Placement,
    PlacementBatch,
    charge_windows,
)
from repro.intensity.api import CarbonIntensityService

__all__ = [
    "SchedulingPolicy",
    "CarbonObliviousPolicy",
    "TemporalShiftingPolicy",
    "GeographicPolicy",
    "TemporalGeographicPolicy",
    "place_jobs",
    "carbon_oblivious_policy",
    "temporal_shifting_policy",
    "geographic_policy",
    "temporal_geographic_policy",
]

JobStream = Union[Sequence[Job], JobBatch]


class SchedulingPolicy(Protocol):
    """A policy maps jobs to placement decisions.

    ``place`` is the scalar reference path — one job, per-candidate
    score lookups.  ``place_all`` is the batched kernel: one placement
    per input job, in input order, byte-identical to calling ``place``
    on each job (the built-in policies score both paths from the same
    :meth:`~repro.intensity.api.CarbonIntensityService.window_score_table`).
    ``place_all`` accepts a job sequence **or** a columnar
    :class:`~repro.cluster.job.JobBatch` and returns a columnar
    :class:`~repro.cluster.job.PlacementBatch`; the built-in kernels read
    the batch's columns, fill the placement columns and never
    materialize per-job objects.  A third-party ``place_all`` may return
    a plain list of :class:`~repro.cluster.job.Placement`, and policies
    that only implement ``place`` still work everywhere — drive either
    through :func:`place_jobs`, which columnizes their results once.
    """

    name: str

    def place(self, job: Job) -> Placement:  # pragma: no cover - protocol
        ...

    def place_all(self, jobs: JobStream) -> PlacementBatch:  # pragma: no cover
        ...


def place_jobs(policy: SchedulingPolicy, jobs: JobStream) -> PlacementBatch:
    """Place a job stream, batched when the policy supports it.

    Uses ``policy.place_all`` when present (the vectorized hot path) and
    falls back to per-job ``place`` calls otherwise, so minimal policies
    keep working unchanged.  A built-in kernel's
    :class:`~repro.cluster.job.PlacementBatch` passes through; a list of
    placements is columnized here, once, as ``JobBatch.coerce`` does for
    jobs.  Raises :class:`SchedulingError` unless row ``i`` places job
    ``i`` of ``jobs``.
    """
    batch = getattr(policy, "place_all", None)
    if batch is None:
        placements = PlacementBatch.from_placements(
            [policy.place(job) for job in jobs]
        )
    else:
        placements = PlacementBatch.coerce(batch(jobs))
        if len(placements) != len(jobs):
            raise SchedulingError(
                f"policy {policy.name!r} returned {len(placements)} placements "
                f"for {len(jobs)} jobs"
            )
    expected_ids = (
        jobs.job_ids
        if isinstance(jobs, JobBatch)
        else np.array([job.job_id for job in jobs], dtype=np.int64)
    )
    mispaired = placements.job_ids != expected_ids
    if mispaired.any():
        i = int(np.argmax(mispaired))
        raise SchedulingError(
            f"policy {policy.name!r} returned placement for job "
            f"{int(placements.job_ids[i])}, expected {int(expected_ids[i])}"
        )
    return placements


def _job_region(job: Job, default_region: str) -> str:
    return job.home_region if job.home_region is not None else default_region


def _window_hours(duration_h: float) -> int:
    """Scalar spelling of :func:`repro.cluster.job.charge_windows`.

    Delegates rather than re-implements, so the batch/scalar placement
    byte-identity contract cannot drift by editing one copy.
    """
    return int(charge_windows(duration_h))


def _job_columns(jobs: JobStream, default_region: str):
    """``(job_ids, submits, durations, slacks, home_codes, regions)``.

    The kernels' one extraction chokepoint: a :class:`JobBatch` hands
    its arrays over directly (no per-job objects), a job sequence is
    columnized once.  Values are identical either way, which is what
    keeps batch and object placements byte-identical.  Home regions
    come back as codes into ``regions``, a name -> code table of
    distinct names; kernels add their candidate regions to it, and it
    becomes the region table of the :class:`PlacementBatch` they return.
    """
    regions: Dict[str, int] = {}
    if isinstance(jobs, JobBatch):
        # Code -1 (no home region) reads the last slot: the default.
        remap = np.array(
            [
                regions.setdefault(name, len(regions))
                for name in (*jobs.regions, default_region)
            ],
            dtype=np.int64,
        )
        return (
            jobs.job_ids,
            jobs.submit_h,
            jobs.duration_h,
            jobs.slack_h,
            remap[jobs.region_codes],
            regions,
        )
    jobs = list(jobs)
    return (
        np.array([j.job_id for j in jobs], dtype=np.int64),
        np.array([j.submit_h for j in jobs], dtype=float),
        np.array([j.duration_h for j in jobs], dtype=float),
        np.array([j.slack_h for j in jobs], dtype=float),
        np.array(
            [
                regions.setdefault(_job_region(j, default_region), len(regions))
                for j in jobs
            ],
            dtype=np.int64,
        ),
        regions,
    )


def _placed(
    ids: np.ndarray,
    starts: np.ndarray,
    durations: np.ndarray,
    codes: np.ndarray,
    regions: Dict[str, int],
    home_codes: Optional[np.ndarray] = None,
) -> PlacementBatch:
    """The kernels' result; a job placed away from its home is migrated."""
    migrated = (
        np.zeros(ids.shape[0], dtype=bool)
        if home_codes is None
        else codes != home_codes
    )
    return PlacementBatch(
        job_ids=ids,
        start_h=starts,
        duration_h=durations,
        migrated=migrated,
        region_codes=codes,
        regions=tuple(regions),
    )


#: The most candidate starts one job's slack grid may hold: 2**20, about
#: 120 years of hourly starts.  A longer grid is an input error, not a
#: search to run.
MAX_STARTS_PER_JOB = 2**20


def _start_grid(
    submits: np.ndarray, slacks: np.ndarray, step_h: float, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every job's candidate starts as one flat column.

    Returns ``(firsts, owner, starts)``: job ``i``'s starts begin at
    ``starts[firsts[i]]`` (``owner`` is each entry's job) and are, bit
    for bit, ``np.arange(submit, submit + slack + 1e-9, step_h)``.
    The fill is numpy's: its length is the ceiling of ``(stop - start)
    / step_h``, and it writes ``submit``, then ``submit + step_h``, then
    ``submit + i * ((submit + step_h) - submit)``.  A grid always holds
    the submit time: a zero slack, or one below the float spacing at the
    submit time (where ``np.arange`` comes back empty), leaves the
    submit time alone.  A job whose grid would hold more than
    :data:`MAX_STARTS_PER_JOB` starts raises :class:`SchedulingError`
    naming its id (``ids``, aligned with ``submits``).
    """
    seconds = submits + step_h
    lengths = np.ceil(((submits + slacks + 1e-9) - submits) / step_h)
    counts = np.where(slacks > 0.0, np.maximum(lengths, 1.0), 1.0)
    too_long = ~(counts <= MAX_STARTS_PER_JOB)  # NaN and inf counts too
    if too_long.any():
        i = int(np.argmax(too_long))
        raise SchedulingError(
            f"job {int(ids[i])}: a slack of {float(slacks[i])!r} h at a "
            f"{step_h!r} h step asks for more than {MAX_STARTS_PER_JOB} "
            "candidate starts"
        )
    counts = counts.astype(np.int64)
    firsts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.shape[0]), counts)
    index = np.arange(owner.shape[0]) - firsts[owner]
    starts = submits[owner] + index * (seconds - submits)[owner]
    starts[firsts] = submits
    two = counts > 1
    starts[firsts[two] + 1] = seconds[two]
    return firsts, owner, starts


def _shared_horizon(
    service: CarbonIntensityService, regions: Sequence[str]
) -> Optional[int]:
    """The trace length all candidate regions share, else ``None``.

    The batched search wraps every candidate region's issue hours by
    this one length, never by a table's row count (score tables hold
    only the rows asked for).  Mixed-length trace sets (legal on the
    service, which wraps each region modulo its own length) are placed
    through the scalar reference path instead.
    """
    lengths = {len(service.trace(code)) for code in regions}
    return lengths.pop() if len(lengths) == 1 else None


def _unique_floor_hours(starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct floored hours of ascending candidate starts, plus the
    index of each hour's first start.  Sub-hour ``step_h`` floods the
    grid with starts that floor to the same hour; scoring each hour once
    keeps the scalar path from re-asking the service for a value it
    already has (the score is a pure table lookup per (hour, window))."""
    hours = np.floor(starts).astype(np.int64)
    return np.unique(hours, return_index=True)


@dataclass
class CarbonObliviousPolicy:
    """Baseline: start immediately in the home region."""

    service: CarbonIntensityService
    default_region: str
    name: str = "carbon-oblivious"

    def __post_init__(self) -> None:
        if self.default_region not in self.service.regions:
            raise SchedulingError(
                f"default region {self.default_region!r} not served"
            )

    def place(self, job: Job) -> Placement:
        return Placement(
            job_id=job.job_id,
            region=_job_region(job, self.default_region),
            start_h=job.submit_h,
            duration_h=job.duration_h,
        )

    def place_all(self, jobs: JobStream) -> PlacementBatch:
        """Batch path: no scoring, straight from the columns."""
        ids, submits, durations, _slacks, homes, regions = _job_columns(
            jobs, self.default_region
        )
        return _placed(ids, submits, durations, homes, regions)


class _ForecastSearch:
    """The placement search of the three carbon-aware policies.

    A job goes to the (region, start) pair with the lowest forecast mean
    intensity over its duration, among candidate regions × candidate
    starts.  Each policy is a dataclass over this base that declares its
    fields and its two candidate sets:

    * ``_in_space`` — candidate regions are the policy's ``regions``
      (every served region by default), else the job's home region
      alone;
    * ``_in_time`` — candidate starts are the slack grid, every
      ``step_h`` hours from submit to the latest start
      (:func:`_start_grid`), else the submit time alone.

    :meth:`place` scans regions outer and starts inner and keeps the
    first best candidate; :meth:`place_all` takes the same decision for
    a whole job stream in one pass of segmented reductions.
    """

    _in_space = False
    _in_time = False

    def __post_init__(self) -> None:
        if self._in_time:
            if not math.isfinite(self.step_h):
                raise SchedulingError(f"step must be finite, got {self.step_h!r}")
            if self.step_h <= 0.0:
                raise SchedulingError(f"step must be positive, got {self.step_h!r}")
        if self.default_region not in self.service.regions:
            raise SchedulingError(
                f"default region {self.default_region!r} not served"
            )
        self._candidates: Optional[List[str]] = None
        if self._in_space:
            candidates = (
                list(self.regions)
                if self.regions is not None
                else self.service.regions
            )
            unknown = [r for r in candidates if r not in self.service.regions]
            if unknown:
                raise SchedulingError(f"unknown candidate regions: {unknown}")
            if not candidates:
                raise SchedulingError("no candidate regions")
            self._candidates = candidates

    def place(self, job: Job) -> Placement:
        """The scalar reference path: regions outer, starts inner, and
        the first best candidate wins."""
        home = _job_region(job, self.default_region)
        window = _window_hours(job.duration_h)
        if self._in_time:
            _firsts, _owner, starts = _start_grid(
                np.array([float(job.submit_h)]),
                np.array([float(job.slack_h)]),
                self.step_h,
                np.array([job.job_id]),
            )
        else:
            starts = np.array([float(job.submit_h)])
        # Distinct starts flooring to one hour share a score; ask the
        # service once per (region, hour) instead of once per start.
        hours, first_idx = _unique_floor_hours(starts)
        best: tuple[float, str, float] | None = None
        for region in self._candidates or [home]:
            for k, hour in enumerate(hours):
                score = self.service.forecast_window_mean(region, int(hour), window)
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

    def place_all(self, jobs: JobStream) -> PlacementBatch:
        """Vectorized batch placement, byte-identical to per-job ``place``.

        One pass over the whole stream.  Jobs are ordered once by score
        table key — the window, and the home region when that is the
        only candidate region — so each key's jobs and their candidate
        starts (one flat column, :func:`_start_grid`) are contiguous.  A
        ``(candidate regions, candidate starts)`` score block is filled
        with one table gather per (key, region).  Segmented minima give
        each job its best score per region; ``argmin`` over regions
        takes the first region reaching the job's best, and the job's
        first start scoring it there wins: the scalar path's
        region-outer, start-inner first-best scan.  Submit-only starts
        are the submit column.  A candidate list whose traces differ in
        length has no shared horizon and places per job through
        :meth:`place`.
        """
        candidates = self._candidates
        if (
            candidates is not None
            and _shared_horizon(self.service, candidates) is None
        ):
            return PlacementBatch.from_placements([self.place(job) for job in jobs])
        ids, submits, durations, slacks, homes, regions = _job_columns(
            jobs, self.default_region
        )
        names = list(regions)
        windows = charge_windows(durations)
        if candidates is None:
            keys = homes * (int(windows.max(initial=0)) + 1) + windows
        else:
            keys = windows
            candidate_codes = np.array(
                [regions.setdefault(code, len(regions)) for code in candidates],
                dtype=np.int64,
            )
        n_jobs = ids.shape[0]
        if not n_jobs:
            return _placed(ids, submits, durations, homes, regions, homes)
        order = np.argsort(keys, kind="stable")
        if self._in_time:
            firsts, owner, starts = _start_grid(
                submits[order], slacks[order], self.step_h, ids[order]
            )
        else:
            firsts = owner = np.arange(n_jobs)
            starts = submits[order]
        floors = np.floor(starts).astype(np.int64)
        # Each key run's first job, and the run's bounds in the start column.
        cuts = np.flatnonzero(np.diff(keys[order])) + 1
        heads = order[np.append(0, cuts)].tolist()
        edges = [0, *firsts[cuts].tolist(), starts.shape[0]]
        block = np.empty(
            (1 if candidates is None else len(candidates), starts.shape[0])
        )
        for head, lo, hi in zip(heads, edges[:-1], edges[1:]):
            window = int(windows[head])
            group = (
                [names[int(homes[head])]] if candidates is None else candidates
            )
            hours = floors[lo:hi] % len(self.service.trace(group[0]))
            rows = int(hours.max()) + 1
            for r, region in enumerate(group):
                table = self.service.window_score_table(region, window, rows=rows)
                block[r, lo:hi] = table[hours]
        best = np.minimum.reduceat(block, firsts, axis=1)  # (regions, jobs)
        region_rows = np.argmin(best, axis=0)
        # In its region, the job's first start reaching its best score.
        reached = np.flatnonzero(
            block[region_rows[owner], np.arange(starts.shape[0])]
            == best[region_rows, np.arange(n_jobs)][owner]
        )
        chosen = reached[np.searchsorted(reached, firsts)]
        placed_starts = np.empty(n_jobs)
        placed_starts[order] = starts[chosen]
        if candidates is None:
            codes = homes
        else:
            codes = np.empty(n_jobs, dtype=np.int64)
            codes[order] = candidate_codes[region_rows]
        return _placed(ids, placed_starts, durations, codes, regions, homes)


@dataclass
class TemporalShiftingPolicy(_ForecastSearch):
    """Shift the start within the slack window to the forecast-cleanest
    hour in the home region.

    ``step_h`` sets the candidate-start granularity (1 h matches the
    resolution of grid-intensity feeds).
    """

    service: CarbonIntensityService
    default_region: str
    step_h: float = 1.0
    name: str = "temporal-shifting"

    _in_time = True


@dataclass
class GeographicPolicy(_ForecastSearch):
    """Run each job in the forecast-cleanest region at submit time.

    ``regions`` restricts the candidate set (default: all regions the
    service knows).  A job placed away from home is marked ``migrated``
    and later charged the transfer overhead by the evaluator.
    """

    service: CarbonIntensityService
    default_region: str
    regions: Optional[Sequence[str]] = None
    name: str = "geographic"

    _in_space = True


@dataclass
class TemporalGeographicPolicy(_ForecastSearch):
    """Joint (region, start-hour) optimization within the slack window."""

    service: CarbonIntensityService
    default_region: str
    regions: Optional[Sequence[str]] = None
    step_h: float = 1.0
    name: str = "temporal+geographic"

    _in_space = True
    _in_time = True


# --- session-facade backends (the ``policy`` kind) ----------------------------
# A policy factory takes ``(service, default_region, regions=None)``.
def carbon_oblivious_policy(service, default_region, regions=None):
    """``policy:carbon-oblivious``: the always-evaluated baseline."""
    del regions
    return CarbonObliviousPolicy(service, default_region)


def temporal_shifting_policy(service, default_region, regions=None):
    """``policy:temporal-shifting``."""
    del regions
    return TemporalShiftingPolicy(service, default_region)


def geographic_policy(service, default_region, regions=None):
    """``policy:geographic``."""
    return GeographicPolicy(service, default_region, regions=regions)


def temporal_geographic_policy(service, default_region, regions=None):
    """``policy:temporal+geographic``: the paper's headline joint policy."""
    return TemporalGeographicPolicy(service, default_region, regions=regions)
