"""Carbon-aware scheduling policies (paper RQ5/RQ6 implications).

The paper identifies "a strong opportunity for systems researchers to
design, develop, and deploy carbon-intensity-aware job schedulers to
exploit temporal variations" and geographic distribution.  This module
implements that family:

* :class:`CarbonObliviousPolicy` — the baseline: run at submit time in
  the home region.
* :class:`TemporalShiftingPolicy` — delay a job within its slack window
  to the start hour minimizing the *forecast* mean intensity over the
  job's duration (Fig. 7's within-day variation).
* :class:`GeographicPolicy` — run the job in the forecast-cleanest
  region at submit time, paying a data-transfer overhead (the paper's
  Insight 7 caveat about transfer energy).
* :class:`TemporalGeographicPolicy` — joint choice of (region, start).

Policies only see *forecasts* through the
:class:`~repro.intensity.api.CarbonIntensityService`; evaluation charges
true intensities, so imperfect forecasts degrade realized savings
realistically.
"""

from __future__ import annotations

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
    row_groups,
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


def _slack_starts(submit: float, slack: float, step_h: float) -> np.ndarray:
    """Candidate start times of one job (the scalar path's exact grid)."""
    submit = float(submit)
    slack = float(slack)
    if slack <= 0.0:
        return np.array([submit])
    return np.arange(submit, submit + slack + 1e-9, step_h)


def _shared_horizon(
    service: CarbonIntensityService, regions: Sequence[str]
) -> Optional[int]:
    """The trace length all candidate regions share, else ``None``.

    The 2-D score matrix needs a single horizon; mixed-length trace sets
    (legal on the service, which wraps each region modulo its own
    length) are placed through the scalar reference path instead.
    Kernels wrap issue hours by this length, never by a table's row
    count: score tables hold only the rows asked for.
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


def _padded_starts(
    starts_list: List[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack ragged per-job candidate-start arrays into one matrix.

    Returns ``(matrix, pad_mask, lengths)`` where padded cells (mask
    True) hold 0.0 and must be score-masked before any argmin.
    """
    lengths = np.array([s.size for s in starts_list], dtype=np.int64)
    matrix = np.zeros((len(starts_list), int(lengths.max())))
    for row, starts in enumerate(starts_list):
        matrix[row, : starts.size] = starts
    pad_mask = np.arange(matrix.shape[1])[None, :] >= lengths[:, None]
    return matrix, pad_mask, lengths


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


@dataclass
class TemporalShiftingPolicy:
    """Shift the start within the slack window to the forecast-cleanest
    hour in the home region.

    ``step_h`` sets the candidate-start granularity (1 h matches the
    resolution of grid-intensity feeds).
    """

    service: CarbonIntensityService
    default_region: str
    step_h: float = 1.0
    name: str = "temporal-shifting"

    def __post_init__(self) -> None:
        if self.step_h <= 0.0:
            raise SchedulingError(f"step must be positive, got {self.step_h!r}")
        if self.default_region not in self.service.regions:
            raise SchedulingError(
                f"default region {self.default_region!r} not served"
            )

    def _candidate_starts(self, job: Job) -> np.ndarray:
        return _slack_starts(job.submit_h, job.slack_h, self.step_h)

    def place(self, job: Job) -> Placement:
        region = _job_region(job, self.default_region)
        window = _window_hours(job.duration_h)
        starts = self._candidate_starts(job)
        hours, first_idx = _unique_floor_hours(starts)
        scores = [
            self.service.forecast_window_mean(region, int(h), window)
            for h in hours
        ]
        best = starts[int(first_idx[int(np.argmin(scores))])]
        return Placement(
            job_id=job.job_id,
            region=region,
            start_h=float(best),
            duration_h=job.duration_h,
        )

    def place_all(self, jobs: JobStream) -> PlacementBatch:
        """Vectorized batch placement, byte-identical to per-job ``place``.

        Jobs group by (region, window); each group scores every
        candidate start with one gather from the precomputed score table
        and one row-wise ``argmin``.  First-occurrence argmin ties match
        the scalar path's first-best scan exactly.  Column extraction
        goes through :func:`_job_columns`, so a :class:`JobBatch` flows
        through without per-job objects, and the chosen starts fill the
        returned batch's start column.
        """
        ids, submits, durations, slacks, homes, regions = _job_columns(
            jobs, self.default_region
        )
        names = list(regions)
        windows = charge_windows(durations)
        starts = np.empty(ids.shape[0])
        keys = homes * (int(windows.max(initial=0)) + 1) + windows
        for idxs in row_groups(keys):
            region = names[int(homes[idxs[0]])]
            window = int(windows[idxs[0]])
            matrix, pad_mask, _ = _padded_starts(
                [_slack_starts(submits[i], slacks[i], self.step_h) for i in idxs]
            )
            hours = np.floor(matrix).astype(np.int64) % len(
                self.service.trace(region)
            )
            table = self.service.window_score_table(
                region, window, rows=int(hours.max()) + 1
            )
            scores = table[hours]
            scores[pad_mask] = np.inf
            best_cols = np.argmin(scores, axis=1)
            starts[idxs] = matrix[np.arange(idxs.shape[0]), best_cols]
        return _placed(ids, starts, durations, homes, regions)


@dataclass
class GeographicPolicy:
    """Run each job in the forecast-cleanest region at submit time.

    ``regions`` restricts the candidate set (default: all regions the
    service knows).  A job placed away from home is marked ``migrated``
    and later charged the transfer overhead by the evaluator.
    """

    service: CarbonIntensityService
    default_region: str
    regions: Optional[Sequence[str]] = None
    name: str = "geographic"

    def __post_init__(self) -> None:
        if self.default_region not in self.service.regions:
            raise SchedulingError(
                f"default region {self.default_region!r} not served"
            )
        candidates = (
            list(self.regions) if self.regions is not None else self.service.regions
        )
        unknown = [r for r in candidates if r not in self.service.regions]
        if unknown:
            raise SchedulingError(f"unknown candidate regions: {unknown}")
        if not candidates:
            raise SchedulingError("no candidate regions")
        self._candidates = candidates

    def place(self, job: Job) -> Placement:
        home = _job_region(job, self.default_region)
        window = _window_hours(job.duration_h)
        hour = int(np.floor(job.submit_h))
        best_region = min(
            self._candidates,
            key=lambda code: self.service.forecast_window_mean(code, hour, window),
        )
        return Placement(
            job_id=job.job_id,
            region=best_region,
            start_h=job.submit_h,
            duration_h=job.duration_h,
            migrated=best_region != home,
        )

    def place_all(self, jobs: JobStream) -> PlacementBatch:
        """Vectorized batch placement, byte-identical to per-job ``place``.

        Jobs group by window; each group scores as one column gather
        from the (region × hour) score matrix and one ``argmin`` down
        the region axis (first occurrence, matching ``min``'s
        keep-first tie-break over the candidate order).
        """
        n = _shared_horizon(self.service, self._candidates)
        if n is None:
            return PlacementBatch.from_placements([self.place(job) for job in jobs])
        ids, submits, durations, _slacks, homes, regions = _job_columns(
            jobs, self.default_region
        )
        candidates = np.array(
            [regions.setdefault(code, len(regions)) for code in self._candidates],
            dtype=np.int64,
        )
        windows = charge_windows(durations)
        codes = np.empty(ids.shape[0], dtype=np.int64)
        for idxs in row_groups(windows):
            window = int(windows[idxs[0]])
            hours = np.floor(submits[idxs]).astype(np.int64) % n
            matrix = self.service.window_score_matrix(
                self._candidates, window, rows=int(hours.max()) + 1
            )
            codes[idxs] = candidates[np.argmin(matrix[:, hours], axis=0)]
        return _placed(ids, submits, durations, codes, regions, homes)


@dataclass
class TemporalGeographicPolicy:
    """Joint (region, start-hour) optimization within the slack window."""

    service: CarbonIntensityService
    default_region: str
    regions: Optional[Sequence[str]] = None
    step_h: float = 1.0
    name: str = "temporal+geographic"

    def __post_init__(self) -> None:
        self._temporal = TemporalShiftingPolicy(
            self.service, self.default_region, step_h=self.step_h
        )
        self._geo = GeographicPolicy(
            self.service, self.default_region, regions=self.regions
        )

    def place(self, job: Job) -> Placement:
        home = _job_region(job, self.default_region)
        window = _window_hours(job.duration_h)
        starts = self._temporal._candidate_starts(job)
        # Distinct starts flooring to one hour share a score; ask the
        # service once per (region, hour) instead of once per start.
        hours, first_idx = _unique_floor_hours(starts)
        best: tuple[float, str, float] | None = None
        for region in self._geo._candidates:
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
        """Vectorized joint placement, byte-identical to per-job ``place``.

        Jobs group by window; each group gathers a ``(region, job,
        start)`` score tensor from the 2-D score matrix, masks padding,
        and takes one flat ``argmin`` per job over the row-major
        (region, start) block — ``unravel_index`` order matches the
        scalar path's region-outer/start-inner first-best scan.
        """
        candidates = self._geo._candidates
        n = _shared_horizon(self.service, candidates)
        if n is None:
            return PlacementBatch.from_placements([self.place(job) for job in jobs])
        ids, submits, durations, slacks, homes, regions = _job_columns(
            jobs, self.default_region
        )
        candidate_codes = np.array(
            [regions.setdefault(code, len(regions)) for code in candidates],
            dtype=np.int64,
        )
        windows = charge_windows(durations)
        starts = np.empty(ids.shape[0])
        codes = np.empty(ids.shape[0], dtype=np.int64)
        for idxs in row_groups(windows):
            window = int(windows[idxs[0]])
            padded, pad_mask, _ = _padded_starts(
                [_slack_starts(submits[i], slacks[i], self.step_h) for i in idxs]
            )
            hour_idx = np.floor(padded).astype(np.int64) % n
            matrix = self.service.window_score_matrix(
                candidates, window, rows=int(hour_idx.max()) + 1
            )
            scores = matrix[:, hour_idx]  # (regions, jobs, starts)
            scores[:, pad_mask] = np.inf
            flat = scores.transpose(1, 0, 2).reshape(idxs.shape[0], -1)
            region_rows, start_cols = np.unravel_index(
                np.argmin(flat, axis=1), (len(candidates), padded.shape[1])
            )
            codes[idxs] = candidate_codes[region_rows]
            starts[idxs] = padded[np.arange(idxs.shape[0]), start_cols]
        return _placed(ids, starts, durations, codes, regions, homes)


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
