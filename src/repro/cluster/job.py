"""Job model for the cluster simulator and schedulers.

A :class:`Job` is a GPU training request as it appears in the production
traces the paper cites (MLaaS/HPCA'22/ATC'19 GPU-cluster studies): a
submit time, a GPU count, a duration, and — for carbon-aware scheduling
— a *slack window* within which the job owner tolerates a delayed start
(the paper's RQ6 incentive-structure implication: users who allow their
jobs to be shifted toward low-intensity hours are rewarded from their
carbon budget).

:class:`JobBatch` is the columnar twin: one workload as a numpy
struct-of-arrays (submit/duration/GPU/slack columns plus dictionary-
encoded user/model/region codes).  The placement kernels and the
vectorized accounting engine consume the columns directly, so a month of
jobs flows through the hot path without materializing per-job Python
objects; :class:`Job` remains the scalar view, constructed lazily by
``batch[i]`` / iteration for code that wants objects.

:class:`PlacementBatch` is the same pairing for scheduling decisions:
the built-in ``place_all`` kernels return one, and validation, charging
and the carbon rollup read its start/duration/migrated/region-code
columns; :class:`Placement` is its lazily built scalar view.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import SimulationError
from repro.workloads.models import ModelSpec

__all__ = [
    "Job", "JobBatch", "Placement", "PlacementBatch", "charge_windows",
    "row_groups",
]


def charge_windows(durations) -> np.ndarray:
    """Whole-hour charging window per duration: ``max(ceil(d), 1)``.

    The one vectorized spelling of the window rule the placement
    kernels and the charging engines share; the scalar twin is
    ``repro.scheduler.policies._window_hours``, and the batch/scalar
    byte-identity contract depends on the two never drifting apart.
    """
    return np.maximum(np.ceil(np.asarray(durations)).astype(np.int64), 1)


def row_groups(keys: np.ndarray) -> List[np.ndarray]:
    """Row indices per distinct key, groups in first-seen key order.

    Rows ascend within a group, so a loop over the groups visits rows in
    the order a dict-of-lists pass over ``keys`` would.  The placement
    kernels and the charging engine group jobs with it.
    """
    if not keys.size:
        return []
    order = np.argsort(keys, kind="stable")
    bounds = [
        0, *(np.flatnonzero(np.diff(keys[order])) + 1).tolist(), order.shape[0]
    ]
    groups = [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    groups.sort(key=lambda rows: int(rows[0]))
    return groups


def _adopt(array: np.ndarray) -> np.ndarray:
    """Freeze a freshly allocated array so the constructor shares it.

    Internal construction sites (``take``, ``clipped``, the generator
    assembly) allocate their columns; pre-freezing marks them safe to
    adopt, skipping :func:`_readonly`'s defensive caller-copy.
    """
    array.setflags(write=False)
    return array


@dataclass(frozen=True, slots=True)
class Job:
    """One GPU training job.

    Attributes
    ----------
    job_id:
        Unique identifier within a workload.
    user:
        Owning user (carbon budgets are per-user).
    model:
        The Table 4 benchmark model this job trains.
    n_gpus:
        GPUs requested (allocated on a single node).
    duration_h:
        Runtime on the *reference* node generation of the workload.
    submit_h:
        Submission time, hours from the simulation epoch.
    slack_h:
        Max tolerated start delay beyond ``submit_h`` (0 = rigid).
    home_region:
        The region whose HPC center the user submitted to.
    """

    job_id: int
    user: str
    model: ModelSpec
    n_gpus: int
    duration_h: float
    submit_h: float
    slack_h: float = 0.0
    home_region: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise SimulationError(f"job {self.job_id}: n_gpus must be >= 1")
        if self.duration_h <= 0.0:
            raise SimulationError(f"job {self.job_id}: duration must be positive")
        if self.submit_h < 0.0:
            raise SimulationError(f"job {self.job_id}: submit time must be >= 0")
        if self.slack_h < 0.0:
            raise SimulationError(f"job {self.job_id}: slack must be >= 0")
        # NaN passes every comparison above; JobBatch rejects the same
        # values column-wide.
        for what, value in (
            ("submit time", self.submit_h),
            ("duration", self.duration_h),
            ("slack", self.slack_h),
        ):
            if not math.isfinite(value):
                raise SimulationError(
                    f"job {self.job_id}: {what} must be finite, got {value!r}"
                )

    @property
    def gpu_hours(self) -> float:
        return self.n_gpus * self.duration_h

    @property
    def latest_start_h(self) -> float:
        return self.submit_h + self.slack_h

    def with_slack(self, slack_h: float) -> "Job":
        return replace(self, slack_h=slack_h)


def _readonly(values, dtype) -> np.ndarray:
    array = np.ascontiguousarray(values, dtype=dtype)
    if array.ndim != 1:
        raise SimulationError(
            f"batch columns must be 1-D, got shape {array.shape}"
        )
    if array is values and array.flags.writeable:
        # ascontiguousarray returns the input unchanged when it already
        # fits; freezing that in place would mutate the caller's array.
        # (Already-frozen inputs — another batch's columns — share.)
        array = array.copy()
    array.setflags(write=False)
    return array


class JobBatch:
    """One workload as a columnar struct-of-arrays.

    Columns are aligned by position: row ``i`` describes one job.
    ``users``/``models``/``regions`` are dictionary tables indexed by the
    corresponding ``*_codes`` column (``region_codes`` uses ``-1`` for
    jobs without a home region).  Columns are read-only; a batch is an
    immutable snapshot the way :class:`Job` is.

    The batch implements the sequence protocol — ``len``, ``batch[i]``
    (a lazily constructed :class:`Job`), slicing, iteration — so every
    consumer of ``Sequence[Job]`` accepts one unchanged, while columnar
    consumers (the ``place_all`` kernels, the vectorized charging
    engine) read the arrays directly and never build per-job objects.
    """

    __slots__ = (
        "job_ids", "submit_h", "duration_h", "n_gpus", "slack_h",
        "user_codes", "users", "model_codes", "models",
        "region_codes", "regions",
    )

    def __init__(
        self,
        *,
        job_ids,
        submit_h,
        duration_h,
        n_gpus,
        slack_h,
        user_codes,
        users: Sequence[str],
        model_codes,
        models: Sequence[ModelSpec],
        region_codes,
        regions: Sequence[str] = (),
    ) -> None:
        self._assign(
            job_ids=job_ids, submit_h=submit_h, duration_h=duration_h,
            n_gpus=n_gpus, slack_h=slack_h, user_codes=user_codes,
            users=users, model_codes=model_codes, models=models,
            region_codes=region_codes, regions=regions,
        )
        self._validate()

    def _assign(
        self, *, job_ids, submit_h, duration_h, n_gpus, slack_h,
        user_codes, users, model_codes, models, region_codes, regions,
    ) -> None:
        set_ = object.__setattr__
        set_(self, "job_ids", _readonly(job_ids, np.int64))
        set_(self, "submit_h", _readonly(submit_h, float))
        set_(self, "duration_h", _readonly(duration_h, float))
        set_(self, "n_gpus", _readonly(n_gpus, np.int64))
        set_(self, "slack_h", _readonly(slack_h, float))
        set_(self, "user_codes", _readonly(user_codes, np.int64))
        set_(self, "users", tuple(str(u) for u in users))
        set_(self, "model_codes", _readonly(model_codes, np.int64))
        set_(self, "models", tuple(models))
        set_(self, "region_codes", _readonly(region_codes, np.int64))
        set_(self, "regions", tuple(str(r) for r in regions))

    @classmethod
    def _from_validated(cls, **columns) -> "JobBatch":
        """Trusted constructor for row subsets of a validated batch.

        ``take``/``clipped`` carry rows whose invariants (unique ids,
        finite positive columns, in-table codes) hold by construction —
        re-running the O(n log n) duplicate scan and the column sweeps
        per slice would only re-prove them.  External inputs must go
        through ``__init__``.
        """
        self = object.__new__(cls)
        self._assign(**columns)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("JobBatch is immutable")

    def _validate(self) -> None:
        n = self.job_ids.shape[0]
        for name in ("submit_h", "duration_h", "n_gpus", "slack_h",
                     "user_codes", "model_codes", "region_codes"):
            column = getattr(self, name)
            if column.shape[0] != n:
                raise SimulationError(
                    f"job batch column {name!r} has {column.shape[0]} rows, "
                    f"expected {n}"
                )
        if n == 0:
            return
        if np.unique(self.job_ids).shape[0] != n:
            raise SimulationError("job batch contains duplicate job_ids")

        def _first_bad(mask: np.ndarray) -> int:
            return int(self.job_ids[int(np.argmax(mask))])

        if not np.all(np.isfinite(self.submit_h)):
            raise SimulationError("job batch has non-finite submit times")
        if not np.all(np.isfinite(self.duration_h)):
            raise SimulationError("job batch has non-finite durations")
        if not np.all(np.isfinite(self.slack_h)):
            raise SimulationError("job batch has non-finite slack windows")
        bad = self.n_gpus < 1
        if bad.any():
            raise SimulationError(f"job {_first_bad(bad)}: n_gpus must be >= 1")
        bad = self.duration_h <= 0.0
        if bad.any():
            raise SimulationError(
                f"job {_first_bad(bad)}: duration must be positive"
            )
        bad = self.submit_h < 0.0
        if bad.any():
            raise SimulationError(
                f"job {_first_bad(bad)}: submit time must be >= 0"
            )
        bad = self.slack_h < 0.0
        if bad.any():
            raise SimulationError(f"job {_first_bad(bad)}: slack must be >= 0")
        for name, codes, table in (
            ("user", self.user_codes, self.users),
            ("model", self.model_codes, self.models),
        ):
            if codes.size and (
                int(codes.min()) < 0 or int(codes.max()) >= len(table)
            ):
                raise SimulationError(
                    f"job batch {name} codes fall outside the {name} table"
                )
        if self.region_codes.size and (
            int(self.region_codes.min()) < -1
            or int(self.region_codes.max()) >= len(self.regions)
        ):
            raise SimulationError(
                "job batch region codes fall outside the region table"
            )

    # --- construction -----------------------------------------------------
    @classmethod
    def from_jobs(cls, jobs: Iterable[Job]) -> "JobBatch":
        """Encode a job sequence into columns (lossless; see ``to_jobs``)."""
        jobs = list(jobs)
        users: Dict[str, int] = {}
        # Dictionary-encode on the spec itself (frozen dataclass, so
        # hashable): two specs sharing a name but differing in fields
        # stay distinct entries — the round trip is genuinely lossless.
        models: Dict[ModelSpec, int] = {}
        regions: Dict[str, int] = {}
        user_codes = np.empty(len(jobs), dtype=np.int64)
        model_codes = np.empty(len(jobs), dtype=np.int64)
        region_codes = np.empty(len(jobs), dtype=np.int64)
        for i, job in enumerate(jobs):
            user_codes[i] = users.setdefault(job.user, len(users))
            model_codes[i] = models.setdefault(job.model, len(models))
            if job.home_region is None:
                region_codes[i] = -1
            else:
                region_codes[i] = regions.setdefault(job.home_region, len(regions))
        return cls(
            job_ids=[job.job_id for job in jobs],
            submit_h=[job.submit_h for job in jobs],
            duration_h=[job.duration_h for job in jobs],
            n_gpus=[job.n_gpus for job in jobs],
            slack_h=[job.slack_h for job in jobs],
            user_codes=_adopt(user_codes),
            users=tuple(users),
            model_codes=_adopt(model_codes),
            models=tuple(models),
            region_codes=_adopt(region_codes),
            regions=tuple(regions),
        )

    @classmethod
    def coerce(cls, jobs: Union["JobBatch", Iterable[Job]]) -> "JobBatch":
        """A batch view of ``jobs`` (identity when already columnar)."""
        if isinstance(jobs, cls):
            return jobs
        return cls.from_jobs(jobs)

    @classmethod
    def empty(cls) -> "JobBatch":
        zero_i = np.zeros(0, dtype=np.int64)
        zero_f = np.zeros(0)
        return cls(
            job_ids=zero_i, submit_h=zero_f, duration_h=zero_f,
            n_gpus=zero_i, slack_h=zero_f, user_codes=zero_i, users=(),
            model_codes=zero_i, models=(), region_codes=zero_i, regions=(),
        )

    # --- scalar views -----------------------------------------------------
    def job(self, index: int) -> Job:
        """The lazily constructed scalar view of row ``index``."""
        i = operator.index(index)
        n = self.job_ids.shape[0]
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"job index {index} out of range for {n} jobs")
        region_code = int(self.region_codes[i])
        return Job(
            job_id=int(self.job_ids[i]),
            user=self.users[int(self.user_codes[i])],
            model=self.models[int(self.model_codes[i])],
            n_gpus=int(self.n_gpus[i]),
            duration_h=float(self.duration_h[i]),
            submit_h=float(self.submit_h[i]),
            slack_h=float(self.slack_h[i]),
            home_region=self.regions[region_code] if region_code >= 0 else None,
        )

    def to_jobs(self) -> List[Job]:
        """Materialize every row (the lossless inverse of ``from_jobs``)."""
        return [self.job(i) for i in range(len(self))]

    def __len__(self) -> int:
        return int(self.job_ids.shape[0])

    def __iter__(self) -> Iterator[Job]:
        for i in range(len(self)):
            yield self.job(i)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        return self.job(index)

    def take(self, indices) -> "JobBatch":
        """A sub-batch of the given rows (tables carried unchanged).

        Accepts integer row indices or a boolean mask (the natural
        numpy filtering idiom, e.g. ``batch.take(batch.submit_h < t)``).
        Duplicate indices would duplicate job ids; ``take`` is a
        row-selection primitive and trusts its caller the way fancy
        indexing does.
        """
        idx = np.asarray(indices)
        if idx.dtype == np.bool_:
            if idx.shape != (len(self),):
                raise SimulationError(
                    f"boolean take mask has shape {idx.shape}, expected "
                    f"({len(self)},)"
                )
            idx = np.flatnonzero(idx)
        else:
            idx = idx.astype(np.int64, copy=False)
        return JobBatch._from_validated(
            job_ids=_adopt(self.job_ids[idx]),
            submit_h=_adopt(self.submit_h[idx]),
            duration_h=_adopt(self.duration_h[idx]),
            n_gpus=_adopt(self.n_gpus[idx]),
            slack_h=_adopt(self.slack_h[idx]),
            user_codes=_adopt(self.user_codes[idx]),
            users=self.users,
            model_codes=_adopt(self.model_codes[idx]),
            models=self.models,
            region_codes=_adopt(self.region_codes[idx]),
            regions=self.regions,
        )

    # --- column helpers ---------------------------------------------------
    @property
    def gpu_hours(self) -> np.ndarray:
        """Per-job GPU-hours column (``n_gpus * duration_h``)."""
        return self.n_gpus * self.duration_h

    def total_gpu_hours(self) -> float:
        """Sum of per-job GPU-hours, in the scalar path's left-to-right
        accumulation order (bit-identical to ``sum(j.gpu_hours for ...)``)."""
        return float(sum(self.gpu_hours.tolist()))

    def span_h(self) -> float:
        """Latest ``submit + duration`` over the batch (0 when empty)."""
        if not len(self):
            return 0.0
        return float(np.max(self.submit_h + self.duration_h))

    def home_regions(self, default: Optional[str] = None) -> List[str]:
        """Per-job home region with ``default`` filling the gaps."""
        table = (*self.regions, default)
        return [table[c] for c in self.region_codes.tolist()]

    def clipped(
        self, horizon_h: float, *, clip_durations: bool = False
    ) -> "JobBatch":
        """Rows submitting inside ``[0, horizon_h)``.

        With ``clip_durations`` the surviving rows are also truncated at
        the horizon boundary (``submit + duration <= horizon``); without
        it, tails past the horizon are preserved — the cluster
        simulator's fixed-window accounting truncates them itself.
        """
        if horizon_h <= 0.0:
            raise SimulationError(f"horizon must be positive, got {horizon_h!r}")
        keep = np.flatnonzero(self.submit_h < horizon_h)
        batch = self.take(keep) if keep.shape[0] != len(self) else self
        if not clip_durations or not len(batch):
            return batch
        limit = horizon_h - batch.submit_h
        if np.all(batch.duration_h <= limit):
            return batch
        # Clipped durations stay positive: every surviving submit is
        # strictly inside the horizon, so limit > 0 row-wise.
        return JobBatch._from_validated(
            job_ids=batch.job_ids,
            submit_h=batch.submit_h,
            duration_h=_adopt(np.minimum(batch.duration_h, limit)),
            n_gpus=batch.n_gpus,
            slack_h=batch.slack_h,
            user_codes=batch.user_codes,
            users=batch.users,
            model_codes=batch.model_codes,
            models=batch.models,
            region_codes=batch.region_codes,
            regions=batch.regions,
        )

    def describe(self) -> Dict[str, object]:
        """Summary statistics (the CLI ``workload describe`` payload)."""
        n = len(self)
        if n == 0:
            return {"n_jobs": 0, "gpu_hours": 0.0, "span_h": 0.0}
        return {
            "n_jobs": n,
            "gpu_hours": self.total_gpu_hours(),
            "span_h": self.span_h(),
            "first_submit_h": float(self.submit_h.min()),
            "last_submit_h": float(self.submit_h.max()),
            "mean_duration_h": float(self.duration_h.mean()),
            "max_duration_h": float(self.duration_h.max()),
            "mean_gpus": float(self.n_gpus.mean()),
            "max_gpus": int(self.n_gpus.max()),
            "n_users": len(set(self.user_codes.tolist())),
            "models": tuple(m.name for m in self.models),
            "regions": self.regions,
        }

    def content_digest(self) -> str:
        """SHA-256 identity of the decoded rows.

        Encoding-independent, consistent with the semantic ``__eq__``:
        batches that compare equal share a digest regardless of how
        their dictionary tables are laid out.  The sweep fingerprint
        uses this to key scenarios carrying explicit job batches.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(str(len(self)).encode("ascii"))
        for name in ("job_ids", "submit_h", "duration_h", "n_gpus", "slack_h"):
            digest.update(name.encode("ascii"))
            digest.update(np.ascontiguousarray(getattr(self, name)).tobytes())
        for rows in self._decoded_rows():
            # Decoded object rows (user strings, ModelSpec dataclasses,
            # region strings) all carry value-bearing reprs.
            digest.update(repr(rows.tolist()).encode("utf-8"))
        return digest.hexdigest()

    # --- equality / pickling ---------------------------------------------
    def _decoded_rows(self):
        """Per-row (user, model, region) values, encoding-independent."""
        users = np.array(self.users, dtype=object)[self.user_codes]
        model_table = np.empty(len(self.models), dtype=object)
        model_table[:] = self.models  # full specs, not just names
        models = model_table[self.model_codes]
        region_table = np.array((*self.regions, None), dtype=object)
        regions = region_table[self.region_codes]
        return users, models, regions

    def __eq__(self, other) -> bool:
        """Semantic equality: the same jobs row for row.

        Dictionary encodings may differ (``from_jobs`` builds first-seen
        tables; generators use canonical ones) — equality compares the
        decoded rows, so ``from_jobs(batch.to_jobs()) == batch`` holds
        regardless of table layout.
        """
        if not isinstance(other, JobBatch):
            return NotImplemented
        if len(self) != len(other):
            return False
        if not all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (
                "job_ids", "submit_h", "duration_h", "n_gpus", "slack_h",
            )
        ):
            return False
        if not len(self):
            return True
        mine, theirs = self._decoded_rows(), other._decoded_rows()
        return all(np.array_equal(a, b) for a, b in zip(mine, theirs))

    def __hash__(self) -> int:
        # Encoding-independent (consistent with semantic __eq__).
        return hash(
            (len(self), self.job_ids.tobytes(), self.submit_h.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"JobBatch(n_jobs={len(self)}, "
            f"gpu_hours={float(self.gpu_hours.sum()):.1f}, "
            f"span_h={self.span_h():.1f})"
        )

    def __reduce__(self) -> Tuple:
        # __slots__ plus the immutability guard break pickle's default
        # protocol; rebuild through the keyword constructor (process
        # sweep executors ship explicit-batch scenarios to workers).
        return (
            _rebuild_batch,
            (
                np.asarray(self.job_ids), np.asarray(self.submit_h),
                np.asarray(self.duration_h), np.asarray(self.n_gpus),
                np.asarray(self.slack_h), np.asarray(self.user_codes),
                self.users, np.asarray(self.model_codes), self.models,
                np.asarray(self.region_codes), self.regions,
            ),
        )


def _rebuild_batch(
    job_ids, submit_h, duration_h, n_gpus, slack_h, user_codes, users,
    model_codes, models, region_codes, regions
) -> JobBatch:
    return JobBatch(
        job_ids=job_ids, submit_h=submit_h, duration_h=duration_h,
        n_gpus=n_gpus, slack_h=slack_h, user_codes=user_codes, users=users,
        model_codes=model_codes, models=models, region_codes=region_codes,
        regions=regions,
    )


@dataclass(frozen=True, slots=True)
class Placement:
    """A scheduling decision for one job."""

    job_id: int
    region: str
    start_h: float
    duration_h: float
    migrated: bool = False

    def __post_init__(self) -> None:
        if self.start_h < 0.0:
            raise SimulationError(f"placement for job {self.job_id}: negative start")
        if self.duration_h <= 0.0:
            raise SimulationError(
                f"placement for job {self.job_id}: duration must be positive"
            )

    @property
    def end_h(self) -> float:
        return self.start_h + self.duration_h


class PlacementBatch:
    """Scheduling decisions as a columnar struct-of-arrays.

    The columnar twin of :class:`Placement`, as :class:`JobBatch` is of
    :class:`Job`: row ``i`` places job ``job_ids[i]`` in region
    ``regions[region_codes[i]]``, where ``regions`` is a table of
    distinct names the batch carries.  Columns are read-only, and
    construction runs :class:`Placement`'s two checks over them, naming
    the first offending job.

    The batch implements the sequence protocol — ``len``, ``batch[i]``
    (a lazily built :class:`Placement`), slices (a sub-batch) and
    iteration — and compares equal to another batch or to a list or
    tuple of :class:`Placement` holding the same decoded rows, whatever
    either side's region table.
    """

    __slots__ = (
        "job_ids", "start_h", "duration_h", "migrated", "region_codes",
        "regions",
    )

    def __init__(
        self,
        *,
        job_ids,
        start_h,
        duration_h,
        migrated,
        region_codes,
        regions: Sequence[str],
    ) -> None:
        set_ = object.__setattr__
        set_(self, "job_ids", _readonly(job_ids, np.int64))
        set_(self, "start_h", _readonly(start_h, float))
        set_(self, "duration_h", _readonly(duration_h, float))
        set_(self, "migrated", _readonly(migrated, np.bool_))
        set_(self, "region_codes", _readonly(region_codes, np.int64))
        set_(self, "regions", tuple(str(r) for r in regions))
        self._validate()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("PlacementBatch is immutable")

    def _validate(self) -> None:
        n = self.job_ids.shape[0]
        for name in ("start_h", "duration_h", "migrated", "region_codes"):
            rows = getattr(self, name).shape[0]
            if rows != n:
                raise SimulationError(
                    f"placement batch column {name!r} has {rows} rows, "
                    f"expected {n}"
                )
        if len(set(self.regions)) != len(self.regions):
            raise SimulationError("placement batch region table repeats a name")
        if n and (
            int(self.region_codes.min()) < 0
            or int(self.region_codes.max()) >= len(self.regions)
        ):
            raise SimulationError(
                "placement batch region codes fall outside the region table"
            )
        # Placement.__post_init__'s checks, in its order, for the first
        # row failing either.
        bad = (self.start_h < 0.0) | (self.duration_h <= 0.0)
        if bad.any():
            i = int(np.argmax(bad))
            job_id = int(self.job_ids[i])
            if self.start_h[i] < 0.0:
                raise SimulationError(f"placement for job {job_id}: negative start")
            raise SimulationError(
                f"placement for job {job_id}: duration must be positive"
            )

    # --- construction -----------------------------------------------------
    @classmethod
    def from_placements(cls, placements: Iterable[Placement]) -> "PlacementBatch":
        """Columnize a placement sequence (lossless; see ``batch[i]``)."""
        placements = list(placements)
        table: Dict[str, int] = {}
        return cls(
            job_ids=[p.job_id for p in placements],
            start_h=[p.start_h for p in placements],
            duration_h=[p.duration_h for p in placements],
            migrated=[p.migrated for p in placements],
            region_codes=[table.setdefault(p.region, len(table)) for p in placements],
            regions=tuple(table),
        )

    @classmethod
    def coerce(
        cls, placements: Union["PlacementBatch", Iterable[Placement]]
    ) -> "PlacementBatch":
        """A batch view of ``placements`` (identity when already columnar)."""
        if isinstance(placements, cls):
            return placements
        return cls.from_placements(placements)

    # --- scalar views -----------------------------------------------------
    def placement(self, index: int) -> Placement:
        """The lazily constructed scalar view of row ``index``."""
        i = operator.index(index)
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(
                f"placement index {index} out of range for {n} placements"
            )
        return Placement(
            job_id=int(self.job_ids[i]),
            region=self.regions[int(self.region_codes[i])],
            start_h=float(self.start_h[i]),
            duration_h=float(self.duration_h[i]),
            migrated=bool(self.migrated[i]),
        )

    def region_names(self) -> List[str]:
        """Per-row region names: the decoded ``region_codes`` column."""
        return [self.regions[code] for code in self.region_codes.tolist()]

    def __len__(self) -> int:
        return int(self.job_ids.shape[0])

    def __iter__(self) -> Iterator[Placement]:
        for row in zip(
            self.job_ids.tolist(), self.region_names(), self.start_h.tolist(),
            self.duration_h.tolist(), self.migrated.tolist(),
        ):
            yield Placement(*row)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PlacementBatch(
                job_ids=self.job_ids[index],
                start_h=self.start_h[index],
                duration_h=self.duration_h[index],
                migrated=self.migrated[index],
                region_codes=self.region_codes[index],
                regions=self.regions,
            )
        return self.placement(index)

    # --- equality / pickling ---------------------------------------------
    def __eq__(self, other) -> bool:
        """The same placements row for row, whatever the region tables."""
        if not isinstance(other, PlacementBatch):
            if not isinstance(other, (list, tuple)):
                return NotImplemented
            if not all(isinstance(p, Placement) for p in other):
                return False
            other = PlacementBatch.from_placements(other)
        return (
            len(self) == len(other)
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("job_ids", "start_h", "duration_h", "migrated")
            )
            and self.region_names() == other.region_names()
        )

    __hash__ = None  # equal to lists, which are unhashable

    def __repr__(self) -> str:
        return (
            f"PlacementBatch(n_placements={len(self)}, regions={self.regions!r}, "
            f"migrated={int(np.count_nonzero(self.migrated))})"
        )

    def __reduce__(self) -> Tuple:
        # Same reason as JobBatch.__reduce__: rebuild through __init__.
        return (
            _rebuild_placements,
            ({name: getattr(self, name) for name in self.__slots__},),
        )


def _rebuild_placements(columns: Dict[str, object]) -> PlacementBatch:
    return PlacementBatch(**columns)
