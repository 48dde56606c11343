"""Workload sources: the ``workload`` backend kind behind the facade.

The paper grounds its scheduling and utilization results in production
GPU-cluster traces (MLaaS-in-the-wild / Philly-style mixes); those
traces are not redistributable, so this layer generates statistically
similar synthetic workloads — and replays real trace files where the
operator has them.  Every generator lives behind one protocol:

:class:`JobSource`
    ``generate(*, seed) -> JobBatch`` — a deterministic, seed-keyed
    draw of one workload as a columnar
    :class:`~repro.cluster.job.JobBatch`, every submit inside
    ``[0, horizon_h)``.

Built-ins, rows of the ``workload`` registry kind in
:data:`repro.session.backends.BUILTIN_BACKENDS`:

``synthetic``
    The historical Poisson/log-normal generator: Poisson
    arrivals, log-normal durations with the published heavy right tail,
    power-of-two GPU requests skewed toward single-GPU jobs, and a
    Table 4 model mix.  Byte-identical to the seed generator for the
    same seed — :func:`generate_workload` remains the list-of-Jobs
    spelling of the same draw.
``diurnal``
    Time-of-day modulated arrivals: a cosine rate profile (business-
    hours peak, configurable ``peak_hour``/``amplitude``) sampled by
    inverse-CDF, everything else as ``synthetic``.
``bursty``
    Markov-modulated on/off arrivals: alternating exponential on/off
    sojourns; arrivals land in on-periods (off-periods receive a small
    ``off_rate_fraction`` trickle), everything else as ``synthetic``.
``trace``
    File replay through :mod:`repro.cluster.traceio` — the versioned
    JSON workload schema or Standard Workload Format (``.swf``) logs,
    with column mapping, model/GPU fill-ins, and horizon clipping.

``target_usage`` keeps its meaning across the synthetic family: the
offered load as a fraction of the cluster's GPU-hours over the horizon
(the paper's 26.7% / 40% / 60% usage levels in RQ8), hit exactly by a
single common duration rescale.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Union, runtime_checkable

import numpy as np

from repro._memo import Memo
from repro.core.errors import SimulationError
from repro.cluster.job import Job, JobBatch, _adopt
from repro.session.backends import BUILTIN_BACKENDS
from repro.workloads.models import ALL_MODELS, ModelSpec

__all__ = [
    "DEFAULT_WORKLOAD_SEED",
    "GENERATOR_KEYS",
    "KEY_ALIASES",
    "WorkloadParams",
    "canonical_key",
    "generate_workload",
    "looks_like_trace_path",
    "JobSource",
    "SyntheticSource",
    "DiurnalSource",
    "BurstySource",
    "TraceReplaySource",
]

#: The facade's historical workload seed (Scenario's default draw).
DEFAULT_WORKLOAD_SEED = 7

#: Alias -> canonical key for every built-in workload backend, read off
#: the registry's rows, so the CLI's option buckets and the registered
#: aliases can never drift.
KEY_ALIASES: Dict[str, str] = {
    alias: key
    for kind, key, aliases, _target in BUILTIN_BACKENDS
    if kind == "workload"
    for alias in aliases
}

#: Canonical keys of the built-in parameterized generators — the only
#: backends the CLI may default ``horizon_h``/``total_gpus`` into
#: (third-party factories owe no WorkloadParams-shaped signature).
GENERATOR_KEYS = frozenset({"synthetic", "diurnal", "bursty"})


def canonical_key(key: str) -> str:
    """The canonical registry key behind any workload key spelling.

    Trace-spec classification (``canonical_key(k) == "trace"``) and the
    CLI's ``BACKEND:K=V`` option bucketing both go through here, so an
    alias spelling can never dodge either rule.
    """
    normalized = key.strip().lower()
    return KEY_ALIASES.get(normalized, normalized)


def looks_like_trace_path(text: str) -> bool:
    """Whether a workload string names a trace file, not a registry key.

    The single classification heuristic behind ``Scenario.workload`` and
    the CLI: registry keys are bare lowercase words; anything carrying a
    path separator or a workload-trace suffix (``.json``/``.swf``) is a
    file.
    """
    lowered = text.strip().lower()
    return "/" in text or "\\" in text or lowered.endswith((".json", ".swf"))

#: GPU-request distribution: mostly 1-GPU jobs, few full-node jobs.
_GPU_CHOICES = np.array([1, 2, 4])
_GPU_WEIGHTS = np.array([0.55, 0.25, 0.20])

HOURS_PER_DAY = 24.0


@dataclass(frozen=True, slots=True)
class WorkloadParams:
    """Knobs of the synthetic workload generators.

    ``mean_duration_h`` / ``duration_sigma`` parameterize the log-normal
    runtime distribution; ``n_users`` spreads jobs across a user
    population for the budget analyses; ``slack_fraction`` expresses
    users' tolerated start delay as a multiple of job duration.
    """

    horizon_h: float = 24.0 * 28.0
    target_usage: float = 0.40
    total_gpus: int = 64
    mean_duration_h: float = 4.0
    duration_sigma: float = 1.0
    n_users: int = 12
    slack_fraction: float = 2.0
    home_region: Optional[str] = None

    def __post_init__(self) -> None:
        # Loosely-typed surfaces (CLI --workload-arg) hand over whatever
        # parses: reject non-finite numbers up front (nan slips past
        # every <=/>= comparison below) and coerce integer-valued
        # counts, rejecting fractions — generate() consumes real ints.
        for field in (
            "horizon_h", "target_usage", "total_gpus", "mean_duration_h",
            "duration_sigma", "n_users", "slack_fraction",
        ):
            if not np.isfinite(getattr(self, field)):
                raise SimulationError(
                    f"{field} must be finite, got {getattr(self, field)!r}"
                )
        for field in ("total_gpus", "n_users"):
            value = getattr(self, field)
            if not float(value).is_integer():
                raise SimulationError(
                    f"{field} must be a whole number, got {value!r}"
                )
            object.__setattr__(self, field, int(value))
        if self.horizon_h <= 0.0:
            raise SimulationError("horizon must be positive")
        if not (0.0 < self.target_usage <= 1.0):
            raise SimulationError("target usage must be in (0, 1]")
        if self.total_gpus < 1:
            raise SimulationError("total_gpus must be >= 1")
        if self.mean_duration_h <= 0.0:
            raise SimulationError("mean duration must be positive")
        if self.duration_sigma < 0.0:
            raise SimulationError("duration sigma must be >= 0")
        if self.n_users < 1:
            raise SimulationError("need at least one user")
        if self.slack_fraction < 0.0:
            raise SimulationError("slack fraction must be >= 0")


@runtime_checkable
class JobSource(Protocol):
    """The ``workload`` backend protocol the facade consumes.

    ``generate`` must be deterministic per ``seed`` and keep every
    submit time inside ``[0, horizon_h)``.  ``horizon_h`` is the
    workload's nominal span — simulators size their default windows
    from it (``None`` means derive it from the generated batch).
    """

    name: str
    horizon_h: Optional[float]

    def generate(self, *, seed: int = DEFAULT_WORKLOAD_SEED) -> JobBatch:
        ...  # pragma: no cover - protocol


# --- shared synthetic machinery ---------------------------------------------
def _resolve_params(
    params: Optional[WorkloadParams], kwargs: Dict[str, object]
) -> WorkloadParams:
    if params is None:
        return WorkloadParams(**kwargs)  # type: ignore[arg-type]
    if kwargs:
        raise SimulationError(
            "pass either params= or individual workload fields, not both: "
            f"{sorted(kwargs)}"
        )
    if not isinstance(params, WorkloadParams):
        raise SimulationError(
            f"params must be WorkloadParams, got {type(params).__name__}"
        )
    return params


def _resolve_zoo(models: Optional[Sequence[ModelSpec]]) -> List[ModelSpec]:
    zoo = list(models) if models is not None else list(ALL_MODELS)
    if not zoo:
        raise SimulationError("model zoo is empty")
    return zoo


def _job_count(params: WorkloadParams) -> int:
    """Expected job count whose offered load hits ``target_usage``."""
    target_gpu_hours = params.target_usage * params.total_gpus * params.horizon_h
    mean_gpus = float(np.dot(_GPU_CHOICES, _GPU_WEIGHTS))
    expected_job_gpu_hours = mean_gpus * params.mean_duration_h
    return max(int(round(target_gpu_hours / expected_job_gpu_hours)), 1)


def _assemble(
    params: WorkloadParams,
    *,
    submits: np.ndarray,
    rng: np.random.Generator,
    zoo: Sequence[ModelSpec],
) -> JobBatch:
    """Draw the non-arrival columns and pack the batch.

    The draw order (GPUs, durations, rescale, models, users) is the seed
    generator's exact RNG sequence, so ``synthetic`` batches reproduce
    the historical job lists bit for bit; the arrival-model sources
    share the same post-arrival pipeline and therefore the same
    marginal distributions.
    """
    n_jobs = submits.shape[0]
    gpus = rng.choice(_GPU_CHOICES, size=n_jobs, p=_GPU_WEIGHTS)
    # Log-normal with the requested mean: mu = ln(mean) - sigma^2/2.
    sigma = params.duration_sigma
    mu = np.log(params.mean_duration_h) - 0.5 * sigma * sigma
    durations = rng.lognormal(mean=mu, sigma=sigma, size=n_jobs)
    durations = np.clip(durations, 0.05, params.horizon_h / 2.0)

    # Rescale the realized GPU-hours exactly onto the target by one
    # common duration factor, so usage levels compare across seeds.
    target_gpu_hours = params.target_usage * params.total_gpus * params.horizon_h
    realized = float(np.dot(gpus, durations))
    durations *= target_gpu_hours / realized

    model_idx = rng.integers(0, len(zoo), size=n_jobs)
    users = rng.integers(0, params.n_users, size=n_jobs)

    if params.home_region is None:
        region_codes = np.full(n_jobs, -1, dtype=np.int64)
        regions: tuple = ()
    else:
        region_codes = np.zeros(n_jobs, dtype=np.int64)
        regions = (params.home_region,)
    # Every column is freshly drawn above; _adopt lets the batch share
    # them without the constructor's defensive caller-copy.
    return JobBatch(
        job_ids=_adopt(np.arange(n_jobs, dtype=np.int64)),
        submit_h=_adopt(submits),
        duration_h=_adopt(durations),
        n_gpus=_adopt(gpus),
        slack_h=_adopt(durations * params.slack_fraction),
        user_codes=_adopt(users),
        users=tuple(f"user{u:02d}" for u in range(params.n_users)),
        model_codes=_adopt(model_idx),
        models=tuple(zoo),
        region_codes=_adopt(region_codes),
        regions=regions,
    )


#: Generated-batch memo shared across synthetic-family instances, 32
#: batches.  A sweep grid builds one source per cell, but cells sharing
#: (generator knobs, seed) draw the same batch — the repr keys the memo
#: because it already spells every knob (params + family extras).
#: Batches are immutable, so sharing is safe.
_BATCH_MEMO = Memo("workloads.batches", 32)


class _SyntheticFamily:
    """Common shell of the parameterized generator backends.

    Subclasses implement ``_draw(seed)``; the family-level
    :meth:`generate` wraps it with the shared batch memo so identical
    (source, seed) draws across a sweep cost one RNG pass.
    """

    def __init__(
        self,
        params: Optional[WorkloadParams] = None,
        *,
        models: Optional[Sequence[ModelSpec]] = None,
        **kwargs,
    ) -> None:
        self.params = _resolve_params(params, kwargs)
        self.models = _resolve_zoo(models)

    @property
    def horizon_h(self) -> float:
        return self.params.horizon_h

    def _extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        # Informative enough to reconstruct the draw: the provenance
        # records this repr for the key spelling of Scenario.workload.
        return f"{type(self).__name__}({self.params!r}{self._extra_repr()})"

    def _draw(self, *, seed: int) -> JobBatch:
        raise NotImplementedError

    def generate(self, *, seed: int = DEFAULT_WORKLOAD_SEED) -> JobBatch:
        key = (repr(self), tuple(repr(m) for m in self.models), int(seed))
        batch = _BATCH_MEMO.get(key)
        if batch is None:
            batch = self._draw(seed=int(seed))
            _BATCH_MEMO.put(key, batch)
        return batch


class SyntheticSource(_SyntheticFamily):
    """The seed Poisson/log-normal generator as a ``workload`` backend.

    For a given ``(params, seed)`` the batch is byte-identical to the
    job list the historical ``generate_workload`` produced (pinned in
    ``tests/test_workload_sources.py`` and by the golden fixtures).
    """

    name = "synthetic"

    def _draw(self, *, seed: int) -> JobBatch:
        rng = np.random.default_rng(seed)
        n_jobs = _job_count(self.params)
        submits = np.sort(rng.uniform(0.0, self.params.horizon_h, size=n_jobs))
        return _assemble(self.params, submits=submits, rng=rng, zoo=self.models)


class DiurnalSource(_SyntheticFamily):
    """Time-of-day modulated arrivals (the published daily load swing).

    The arrival rate follows ``1 + amplitude * cos(2pi (h - peak_hour)
    / 24)`` — a business-hours peak and a night trough — and submit
    times are drawn by inverse-CDF over the cumulative rate, so the
    expected job count (and, after the common rescale, the offered
    GPU-hours) matches ``synthetic`` exactly while the arrivals bunch
    into the day.
    """

    name = "diurnal"

    def __init__(
        self,
        params: Optional[WorkloadParams] = None,
        *,
        peak_hour: float = 14.0,
        amplitude: float = 0.6,
        models: Optional[Sequence[ModelSpec]] = None,
        **kwargs,
    ) -> None:
        super().__init__(params, models=models, **kwargs)
        if not (0.0 <= float(amplitude) <= 1.0):
            raise SimulationError(
                f"diurnal amplitude must be in [0, 1], got {amplitude!r}"
            )
        self.peak_hour = float(peak_hour) % HOURS_PER_DAY
        self.amplitude = float(amplitude)

    def _extra_repr(self) -> str:
        return f", peak_hour={self.peak_hour!r}, amplitude={self.amplitude!r}"

    def _cumulative_rate(self, grid_h: np.ndarray) -> np.ndarray:
        """Integral of the rate profile from 0 to each grid point.

        Closed form of ``∫ 1 + a cos(ω(t - peak)) dt`` with
        ``ω = 2π/24`` — exact, so the inverse-CDF never depends on a
        quadrature step.
        """
        omega = 2.0 * np.pi / HOURS_PER_DAY
        phase = grid_h - self.peak_hour
        return grid_h + (self.amplitude / omega) * (
            np.sin(omega * phase) - np.sin(-omega * self.peak_hour)
        )

    def _draw(self, *, seed: int) -> JobBatch:
        rng = np.random.default_rng(seed)
        n_jobs = _job_count(self.params)
        horizon = self.params.horizon_h
        # Invert the exact cumulative rate on a fine grid (10 points per
        # hour bounds the interpolation error well under the hourly
        # intensity resolution).
        grid = np.linspace(0.0, horizon, max(int(horizon * 10), 2))
        cumulative = self._cumulative_rate(grid)
        draws = rng.uniform(0.0, cumulative[-1], size=n_jobs)
        submits = np.sort(np.interp(draws, cumulative, grid))
        # uniform() may return its high endpoint; keep submits strictly
        # inside [0, horizon) per the JobSource contract.
        submits = np.clip(submits, 0.0, np.nextafter(horizon, 0.0))
        return _assemble(self.params, submits=submits, rng=rng, zoo=self.models)


class BurstySource(_SyntheticFamily):
    """Markov-modulated on/off arrivals (campaign-style submission bursts).

    A two-state chain alternates exponential on/off sojourns
    (``mean_on_h`` / ``mean_off_h``); submits land uniformly inside the
    on-periods, with an ``off_rate_fraction`` trickle keeping the off
    valleys non-empty (real queues are never silent).  The total job
    count and offered GPU-hours still hit ``target_usage``.
    """

    name = "bursty"

    def __init__(
        self,
        params: Optional[WorkloadParams] = None,
        *,
        mean_on_h: float = 6.0,
        mean_off_h: float = 12.0,
        off_rate_fraction: float = 0.05,
        models: Optional[Sequence[ModelSpec]] = None,
        **kwargs,
    ) -> None:
        super().__init__(params, models=models, **kwargs)
        if mean_on_h <= 0.0 or mean_off_h <= 0.0:
            raise SimulationError("burst sojourn means must be positive")
        if not (0.0 <= float(off_rate_fraction) <= 1.0):
            raise SimulationError(
                f"off_rate_fraction must be in [0, 1], got {off_rate_fraction!r}"
            )
        self.mean_on_h = float(mean_on_h)
        self.mean_off_h = float(mean_off_h)
        self.off_rate_fraction = float(off_rate_fraction)

    def _extra_repr(self) -> str:
        return (
            f", mean_on_h={self.mean_on_h!r}, mean_off_h={self.mean_off_h!r}"
            f", off_rate_fraction={self.off_rate_fraction!r}"
        )

    def _intervals(self, rng: np.random.Generator):
        """Alternating (start, end, weight) sojourns covering the horizon."""
        horizon = self.params.horizon_h
        # Start in the stationary state so short horizons are unbiased.
        on = bool(
            rng.uniform() < self.mean_on_h / (self.mean_on_h + self.mean_off_h)
        )
        t = 0.0
        intervals = []
        while t < horizon:
            mean = self.mean_on_h if on else self.mean_off_h
            end = min(t + float(rng.exponential(mean)), horizon)
            weight = 1.0 if on else self.off_rate_fraction
            if end > t and weight > 0.0:
                intervals.append((t, end, weight))
            t = end
            on = not on
        if not intervals:  # all-off draw with a zero trickle
            intervals.append((0.0, horizon, 1.0))
        return intervals

    def _draw(self, *, seed: int) -> JobBatch:
        rng = np.random.default_rng(seed)
        n_jobs = _job_count(self.params)
        intervals = self._intervals(rng)
        masses = np.array([(end - start) * w for start, end, w in intervals])
        cumulative = np.concatenate(([0.0], np.cumsum(masses)))
        draws = rng.uniform(0.0, cumulative[-1], size=n_jobs)
        slot = np.clip(
            np.searchsorted(cumulative, draws, side="right") - 1,
            0,
            len(intervals) - 1,
        )
        starts = np.array([iv[0] for iv in intervals])
        weights = np.array([iv[2] for iv in intervals])
        submits = np.sort(
            starts[slot] + (draws - cumulative[slot]) / weights[slot]
        )
        submits = np.clip(submits, 0.0, np.nextafter(self.params.horizon_h, 0.0))
        return _assemble(self.params, submits=submits, rng=rng, zoo=self.models)


#: Parsed-trace memo shared across TraceReplaySource instances, 8
#: batches (region/policy sweeps build one source per scenario; the
#: batch is immutable, so sharing is safe).
_TRACE_MEMO = Memo("workloads.traces", 8)


class TraceReplaySource:
    """Replay a workload trace file as a ``workload`` backend.

    Reads both the versioned JSON job schema and Standard Workload
    Format (``.swf``) logs through :mod:`repro.cluster.traceio` (see
    that module for the SWF column mapping).  Replay is deterministic —
    ``seed`` is accepted for protocol uniformity and ignored.

    Parameters
    ----------
    path:
        The trace file.  Existence is validated here so a bad path
        fails at :meth:`Scenario.build` time, not mid-run.
    format:
        ``"json"`` / ``"swf"`` / ``None`` (sniff by suffix, then
        content).
    horizon_h:
        Clip the replay to ``[0, horizon_h)`` submits (``None``: keep
        everything; the horizon is then the batch's own span).
    clip_durations:
        With a horizon, also truncate runtimes at the boundary.
    column_map / model / procs_per_gpu / max_gpus:
        SWF options, forwarded to :func:`repro.cluster.traceio.load_swf`.
    slack_fraction:
        Override every job's slack as a multiple of its duration
        (SWF logs carry no slack; JSON traces keep theirs when None).
    home_region:
        Fill-in home region for jobs without one (the facade passes the
        scenario's home grid).
    max_jobs:
        Keep only the first N jobs after clipping (quick subsamples).
    """

    name = "trace"

    def __init__(
        self,
        path: Union[str, pathlib.Path],
        *,
        format: Optional[str] = None,
        horizon_h: Optional[float] = None,
        clip_durations: bool = False,
        column_map: Optional[Dict[str, int]] = None,
        model: str = "BERT",
        procs_per_gpu: float = 1.0,
        max_gpus: Optional[int] = None,
        slack_fraction: Optional[float] = None,
        home_region: Optional[str] = None,
        max_jobs: Optional[int] = None,
    ) -> None:
        self.path = pathlib.Path(path)
        if not self.path.exists():
            raise SimulationError(f"workload trace {self.path} does not exist")
        if horizon_h is not None and not (
            np.isfinite(horizon_h) and horizon_h > 0.0
        ):
            raise SimulationError(f"horizon must be positive, got {horizon_h!r}")
        if slack_fraction is not None and not (
            np.isfinite(slack_fraction) and slack_fraction >= 0.0
        ):
            raise SimulationError(
                f"slack fraction must be finite and >= 0, got {slack_fraction!r}"
            )
        if max_jobs is not None and int(max_jobs) < 1:
            raise SimulationError(f"max_jobs must be >= 1, got {max_jobs!r}")
        # Every replay option validates here, honoring the class's
        # fail-at-build contract (a typo must not survive until a sweep
        # is mid-flight).
        if format is not None and format.strip().lower() not in ("json", "swf"):
            raise SimulationError(
                f"unknown workload trace format {format!r}; use 'json' or 'swf'"
            )
        if not (np.isfinite(procs_per_gpu) and procs_per_gpu > 0.0):
            raise SimulationError(
                f"procs_per_gpu must be positive, got {procs_per_gpu!r}"
            )
        if max_gpus is not None and int(max_gpus) < 1:
            raise SimulationError(f"max_gpus must be >= 1, got {max_gpus!r}")
        self.format = format
        self._horizon_h = float(horizon_h) if horizon_h is not None else None
        self.clip_durations = bool(clip_durations)
        from repro.cluster.traceio import parse_column_map

        # Normalized here (dict or the "name:index,..." string form)
        # so bad specs fail at build and the memo key is well-defined.
        self.column_map = parse_column_map(column_map) if column_map else None
        self.model = str(model)
        self.procs_per_gpu = float(procs_per_gpu)
        self.max_gpus = int(max_gpus) if max_gpus is not None else None
        self.slack_fraction = slack_fraction
        self.home_region = home_region
        self.max_jobs = int(max_jobs) if max_jobs is not None else None
        self._cache: Optional[JobBatch] = None

    @property
    def horizon_h(self) -> Optional[float]:
        return self._horizon_h

    def _memo_key(self) -> tuple:
        """Parse identity: the file (path + mtime + size) and the
        *reader* options only.

        Session.build constructs a fresh source per swept scenario, so
        the per-instance cache alone would re-parse a large archive N
        times per sweep.  The memo holds the raw parsed batch — the
        per-instance overrides (horizon clip, slack, home region,
        max_jobs) are cheap column edits applied on top — so sweeps
        that vary those overrides still parse the file once.
        """
        stat = self.path.stat()
        return (
            str(self.path), stat.st_mtime_ns, stat.st_size,
            self.format,
            tuple(sorted(self.column_map.items())) if self.column_map else None,
            self.model, self.procs_per_gpu, self.max_gpus,
        )

    def generate(self, *, seed: int = DEFAULT_WORKLOAD_SEED) -> JobBatch:
        del seed  # replay is deterministic
        if self._cache is not None:
            return self._cache
        key = self._memo_key()
        raw = _TRACE_MEMO.get(key)
        if raw is None:
            from repro.cluster.traceio import read_workload

            raw = read_workload(
                self.path,
                format=self.format,
                column_map=self.column_map,
                model=self.model,
                procs_per_gpu=self.procs_per_gpu,
                max_gpus=self.max_gpus,
            )
            _TRACE_MEMO.put(key, raw)
        batch = raw
        if self._horizon_h is not None:
            batch = batch.clipped(
                self._horizon_h, clip_durations=self.clip_durations
            )
        if self.max_jobs is not None and len(batch) > self.max_jobs:
            batch = batch.take(np.arange(self.max_jobs))
        if self.slack_fraction is not None or self.home_region is not None:
            batch = self._override(batch)
        if not len(batch):
            raise SimulationError(
                f"workload trace {self.path} yields no jobs inside the horizon"
            )
        self._cache = batch
        return batch

    def _override(self, batch: JobBatch) -> JobBatch:
        slack = (
            _adopt(batch.duration_h * self.slack_fraction)
            if self.slack_fraction is not None
            else batch.slack_h
        )
        region_codes = batch.region_codes
        regions = batch.regions
        if self.home_region is not None and (region_codes < 0).any():
            home = str(self.home_region)
            if home in batch.regions:
                # Reuse the existing table entry (mixed traces where
                # some jobs already carry the home region).
                code = batch.regions.index(home)
            else:
                regions = (*batch.regions, home)
                code = len(batch.regions)
            region_codes = _adopt(
                np.where(region_codes < 0, code, region_codes)
            )
        return JobBatch(
            job_ids=batch.job_ids,
            submit_h=batch.submit_h,
            duration_h=batch.duration_h,
            n_gpus=batch.n_gpus,
            slack_h=slack,
            user_codes=batch.user_codes,
            users=batch.users,
            model_codes=batch.model_codes,
            models=batch.models,
            region_codes=region_codes,
            regions=regions,
        )

    def __repr__(self) -> str:
        # Every non-default replay option renders: the facade records
        # this repr as provenance, and option sweeps must stay
        # distinguishable in serialized results.
        defaults = (
            ("format", None), ("horizon_h", None), ("clip_durations", False),
            ("column_map", None), ("model", "BERT"), ("procs_per_gpu", 1.0),
            ("max_gpus", None), ("slack_fraction", None),
            ("home_region", None), ("max_jobs", None),
        )
        knobs = []
        for name, default in defaults:
            attr = "_horizon_h" if name == "horizon_h" else name
            value = getattr(self, attr)
            if value != default:
                knobs.append(f"{name}={value!r}")
        extra = (", " + ", ".join(knobs)) if knobs else ""
        return f"TraceReplaySource({str(self.path)!r}{extra})"


def generate_workload(
    params: WorkloadParams = WorkloadParams(),
    *,
    seed: int = DEFAULT_WORKLOAD_SEED,
    models: Optional[Sequence[ModelSpec]] = None,
) -> List[Job]:
    """Generate a job list whose offered load matches ``target_usage``.

    The historical list-of-Jobs spelling of the ``synthetic`` backend:
    ``SyntheticSource(params).generate(seed=seed).to_jobs()``, kept as
    the compatibility surface (and the byte-identity oracle) for code
    that predates :class:`~repro.cluster.job.JobBatch`.
    """
    return SyntheticSource(params, models=models).generate(seed=seed).to_jobs()
