"""The sweep service: plan, look up, run, cache.

:class:`SweepService` is what the ``sweep`` registry kind constructs —
``cached`` (the default, result cache on) and ``direct`` (cache off,
still deduplicated) are thin factory variants.  A run is:

1. **normalize** — a :class:`~repro.sweep.spec.SweepSpec`, a spec
   mapping, a spec file path, or an explicit Scenario/Session list all
   become one scenario list;
2. **plan** — fingerprint and deduplicate into work units
   (:func:`repro.sweep.planner.plan_sweep`);
3. **look up** — each cacheable unit checks the provenance-keyed
   :class:`~repro.sweep.cache.ResultCache` first;
4. **run** — remaining units flow through
   :func:`repro.resilience.run_resilient` on a registry ``executor``
   (serial by default; ``process`` fans out one future per unit),
   resolved the way :meth:`Session.run_many` resolves engines,
   so serial sweep results are byte-identical to ``run_many``'s output;
5. **cache** — each result is written back under its fingerprint (and
   journaled, when a journal is open) as its unit settles; a pooled
   worker writes its unit's entries itself, so the service only
   journals and counts them.

A service with a cache always evaluates by section: a unit that misses
the whole-result tier assembles from cached section payloads and
recomputes only its stale sections, and :meth:`SweepService.plan`
predicts that reuse.  Results stay byte-identical to a full recompute.

Units are isolated in every configuration: a cell that raises becomes a
:class:`~repro.resilience.CellFailure` on the returned
:class:`SweepReport` while every other cell still comes back.  Retry
budgets, per-attempt timeouts and fault injectors only change the
policy the one execution path runs under; worker crashes rebuild the
pool and re-dispatch only the unfinished units, and a ``resume=`` run
recomputes nothing a journal already holds.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from dataclasses import replace as dataclass_replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro._memo import Memo
from repro.core.errors import ResilienceError, SweepError
from repro.resilience.journal import SweepJournal
from repro.resilience.policy import CellFailure, RetryPolicy
from repro.resilience.runner import (
    DEFAULT_MAX_REBUILDS,
    ResilientUnit,
    run_resilient,
)
from repro.session.executors import resolve_executor
from repro.session.fingerprint import RESULT_SECTIONS
from repro.session.registry import resolve_backend
from repro.session.result import ScenarioResult
from repro.session.scenario import Scenario
from repro.session.session import Session
from repro.sweep.cache import CacheStats, ResultCache, default_cache_dir
from repro.sweep.planner import SweepPlan, plan_sweep
from repro.sweep.spec import SweepSpec

__all__ = [
    "SweepOutcome",
    "SweepReport",
    "SweepService",
    "cached_sweep_service",
    "direct_sweep_service",
]

#: What a run may be asked to sweep.
SweepInput = Union[
    SweepSpec,
    Mapping[str, Any],
    str,
    pathlib.Path,
    Sequence[Union[Scenario, Session]],
]


@dataclass(frozen=True)
class SweepOutcome:
    """Results of one sweep run, in input (grid) order."""

    results: Tuple[ScenarioResult, ...]
    stats: CacheStats
    n_cells: int
    n_unique: int
    n_ran: int
    executor: str
    #: Per-section hits and misses of the units this run computed;
    #: ``None`` for a cache-free run.  Counted from each unit's returned
    #: ``fresh_sections`` (misses are the sections it recomputed, hits
    #: the rest), so pooled workers report the section reuse they saw
    #: in their own processes.
    section_stats: Optional[Dict[str, CacheStats]] = None

    @property
    def n_hits(self) -> int:
        return self.n_unique - self.n_ran

    def summary_lines(self) -> List[str]:
        lines = [
            f"sweep: {self.n_cells} cell{'s' if self.n_cells != 1 else ''} "
            f"-> {self.n_unique} unique, {self.n_hits} served from cache, "
            f"{self.n_ran} ran (executor {self.executor})",
            f"cache: {self.stats.summary()}",
        ]
        if self.section_stats is not None:
            hits = sum(s.hits for s in self.section_stats.values())
            misses = sum(s.misses for s in self.section_stats.values())
            lines.append(
                f"sections: {hits} payload{'s' if hits != 1 else ''} "
                f"reused, {misses} recomputed"
            )
        return lines


@dataclass(frozen=True)
class SweepReport(SweepOutcome):
    """A :class:`SweepOutcome` plus what fault tolerance observed.

    Failed units leave ``None`` at their cells in ``results`` and a
    :class:`~repro.resilience.CellFailure` here; ``n_skipped`` counts
    units a ``resume=`` journal retired without recomputation (and
    without a cache copy to serve — journaled units *with* a cached
    result count as hits and fill their cells); ``n_rebuilds`` counts
    process-pool rebuilds after worker crashes.
    """

    failures: Tuple[CellFailure, ...] = ()
    n_skipped: int = 0
    n_rebuilds: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def n_hits(self) -> int:
        return self.n_unique - self.n_ran - self.n_skipped

    def summary_lines(self) -> List[str]:
        lines = super().summary_lines()
        if self.n_skipped:
            lines.append(
                f"resume: {self.n_skipped} journaled "
                f"unit{'s' if self.n_skipped != 1 else ''} skipped"
            )
        if self.n_rebuilds:
            lines.append(
                f"recovery: process pool rebuilt {self.n_rebuilds} "
                f"time{'s' if self.n_rebuilds != 1 else ''} after worker "
                "crashes"
            )
        if self.failures:
            n = len(self.failures)
            lines.append(
                f"failures: {n} unit{'s' if n != 1 else ''} exhausted "
                f"{'their' if n != 1 else 'its'} retry budget"
            )
            lines.extend(f"  {failure.summary()}" for failure in self.failures)
        return lines


def _coerce_injector(value):
    """Normalize the fault-injector spellings the service accepts.

    A string is a ``faults`` registry key; a mapping is
    ``{"kind": <key>, **factory_opts}``; anything exposing ``action``
    passes through as-is.
    """
    if value is None:
        return None
    if isinstance(value, str):
        return resolve_backend("faults", value)()
    if isinstance(value, Mapping):
        opts = dict(value)
        kind = opts.pop("kind", None)
        if not isinstance(kind, str):
            raise ResilienceError(
                "a faults mapping needs a 'kind' registry key, "
                f"got {value!r}"
            )
        try:
            return resolve_backend("faults", kind)(**opts)
        except TypeError as exc:
            raise ResilienceError(
                f"invalid faults options for {kind!r}: {exc}"
            ) from None
    if callable(getattr(value, "action", None)):
        return value
    raise ResilienceError(
        f"cannot build a fault injector from {type(value).__name__} "
        f"{value!r}; pass a faults registry key, a {{'kind': ...}} "
        "mapping, or an injector object"
    )


#: The cache a pooled worker opens, by directory, so its units read the
#: sections it wrote through one memory tier (one directory per pass).
_WORKER_CACHES = Memo("sweep.worker_caches", 8)


def _worker_cache(cache_dir: pathlib.Path) -> ResultCache:
    key = str(cache_dir)
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        cache = ResultCache(cache_dir)
        _WORKER_CACHES.put(key, cache)
    return cache


class _PlannedItem:
    """A computed work unit: runs the session the planner built.

    Executors treat it like a Session (it exposes ``run()`` and a
    ``_scenario`` for seed warming).  In-process engines run the session
    the planner already built, so a computed cell builds and hashes
    once.  Pooled items drop the session (and any cache) on pickling
    and build from the pickled item in the worker.

    The item carries the service's cache and its directory, and records
    whether the pass writes back to it.  In-process runs read sections
    from the service's cache and pooled workers from their own
    (:func:`_worker_cache`); either way fresh sections ride home on
    ``result.fresh_sections``.  A pooled worker then writes the unit's
    result and fresh sections to the directory itself
    (:meth:`write_back`), so other workers reuse them within the pass;
    for in-process engines the service writes them as the unit settles.
    Without a cache every section runs, exactly as a plain
    ``Session.run()``.
    """

    def __init__(
        self,
        item: Union[Scenario, Session],
        cache: Optional[ResultCache],
        session: Optional[Session],
        *,
        writeback: bool,
    ) -> None:
        self._item = item
        self._cache = cache
        self._cache_dir = None if cache is None else cache.cache_dir
        self._session = session
        self._writeback = writeback

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        # Live caches and sessions never cross process bounds.
        state["_cache"] = None
        state["_session"] = None
        return state

    @property
    def _scenario(self) -> Scenario:
        item = self._item
        return item if isinstance(item, Scenario) else item._scenario

    def run(self) -> ScenarioResult:
        # The first attempt takes the planned session; a retry builds
        # afresh, so no attempt runs a session a failed one left behind.
        session, self._session = self._session, None
        if session is None:
            session = (
                self._item.build()
                if isinstance(self._item, Scenario)
                else self._item
            )
        reuse = self._cache
        if reuse is None and self._cache_dir is not None:
            reuse = _worker_cache(self._cache_dir)
        return session.run(reuse=reuse)

    def write_back(
        self, result: ScenarioResult, fingerprint: Optional[str]
    ) -> bool:
        """Write the unit's entries from a pool worker, once its attempt
        loop has succeeded; ``False`` (nothing written) when the pass
        writes no directory."""
        if not self._writeback or self._cache_dir is None or fingerprint is None:
            return False
        cache = _worker_cache(self._cache_dir)
        # The worker reads sections back, but never a result.
        cache.write_entry(fingerprint, result)
        for name, (fp, payload) in (result.fresh_sections or {}).items():
            cache.put_section(name, fp, payload)
        return True


class SweepService:
    """The sharded, cache-aware sweep engine.

    Parameters
    ----------
    cache:
        ``False`` disables the result cache entirely (the ``direct``
        backend); deduplication still applies.  With the cache on, a
        unit that misses the whole-result tier assembles from cached
        section payloads and recomputes only its stale sections.
    cache_dir:
        Cache directory (default ``~/.cache/repro-hpc`` or
        ``$REPRO_HPC_CACHE_DIR``).
    executor / max_workers:
        The execution engine of every :meth:`run`.  With neither set,
        the engine resolves as in :meth:`Session.run_many` (see
        :func:`repro.session.executors.resolve_executor`).
    """

    def __init__(
        self,
        *,
        cache: bool = True,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self._cache: Optional[ResultCache] = None
        if cache:
            self._cache = ResultCache(
                pathlib.Path(cache_dir)
                if cache_dir is not None
                else default_cache_dir()
            )
        elif cache_dir is not None:
            raise SweepError("cache_dir is meaningless with cache=False")
        self._executor = executor
        self._max_workers = max_workers

    # --- introspection ----------------------------------------------------
    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    # --- input normalization ----------------------------------------------
    @staticmethod
    def _normalize_full(
        sweep_input: SweepInput,
    ) -> Tuple[List[Union[Scenario, Session]], Optional[SweepSpec]]:
        """Normalize to an item list, keeping the spec (if there is one)
        so :meth:`run` can consume its ``resilience`` section."""
        if isinstance(sweep_input, SweepSpec):
            return list(sweep_input.scenarios()), sweep_input
        if isinstance(sweep_input, (str, pathlib.Path)):
            from repro.sweep.spec import load_spec_mapping

            sweep_input = load_spec_mapping(sweep_input)
        if isinstance(sweep_input, Mapping):
            if set(sweep_input) <= {"name", "base", "axes", "resilience"}:
                spec = SweepSpec.from_mapping(sweep_input)
                return list(spec.scenarios()), spec
            # A flat knob mapping: a grid of one.
            return [Scenario.from_spec(sweep_input)], None
        try:
            items = list(sweep_input)
        except TypeError:
            raise SweepError(
                f"cannot sweep a {type(sweep_input).__name__}; pass a "
                "SweepSpec, a spec mapping/path, or Scenario/Session items"
            ) from None
        return items, None

    # --- planning ---------------------------------------------------------
    def plan(self, sweep_input: SweepInput) -> SweepPlan:
        """Expand + fingerprint + deduplicate, without running anything.

        With the cache on, every cacheable unit is annotated with
        predicted per-section reuse (``unit.section_hits``) by peeking
        at the section tier — stat-free, so planning never skews the
        hit/miss counters a later :meth:`run` reports.
        """
        plan = plan_sweep(self._normalize_full(sweep_input)[0])
        if self._cache is None:
            return plan
        units = []
        for unit in plan.units:
            if unit.session is None or unit.fingerprint is None:
                units.append(unit)
                continue
            try:
                fps = unit.session.section_fingerprints()
            except SweepError:
                units.append(unit)
                continue
            hits = tuple(
                (name, self._cache.has_section(name, fps[name]))
                for name in RESULT_SECTIONS
            )
            units.append(dataclass_replace(unit, section_hits=hits))
        return SweepPlan(units=tuple(units), n_cells=plan.n_cells)

    # --- execution --------------------------------------------------------
    #: ``resilience``-section keys that configure the RetryPolicy.
    _RETRY_KEYS = frozenset(
        {
            "retries", "max_attempts", "backoff_s", "backoff_factor",
            "jitter", "unit_timeout_s", "seed",
        }
    )

    def run(
        self,
        sweep_input: SweepInput,
        *,
        retry: Union[RetryPolicy, Mapping[str, Any], int, None] = None,
        faults: Any = None,
        journal: Optional[Union[str, pathlib.Path]] = None,
        resume: Optional[Union[str, pathlib.Path]] = None,
        max_rebuilds: Optional[int] = None,
        cache_writeback: bool = True,
    ) -> SweepReport:
        """Evaluate the grid: cache lookups first, then one resilient pass.

        Every unit that misses the cache runs through
        :func:`repro.resilience.run_resilient`.  A unit that raises (or
        whose pool worker dies) becomes a
        :class:`~repro.resilience.CellFailure` on the report and leaves
        ``None`` at its cells; every other cell still comes back, cached
        and journaled as it settles.  ``retry`` (anything
        :meth:`~repro.resilience.RetryPolicy.coerce` accepts), ``faults``
        (anything :func:`_coerce_injector` accepts) and ``max_rebuilds``
        override a spec's ``resilience`` section; with neither set the
        units run under the inert policy (one attempt, no timeout, no
        faults).
        ``journal`` appends every completed unit's fingerprint to a
        JSONL checkpoint; ``resume`` skips units already journaled
        ``done`` (and journals new completions to the same file unless
        ``journal`` points elsewhere).  ``cache_writeback=False`` serves
        cache hits but writes nothing back — the escape hatch for runs
        whose outputs should not poison a shared cache.
        """
        items, spec = self._normalize_full(sweep_input)
        plan = plan_sweep(items)

        # --- resolve the resilience configuration -------------------------
        section: Dict[str, Any] = (
            dict(spec.resilience)
            if spec is not None and spec.resilience
            else {}
        )
        spec_retry: Optional[Dict[str, Any]] = {
            k: v for k, v in section.items() if k in self._RETRY_KEYS
        } or None
        policy = RetryPolicy.coerce(retry if retry is not None else spec_retry)
        injector = _coerce_injector(
            faults if faults is not None else section.get("faults")
        )
        rebuild_budget = next(
            int(value)
            for value in (
                max_rebuilds,
                section.get("max_rebuilds"),
                DEFAULT_MAX_REBUILDS,
            )
            if value is not None
        )
        journal_path = journal if journal is not None else resume

        journal_obj: Optional[SweepJournal] = None
        completed: frozenset = frozenset()
        if journal_path is not None:
            journal_obj = SweepJournal(journal_path)
        if resume is not None:
            if (
                journal_obj is not None
                and pathlib.Path(resume) == journal_obj.path
            ):
                completed = frozenset(journal_obj.load_completed())
            else:
                completed = frozenset(
                    SweepJournal(resume).load_completed()
                )

        # --- cache lookups + resume skips ---------------------------------
        before = self._cache.stats if self._cache is not None else CacheStats()
        results: List[Optional[ScenarioResult]] = [None] * plan.n_cells
        to_run = []
        n_skipped = 0
        for unit in plan.units:
            if self._cache is not None and unit.fingerprint is not None:
                hit = self._cache.get(unit.fingerprint)
                if hit is not None:
                    for index in unit.indices:
                        results[index] = hit
                    if journal_obj is not None:
                        journal_obj.record_done(
                            unit.fingerprint, name=unit.name, cached=True
                        )
                    continue
            if unit.fingerprint is not None and unit.fingerprint in completed:
                # Journaled done but not in cache: retired, not re-run.
                n_skipped += 1
                continue
            to_run.append(unit)

        # --- execute --------------------------------------------------------
        key = "none"
        failures: List[CellFailure] = []
        section_counts = {
            name: {"hits": 0, "misses": 0} for name in RESULT_SECTIONS
        }
        n_rebuilds = 0
        if to_run:
            key, opts = resolve_executor(
                items, self._executor, self._max_workers
            )
            units = [
                ResilientUnit(
                    item=_PlannedItem(
                        unit.item,
                        self._cache,
                        unit.session,
                        writeback=cache_writeback,
                    ),
                    index=unit.indices[0],
                    indices=tuple(unit.indices),
                    name=unit.name,
                    fingerprint=unit.fingerprint,
                )
                for unit in to_run
            ]

            def _on_unit_done(outcome) -> None:
                # Fired as each unit settles, so a later failure cannot
                # lose completions already cached and journaled.  A unit
                # its pool worker stored is on disk already: only the
                # memory tiers are left to fill.
                if not outcome.ok:
                    failures.append(outcome.failure)
                    if journal_obj is not None:
                        journal_obj.record_failed(outcome.failure)
                    return
                for index in outcome.unit.indices:
                    results[index] = outcome.result
                disk = not outcome.stored
                if (
                    self._cache is not None
                    and cache_writeback
                    and outcome.fingerprint is not None
                ):
                    self._cache.put(
                        outcome.fingerprint, outcome.result, disk=disk
                    )
                fresh = getattr(outcome.result, "fresh_sections", None)
                if self._cache is not None and fresh is not None:
                    for name, counts in section_counts.items():
                        counts["misses" if name in fresh else "hits"] += 1
                    if cache_writeback:
                        for name, (fp, payload) in fresh.items():
                            self._cache.put_section(
                                name, fp, payload, disk=disk
                            )
                if journal_obj is not None:
                    journal_obj.record_done(
                        outcome.fingerprint, name=outcome.unit.name
                    )

            n_rebuilds = run_resilient(
                units,
                executor=key,
                executor_opts=opts,
                policy=policy,
                injector=injector,
                max_rebuilds=rebuild_budget,
                on_unit_done=_on_unit_done,
            ).rebuilds

        after = self._cache.stats if self._cache is not None else CacheStats()
        return SweepReport(
            results=tuple(results),
            stats=CacheStats(
                hits=after.hits - before.hits,
                misses=after.misses - before.misses,
                evictions=after.evictions - before.evictions,
                errors=after.errors - before.errors,
            ),
            n_cells=plan.n_cells,
            n_unique=plan.n_unique,
            n_ran=len(to_run),
            executor=key,
            section_stats=(
                {
                    name: CacheStats(**counts)
                    for name, counts in section_counts.items()
                }
                if self._cache is not None
                else None
            ),
            failures=tuple(failures),
            n_skipped=n_skipped,
            n_rebuilds=n_rebuilds,
        )


def cached_sweep_service(**opts) -> SweepService:
    """The default ``sweep`` backend: dedup + provenance-keyed cache."""
    return SweepService(**opts)


def direct_sweep_service(**opts) -> SweepService:
    """The cache-free variant: dedup only, every unique cell recomputes."""
    return SweepService(cache=False, **opts)
