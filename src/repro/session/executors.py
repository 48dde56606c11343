"""Sweep executors: pluggable engines behind :meth:`Session.run_many`.

A sweep executor is a callable ``(items) -> list[ScenarioResult]``
taking the normalized list of :class:`~repro.session.scenario.Scenario`
/ :class:`~repro.session.session.Session` items and returning their
results *in input order*.  Executors register under the ``executor``
registry kind; built-ins:

* ``serial`` — run each scenario in this process, one after another.
  This is the default and shares the parent's memoized trace sets, so a
  5-region × 3-policy sweep still generates traces once per seed.  A
  scenario that raises propagates its own exception.
* ``process`` — a :class:`PoolExecutor`: every scenario is its own
  future on a :class:`~concurrent.futures.ProcessPoolExecutor`, driven
  by the resilience layer's pool driver — the same one sweeps use.
  Each worker's trace memo is warmed once for every seed in the sweep
  (via the pool initializer; under ``fork`` the parent's memo is
  inherited for free), so workers never regenerate traces per
  scenario.  Scenario resolution and execution happen inside the
  worker, which requires every item and its payloads (workloads,
  configs, policy objects) to be picklable — registry-keyed scenarios
  always are.
* ``shared`` — ``process`` over a memory-mapped
  :class:`~repro.sweep.store.SharedTraceStore` the parent fills before
  the pool starts.

A pooled call runs under the inert retry policy (one attempt, no
timeout, no faults) and raises :class:`~repro.core.errors.ResilienceError`
naming the first failed cell — a worker's exception or a lost worker
alike.

Results are deterministic per scenario seed (each Session draws a
freshly seeded forecast stream), so a ``process`` sweep returns results
equal to the same sweep run serially.

Select an executor per sweep with
``Scenario.executor("process", max_workers=N)`` on any swept scenario,
or explicitly via ``Session.run_many(..., executor="process")``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.errors import SessionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.result import ScenarioResult
    from repro.session.scenario import Scenario
    from repro.session.session import Session

__all__ = [
    "SweepExecutor",
    "PoolExecutor",
    "serial_executor",
    "process_executor",
    "shared_executor",
]

_SweepItem = Union["Scenario", "Session"]

#: What an ``executor`` backend factory returns.
SweepExecutor = Callable[[Sequence[_SweepItem]], List["ScenarioResult"]]


def _run_one(item: _SweepItem) -> "ScenarioResult":
    from repro.session.scenario import Scenario

    if isinstance(item, Scenario):
        return item.build().run()
    return item.run()


def _run_chunk(items: Sequence[_SweepItem]) -> List["ScenarioResult"]:
    """Run a sweep in this process (the ``serial`` engine)."""
    return [_run_one(item) for item in items]


def _warm_worker(seeds: Tuple[int, ...]) -> None:
    """Pool initializer: prime this worker's trace memo once per seed."""
    from repro.intensity.generator import generate_all_traces

    for seed in seeds:
        generate_all_traces(seed=seed)


def _sweep_seeds(items: Sequence[_SweepItem]) -> Tuple[int, ...]:
    seeds = set()
    for item in items:
        # Scenarios carry _seed directly; built Sessions carry their
        # builder snapshot under _scenario.
        knobs = getattr(item, "_scenario", item)
        seed = getattr(knobs, "_seed", None)
        if seed is not None:
            seeds.add(seed)
    return tuple(sorted(seeds))


def serial_executor(**_opts) -> "SweepExecutor":
    """The in-process executor (default): scenarios run sequentially."""
    return _run_chunk


@dataclass(frozen=True)
class PoolExecutor:
    """A validated process-pool configuration: the pooled engines.

    :func:`repro.resilience.run_resilient` reads it to drive one future
    per work unit; calling it runs a :meth:`Session.run_many` sweep
    through that same driver under the inert retry policy.
    """

    max_workers: int
    shared: bool = False
    #: The shared trace store directory (default: the sweep cache's
    #: ``store/``); ignored unless ``shared``.
    store_dir: Any = None

    def __call__(self, items: Sequence[_SweepItem]) -> List["ScenarioResult"]:
        items = list(items)
        if not items:
            return []  # no work: touch no disk (the conformance contract)
        from repro.core.errors import ResilienceError
        from repro.resilience.faults import NoFaults
        from repro.resilience.policy import RetryPolicy
        from repro.resilience.runner import (
            DEFAULT_MAX_REBUILDS,
            ResilientUnit,
            _run_pooled,
        )

        units = [
            ResilientUnit(
                item=item,
                index=index,
                indices=(index,),
                name=getattr(item, "_scenario", item)._derived_name(),
                fingerprint=None,
            )
            for index, item in enumerate(items)
        ]
        run = _run_pooled(
            units,
            config=self,
            policy=RetryPolicy(),
            injector=NoFaults(),
            max_rebuilds=DEFAULT_MAX_REBUILDS,
            on_unit_done=None,
        )
        for outcome in run.outcomes:
            if not outcome.ok:
                raise ResilienceError(
                    f"pooled sweep failed: {outcome.failure.summary()}"
                )
        return [outcome.result for outcome in run.outcomes]


def _pool(max_workers: Optional[int], **config) -> PoolExecutor:
    if max_workers is None:
        max_workers = os.cpu_count() or 1
    if int(max_workers) < 1:
        raise SessionError(f"max_workers must be >= 1, got {max_workers!r}")
    return PoolExecutor(max_workers=int(max_workers), **config)


def process_executor(*, max_workers: Optional[int] = None) -> PoolExecutor:
    """Parallel sweep executor over a process pool.

    ``max_workers`` defaults to the machine's CPU count.
    """
    return _pool(max_workers)


def _attach_store_worker(store_dir: str, seeds: Tuple[int, ...]) -> None:
    """Pool initializer: attach the shared store, then warm the memos.

    With the store attached, ``generate_all_traces`` loads each seed's
    set from the parent's memory-mapped ``.npy`` file instead of
    re-running the generator — the per-worker warm-up PR 2 recorded
    becomes a file read.
    """
    from repro.sweep.store import SharedTraceStore

    SharedTraceStore(store_dir).attach()
    _warm_worker(seeds)


def shared_executor(
    *, max_workers: Optional[int] = None, store_dir=None
) -> PoolExecutor:
    """Parallel sweep executor backed by the shared trace store.

    Like ``process``, but the parent serializes every sweep seed's trace
    set to memory-mapped ``.npy`` files under ``store_dir`` (default:
    the sweep cache's ``store/`` directory) before the pool starts, and
    each worker attaches a :class:`repro.sweep.store.SharedTraceStore`
    instead of regenerating traces from scratch.
    """
    return _pool(max_workers, shared=True, store_dir=store_dir)
