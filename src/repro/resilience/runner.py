"""Resilient unit execution: isolate, retry, time out, rebuild.

:func:`run_resilient` is the one way work units reach an ``executor``
backend: :class:`~repro.sweep.runner.SweepService` dispatches every
sweep through it, and the pooled engine's ``run_many`` calls share its
pool driver.  Every unit runs under a
:class:`~repro.resilience.policy.RetryPolicy` with a fault injector at
the execution boundary, and failures come back as structured
:class:`~repro.resilience.policy.CellFailure` values instead of
propagating.  The inert policy (``RetryPolicy()``: one attempt, no
timeout) with no injector is the plain run:

* **serial and plugin engines** — units run in-process, one engine
  call and one attempt loop each; the per-attempt deadline is enforced
  with a real ``SIGALRM`` interval timer where available (main thread,
  POSIX) and degrades to a post-hoc elapsed check elsewhere.  Injected
  ``crash`` actions degrade to raised
  :class:`~repro.resilience.faults.InjectedFault` errors — killing the
  only process would abort the host, not simulate a lost worker.
* **the pooled engine** (``process``, a
  :class:`~repro.session.executors.PoolExecutor`) — each unit is
  submitted *individually* to a ``ProcessPoolExecutor`` (per-unit
  isolation), attempts retry inside the worker, and an injected
  ``crash`` is a real ``os._exit``.  When the pool breaks
  (:class:`~concurrent.futures.process.BrokenProcessPool` — an
  OOM-killed or segfaulted worker), the parent rebuilds it — re-warming
  trace memos exactly as the original initializer did — and
  re-dispatches only the unfinished units, each crash consuming one
  attempt.  A bounded rebuild budget
  (``max_rebuilds``) turns a crash *storm* into a typed
  :class:`~repro.core.errors.ResilienceError` instead of an infinite
  rebuild loop.

Completed units are reported through ``on_unit_done`` *as they settle*,
so the caller can journal checkpoints and write back cache entries
before a later crash can lose them.  Workers return each result with
the fingerprint read off it, so no caller has to recompute one.  A
pooled item with a ``write_back(result, fingerprint)`` method stores
its own result: the worker calls it once the unit's attempt loop has
succeeded (never after a failed, timed-out or crashed attempt), and the
outcome's ``stored`` flag tells the parent the unit's entries are
already written.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import ResilienceError
from repro.resilience.faults import InjectedFault, NoFaults
from repro.resilience.policy import CellFailure, RetryPolicy

__all__ = [
    "ResilientUnit",
    "UnitOutcome",
    "ResilientRun",
    "UnitTimeout",
    "run_resilient",
    "DEFAULT_MAX_REBUILDS",
]

#: Pool rebuilds tolerated per run before surfacing ResilienceError.
DEFAULT_MAX_REBUILDS = 3

#: The exit code injected crashes die with (distinguishable in logs).
CRASH_EXIT_CODE = 77

#: Parent-side slack added to the per-unit backstop deadline.
_BACKSTOP_SLACK_S = 30.0


class UnitTimeout(Exception):
    """One attempt exceeded its wall-clock deadline."""


@dataclass(frozen=True)
class ResilientUnit:
    """One work unit as the resilience layer addresses it."""

    item: Any  # Scenario | Session
    index: int
    indices: Tuple[int, ...]
    name: str
    fingerprint: Optional[str]

    @property
    def token(self) -> str:
        """The stable identity fault injectors and jitter key off."""
        return self.fingerprint or f"{self.name}#{self.index}"


@dataclass(frozen=True)
class UnitOutcome:
    """How one unit ended: a result or a structured failure."""

    unit: ResilientUnit
    result: Optional[Any]  # ScenarioResult on success
    failure: Optional[CellFailure]
    attempts: int
    #: Worker-reported fingerprint (falls back to the planner's).
    fingerprint: Optional[str]
    #: The pool worker wrote the result itself (the item's ``write_back``).
    stored: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass(frozen=True)
class ResilientRun:
    """Everything one resilient pass produced."""

    outcomes: Tuple[UnitOutcome, ...]
    rebuilds: int


# --- deadline enforcement ---------------------------------------------------
@contextlib.contextmanager
def _attempt_deadline(timeout_s: Optional[float]):
    """Bound one attempt to ``timeout_s`` wall-clock seconds.

    Preemptive (``SIGALRM`` interval timer) on POSIX main threads;
    elsewhere a post-hoc elapsed check — the attempt completes, but its
    result is discarded as a timeout.
    """
    if not timeout_s:
        yield
        return
    preemptive = (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not preemptive:
        started = time.perf_counter()
        yield
        if time.perf_counter() - started > timeout_s:
            raise UnitTimeout(
                f"attempt exceeded its {timeout_s:g}s deadline (post-hoc)"
            )
        return

    def _expired(signum, frame):
        raise UnitTimeout(f"attempt exceeded its {timeout_s:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(timeout_s))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# --- the attempt loop (shared by parent and pool workers) -------------------
def _default_run(item) -> Any:
    from repro.session.executors import _run_one

    return _run_one(item)


def _attempt_once(
    item,
    *,
    token: str,
    index: int,
    attempt: int,
    injector,
    timeout_s: Optional[float],
    allow_crash: bool,
    run: Callable[[Any], Any],
):
    action = injector.action(token=token, index=index, attempt=attempt)
    with _attempt_deadline(timeout_s):
        if action is not None:
            if action.kind == "delay":
                time.sleep(action.delay_s)
            elif action.kind == "crash" and allow_crash:
                # A real lost worker: no cleanup, no exception — the
                # parent only ever sees BrokenProcessPool.
                os._exit(CRASH_EXIT_CODE)
            elif action.kind in ("crash", "error"):
                raise InjectedFault(
                    f"injected {action.kind} (unit {index}, attempt {attempt})"
                )
        result = run(item)
        if action is not None and action.kind == "corrupt":
            # The unit computed, but its payload is "lost in flight".
            raise InjectedFault(
                f"injected result corruption (unit {index}, attempt {attempt})"
            )
    return result


def _run_unit_attempts(
    item,
    *,
    token: str,
    index: int,
    indices: Tuple[int, ...],
    name: str,
    fingerprint: Optional[str],
    policy: RetryPolicy,
    injector,
    first_attempt: int = 1,
    allow_crash: bool = False,
    run: Callable[[Any], Any] = _default_run,
) -> Dict[str, Any]:
    """Run attempts ``first_attempt..max_attempts``; never raises.

    Returns a picklable payload: ``{"status": "ok", "result", "attempts",
    "fingerprint"}`` or ``{"status": "failed", "failure", "attempts"}``.
    """
    last_exc: Optional[BaseException] = None
    for attempt in range(first_attempt, policy.max_attempts + 1):
        if attempt > first_attempt:
            delay = policy.delay_s(attempt=attempt, token=token)
            if delay > 0.0:
                time.sleep(delay)
        try:
            result = _attempt_once(
                item,
                token=token,
                index=index,
                attempt=attempt,
                injector=injector,
                timeout_s=policy.unit_timeout_s,
                allow_crash=allow_crash,
                run=run,
            )
        except Exception as exc:  # KeyboardInterrupt/SystemExit propagate
            last_exc = exc
            continue
        return {
            "status": "ok",
            "result": result,
            "attempts": attempt,
            "fingerprint": getattr(result, "provenance_hash", None)
            or fingerprint,
        }
    assert last_exc is not None
    kind = "timeout" if isinstance(last_exc, UnitTimeout) else "error"
    return {
        "status": "failed",
        "failure": CellFailure.from_exception(
            last_exc,
            index=index,
            indices=indices,
            name=name,
            fingerprint=fingerprint,
            attempts=policy.max_attempts - first_attempt + 1,
            kind=kind,
        ),
        "attempts": policy.max_attempts - first_attempt + 1,
    }


def _pooled_unit(payload: Tuple) -> Dict[str, Any]:
    """The per-unit pool task (module-level for pickling).

    Once the attempt loop succeeds, an item's ``write_back(result,
    fingerprint)`` stores the result from this worker; its return value
    comes home as ``"stored"``.  A write error propagates as the
    future's exception.
    """
    item, token, index, indices, name, fingerprint, policy, injector, first = (
        payload
    )
    outcome = _run_unit_attempts(
        item,
        token=token,
        index=index,
        indices=indices,
        name=name,
        fingerprint=fingerprint,
        policy=policy,
        injector=injector,
        first_attempt=first,
        allow_crash=True,
    )
    write_back = getattr(item, "write_back", None)
    if outcome["status"] == "ok" and write_back is not None:
        outcome["stored"] = write_back(outcome["result"], outcome["fingerprint"])
    return outcome


# --- engines ----------------------------------------------------------------
def _settle(
    unit: ResilientUnit,
    payload: Dict[str, Any],
    on_unit_done,
) -> UnitOutcome:
    if payload["status"] == "ok":
        outcome = UnitOutcome(
            unit=unit,
            result=payload["result"],
            failure=None,
            attempts=payload["attempts"],
            fingerprint=payload.get("fingerprint") or unit.fingerprint,
            stored=payload.get("stored", False),
        )
    else:
        outcome = UnitOutcome(
            unit=unit,
            result=None,
            failure=payload["failure"],
            attempts=payload["attempts"],
            fingerprint=unit.fingerprint,
        )
    if on_unit_done is not None:
        on_unit_done(outcome)
    return outcome


def _run_serial(
    units: Sequence[ResilientUnit],
    *,
    engine,
    policy: RetryPolicy,
    injector,
    on_unit_done,
) -> ResilientRun:
    """Parent-side attempt loop: one ``engine([item])`` call per unit."""

    def run(item):
        results = list(engine([item]))
        if len(results) != 1:
            raise ResilienceError(
                f"executor returned {len(results)} results for one unit"
            )
        return results[0]

    outcomes = []
    for unit in units:
        payload = _run_unit_attempts(
            unit.item,
            token=unit.token,
            index=unit.index,
            indices=unit.indices,
            name=unit.name,
            fingerprint=unit.fingerprint,
            policy=policy,
            injector=injector,
            allow_crash=False,
            run=run,
        )
        outcomes.append(_settle(unit, payload, on_unit_done))
    return ResilientRun(outcomes=tuple(outcomes), rebuilds=0)


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool's worker processes (interrupt / hung-worker path).

    Must run *before* ``pool.shutdown`` — shutdown drops the pool's
    process table, and a worker that survives it keeps grinding until
    its current task ends.
    """
    for process in tuple((getattr(pool, "_processes", None) or {}).values()):
        try:
            process.terminate()
        except (OSError, ValueError):  # already reaped
            pass


def _crash_failure(unit: ResilientUnit, attempts: int) -> CellFailure:
    return CellFailure(
        index=unit.index,
        indices=unit.indices,
        name=unit.name,
        fingerprint=unit.fingerprint,
        kind="crash",
        error_type="BrokenProcessPool",
        message=(
            "worker process died (crash/OOM); retry budget exhausted"
        ),
        attempts=attempts,
        digest="",
    )


def _run_pooled(
    units: Sequence[ResilientUnit],
    *,
    config,
    policy: RetryPolicy,
    injector,
    max_rebuilds: int,
    on_unit_done,
) -> ResilientRun:
    """The process-pool driver: one future per unit, rebuilt on crashes.

    ``config`` is a :class:`~repro.session.executors.PoolExecutor`.
    """
    from repro.session.executors import _sweep_seeds, _warm_worker

    seeds = _sweep_seeds([unit.item for unit in units])
    workers = max(1, min(config.max_workers, len(units)))

    def _make_pool() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_warm_worker, initargs=(seeds,)
        )

    #: Next first_attempt per unit index (crashes consume attempts).
    next_attempt: Dict[int, int] = {unit.index: 1 for unit in units}
    settled: Dict[int, UnitOutcome] = {}
    pending: List[ResilientUnit] = list(units)
    rebuilds = 0
    stuck = False  # a worker blew through the parent-side backstop
    if policy.unit_timeout_s is not None:
        backstop = (
            policy.max_attempts
            * (
                policy.unit_timeout_s
                + policy.delay_s(attempt=policy.max_attempts, token="")
            )
            + _BACKSTOP_SLACK_S
        )
    else:
        backstop = None

    pool = _make_pool()
    try:
        while pending:
            futures: List[Tuple[Future, ResilientUnit]] = [
                (
                    pool.submit(
                        _pooled_unit,
                        (
                            unit.item,
                            unit.token,
                            unit.index,
                            unit.indices,
                            unit.name,
                            unit.fingerprint,
                            policy,
                            injector,
                            next_attempt[unit.index],
                        ),
                    ),
                    unit,
                )
                for unit in pending
            ]
            pending = []
            to_redispatch: List[ResilientUnit] = []
            for future, unit in futures:
                try:
                    payload = future.result(timeout=backstop)
                except BrokenExecutor:
                    to_redispatch.append(unit)
                except FutureTimeoutError:
                    # A worker hung past every in-worker deadline: give
                    # up on the unit and poison the pool for teardown.
                    stuck = True
                    future.cancel()
                    failure = CellFailure(
                        index=unit.index,
                        indices=unit.indices,
                        name=unit.name,
                        fingerprint=unit.fingerprint,
                        kind="timeout",
                        error_type="TimeoutError",
                        message=(
                            f"worker unresponsive past the {backstop:g}s "
                            "parent-side backstop"
                        ),
                        attempts=policy.max_attempts,
                        digest="",
                    )
                    settled[unit.index] = _settle(
                        unit,
                        {
                            "status": "failed",
                            "failure": failure,
                            "attempts": policy.max_attempts,
                        },
                        on_unit_done,
                    )
                else:
                    settled[unit.index] = _settle(unit, payload, on_unit_done)
            if to_redispatch:
                rebuilds += 1
                if rebuilds > max_rebuilds:
                    names = ", ".join(u.name for u in to_redispatch)
                    raise ResilienceError(
                        f"process pool broke {rebuilds} times (budget "
                        f"{max_rebuilds}); giving up on unfinished units: "
                        f"{names}"
                    )
                pool.shutdown(wait=False, cancel_futures=True)
                pool = _make_pool()
                for unit in to_redispatch:
                    # One attempt consumed per pool break: the parent
                    # cannot see which in-flight unit crashed, so every
                    # re-dispatched unit is charged one.
                    next_attempt[unit.index] += 1
                    if next_attempt[unit.index] > policy.max_attempts:
                        settled[unit.index] = _settle(
                            unit,
                            {
                                "status": "failed",
                                "failure": _crash_failure(
                                    unit, policy.max_attempts
                                ),
                                "attempts": policy.max_attempts,
                            },
                            on_unit_done,
                        )
                    else:
                        pending.append(unit)
    except BaseException as exc:
        # Interrupts must not leave queued units grinding in zombie
        # workers: hard-stop the workers first (shutdown drops the
        # process table), then cancel everything not started.
        if not isinstance(exc, Exception):
            _terminate_workers(pool)
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    else:
        if stuck:
            _terminate_workers(pool)
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True, cancel_futures=True)

    outcomes = tuple(settled[unit.index] for unit in units)
    return ResilientRun(outcomes=outcomes, rebuilds=rebuilds)


# --- entry point ------------------------------------------------------------
def run_resilient(
    units: Sequence[ResilientUnit],
    *,
    executor: str = "serial",
    executor_opts: Optional[Dict[str, Any]] = None,
    policy: Union[RetryPolicy, Dict[str, Any], int, None] = None,
    injector=None,
    max_rebuilds: int = DEFAULT_MAX_REBUILDS,
    on_unit_done=None,
) -> ResilientRun:
    """Run work units fault-tolerantly through an executor backend.

    ``executor`` is an ``executor`` registry key, built with
    ``executor_opts`` (the factory validates them).  An engine that is
    a :class:`~repro.session.executors.PoolExecutor` gets per-unit
    futures with crash recovery; any other engine is called once per
    unit under the parent-side attempt loop.  ``on_unit_done(outcome)``
    fires as each unit settles, in dispatch order.
    """
    units = list(units)
    if not units:
        return ResilientRun(outcomes=(), rebuilds=0)
    if int(max_rebuilds) < 0:
        raise ResilienceError(
            f"max_rebuilds must be >= 0, got {max_rebuilds!r}"
        )
    policy = RetryPolicy.coerce(policy)
    injector = injector if injector is not None else NoFaults()

    from repro.session.executors import PoolExecutor
    from repro.session.registry import resolve_backend

    engine = resolve_backend("executor", executor)(**(executor_opts or {}))
    if isinstance(engine, PoolExecutor):
        return _run_pooled(
            units,
            config=engine,
            policy=policy,
            injector=injector,
            max_rebuilds=int(max_rebuilds),
            on_unit_done=on_unit_done,
        )
    return _run_serial(
        units,
        engine=engine,
        policy=policy,
        injector=injector,
        on_unit_done=on_unit_done,
    )
