"""Built-in backend loading.

Each layer subpackage owns a ``register_backends(registry)`` hook that
adds its backends; this module only orchestrates the one-time load (see
:func:`repro.session.registry.ensure_default_backends`).  Factory
calling conventions, per kind:

``system``
    ``factory() -> SystemDeployment`` — the BOM plus deployment facts
    (node count, NICs per node) used by audits.
``node``
    ``factory() -> NodeSpec`` — a Table 5 node generation.
``intensity``
    ``factory(*, seed, forecast_error, **opts) -> CarbonIntensityService``.
    The ``constant`` backend additionally takes ``value`` and ``regions``.
``workload``
    ``factory(**opts) -> JobSource`` — an object satisfying
    :class:`~repro.workloads.sources.JobSource`: ``generate(*, seed)
    -> JobBatch`` (deterministic per seed, submits inside
    ``[0, horizon_h)``), plus ``name`` and ``horizon_h``.  Every
    built-in factory accepts ``home_region=`` (the facade injects the
    scenario's home grid unless overridden); the synthetic family
    (``synthetic``/``diurnal``/``bursty``) takes a ``params=``
    :class:`~repro.workloads.sources.WorkloadParams` or its individual
    fields, and ``trace`` takes ``path=`` plus replay options
    (format/column_map/horizon clipping — see
    :mod:`repro.cluster.traceio`).
``policy``
    ``factory(service, default_region, regions=None) -> policy`` — an
    object satisfying :class:`~repro.scheduler.policies.SchedulingPolicy`.
``simulator``
    the callable itself: ``(jobs, cluster, *, horizon_h, intensity,
    pue, config) -> SimulationResult`` (or a duck-typed equivalent
    exposing the same schedule/metrics/accounting surface); discipline
    options arrive as extra optional keywords, threaded from
    ``Scenario.cluster(n, simulator=..., **opts)`` and the CLI's
    ``--simulator-arg K=V``.  ``fcfs`` is the scalar FCFS-earliest-fit
    oracle; ``fcfs-columnar`` (alias ``columnar``) is the event-driven
    engine on ``JobBatch`` columns, byte-identical to the oracle and
    ~10x faster; ``backfill`` (alias ``easy``) is EASY backfill —
    queued jobs may start ahead of the head of the queue when doing so
    cannot delay the head's reservation; ``carbon-aware`` (alias
    ``green``) delays each job within its slack budget (``slack_h=``,
    alias ``slack=``; default: the job's own ``slack_h`` column)
    toward the lowest forward-window-mean intensity start, holding
    ``start <= submit + slack`` whenever the budget admits any start;
    ``power-cap`` (alias ``capped``) runs FCFS earliest-fit under a
    cluster-wide busy-GPU cap (``cap_fraction=``, alias ``cap=``,
    default 0.8 of installed GPUs), so the hourly busy profile never
    exceeds the cap (see :mod:`repro.cluster.engine`).
``accounting``
    ``factory(**opts) -> engine`` — a charging engine exposing
    ``charge(jobs, placements, *, service, node, pue, config,
    transfer_overhead_fraction, transfer_model) -> JobCharges`` (see
    :mod:`repro.accounting.engines`).  ``vectorized`` is the production
    truth-table path; ``scalar-reference`` is the seed per-job loop kept
    as the byte-identical oracle.
``pue``
    ``factory(**opts) -> profile object`` exposing ``profile(n_hours)
    -> np.ndarray`` of hourly PUE values ``>= 1.0`` (see
    :mod:`repro.power.pue`), or ``None`` to defer to the scenario's
    configured scalar PUE.  ``constant`` takes ``value``; ``seasonal``
    wraps :class:`~repro.power.pue.SeasonalPUE` (plus ``mean``/
    ``amplitude`` short spellings); ``profile`` takes ``values``, an
    hourly sample array.  Constant profiles collapse to the exact
    scalar path through :func:`repro.accounting.resolve_pue`.
``renderer``
    ``factory(result) -> str`` for a :class:`ScenarioResult`.
``report``
    ``factory() -> str`` — a whole-corpus report (EXPERIMENTS.md).
``executor``
    ``factory(**opts) -> callable(items) -> list[ScenarioResult]`` — a
    sweep engine for :meth:`Session.run_many` (see
    :mod:`repro.session.executors`); the factory validates its options.
    ``serial``, ``process``, and ``shared`` ship built-in.  The pooled
    engines take ``max_workers`` (``shared`` also ``store_dir``) and
    return a :class:`~repro.session.executors.PoolExecutor`: every item
    runs as its own process-pool future through the resilience layer's
    pool driver.  Sweeps call any engine once per work unit through
    :func:`repro.resilience.run_resilient`, where a unit that raises
    becomes a :class:`~repro.resilience.CellFailure`.  Called directly
    (``run_many``), ``serial`` propagates a scenario's own exception and
    the pooled engines raise :class:`~repro.core.errors.ResilienceError`
    naming the first failed cell.
``faults``
    ``factory(**opts) -> injector`` — a deterministic fault injector
    for chaos-testing resilient sweeps, exposing ``action(*, token,
    index, attempt) -> FaultAction | None`` (see
    :mod:`repro.resilience.faults`).  The injector must be
    deterministic for equal arguments (byte-reproducible chaos) and
    picklable (it rides into pool workers).  ``none`` is inert;
    ``random`` takes seeded per-class probabilities (``crash_p`` /
    ``error_p`` / ``corrupt_p`` / ``delay_p``, plus ``seed`` /
    ``delay_s`` / ``attempts``); ``scripted`` fails exactly the listed
    unit indices (``crash_at`` / ``error_at`` / ``corrupt_at`` /
    ``delay_at``).
``sweep``
    ``factory(**opts) -> service`` — a cache-aware sweep service
    exposing ``plan(grid)`` and ``run(grid, ...) -> SweepOutcome`` over
    a SweepSpec / spec mapping / spec path / Scenario list, results in
    input order (see :mod:`repro.sweep.runner`).  ``cached`` (default)
    takes ``cache_dir``/``disk``/``memory_slots``/``delta`` plus
    executor defaults; ``direct`` is the cache-free variant.  Running
    an empty grid must return an empty outcome without touching disk.

**Which registry kinds feed which result sections.**  Section-level
delta evaluation (:data:`repro.session.fingerprint.KNOB_SECTIONS`)
reuses a cached section whenever none of its inputs changed, so a
backend author must know which sections their kind invalidates:
``system`` feeds ``embodied`` + ``audit``; ``node`` feeds ``embodied``,
``training``, ``scheduling``, ``cluster``; ``intensity`` and
``accounting`` feed every charged section (``audit``/``training``/
``scheduling``/``cluster``/``upgrade``); ``pue`` likewise (embodied
carbon has no facility overhead); ``workload`` feeds ``scheduling`` +
``cluster``; ``policy`` feeds ``scheduling``; ``simulator`` feeds
``cluster``; the ``carbon`` rollup depends on all six.  ``renderer``,
``report``, ``executor``, ``sweep``, and ``faults`` feed *no* section
— they shape presentation or execution, never results — which is
exactly what makes delta re-runs of renderer/executor flips free.  A
new backend whose options change a section's output MUST surface those
options through scenario knobs (so they land in the section's
fingerprint preimage); options invisible to the fingerprint would
poison the section cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.registry import BackendRegistry

__all__ = ["load_builtin_backends"]


def load_builtin_backends(registry: "BackendRegistry") -> None:
    """Invoke every layer's ``register_backends`` hook exactly once."""
    import repro.accounting as accounting
    import repro.analysis as analysis
    import repro.cluster as cluster
    import repro.hardware as hardware
    import repro.intensity as intensity
    import repro.power as power
    import repro.resilience as resilience
    import repro.scheduler as scheduler
    import repro.session.executors as executors
    import repro.sweep as sweep
    import repro.workloads as workloads

    layers = (
        hardware, intensity, workloads, scheduler, cluster, accounting, power,
        analysis, executors, sweep, resilience,
    )
    for layer in layers:
        layer.register_backends(registry)
