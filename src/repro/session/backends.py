"""The built-in backends: one static table of rows.

Each row of :data:`BUILTIN_BACKENDS` is ``(kind, key, aliases,
"module:attr")``.  :func:`load_builtin_backends` adds the rows to a
registry without importing any layer; a row's module is imported the
first time its key resolves, and the loaded factory then replaces the
row under the key and every alias (see
:mod:`repro.session.registry`).  To add a built-in, add a row that
points at a module-level factory.  Plugins call
:func:`~repro.session.registry.register_backend` instead.  Factory
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
    ``--simulator-arg K=V``.  ``fcfs`` (aliases ``default``,
    ``fcfs-columnar``, ``columnar``) is FCFS earliest-fit on
    ``JobBatch`` columns; a scenario's ``simulator`` knob keeps the
    spelling it was given, so provenance and fingerprints tell the
    aliases apart; ``backfill`` (alias ``easy``) is EASY backfill —
    queued jobs may start ahead of the head of the queue when doing so
    cannot delay the head's reservation; ``carbon-aware`` (alias
    ``green``) delays each job within its slack budget (``slack_h=``,
    alias ``slack=``; default: the job's own ``slack_h`` column)
    toward the lowest forward-window-mean intensity start, holding
    ``start <= submit + slack`` whenever the budget admits any start;
    ``power-cap`` (alias ``capped``) runs FCFS earliest-fit under a
    cluster-wide busy-GPU cap (``cap_fraction=``, alias ``cap=``,
    default 0.8 of installed GPUs), so the hourly busy profile never
    exceeds the cap (see :mod:`repro.cluster.simulator` and
    :mod:`repro.cluster.engine`).
``accounting``
    ``factory(**opts) -> engine`` — a charging engine exposing
    ``charge(jobs, placements, *, service, node, pue, config,
    transfer_overhead_fraction) -> JobCharges`` (see
    :mod:`repro.accounting.engines`); a migrated job's energy carries
    the flat ``transfer_overhead_fraction``, its one migration cost.
    ``vectorized`` (aliases ``default``, ``ledger``) is the one
    built-in: the truth-table path.
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
    ``serial`` and ``process`` (alias ``shared``) ship built-in.  The
    pooled engine takes ``max_workers`` and returns a
    :class:`~repro.session.executors.PoolExecutor`: every item runs as
    its own process-pool future through the resilience layer's pool
    driver.  Sweeps call any engine once per work unit through
    :func:`repro.resilience.run_resilient`, where a unit that raises
    becomes a :class:`~repro.resilience.CellFailure`.  Called directly
    (``run_many``), ``serial`` propagates a scenario's own exception and
    the pooled engine raises :class:`~repro.core.errors.ResilienceError`
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
    takes ``cache_dir`` plus the engine, ``executor``/``max_workers``,
    and always evaluates by section: a cell that misses the
    whole-result cache recomputes only its stale sections.  ``direct``
    is the cache-free variant and takes only the engine.  ``run``
    takes ``retry``/``faults``/``journal``/``resume``/``max_rebuilds``
    and ``cache_writeback``.  Running an empty grid must return an
    empty outcome without touching disk.

**Which registry kinds feed which result sections.**  Section-level
delta evaluation (:data:`repro.session.fingerprint.KNOB_SECTIONS`)
reuses a cached section whenever none of its inputs changed, so a
backend author must know which sections their kind invalidates:
``system`` feeds ``embodied`` + ``audit``; ``node`` feeds ``embodied``,
``training``, ``scheduling``, ``cluster``; ``intensity`` feeds every
charged section (``audit``/``training``/``scheduling``/``cluster``/
``upgrade``); ``pue`` likewise (embodied carbon has no facility
overhead); ``accounting`` feeds ``scheduling`` only (the other charged
sections meter through their own fixed engines); ``workload`` feeds
``scheduling`` + ``cluster``; ``policy`` feeds ``scheduling``;
``simulator`` feeds ``cluster``; the ``carbon`` rollup depends on all
six, so every knob that feeds a section reaches it too.  ``renderer``,
``report``, ``executor``, ``sweep``, and ``faults`` feed *no* section
— they shape presentation or execution, never results — which is
exactly what makes delta re-runs of renderer/executor flips free.  A
new backend whose options change a section's output MUST surface those
options through scenario knobs (so they land in the section's
fingerprint preimage); options invisible to the fingerprint would
poison the section cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.registry import BackendRegistry

__all__ = ["BUILTIN_BACKENDS", "load_builtin_backends"]

#: ``(kind, key, aliases, "module:attr")`` for every built-in backend.
BUILTIN_BACKENDS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("system", "frontier", (), "repro.hardware.systems:frontier_deployment"),
    ("system", "lumi", (), "repro.hardware.systems:lumi_deployment"),
    ("system", "perlmutter", (), "repro.hardware.systems:perlmutter_deployment"),
    ("node", "P100", (), "repro.hardware.node:p100_node"),
    ("node", "V100", (), "repro.hardware.node:v100_node"),
    ("node", "A100", (), "repro.hardware.node:a100_node"),
    ("intensity", "synthetic", ("table3",), "repro.intensity.api:synthetic_service"),
    ("intensity", "oracle", (), "repro.intensity.api:oracle_service"),
    ("intensity", "constant", (), "repro.intensity.api:constant_service"),
    ("workload", "synthetic", ("poisson",), "repro.workloads.sources:SyntheticSource"),
    ("workload", "diurnal", (), "repro.workloads.sources:DiurnalSource"),
    ("workload", "bursty", ("onoff",), "repro.workloads.sources:BurstySource"),
    ("workload", "trace", ("replay",), "repro.workloads.sources:TraceReplaySource"),
    ("policy", "carbon-oblivious", ("baseline", "oblivious"),
     "repro.scheduler.policies:carbon_oblivious_policy"),
    ("policy", "temporal-shifting", ("temporal",),
     "repro.scheduler.policies:temporal_shifting_policy"),
    ("policy", "geographic", ("geo",), "repro.scheduler.policies:geographic_policy"),
    ("policy", "temporal+geographic",
     ("carbon_aware", "carbon-aware", "temporal_geographic"),
     "repro.scheduler.policies:temporal_geographic_policy"),
    ("simulator", "fcfs", ("default", "fcfs-columnar", "columnar"),
     "repro.cluster.simulator:simulate_cluster"),
    ("simulator", "backfill", ("easy",), "repro.cluster.engine:simulate_cluster_backfill"),
    ("simulator", "carbon-aware", ("green",),
     "repro.cluster.engine:simulate_cluster_carbon_aware"),
    ("simulator", "power-cap", ("capped",),
     "repro.cluster.engine:simulate_cluster_power_cap"),
    ("accounting", "vectorized", ("default", "ledger"),
     "repro.accounting.engines:VectorizedChargingEngine"),
    ("pue", "constant", ("flat",), "repro.power.pue:constant_pue"),
    ("pue", "seasonal", (), "repro.power.pue:seasonal_pue"),
    ("pue", "profile", ("hourly",), "repro.power.pue:hourly_pue"),
    ("renderer", "text", ("plain",), "repro.analysis.render:render_scenario_text"),
    ("renderer", "json", (), "repro.analysis.render:render_scenario_json"),
    ("renderer", "markdown", ("md",), "repro.analysis.render:render_scenario_markdown"),
    ("report", "experiments", (), "repro.analysis.report:generate_report"),
    ("executor", "serial", ("inline",), "repro.session.executors:serial_executor"),
    ("executor", "process", ("processes", "parallel", "shared", "shared-store"),
     "repro.session.executors:process_executor"),
    ("sweep", "cached", ("default",), "repro.sweep.runner:cached_sweep_service"),
    ("sweep", "direct", ("nocache", "no-cache"), "repro.sweep.runner:direct_sweep_service"),
    ("faults", "none", ("off",), "repro.resilience.faults:NoFaults"),
    ("faults", "random", ("chaos",), "repro.resilience.faults:RandomFaults"),
    ("faults", "scripted", ("script",), "repro.resilience.faults:ScriptedFaults"),
)


def load_builtin_backends(registry: "BackendRegistry") -> None:
    """Add every built-in row to ``registry``, importing no layer."""
    for kind, key, aliases, target in BUILTIN_BACKENDS:
        registry.add_row(kind, key, target, aliases=aliases)
