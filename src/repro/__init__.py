"""repro — carbon footprint estimation for HPC systems.

A full reproduction of "Toward Sustainable HPC: Carbon Footprint
Estimation and Environmental Implications of HPC Systems" (SC'23):
embodied-carbon modeling of HPC components and systems, regional
carbon-intensity analysis, operational-carbon characterization of deep
learning workloads, carbon-aware scheduling, and upgrade decision
analysis.

Quickstart — the :class:`Scenario` facade is the canonical entry point::

    from repro import Scenario

    # Whole-center study: embodied build + 5-year operational audit.
    result = Scenario().system("frontier").region("ESO").run()
    print("\\n".join(result.summary_lines()))

    # Sweep regions x policies in one batch (traces generated once).
    from repro import Session
    from repro.cluster import WorkloadParams

    results = Session.run_many(
        Scenario()
        .node("V100")
        .region(region)
        .policy("carbon_aware")
        .workload(WorkloadParams(home_region=region), seed=2021)
        for region in ("ESO", "CISO", "ERCOT")
    )

Swappable backends (hardware systems, intensity sources, scheduling
policies, simulators, carbon-accounting engines, renderers) live in the
string-keyed registry —
see :mod:`repro.session` and :func:`register_backend` for plugging in
your own without touching core.

Model-wide constants are configured with :class:`ModelConfig` /
:func:`use_config`; estimation primitives live in :mod:`repro.core`.
:func:`memo_info` reports the counters of every process-wide memo, and
:func:`memo_clear` empties them all so the next run starts cold.
See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
per-figure/table regeneration harness.
"""

from repro._lazy import lazy_exports

__version__ = "1.1.0"

__getattr__, __dir__, _exports = lazy_exports(__name__, {
    # facade
    "repro.session": (
        "Scenario", "Session", "ScenarioResult", "run_scenario", "registry",
        "register_backend", "resolve_backend", "available_backends",
    ),
    # configuration
    "repro.core.config": (
        "ModelConfig", "default_config", "get_config", "set_config", "use_config",
    ),
    "repro.core.errors": ("ReproError",),
    # process-wide memos
    "repro._memo": ("memo_info", "memo_clear"),
})
__all__ = ["__version__", *_exports]
