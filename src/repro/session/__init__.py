"""The canonical public API: scenarios, sessions, and the backend registry.

One coherent surface over the whole pipeline (embodied modeling →
regional intensity → operational characterization → carbon-aware
scheduling → upgrade analysis)::

    from repro.session import Scenario

    result = (
        Scenario()
        .system("perlmutter")
        .region("CISO")
        .lifetime(years=5)
        .run()
    )
    print("\\n".join(result.summary_lines()))

Swappable backends live in :data:`registry`
(:class:`~repro.session.registry.BackendRegistry`): hardware systems,
node generations, intensity sources, scheduling policies, cluster
simulators, report renderers, and sweep executors all resolve by string
key, and third-party backends plug in with :func:`register_backend`
without touching core.  Batch sweeps go through
:meth:`Session.run_many`, which shares memoized trace generation across
scenarios and fans out over a process pool when a scenario selects
``.executor("process", max_workers=N)``.
"""

from repro._lazy import lazy_exports

# Bound eagerly: ``repro.session.registry`` is also the submodule's name,
# and a first import of the submodule would rebind a lazy attribute to
# the module.  The registry module imports only ``repro.core.errors``.
from repro.session.registry import registry as registry

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.session.scenario": ("Scenario",),
    "repro.session.session": ("Session", "run_scenario"),
    "repro.session.result": (
        "ScenarioResult", "EmbodiedSection", "TrainingSection",
        "SchedulingSection", "PolicyOutcome", "ClusterSection",
        "UpgradeSection", "CarbonSection", "Provenance",
    ),
    "repro.session.types": ("SystemDeployment",),
    "repro.session.registry": (
        "BackendRegistry", "registry", "register_backend", "resolve_backend",
        "available_backends", "ensure_default_backends", "BACKEND_KINDS",
    ),
})
