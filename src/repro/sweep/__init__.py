"""repro.sweep — the sharded, cache-aware sweep service.

The subsystem behind ``repro-hpc sweep``: declarative grid specs
(:class:`SweepSpec`), a fingerprint-deduplicating planner
(:func:`plan_sweep`), a provenance-keyed result cache
(:class:`ResultCache`), and the :class:`SweepService` that ties them
together.  Services construct through the registry's ``sweep`` kind
(``cached`` by default, ``direct`` for cache-free runs).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sweep.cache": (
        "CacheClearance", "CacheStats", "ResultCache", "default_cache_dir",
    ),
    "repro.sweep.runner": (
        "SweepOutcome", "SweepReport", "SweepService", "cached_sweep_service",
        "direct_sweep_service",
    ),
    "repro.sweep.planner": ("SweepPlan", "WorkUnit", "plan_sweep"),
    "repro.sweep.spec": ("SweepSpec", "load_spec_mapping"),
})
