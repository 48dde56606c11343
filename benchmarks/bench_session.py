"""Session-facade throughput: memoized traces and batched scenarios.

The facade's first real throughput win is the module-level LRU behind
:func:`repro.intensity.generator.generate_all_traces`: every
``CarbonIntensityService()`` used to regenerate the full Table 3 set
(7 regions x 8760 hours of composed seasonal/diurnal/AR(1) structure);
now only the first construction per ``(regions, n_hours, seed)`` pays.
These benchmarks pin the speedup and the once-per-seed guarantee for
``Session.run_many`` sweeps, and the once-per-process guarantee of the
window-table memo in :mod:`repro.intensity.api` that sits on top of it.
"""

from __future__ import annotations

import time

from repro.intensity import table_cache_info, trace_cache_clear, trace_cache_info
from repro.intensity.api import CarbonIntensityService
from repro.intensity.generator import generate_all_traces
from repro.session import Scenario, Session

#: Cached trace-set retrieval must beat cold generation by at least
#: this factor (cold is tens of milliseconds, a dict copy is micro-
#: seconds; 20x leaves two orders of magnitude of slack for CI noise).
MIN_CACHED_SPEEDUP = 20.0


def _cold_and_warm_seconds() -> tuple[float, float]:
    trace_cache_clear()
    t0 = time.perf_counter()
    generate_all_traces()
    cold = time.perf_counter() - t0
    t0 = time.perf_counter()
    generate_all_traces()
    warm = time.perf_counter() - t0
    return cold, warm


def test_trace_memoization_speedup(benchmark):
    """Warm generate_all_traces() must be >= 20x faster than cold."""
    cold, warm = _cold_and_warm_seconds()
    assert warm * MIN_CACHED_SPEEDUP < cold, (
        f"memoized trace set too slow: cold={cold * 1e3:.2f} ms, "
        f"warm={warm * 1e3:.2f} ms"
    )
    result = benchmark(generate_all_traces)
    assert len(result) == 7
    print(
        f"\ntrace set: cold {cold * 1e3:.2f} ms -> warm {warm * 1e3:.2f} ms "
        f"({cold / warm:.0f}x)"
    )


def test_service_construction_is_cheap_when_cached(benchmark):
    """CarbonIntensityService() stops regenerating the Table 3 set."""
    trace_cache_clear()
    CarbonIntensityService()  # pay the one-time generation
    before = trace_cache_info()
    service = benchmark(CarbonIntensityService)
    assert service.regions
    after = trace_cache_info()
    assert after.misses == before.misses, "cached construction regenerated traces"
    assert after.hits > before.hits


def test_run_many_generates_traces_once_per_seed(benchmark):
    """A 5-region x 3-policy sweep pays for exactly one generation."""
    from repro.cluster import WorkloadParams

    def sweep():
        trace_cache_clear()
        scenarios = [
            Scenario()
            .node("V100")
            .region(region)
            .workload(
                WorkloadParams(horizon_h=48.0, total_gpus=8, home_region=region),
                seed=3,
            )
            .policy(policy)
            for region in ("ESO", "CISO", "ERCOT", "MISO", "PJM")
            for policy in ("carbon-oblivious", "temporal-shifting", "geographic")
        ]
        return Session.run_many(scenarios)

    results = benchmark(sweep)
    assert len(results) == 15
    info = trace_cache_info()
    assert info.misses == 1, f"expected one generation, saw {info.misses}"
    assert info.hits == 14
    best = min(
        (outcome for r in results for outcome in r.scheduling.outcomes),
        key=lambda o: o.carbon_g,
    )
    print(f"\nsweep best: {best.policy} at {best.carbon_g:,.0f} gCO2")


def test_run_many_builds_each_window_table_once():
    """Sessions over one seed share every window table they request."""
    from repro.cluster import WorkloadParams

    trace_cache_clear()
    scenarios = [
        Scenario()
        .node("V100")
        .region(region)
        .workload(
            WorkloadParams(horizon_h=48.0, total_gpus=8, home_region=region),
            seed=3,
        )
        .policy(policy)
        for region in ("ESO", "CISO")
        for policy in ("temporal-shifting", "geographic")
    ]
    Session.run_many(scenarios)
    info = table_cache_info()
    assert info.builds == info.entries > 0, f"a table was built twice: {info}"
    assert info.hits > 0, f"no session reused another's table: {info}"
    print(f"\nwindow tables: {info.builds} built, {info.hits} shared hits")
