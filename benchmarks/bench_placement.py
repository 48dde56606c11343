"""Placement-kernel and sweep-executor benchmarks (perf trajectory).

Measures the three hot paths this repo's scheduling results sit behind:

1. *Placement kernel* — vectorized ``place_all`` vs the scalar ``place``
   reference on a month-long temporal+geographic workload (target:
   >= 10x, placements byte-identical).
2. *Simulator* — jobs/sec through the seed's incremental-timeline
   cluster simulator, the oracle ``tests/oracles.py`` keeps (the rate
   ``bench_cluster``'s engine floor is measured over).
3. *Sweep executor* — a 4-region × 4-policy ``Session.run_many`` with
   ``executor="process"`` vs serial (target: >= 2x, asserted only when
   the host actually has cores to parallelize over).

``python benchmarks/bench_placement.py --write`` records the numbers to
``BENCH_placement.json`` at the repo root; the committed file is the
perf baseline future PRs regress against (see ROADMAP's BENCH_*.json
convention).  The pytest entry points assert the speedup targets and
that the current build has not hard-regressed against the committed
baseline.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_placement.json"
#: The scalar simulator oracle lives with the tests (``tests/oracles.py``).
sys.path.append(str(REPO_ROOT / "tests"))

#: Month-long workload the kernel benchmark places.
WORKLOAD_DAYS = 28
SWEEP_REGIONS = ("ESO", "CISO", "ERCOT", "PJM")
SWEEP_POLICIES = (
    "carbon-oblivious",
    "temporal-shifting",
    "geographic",
    "carbon_aware",
)

#: Acceptance floors (see ISSUE 2).
MIN_PLACEMENT_SPEEDUP = 10.0
MIN_SWEEP_SPEEDUP = 2.0
#: A "hard regression" vs the committed baseline: CI machines vary a
#: lot, so only an order-of-magnitude collapse fails the smoke job.
BASELINE_FRACTION = 0.15


def _month_jobs():
    from repro.workloads.sources import WorkloadParams, generate_workload

    params = WorkloadParams(
        horizon_h=24.0 * WORKLOAD_DAYS,
        total_gpus=64,
        home_region="ESO",
        slack_fraction=3.0,
    )
    return generate_workload(params, seed=5)


def bench_placement_kernel() -> dict:
    """Scalar vs vectorized temporal+geographic placement of a month."""
    from repro.intensity.api import CarbonIntensityService
    from repro.scheduler.policies import TemporalGeographicPolicy

    service = CarbonIntensityService(forecast_error=0.03)
    jobs = _month_jobs()
    policy = TemporalGeographicPolicy(
        service, "ESO", regions=list(SWEEP_REGIONS)
    )
    policy.place_all(jobs[:4])  # warm the score tables for both paths
    [policy.place(job) for job in jobs[:4]]

    t0 = time.perf_counter()
    scalar = [policy.place(job) for job in jobs]
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = policy.place_all(jobs)
    vector_s = time.perf_counter() - t0

    return {
        "n_jobs": len(jobs),
        "scalar_jobs_per_s": len(jobs) / scalar_s,
        "vector_jobs_per_s": len(jobs) / vector_s,
        "speedup": scalar_s / vector_s,
        "byte_identical": scalar == batched,
    }


def bench_simulator() -> dict:
    """Jobs/sec through the incremental-timeline oracle simulator."""
    import oracles
    from repro.cluster.simulator import Cluster
    from repro.hardware.node import v100_node
    from repro.intensity.generator import generate_trace

    jobs = _month_jobs()
    cluster = Cluster(v100_node(), n_nodes=16)
    trace = generate_trace("ESO")
    t0 = time.perf_counter()
    result = oracles.simulate_cluster(
        jobs, cluster, horizon_h=24.0 * (WORKLOAD_DAYS + 4), intensity=trace
    )
    elapsed = time.perf_counter() - t0
    assert result.n_jobs == len(jobs)
    return {"n_jobs": len(jobs), "sim_jobs_per_s": len(jobs) / elapsed}


def _sweep_scenarios():
    from repro.workloads.sources import WorkloadParams
    from repro.session import Scenario

    return [
        Scenario()
        .node("V100")
        .region(region)
        .workload(
            WorkloadParams(
                horizon_h=24.0 * 14, total_gpus=32, home_region=region
            ),
            seed=3,
        )
        .policy(policy)
        for region in SWEEP_REGIONS
        for policy in SWEEP_POLICIES
    ]


def _sweep_fingerprints(results):
    return [
        (
            r.name,
            [
                (o.policy, o.carbon_g, o.energy_kwh, o.migrations)
                for o in r.scheduling.outcomes
            ],
        )
        for r in results
    ]


def bench_sweep_executor() -> dict:
    """Serial vs process-pool 4-region × 4-policy run_many sweep."""
    from repro.session import Session

    cpus = os.cpu_count() or 1
    # At least 2 workers so the pool machinery is actually exercised
    # (and measured) even on small hosts; the >= 2x assertion below is
    # gated on the host really having cores to parallelize over.
    workers = max(2, min(cpus, 4))

    t0 = time.perf_counter()
    serial = Session.run_many(_sweep_scenarios())
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = Session.run_many(
        _sweep_scenarios(), executor="process", max_workers=workers
    )
    process_s = time.perf_counter() - t0

    return {
        "n_scenarios": len(serial),
        "serial_s": serial_s,
        "process_s": process_s,
        "speedup": serial_s / process_s,
        "max_workers": workers,
        "cpus": cpus,
        "results_equal": _sweep_fingerprints(serial)
        == _sweep_fingerprints(parallel),
    }


def collect() -> dict:
    return {
        "schema": 1,
        "workload_days": WORKLOAD_DAYS,
        "placement": bench_placement_kernel(),
        "simulator": bench_simulator(),
        "sweep": bench_sweep_executor(),
        "python": sys.version.split()[0],
    }


# --- pytest entry points ----------------------------------------------------
def test_placement_kernel_speedup():
    stats = bench_placement_kernel()
    assert stats["byte_identical"], "vectorized placements diverged from scalar"
    assert stats["speedup"] >= MIN_PLACEMENT_SPEEDUP, (
        f"placement kernel only {stats['speedup']:.1f}x over scalar "
        f"(target {MIN_PLACEMENT_SPEEDUP:.0f}x)"
    )
    print(
        f"\nplacement: {stats['n_jobs']} jobs, "
        f"{stats['scalar_jobs_per_s']:,.0f} -> {stats['vector_jobs_per_s']:,.0f} "
        f"jobs/s ({stats['speedup']:.1f}x)"
    )


def test_sweep_executor_speedup():
    stats = bench_sweep_executor()
    assert stats["results_equal"], "process sweep diverged from serial"
    if stats["cpus"] >= 4:
        assert stats["speedup"] >= MIN_SWEEP_SPEEDUP, (
            f"process sweep only {stats['speedup']:.2f}x over serial "
            f"(target {MIN_SWEEP_SPEEDUP:.0f}x on {stats['cpus']} CPUs)"
        )
    print(
        f"\nsweep: {stats['n_scenarios']} scenarios, serial {stats['serial_s']:.2f}s "
        f"-> process {stats['process_s']:.2f}s "
        f"({stats['speedup']:.2f}x on {stats['cpus']} CPU(s))"
    )


def test_no_hard_regression_vs_baseline():
    """The committed BENCH_placement.json is the perf floor."""
    if not BASELINE_PATH.exists():
        import pytest

        pytest.skip("no committed BENCH_placement.json baseline")
    baseline = json.loads(BASELINE_PATH.read_text())
    current = bench_placement_kernel()
    floor = baseline["placement"]["vector_jobs_per_s"] * BASELINE_FRACTION
    assert current["vector_jobs_per_s"] >= floor, (
        f"placement throughput {current['vector_jobs_per_s']:,.0f} jobs/s fell "
        f"below {BASELINE_FRACTION:.0%} of the committed baseline "
        f"({baseline['placement']['vector_jobs_per_s']:,.0f} jobs/s)"
    )


if __name__ == "__main__":
    stats = collect()
    print(json.dumps(stats, indent=2))
    if "--write" in sys.argv:
        BASELINE_PATH.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
