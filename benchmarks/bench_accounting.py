"""Carbon-ledger charging benchmarks (perf trajectory).

PR 2 batched the *decision* side of scheduling (the placement kernels);
the accounting subsystem batches the *charging* side.  This benchmark
measures it:

1. *Charging kernel* — the ``vectorized`` engine (truth-table gathers)
   vs ``ScalarReferenceChargingEngine`` (the seed per-job slice-and-mean
   loop, kept as the test oracle) on the placements of a 28-day
   multi-region temporal+geographic workload (target: >= 10x, charges
   byte-identical).
2. *End-to-end* — ``evaluate_policy`` wall clock with both engines
   (placement + validation + charging + ledger).

``python benchmarks/bench_accounting.py --write`` records the numbers
to ``BENCH_accounting.json`` at the repo root; the committed file is
the perf baseline the CI bench-smoke job replays in quick mode (see
ROADMAP's BENCH_*.json convention).
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_accounting.json"

#: Month-long workload whose placements the engines charge.
WORKLOAD_DAYS = 28
REGIONS = ("ESO", "CISO", "ERCOT", "PJM")

#: Acceptance floors (see ISSUE 3).
MIN_CHARGING_SPEEDUP = 10.0
#: A "hard regression" vs the committed baseline: CI machines vary a
#: lot, so only an order-of-magnitude collapse fails the smoke job.
BASELINE_FRACTION = 0.15


def _setup():
    from repro.workloads.sources import WorkloadParams, generate_workload
    from repro.hardware.node import v100_node
    from repro.intensity.api import CarbonIntensityService
    from repro.scheduler.policies import TemporalGeographicPolicy

    service = CarbonIntensityService(forecast_error=0.03)
    # A production-scale month: 256 GPUs of submissions keeps the job
    # count high enough that per-call overheads are amortized on both
    # engines (the scalar engine's cost is linear in jobs either way).
    jobs = generate_workload(
        WorkloadParams(
            horizon_h=24.0 * WORKLOAD_DAYS,
            total_gpus=256,
            home_region="ESO",
            slack_fraction=3.0,
        ),
        seed=5,
    )
    policy = TemporalGeographicPolicy(service, "ESO", regions=list(REGIONS))
    return service, jobs, policy, v100_node()


def bench_charging_kernel() -> dict:
    """Vectorized vs scalar-reference charging of one placement set."""
    import numpy as np

    from repro.accounting import VectorizedChargingEngine
    from repro.accounting.engines import ScalarReferenceChargingEngine
    from repro.scheduler.policies import place_jobs

    service, jobs, policy, node = _setup()
    placements = place_jobs(policy, jobs)
    kwargs = dict(service=service, node=node)

    vectorized = VectorizedChargingEngine()
    scalar = ScalarReferenceChargingEngine()
    vectorized.charge(jobs[:4], placements[:4], **kwargs)  # warm tables
    scalar.charge(jobs[:4], placements[:4], **kwargs)

    t0 = time.perf_counter()
    reference = scalar.charge(jobs, placements, **kwargs)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    charges = vectorized.charge(jobs, placements, **kwargs)
    vector_s = time.perf_counter() - t0

    identical = bool(
        np.array_equal(charges.carbon_g, reference.carbon_g)
        and np.array_equal(charges.energy_kwh, reference.energy_kwh)
    )
    return {
        "n_jobs": len(jobs),
        "regions": len({p.region for p in placements}),
        "scalar_jobs_per_s": len(jobs) / scalar_s,
        "vector_jobs_per_s": len(jobs) / vector_s,
        "speedup": scalar_s / vector_s,
        "byte_identical": identical,
    }


def bench_evaluate_policy() -> dict:
    """End-to-end evaluate_policy with each accounting engine."""
    from repro.accounting import VectorizedChargingEngine
    from repro.accounting.engines import ScalarReferenceChargingEngine
    from repro.scheduler.evaluation import evaluate_policy
    from repro.scheduler.policies import place_jobs

    service, jobs, policy, node = _setup()
    place_jobs(policy, jobs)  # warm the placement score tables for both runs
    engines = {
        "scalar-reference": ScalarReferenceChargingEngine(),
        "vectorized": VectorizedChargingEngine(),
    }
    timings = {}
    totals = {}
    for backend, engine in engines.items():
        evaluate_policy(jobs[:4], policy, service, node, accounting=engine)
        t0 = time.perf_counter()
        evaluation = evaluate_policy(
            jobs, policy, service, node, accounting=engine
        )
        timings[backend] = time.perf_counter() - t0
        totals[backend] = evaluation.total_carbon.grams
    return {
        "n_jobs": len(jobs),
        "scalar_s": timings["scalar-reference"],
        "vector_s": timings["vectorized"],
        "speedup": timings["scalar-reference"] / timings["vectorized"],
        "totals_equal": totals["scalar-reference"] == totals["vectorized"],
    }


def collect() -> dict:
    return {
        "schema": 1,
        "workload_days": WORKLOAD_DAYS,
        "charging": bench_charging_kernel(),
        "evaluate_policy": bench_evaluate_policy(),
        "python": sys.version.split()[0],
    }


# --- pytest entry points ----------------------------------------------------
def test_charging_kernel_speedup():
    stats = bench_charging_kernel()
    assert stats["byte_identical"], "vectorized charges diverged from scalar"
    assert stats["regions"] > 1, "workload did not exercise multiple regions"
    assert stats["speedup"] >= MIN_CHARGING_SPEEDUP, (
        f"charging kernel only {stats['speedup']:.1f}x over the "
        f"scalar-reference backend (target {MIN_CHARGING_SPEEDUP:.0f}x)"
    )
    print(
        f"\ncharging: {stats['n_jobs']} jobs over {stats['regions']} regions, "
        f"{stats['scalar_jobs_per_s']:,.0f} -> {stats['vector_jobs_per_s']:,.0f} "
        f"jobs/s ({stats['speedup']:.1f}x)"
    )


def test_end_to_end_totals_equal():
    stats = bench_evaluate_policy()
    assert stats["totals_equal"], "backends disagreed on evaluation totals"
    print(
        f"\nevaluate_policy: {stats['n_jobs']} jobs, "
        f"{stats['scalar_s']:.3f}s -> {stats['vector_s']:.3f}s "
        f"({stats['speedup']:.1f}x)"
    )


def test_no_hard_regression_vs_baseline():
    """The committed BENCH_accounting.json is the perf floor."""
    if not BASELINE_PATH.exists():
        import pytest

        pytest.skip("no committed BENCH_accounting.json baseline")
    baseline = json.loads(BASELINE_PATH.read_text())
    current = bench_charging_kernel()
    floor = baseline["charging"]["vector_jobs_per_s"] * BASELINE_FRACTION
    assert current["vector_jobs_per_s"] >= floor, (
        f"charging throughput {current['vector_jobs_per_s']:,.0f} jobs/s fell "
        f"below {BASELINE_FRACTION:.0%} of the committed baseline "
        f"({baseline['charging']['vector_jobs_per_s']:,.0f} jobs/s)"
    )


if __name__ == "__main__":
    stats = collect()
    print(json.dumps(stats, indent=2))
    if "--write" in sys.argv:
        BASELINE_PATH.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
