"""Sweep-service benchmarks: result cache and delta grids.

Measures the wins the ``repro.sweep`` subsystem exists for:

1. *Warm-cache re-runs* — wall-time of the canonical 2-system x
   2-policy x 2-workload grid cold (every cell computed) vs warm (every
   cell served from the provenance-keyed disk cache).  The acceptance
   floor: warm must be at least 10x faster.
2. *Delta grids* (schema 2) — a grid varying only late-stage knobs
   (``accounting``/``pue``/``renderer``) over one fixed expensive
   cluster workload, evaluated cold (every cell a full recompute) vs
   through the section tier (every cell misses the whole-result cache
   but assembles from cached section payloads).  The acceptance floor:
   delta must beat cold by at least 2x (``DELTA_SPEEDUP_FLOOR``),
   byte-identically.

``python benchmarks/bench_sweep.py --write`` records the numbers to
``BENCH_sweep.json`` at the repo root; the committed file is the perf
baseline future PRs regress against (see ROADMAP's BENCH_*.json
convention).
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_sweep.json"

#: Warm runs must beat cold by at least this factor (the PR 6
#: acceptance criterion: a cache hit skips the whole pipeline).
WARM_SPEEDUP_FLOOR = 10.0

#: A "hard regression" vs the committed baseline: CI machines vary a
#: lot, so only an order-of-magnitude collapse fails the smoke job.
BASELINE_FRACTION = 0.15

#: Delta re-runs (section assembly only) must beat cold full recomputes
#: by at least this factor.  The cold arm runs after the warm pass, so
#: the process-wide table memo already holds every window table it
#: reads and the arm pays for compute only: 4-6x on a 2-CPU box, with
#: room under it for CI noise.
DELTA_SPEEDUP_FLOOR = 2.0

#: The canonical grid: 2 systems x 2 policies x 2 workloads.
_GRID_SPEC = {
    "name": "bench",
    "base": {
        "node": "V100",
        "region": "ESO",
        "seed": 7,
        "workload_opts": {"horizon_h": 48.0, "total_gpus": 8},
    },
    "axes": {
        "system": ["frontier", "perlmutter"],
        "policy": ["carbon-oblivious", "temporal+geographic"],
        "workload": ["synthetic", "diurnal"],
    },
}


def bench_cache_grid() -> dict:
    """Cold vs warm-cache wall-time over the canonical 8-cell grid."""
    from repro.intensity.generator import trace_cache_clear
    from repro.sweep import SweepService

    # Cold means cold memos in a warmed-up interpreter: one untimed cell
    # pays the one-time imports (the backend modules), which only the
    # first call in a process would otherwise time, then the memos are
    # dropped so no trace or table an earlier run built serves the arm.
    first_cell = {knob: values[0] for knob, values in _GRID_SPEC["axes"].items()}
    SweepService(cache=False).run(
        {"name": "bench-warmup", "base": {**_GRID_SPEC["base"], **first_cell}}
    )
    trace_cache_clear()
    with tempfile.TemporaryDirectory() as tmp:
        service = SweepService(cache_dir=pathlib.Path(tmp) / "cache")
        t0 = time.perf_counter()
        cold = service.run(_GRID_SPEC)
        cold_s = time.perf_counter() - t0

        # A fresh service against the same directory: disk tier only,
        # the cross-process re-run shape.
        warm_service = SweepService(cache_dir=pathlib.Path(tmp) / "cache")
        t0 = time.perf_counter()
        warm = warm_service.run(_GRID_SPEC)
        warm_s = time.perf_counter() - t0

    return {
        "n_cells": cold.n_cells,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": cold_s / warm_s,
        "cold_ran": cold.n_ran,
        "warm_hits": warm.stats.hits,
    }


#: One fixed, deliberately expensive cluster workload; the delta axes
#: below touch nothing the simulation depends on except via sections.
_DELTA_BASE = {
    "node": "V100",
    "region": "ESO",
    "seed": 7,
    "workload": "synthetic",
    "workload_opts": {"horizon_h": 72.0, "total_gpus": 32},
    "workload_seed": 11,
    "policies": ["carbon-oblivious", "temporal+geographic"],
    "cluster": {"n_nodes": 16, "simulator": "columnar"},
    "window_h": 72.0,
}


def _delta_spec(renderers: list) -> dict:
    return {
        "name": "bench-delta",
        "base": dict(_DELTA_BASE),
        "axes": {
            "accounting": ["vectorized", "ledger"],
            "pue": [1.1, 1.25],
            "renderer": renderers,
        },
    }


def bench_delta_grid() -> dict:
    """Cold full recompute vs section-assembled delta over 8 cells.

    The warm pass (renderer ``text``, untimed) populates the section
    tier for every (accounting, pue) combination *and* the module-level
    trace/workload memos, so the two timed passes compare pure compute
    against pure assembly, not memo warm-up noise.  The delta pass's
    cells (renderers ``json``/``markdown``) all miss the whole-result
    cache — section assembly is the only thing saving them work.
    """
    from repro.sweep import SweepService

    timed_spec = _delta_spec(["json", "markdown"])
    with tempfile.TemporaryDirectory() as tmp:
        service = SweepService(cache_dir=pathlib.Path(tmp) / "cache")
        service.run(_delta_spec(["text"]))  # warm sections + memos

        direct = SweepService(cache=False)
        t0 = time.perf_counter()
        cold = direct.run(timed_spec)
        cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        delta = service.run(timed_spec)
        delta_s = time.perf_counter() - t0

        section_hits = sum(s.hits for s in delta.section_stats.values())
        section_misses = sum(
            s.misses for s in delta.section_stats.values()
        )
    identical = [
        json.dumps(a.to_dict(), sort_keys=True)
        == json.dumps(b.to_dict(), sort_keys=True)
        for a, b in zip(cold.results, delta.results)
    ]
    return {
        "n_cells": cold.n_cells,
        "cold_s": cold_s,
        "delta_s": delta_s,
        "speedup": cold_s / delta_s,
        "delta_ran": delta.n_ran,
        "section_hits": section_hits,
        "section_misses": section_misses,
        "identical": all(identical),
    }


def collect() -> dict:
    return {
        "schema": 2,
        "cache_grid": bench_cache_grid(),
        "delta_grid": bench_delta_grid(),
        "python": sys.version.split()[0],
    }


# --- pytest entry points ----------------------------------------------------
def test_warm_cache_grid_is_10x_faster():
    """The PR 6 acceptance criterion, asserted in quick mode."""
    stats = bench_cache_grid()
    assert stats["cold_ran"] == stats["n_cells"]
    assert stats["warm_hits"] == stats["n_cells"]
    assert stats["speedup"] >= WARM_SPEEDUP_FLOOR, (
        f"warm-cache grid only {stats['speedup']:.1f}x faster than cold "
        f"(floor {WARM_SPEEDUP_FLOOR:.0f}x): cold {stats['cold_s']:.2f}s, "
        f"warm {stats['warm_s']:.2f}s"
    )
    print(
        f"\ncache grid: {stats['n_cells']} cells, cold {stats['cold_s']:.2f}s "
        f"-> warm {stats['warm_s']:.3f}s ({stats['speedup']:.0f}x)"
    )


def test_delta_rerun_is_5x_faster():
    """The PR 10 acceptance criterion, asserted in quick mode."""
    stats = bench_delta_grid()
    assert stats["identical"], (
        "section-assembled results diverged from the full recompute"
    )
    assert stats["delta_ran"] == stats["n_cells"]
    assert stats["section_misses"] == 0, (
        f"{stats['section_misses']} section misses — the warm pass did "
        "not cover the delta grid"
    )
    assert stats["speedup"] >= DELTA_SPEEDUP_FLOOR, (
        f"delta grid only {stats['speedup']:.1f}x faster than cold "
        f"(floor {DELTA_SPEEDUP_FLOOR:.0f}x): cold {stats['cold_s']:.2f}s, "
        f"delta {stats['delta_s']:.2f}s"
    )
    print(
        f"\ndelta grid: {stats['n_cells']} cells, cold {stats['cold_s']:.2f}s "
        f"-> delta {stats['delta_s']:.3f}s ({stats['speedup']:.0f}x, "
        f"{stats['section_hits']} section hits)"
    )


def test_no_hard_regression_vs_baseline():
    """The committed BENCH_sweep.json is the perf floor."""
    if not BASELINE_PATH.exists():
        import pytest

        pytest.skip("no committed BENCH_sweep.json baseline")
    baseline = json.loads(BASELINE_PATH.read_text())
    current = bench_cache_grid()
    floor = baseline["cache_grid"]["speedup"] * BASELINE_FRACTION
    assert current["speedup"] >= floor, (
        f"warm-cache speedup {current['speedup']:.1f}x fell below "
        f"{BASELINE_FRACTION:.0%} of the committed baseline "
        f"({baseline['cache_grid']['speedup']:.1f}x)"
    )


if __name__ == "__main__":
    stats = collect()
    print(json.dumps(stats, indent=2))
    if "--write" in sys.argv:
        BASELINE_PATH.write_text(json.dumps(stats, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
