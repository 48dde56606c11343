"""Quickstart: the carbon footprint of one GPU node, end to end.

Covers the library's core loop in ~40 lines, driven through the
canonical :class:`repro.Scenario` facade:

1. look up hardware in the catalog (paper Table 1 / Table 5),
2. declare a scenario — an A100 node on the UK grid training BERT —
   and run it: embodied carbon (Eq. 2-5) and metered operational
   carbon (Eq. 6, carbontracker-style) come back in one typed result,
3. combine both into the Eq. 1 total.

Run:  python examples/quickstart.py
"""

from repro import Scenario
from repro.core import FootprintReport, format_co2
from repro.hardware import GPU_A100, a100_node

# --- 1. one part's embodied carbon ---------------------------------------
breakdown = GPU_A100.embodied()
print(f"{GPU_A100.part_name}:")
print(f"  manufacturing : {format_co2(breakdown.manufacturing_g)}")
print(f"  packaging     : {format_co2(breakdown.packaging_g)}")
print(f"  total embodied: {format_co2(breakdown.total_g)}")
print(f"  per FP64 TFLOPS: {format_co2(GPU_A100.embodied_per_tflop())}")

# --- 2+3. one scenario: the node, its grid, and a training run -------------
result = (
    Scenario()
    .node("A100")                 # node backend from the registry
    .region("ESO")                # hourly 2021 carbon intensity, Great Britain
    .training("BERT", epochs=3)
    .run()
)

node = a100_node()
print(f"\nNode '{result.embodied.subject}' ({node.gpu_count} GPUs, {node.cpu_count} CPUs):")
for cls, grams in result.embodied.by_class_g.items():
    print(f"  {cls:5s} {format_co2(grams)}")

run = result.training.result
print(
    f"\nTraining {run.model_name} for {run.epochs} epochs on {run.n_gpus} GPUs: "
    f"{run.duration_h:.2f} h, {run.energy}, {run.carbon}"
)

# --- 4. the Eq. 1 total ----------------------------------------------------
report = FootprintReport(
    embodied_g=result.embodied.total_g,
    operational_g=result.training.operational_g,
)
print(f"\n{report}")
print(
    f"Embodied share {report.embodied_share:.1%} — one training run barely "
    "dents the node's manufacturing footprint; amortization takes years of "
    "sustained use (see examples/upgrade_planning.py)."
)

# --- 5. beyond a constant PUE ----------------------------------------------
# Facility overhead varies with weather and load (paper Sec. 6); the
# `pue` registry kind swaps the constant simplification for an hourly
# model.  `.pue(1.2)` keeps the exact constant arithmetic, while
# `.pue("seasonal", amplitude=0.08)` charges every section — audits,
# scheduling, cluster sims — through a winter/summer cooling swing.
constant = Scenario().system("perlmutter").region("CISO").pue(1.2).run()
seasonal = (
    Scenario()
    .system("perlmutter")
    .region("CISO")
    .pue("seasonal", mean=1.2, amplitude=0.08)
    .run()
)
drift = seasonal.audit.operational_g / constant.audit.operational_g - 1.0
print(
    f"\nSeasonal PUE (mean 1.2, swing +/-0.08) moves Perlmutter's 5-year "
    f"operational audit by {drift:+.2%} vs the constant-PUE estimate."
)

# --- 6. beyond one arrival model -------------------------------------------
# Workloads are a registry kind too: `.workload(<key>, **options)` swaps
# the job generator the way `.pue(...)` swaps the overhead model.  Here
# the same cluster week is offered Poisson arrivals and a time-of-day
# modulated (diurnal) mix at 60% target usage — the paper's high-usage
# level — and the temporal shifter is scored on both.
by_arrivals = {}
for key in ("synthetic", "diurnal"):
    outcome = (
        Scenario()
        .node("A100")
        .region("ESO")
        .workload(key, horizon_h=24.0 * 7, total_gpus=8, target_usage=0.6)
        .policy("temporal-shifting")
        .run()
    )
    by_arrivals[key] = outcome.scheduling.best()
print("\nTemporal shifting under two arrival models (same offered load):")
for key, best in by_arrivals.items():
    print(
        f"  {key:9s} {best.carbon_g / 1000:7.2f} kgCO2 "
        f"({best.savings_fraction:+.1%} vs run-at-submit)"
    )

# --- 7. beyond one scheduling discipline ------------------------------------
# Cluster simulators are a registry kind as well: `fcfs` (the default)
# is plan-ahead FCFS earliest-fit, `backfill` EASY backfill — queued
# jobs jump ahead only when they cannot delay the head job's
# reservation — and two operate-on-carbon disciplines:
# `carbon-aware` (alias `green`) delays each job within its slack
# budget toward the greenest forward-window start, and `power-cap`
# (alias `capped`) holds cluster-wide busy GPUs under a fraction of
# capacity.  Sweeping the discipline is one key swap; per-discipline
# knobs ride along as keyword arguments and land in provenance.
by_discipline = {}
for sim, opts in (
    ("fcfs", {}),
    ("backfill", {}),
    ("carbon-aware", {"slack_h": 24.0}),
    ("power-cap", {"cap_fraction": 0.8}),
):
    outcome = (
        Scenario()
        .node("A100")
        .region("ESO")
        .workload("bursty", horizon_h=24.0 * 7, total_gpus=8,
                  target_usage=0.6)
        .cluster(2, simulator=sim, **opts)
        .seed(7)
        .run()
    )
    by_discipline[sim] = outcome.cluster
print("\nOne bursty cluster week, one discipline per row:")
for sim, section in by_discipline.items():
    print(
        f"  {sim:13s} mean wait {section.mean_wait_h:5.2f} h, "
        f"usage {section.average_usage:.1%}, "
        f"{section.carbon_g / 1000:.2f} kgCO2"
    )

# --- 8. grids as data: the sweep service ------------------------------------
# Whole scenario grids are declarative (repro.sweep): a three-line spec
# — base knobs plus axes — expands into fingerprint-deduplicated cells,
# and results are cached under each cell's provenance hash, so re-runs
# (and overlapping grids) are served from disk instead of recomputed.
# The same spec drives the CLI:  repro-hpc sweep run grid.yaml
import tempfile

from repro.sweep import SweepService

spec = {
    "base": {"node": "A100", "region": "ESO", "seed": 7,
             "workload": "synthetic",
             "workload_opts": {"horizon_h": 48.0, "total_gpus": 8}},
    "axes": {"policy": ["carbon-oblivious", "temporal-shifting"]},
}
with tempfile.TemporaryDirectory() as cache_dir:
    service = SweepService(cache_dir=cache_dir)
    cold = service.run(spec)
    warm = service.run(spec)
print(
    f"\nSweep grid: {cold.n_cells} cells ran cold ({cold.n_ran} computed); "
    f"the re-run served {warm.stats.hits} from cache and computed "
    f"{warm.n_ran}."
)

# --- 9. resilient sweeps -----------------------------------------------------
# Long grids survive flaky cells (repro.resilience): a retry budget with
# seeded-jitter backoff and per-unit deadlines wraps every cell, crashed
# pool workers are rebuilt and only unfinished cells re-dispatched, and a
# JSONL journal lets an interrupted sweep resume without recomputing
# finished cells.  Failures come back as structured entries on the
# report instead of killing the run.  From the CLI:
#   repro-hpc sweep run grid.yaml --retries 2 --unit-timeout 300 \
#       --journal sweep.jsonl
#   repro-hpc sweep run grid.yaml --resume sweep.jsonl   # after a crash
import pathlib

with tempfile.TemporaryDirectory() as tmp:
    journal = pathlib.Path(tmp) / "sweep.jsonl"
    service = SweepService(cache=False)
    first = service.run(spec, retry=2, journal=journal)
    resumed = service.run(spec, resume=journal)
print(
    f"\nResilient sweep: {first.n_ran} cells computed under a retry "
    f"budget; the resumed run skipped {resumed.n_skipped} journaled "
    f"cells and recomputed {resumed.n_ran}."
)

# --- 10. delta sweeps --------------------------------------------------------
# Cells that differ only in a late-stage knob don't recompute the
# pipeline.  Every result section (embodied, audit, training,
# scheduling, cluster, upgrade, carbon) carries its own fingerprint
# over just the knobs it reads, and the cache stores section payloads
# alongside whole results — so when the second grid below swaps the
# renderer, each cell misses the whole-result cache but assembles
# byte-identically from cached sections, skipping the month-long
# cluster simulation entirely.  On by default whenever the cache is on;
# `repro-hpc sweep run grid.yaml --no-delta` opts out, and
# `repro-hpc sweep plan grid.yaml` predicts the per-cell section hits.
month = {
    "base": {"node": "A100", "region": "ESO", "seed": 7,
             "workload": "synthetic",
             "workload_opts": {"horizon_h": 720.0, "total_gpus": 8},
             "policies": ["carbon-oblivious"],
             "cluster": {"n_nodes": 4, "simulator": "columnar"},
             "window_h": 720.0},
    "axes": {"pue": [1.1, 1.25, 1.4]},
}
with tempfile.TemporaryDirectory() as cache_dir:
    service = SweepService(cache_dir=cache_dir)
    service.run(month)  # cold: three month-long simulations
    month["axes"]["renderer"] = ["json"]  # late-stage knob flip
    report = service.run(month)
    reused = sum(s.hits for s in report.section_stats.values())
    recomputed = sum(s.misses for s in report.section_stats.values())
print(
    f"\nDelta sweep: the renderer flip re-ran {report.n_ran} cells but "
    f"reused {reused} cached section payloads ({recomputed} recomputed) "
    "— assembly instead of simulation."
)
