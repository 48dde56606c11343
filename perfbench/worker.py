"""One fresh interpreter of the end-to-end benchmark.

``run.py`` starts this script as a child process; every child is a new
interpreter, so imports, the registry load and the trace memo start
cold.  The child runs one workload procedure, times each user-visible
operation, and writes a JSON record (timings, output digests, counters)
to ``--out``.  With ``--calibrate`` it also runs calibrations (see
:func:`calibration_s`) between the measured operations and records every
operation and calibration, in order, under ``events``.  With ``--trace
1`` it installs the span recorder of ``tracer.py`` before ``repro`` is
imported and also writes the spans.

Procedures (``--workload``):

* ``setup`` — imports, registry load and the first ``Scenario.build()``.
* ``cli-cold`` — one ``repro`` CLI command run in-process (traced runs).
* ``scenario-canonical`` — setup, then the canonical scenario cold, then
  built and run a second time.
* ``sweep-serial`` / ``sweep-pooled`` — setup, then passes over a grid:
  cold, warm (a fresh service on the same cache dir) and delta (the
  cluster simulator flipped), repeated with a fresh cache dir and
  cleared memos until ``--deadline`` (with ``--probe``: once).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import shutil
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent

#: The ROADMAP canonical scenario's policy set.
POLICIES = ("carbon-oblivious", "temporal-shifting", "geographic",
            "temporal+geographic")

#: CLI commands of ``cli-cold``; ``{seed}`` is the trace seed.
CLI_COMMANDS = {
    "audit": ["audit", "--system", "Frontier"],
    "scenario": ["scenario", "--system", "frontier", "--region", "ESO",
                 "--seed", "{seed}"],
}

#: Calibration runs back to back at each calibration point: one run
#: varies by ~10%, so a step is divided by the mean of the runs on either
#: side of it.
CALIBRATION_RUNS = 3

#: Sweep grid axes: system x region x policy x workload backend.
GRID_SYSTEMS = ("frontier", "lumi")
GRID_REGIONS = ("ESO", "CISO")
GRID_POLICIES = ("temporal-shifting", "geographic")
GRID_WORKLOADS = ("synthetic", "diurnal")
#: Each cell's workload: small enough that a pass is ~1 s on 2 CPUs.
GRID_HORIZON_H = 24.0
GRID_TOTAL_GPUS = 8
#: Cold/warm passes use the default simulator; the delta pass flips it.
COLD_SIMULATOR = "fcfs"
DELTA_SIMULATOR = "fcfs-columnar"


def canonical(seed: int, workload_seed: int):
    from repro.session import Scenario

    return (
        Scenario()
        .system("frontier")
        .node("A100")
        .region("ESO")
        .seed(seed)
        .workload("synthetic", seed=workload_seed)
        .policies(list(POLICIES))
        .cluster(16)
        .training("BERT", n_gpus=4)
        .upgrade("V100", "A100")
    )


def grid(seed: int, workload_seed: int, simulator: str):
    from repro.session import Scenario

    return [
        Scenario()
        .system(system)
        .node("A100")
        .region(region)
        .seed(seed)
        .workload(backend, seed=workload_seed, horizon_h=GRID_HORIZON_H,
                  total_gpus=GRID_TOTAL_GPUS)
        .policy(policy)
        .cluster(2, simulator=simulator)
        .training("BERT", n_gpus=4)
        .upgrade("V100", "A100")
        for system in GRID_SYSTEMS
        for region in GRID_REGIONS
        for policy in GRID_POLICIES
        for backend in GRID_WORKLOADS
    ]


def encode(results) -> bytes:
    """The byte form outputs are compared in."""
    return json.dumps(
        [None if r is None else r.to_dict() for r in results], sort_keys=True
    ).encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_bytes(path: pathlib.Path) -> int:
    if not path.exists():
        return 0
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def calibration_s() -> float:
    """Wall time of one in-process calibration run (~0.13 s).

    The host-speed yardstick of in-process steps: fixed numpy work shaped
    like a score-table build (window sums over a cumulative sum, a sort, a
    convolution) that runs no ``repro`` code, so no change to the program
    moves it.  The host's speed drifts by up to ~1.8x in phases of
    minutes, and this kernel slows with it as much as the scenario and
    sweep steps do (a fresh-interpreter yardstick does not track them).
    """
    import numpy as np  # after set-up, so set-up still pays the import

    data = np.random.default_rng(0).random(400_000)
    start = time.perf_counter()
    for _ in range(15):
        total = np.cumsum(data)
        np.sort(total[168:] - total[:-168])
        np.convolve(data[:20_000], data[:200], "valid")
    return time.perf_counter() - start


def clear_memos() -> None:
    """Drop the process-wide memos so the next pass starts cold."""
    from repro.intensity.generator import trace_cache_clear
    from repro.workloads import sources

    trace_cache_clear()
    sources._BATCH_MEMO.clear()  # the synthetic-family JobBatch memo


class Recorder:
    """Times operations; with a tracer, each operation is a root span."""

    def __init__(self, tracer, calibrating: bool = False) -> None:
        self.tracer = tracer
        self.calibrating = calibrating
        self.ops: dict = {}
        #: [kind, seconds] in the order run: operations and calibrations.
        self.events: list = []
        self.memo = [0, 0]

    def calibrate(self) -> None:
        if self.calibrating:
            for _ in range(CALIBRATION_RUNS):
                self.events.append(["calibration", calibration_s()])

    def _memo_info(self):
        module = sys.modules.get("repro.intensity.generator")
        if module is None:
            return 0, 0
        info = module.trace_cache_info()
        return info.hits, info.misses

    @contextlib.contextmanager
    def op(self, name: str):
        # Every operation starts from a collected heap: otherwise when the
        # next full collection lands decides whether a 10 ms warm pass
        # reads 7 ms or 13 ms.
        gc.collect()
        hits0, misses0 = self._memo_info()
        tracer = self.tracer
        index = None
        start = time.perf_counter()
        if tracer is not None:
            index = tracer.open(f"op:{name}")
            tracer.active = True
        try:
            yield
        finally:
            if tracer is not None:
                tracer.active = False
                tracer.close(index)
            elapsed = time.perf_counter() - start
            self.ops.setdefault(name, []).append(elapsed)
            self.events.append([name, elapsed])
            hits1, misses1 = self._memo_info()
            self.memo[0] += hits1 - hits0
            self.memo[1] += misses1 - misses0


def run_setup(rec: Recorder, first):
    """Imports, registry load and the first build; returns the session."""
    with rec.op("setup"):
        import repro.session  # noqa: F401  (imports are part of set-up)

        return first().build()


def run_cli(rec: Recorder, args, record: dict) -> None:
    argv = [part.format(seed=args.seed) for part in CLI_COMMANDS[args.cmd]]
    out = io.StringIO()
    with rec.op("cmd"), contextlib.redirect_stdout(out):
        import repro.cli

        rc = repro.cli.main(argv)
    record["rc"] = rc
    record["stdout"] = out.getvalue()
    record["result_bytes"] = len(record["stdout"].encode())


def run_canonical(rec: Recorder, args, record: dict) -> None:
    session = run_setup(rec, lambda: canonical(args.seed, args.workload_seed))
    rec.calibrate()
    with rec.op("cold"):
        cold = json.dumps(session.run().to_dict(), sort_keys=True).encode()
    with rec.op("rerun"):
        again = canonical(args.seed, args.workload_seed).build().run()
        rerun = json.dumps(again.to_dict(), sort_keys=True).encode()
    rec.calibrate()
    record["digests"] = {"cold": digest(cold), "rerun": digest(rerun)}
    record["result_bytes"] = len(cold) + len(rerun)
    record["rerun_equal"] = cold == rerun


def sweep_options(pooled: bool, cache_dir: pathlib.Path):
    """(service options, run options of computing passes) of one iteration."""
    if not pooled:
        return {"cache_dir": cache_dir}, {}
    workers = min(2, os.cpu_count() or 1)
    return (
        {"cache_dir": cache_dir, "executor": "shared", "max_workers": workers},
        {"retry": 1, "journal": cache_dir / "journal.jsonl"},
    )


def run_sweep(rec: Recorder, args, record: dict, work: pathlib.Path) -> None:
    from_seed = (args.seed, args.workload_seed)
    pooled = args.workload == "sweep-pooled"
    run_setup(rec, lambda: grid(*from_seed, COLD_SIMULATOR)[0])
    from repro.sweep import SweepService

    if args.reference:
        # What every pass must reproduce byte for byte: a cache-free recompute.
        ref = SweepService(cache=False)
        record["reference"] = {
            "grid": digest(encode(ref.run(grid(*from_seed, COLD_SIMULATOR)).results)),
            "delta": digest(encode(ref.run(grid(*from_seed, DELTA_SIMULATOR)).results)),
        }
    passes = []
    totals = {
        "cache_hits": 0, "cache_misses": 0, "section_hits": 0,
        "section_misses": 0, "section_hits_planned": 0,
        "section_misses_planned": 0,
    }
    iteration = 0
    while True:
        started = time.time()
        cache_dir = work / f"cache-{iteration}"
        os.environ["REPRO_HPC_CACHE_DIR"] = str(cache_dir)
        clear_memos()
        service_opts, run_opts = sweep_options(pooled, cache_dir)
        outputs = {}

        def one_pass(kind: str, cells, options):
            service = SweepService(**service_opts)
            with rec.op(kind):
                report = service.run(cells, **options)
            outputs.setdefault(kind, []).append(report)

        # One calibration point per iteration: the host drifts over
        # minutes, and an iteration takes 2-4 s.
        rec.calibrate()
        one_pass("cold", grid(*from_seed, COLD_SIMULATOR), run_opts)
        # The warm pass computes nothing, so it skips the journal (each
        # journal record is fsynced).
        one_pass("warm", grid(*from_seed, COLD_SIMULATOR), {})
        delta_cells = grid(*from_seed, DELTA_SIMULATOR)
        # Predicted section reuse, read before the delta pass: under a
        # pooled executor the report's own section counters stay at 0.
        for unit in SweepService(**service_opts).plan(delta_cells).units:
            for _name, hit in unit.section_hits or ():
                totals["section_hits_planned" if hit else "section_misses_planned"] += 1
        one_pass("delta", delta_cells, run_opts)

        for kind, reports in outputs.items():
            for report in reports:
                blob = encode(report.results)
                passes.append({"kind": kind, "digest": digest(blob),
                               "bytes": len(blob), "cells": report.n_cells,
                               "units": report.n_unique,
                               "failures": sum(len(f.indices) for f in report.failures)})
                totals["cache_hits"] += report.stats.hits
                totals["cache_misses"] += report.stats.misses
                for stats in (report.section_stats or {}).values():
                    totals["section_hits"] += stats.hits
                    totals["section_misses"] += stats.misses
        record["disk"] = {
            "cache_bytes": dir_bytes(cache_dir / "results")
            + dir_bytes(cache_dir / "sections"),
            "store_bytes": dir_bytes(cache_dir / "store"),
            "journal_bytes": dir_bytes(cache_dir / "journal.jsonl"),
        }
        shutil.rmtree(cache_dir, ignore_errors=True)
        iteration += 1
        last = time.time() - started
        if args.probe or time.time() + last > args.deadline:
            break
    record["passes"] = passes
    record["result_bytes"] = sum(item["bytes"] for item in passes)
    record["totals"] = totals
    record["workers"] = sweep_options(pooled, work)[0].get("max_workers", 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--out", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="one sweep iteration only (traced runs)")
    parser.add_argument("--reference", action="store_true",
                        help="also recompute the sweep grids without a cache")
    parser.add_argument("--deadline", type=float, default=0.0)
    parser.add_argument("--calibrate", action="store_true",
                        help="run calibrations between the measured operations")
    parser.add_argument("--cmd", choices=sorted(CLI_COMMANDS))
    args = parser.parse_args()

    work = pathlib.Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    # Isolation: never read or write the user's ~/.cache/repro-hpc.
    os.environ["REPRO_HPC_CACHE_DIR"] = str(work / "cache")
    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        import tracer as tracing

        tracer = tracing.install()
    rec = Recorder(tracer, args.calibrate)
    record: dict = {"workload": args.workload}
    if args.workload == "setup":
        run_setup(rec, lambda: canonical(args.seed, args.workload_seed))
    elif args.workload == "cli-cold":
        run_cli(rec, args, record)
    elif args.workload == "scenario-canonical":
        run_canonical(rec, args, record)
    else:
        run_sweep(rec, args, record, work)
    record["ops"] = rec.ops
    record["events"] = rec.events
    record["trace_memo"] = {"hits": rec.memo[0], "misses": rec.memo[1]}
    if tracer is not None:
        spans_path = work / "spans.json"
        tracer.write(str(spans_path))
        record["spans_file"] = str(spans_path)
        record["score_distinct"] = len(tracer.score_keys)
    pathlib.Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
