"""End-to-end benchmark of ``repro``: cold CLI, the canonical scenario, sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/repro`` must exist).  Every
workload is one closed loop: a single caller, and the next operation
starts when the previous one returns.  Operations run in fresh child
interpreters (``worker.py``) with a fresh cache directory under
``perfbench/.work`` and ``REPRO_HPC_CACHE_DIR`` pointed at it, so no run
reads ``~/.cache/repro-hpc`` and no warm user cache turns a cold number
warm.

``--trace 0`` measures the end-to-end metrics with tracing off and
checks every output.  On a shared host the CPU speed drifts by up to
~1.8x in phases of minutes, longer than a run, so raw step times move
with the host rather than the program.  The run therefore interleaves
calibrations, fixed work that runs no ``repro`` code, with the measured
operations, and ``step1_rel`` / ``step2_rel`` are each step's wall time
divided by the mean of the calibration runs on either side of it.
Each yardstick matches the kind of work it calibrates: a fresh
interpreter importing ``numpy`` (:data:`CLI_CALIBRATION`) for the CLI
commands, an in-process numpy kernel (``worker.calibration_s``) for
scenario and sweep steps.  ``setup_s`` and ``peak_rss_mb`` stay raw.
Each metric's value is the median of its samples in the run; the table
also prints the sample count, median and maximum, and the raw step and
calibration seconds.
``--trace 1`` runs untraced and traced probes in turn and reports
per-layer metrics from the traced spans.  The last line
of standard output is one JSON object; the lines before it are a table
for people.  The exit code is 1 when an output check fails.

``--seed`` is the trace-generation seed every scenario uses (default
2021, the study seed); ``--workload-seed`` is the job-generator seed
(default 7, which gives the canonical 2325-job month).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
from worker import CALIBRATION_RUNS, CLI_COMMANDS  # noqa: E402

DEFAULT_SEED = 2021
DEFAULT_WORKLOAD_SEED = 7
WORKLOADS = ("cli-cold", "scenario-canonical", "sweep-serial", "sweep-pooled")
#: A run never outlives this, whatever ``--seconds`` says.
HARD_LIMIT_S = 170.0
#: The yardstick of the cold CLI commands: a fresh interpreter that
#: imports ``numpy`` (~0.15 s), which slows with the host as their
#: start-up and imports do.
CLI_CALIBRATION = ["-c", "import numpy"]
#: Fresh-interpreter set-ups measured per run.
SETUP_SAMPLES = 3
#: Child interpreters per sweep run; each one sets up once.
SWEEP_CHILDREN = 3

#: Operation -> step, per workload (worker op names; CLI command names).
STEPS = {
    "cli-cold": {"audit": "step1", "scenario": "step2"},
    "scenario-canonical": {"cold": "step1", "rerun": "step2"},
    "sweep-serial": {"cold": "step1", "delta": "step2"},
    "sweep-pooled": {"cold": "step1", "delta": "step2"},
}
#: Step -> what it measures on each workload.
MEASURES = {
    "step1": {"cli-cold": "cli_audit", "scenario-canonical": "scenario_cold",
              "sweep-serial": "sweep_cold", "sweep-pooled": "pooled_cold"},
    "step2": {"cli-cold": "cli_scenario", "scenario-canonical": "scenario_rerun",
              "sweep-serial": "sweep_delta", "sweep-pooled": "pooled_delta"},
}
#: End-to-end metric (what the result line reports) -> unit.
END_TO_END = {"setup_s": "s", "step1_rel": "ratio", "step2_rel": "ratio",
              "peak_rss_mb": "MB"}
#: Raw seconds the table prints beside them.
RAW = {"step1_s": "s", "step2_s": "s", "calibration_s": "s"}

#: Span bucket -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "import.modules": "import.modules_s",
    "cli.main": "cli.main_self_s",
    "session.registry_load": "session.registry_load_s",
    "session.build": "session.build_s",
    "session.run": "session.run_self_s",
    "session.to_dict": "session.to_dict_s",
    "session.fingerprint": "session.fingerprint_s",
    "intensity.traces": "intensity.traces_s",
    "intensity.score_table": "intensity.score_table_s",
    "intensity.truth_table": "intensity.truth_table_s",
    "workloads.generate": "workloads.generate_s",
    "workloads.training": "workloads.training_s",
    "scheduler.evaluate_policy": "scheduler.evaluate_policy_s",
    "accounting.charge": "accounting.charge_s",
    "cluster.simulate": "cluster.simulate_s",
    "upgrade.evaluate": "upgrade.evaluate_s",
    "analysis.audit": "analysis.audit_s",
    "analysis.render": "analysis.render_s",
    "sweep.run": "sweep.run_self_s",
    "sweep.plan": "sweep.plan_s",
    "sweep.cache_get": "sweep.cache_get_s",
    "sweep.cache_put": "sweep.cache_put_s",
    "sweep.section_get": "sweep.section_get_s",
    "sweep.section_put": "sweep.section_put_s",
    "sweep.store_ensure": "sweep.store_ensure_s",
    "resilience.run": "resilience.run_self_s",
}

#: Counters the tracer keeps, reported under the same names.
TRACER_COUNTS = (
    "session.build_calls", "session.fingerprint_calls",
    "intensity.score_table_calls", "intensity.score_table_builds",
    "intensity.truth_table_builds", "workloads.jobs",
    "scheduler.evaluate_policy_calls", "accounting.charge_calls",
    "sweep.cache_put_calls", "sweep.delta_forced_live",
    "resilience.attempts", "resilience.rebuilds",
)


def per_layer_units():
    """Per-layer metric -> unit (the order of the printed table)."""
    units = {"import.cli_s": "s", "import.scipy_s": "s"}
    units.update({name: "s" for name in SELF_TIME_METRICS.values()})
    units.update({name: "count" for name in TRACER_COUNTS})
    units.update({
        "intensity.trace_memo_hits": "count",
        "intensity.trace_memo_misses": "count",
        "intensity.score_table_distinct": "count",
        "intensity.score_table_waste": "ratio",
        "cluster.sim_jobs_per_s": "1/s",
        "session.result_bytes": "bytes",
        "sweep.warm_pass_s": "s",
        "sweep.cells": "count",
        "sweep.units": "count",
        "sweep.cache_hits": "count",
        "sweep.cache_misses": "count",
        "sweep.cache_disk_bytes": "bytes",
        "sweep.section_hits": "count",
        "sweep.section_misses": "count",
        "sweep.section_hits_planned": "count",
        "sweep.section_misses_planned": "count",
        "sweep.delta_forced_ratio": "ratio",
        "sweep.store_bytes": "bytes",
        "resilience.journal_bytes": "bytes",
        "executors.workers": "count",
        "untraced_s": "s",
        "trace.e2e_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


# --- child processes ----------------------------------------------------------
class Runner:
    """Starts child interpreters inside the work dir and times them."""

    def __init__(self, work: pathlib.Path, hard_deadline: float) -> None:
        self.work = work
        self.hard_deadline = hard_deadline
        self.serial = 0

    def env(self, cache_dir: pathlib.Path) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["REPRO_HPC_CACHE_DIR"] = str(cache_dir)
        # One BLAS thread per process: the pooled workload's two workers
        # must not contend with hidden BLAS pools on a 2-CPU box.
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        return env

    def spawn(self, argv):
        """Run ``argv``; returns (wall s, exit code, stdout, stderr, peak RSS MB)."""
        self.serial += 1
        tag = self.work / f"child-{self.serial}"
        tag.mkdir(parents=True)
        out_path, err_path = tag / "stdout", tag / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err,
                                    env=self.env(tag / "cache"))
            killer = threading.Timer(
                max(self.hard_deadline - time.time(), 1.0), proc.kill
            )
            killer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        shutil.rmtree(tag / "cache", ignore_errors=True)
        return wall, proc.returncode, stdout, stderr, usage.ru_maxrss / 1024.0

    def worker(self, workload, args, *extra):
        """Run ``worker.py``; returns (record or None, wall s, peak RSS MB)."""
        self.serial += 1
        out = self.work / f"record-{self.serial}.json"
        argv = [sys.executable, str(WORKER), workload, "--out", str(out),
                "--work", str(self.work / f"w-{self.serial}"),
                "--seed", str(args.seed),
                "--workload-seed", str(args.workload_seed), *extra]
        wall, rc, _stdout, stderr, rss = self.spawn(argv)
        if rc != 0 or not out.is_file():
            sys.stderr.write(f"worker {workload} exited {rc}:\n{stderr[-2000:]}\n")
            return None, wall, rss
        return json.loads(out.read_text(encoding="utf-8")), wall, rss


def keep_going(deadline: float, last: float) -> bool:
    """Closed-loop pacing: start another sample if most of it fits."""
    return time.time() + 0.5 * last < deadline


# --- trace 0: end-to-end metrics -------------------------------------------------
class Outcome:
    def __init__(self) -> None:
        self.samples: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def add_events(self, events, steps: dict) -> None:
        """Step samples from ordered ``[kind, seconds]`` events.

        Each step is divided by the mean of the ``CALIBRATION_RUNS``
        calibrations nearest before it and those nearest after it.
        """
        marks = [i for i, (kind, _s) in enumerate(events) if kind == "calibration"]
        for i, (kind, seconds) in enumerate(events):
            if kind == "calibration":
                self.add("calibration_s", seconds)
                continue
            if kind not in steps:
                continue
            near = [events[j][1] for j in marks if j < i][-CALIBRATION_RUNS:]
            near += [events[j][1] for j in marks if j > i][:CALIBRATION_RUNS]
            self.add(f"{steps[kind]}_s", seconds)
            if near:
                self.add(f"{steps[kind]}_rel", seconds / statistics.fmean(near))


def setup_samples(runner: Runner, args, res: Outcome) -> None:
    for _ in range(SETUP_SAMPLES):
        record, _wall, _rss = runner.worker("setup", args)
        res.attempted += 1
        if record is None:
            res.failed += 1
            res.check(False, "set-up child failed")
            continue
        res.add("setup_s", record["ops"]["setup"][0])


def calibrate(runner: Runner, events: list, res: Outcome) -> None:
    for _ in range(CALIBRATION_RUNS):
        wall, rc, _stdout, stderr, _rss = runner.spawn(
            [sys.executable, *CLI_CALIBRATION]
        )
        if rc != 0:
            res.check(False, f"calibration exited {rc}: {stderr[-500:]}")
            return
        events.append(["calibration", wall])


def measure_cli(runner: Runner, args, deadline: float, res: Outcome) -> None:
    setup_samples(runner, args, res)
    first = {}
    events: list = []
    calibrate(runner, events, res)
    while True:
        started = time.time()
        rss_round = 0.0
        for cmd in STEPS["cli-cold"]:
            argv = [part.format(seed=args.seed) for part in CLI_COMMANDS[cmd]]
            wall, rc, stdout, stderr, rss = runner.spawn(
                [sys.executable, "-m", "repro", *argv]
            )
            res.attempted += 1
            if rc != 0:
                res.failed += 1
                res.check(False, f"`repro {cmd}` exited {rc}: {stderr[-500:]}")
            else:
                events.append([cmd, wall])
                rss_round = max(rss_round, rss)
                first.setdefault(cmd, stdout)
                res.check(stdout == first[cmd], f"`repro {cmd}` output changed")
            calibrate(runner, events, res)
        res.add("peak_rss_mb", rss_round)
        if not keep_going(deadline, time.time() - started):
            break
    res.add_events(events, STEPS["cli-cold"])


def measure_canonical(runner: Runner, args, deadline: float, res: Outcome) -> None:
    digests = set()
    events: list = []
    while True:
        started = time.time()
        record, _wall, rss = runner.worker("scenario-canonical", args, "--calibrate")
        res.attempted += 2
        if record is None:
            res.failed += 2
            res.check(False, "canonical scenario child failed")
        else:
            res.add("setup_s", record["ops"]["setup"][0])
            res.add("peak_rss_mb", rss)
            events.extend(record["events"])
            res.check(record["rerun_equal"], "rerun bytes differ from the cold run")
            digests.add(record["digests"]["cold"])
        if not keep_going(deadline, time.time() - started):
            break
    res.add_events(events, STEPS["scenario-canonical"])
    res.check(len(digests) <= 1, "canonical results differ between samples")


def measure_sweep(runner: Runner, args, deadline: float, res: Outcome) -> None:
    start = time.time()
    span = (deadline - start) / SWEEP_CHILDREN
    reference = None
    events: list = []
    for child in range(SWEEP_CHILDREN):
        extra = ["--calibrate", "--deadline", str(start + span * (child + 1))]
        if child == 0:
            extra.append("--reference")
        record, _wall, rss = runner.worker(args.workload, args, *extra)
        if record is None:
            res.attempted += 1
            res.failed += 1
            res.check(False, f"{args.workload} child failed")
            continue
        if child == 0:
            reference = record["reference"]
        res.add("setup_s", record["ops"]["setup"][0])
        res.add("peak_rss_mb", rss)
        events.extend(record["events"])
        for item in record["passes"]:
            res.attempted += item["cells"]
            res.failed += item["failures"]
            if reference is not None:
                want = reference["delta" if item["kind"] == "delta" else "grid"]
                res.check(item["digest"] == want,
                          f"{item['kind']} pass differs from a cache-free recompute")
    res.add_events(events, STEPS[args.workload])
    res.check(reference is not None, "no cache-free reference was computed")


def end_to_end(runner: Runner, args, deadline: float):
    res = Outcome()
    if args.workload == "cli-cold":
        measure_cli(runner, args, deadline, res)
    elif args.workload == "scenario-canonical":
        measure_canonical(runner, args, deadline, res)
    else:
        measure_sweep(runner, args, deadline, res)
    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"workload-seed {args.workload_seed}  tracing off")
    print(f"{'metric':<14} {'measures':<20} {'unit':<6} {'n':>3} "
          f"{'median':>10} {'max':>10}")
    for name, unit in {**END_TO_END, **RAW}.items():
        values = res.samples.get(name, [])
        if not values:
            res.check(False, f"no samples of {name}")
            continue
        value = statistics.median(values)
        if name in END_TO_END:
            metrics[name] = {"value": value, "unit": unit}
        step = name.split("_")[0]
        measures = (f"{MEASURES[step][args.workload]}_{name.split('_')[1]}"
                    if step in MEASURES else name)
        print(f"{name:<14} {measures:<20} {unit:<6} {len(values):>3} "
              f"{value:>10.4f} {max(values):>10.4f}")
    print(f"operations: {res.attempted} attempted, {res.failed} failed")
    for problem in res.problems:
        print(f"CHECK FAILED: {problem}")
    return res, metrics


# --- trace 1: per-layer metrics ---------------------------------------------------
def import_probes(runner: Runner):
    wall, rc, _out, _err, _rss = runner.spawn(
        [sys.executable, "-c", "import repro.cli"]
    )
    cli_s = wall if rc == 0 else 0.0
    _wall, rc, _out, err, _rss = runner.spawn(
        [sys.executable, "-X", "importtime", "-c", "import scipy.signal"]
    )
    scipy_s = 0.0
    for line in err.splitlines():
        match = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*scipy\.signal$",
                         line.strip())
        if match:
            scipy_s = int(match.group(1)) / 1e6
    return cli_s, scipy_s


def probe(runner: Runner, args, traced: bool):
    """One probe of the workload; returns a list of worker records."""
    flag = ["--trace", "1" if traced else "0"]
    if args.workload == "cli-cold":
        return [runner.worker("cli-cold", args, "--cmd", cmd, *flag)[0]
                for cmd in CLI_COMMANDS]
    extra = ["--probe"] if args.workload.startswith("sweep") else []
    return [runner.worker(args.workload, args, *flag, *extra)[0]]


def outputs(records) -> list:
    """What a probe produced, for the traced == untraced check."""
    out = []
    for record in records:
        if "stdout" in record:
            out.append((record["rc"], record["stdout"]))
        elif "digests" in record:
            out.append(record["digests"])
        else:
            out.append([p["digest"] for p in record["passes"]])
    return out


def e2e_of(records) -> float:
    return sum(sum(values) for r in records for values in r["ops"].values())


def layer_metrics(records) -> dict:
    """Per-layer metrics of one traced probe."""
    spans: list = []
    counts: dict = {}
    for record in records:
        with open(record["spans_file"], encoding="utf-8") as handle:
            dumped = json.load(handle)
        offset = len(spans)
        spans.extend([b, s, e, p + offset if p >= 0 else -1]
                     for b, s, e, p in dumped["spans"])
        for name, value in dumped["counts"].items():
            counts[name] = counts.get(name, 0) + value
    selfs = tracing.self_times(spans)
    m = {metric: selfs.get(bucket, 0.0) for bucket, metric in SELF_TIME_METRICS.items()}
    m.update({name: counts.get(name, 0) for name in TRACER_COUNTS})
    roots = [s for s in spans if s[3] < 0]
    m["trace.e2e_s"] = sum(e - s for _b, s, e, _p in roots)
    m["untraced_s"] = sum(v for b, v in selfs.items() if b.startswith("op:"))
    m["trace.spans"] = len(spans) - len(roots)
    simulate = tracing.inclusive_times(spans).get("cluster.simulate", 0.0)
    m["cluster.sim_jobs_per_s"] = (
        counts.get("cluster.sim_jobs", 0) / simulate if simulate else 0.0
    )
    m["intensity.trace_memo_hits"] = sum(r["trace_memo"]["hits"] for r in records)
    m["intensity.trace_memo_misses"] = sum(r["trace_memo"]["misses"] for r in records)
    distinct = sum(r.get("score_distinct", 0) for r in records)
    m["intensity.score_table_distinct"] = distinct
    m["intensity.score_table_waste"] = (
        m["intensity.score_table_builds"] / distinct if distinct else 0.0
    )
    m["session.result_bytes"] = sum(r["result_bytes"] for r in records)
    totals = {}
    for r in records:
        for name, value in r.get("totals", {}).items():
            totals[name] = totals.get(name, 0) + value
    passes = [p for r in records for p in r.get("passes", ())]
    m["sweep.warm_pass_s"] = sum(sum(r["ops"].get("warm", ())) for r in records)
    m["sweep.cells"] = passes[0]["cells"] if passes else 0
    m["sweep.units"] = passes[0]["units"] if passes else 0
    for name in ("cache_hits", "cache_misses", "section_hits", "section_misses",
                 "section_hits_planned", "section_misses_planned"):
        m[f"sweep.{name}"] = totals.get(name, 0)
    m["sweep.delta_forced_ratio"] = (
        m["sweep.delta_forced_live"] / m["sweep.section_hits"]
        if m["sweep.section_hits"] else 0.0
    )
    disk = {}
    for r in records:
        disk.update(r.get("disk", {}))
    m["sweep.cache_disk_bytes"] = disk.get("cache_bytes", 0)
    m["sweep.store_bytes"] = disk.get("store_bytes", 0)
    m["resilience.journal_bytes"] = disk.get("journal_bytes", 0)
    m["executors.workers"] = max(r.get("workers", 1) for r in records)
    return m


def per_layer(runner: Runner, args, deadline: float):
    res = Outcome()
    cli_s, scipy_s = import_probes(runner)
    traced_runs, untraced_e2e = [], []
    reference = None
    while True:
        started = time.time()
        for traced in (False, True):
            records = probe(runner, args, traced)
            res.attempted += len(records)
            if any(r is None for r in records):
                res.failed += sum(r is None for r in records)
                res.check(False, f"{'traced' if traced else 'untraced'} probe failed")
                continue
            produced = outputs(records)
            if reference is None:
                reference = produced
            res.check(produced == reference,
                      "traced outputs differ from untraced ones")
            res.check(all(r.get("rc", 0) == 0 for r in records),
                      "a CLI command exited non-zero")
            if traced:
                traced_runs.append(layer_metrics(records))
            else:
                untraced_e2e.append(e2e_of(records))
        if not keep_going(deadline, time.time() - started):
            break
    units = per_layer_units()
    metrics = {}
    if traced_runs and untraced_e2e:
        merged = {
            name: statistics.median(run[name] for run in traced_runs)
            for name in traced_runs[0]
        }
        merged["import.cli_s"] = cli_s
        merged["import.scipy_s"] = scipy_s
        merged["trace.overhead_s"] = merged["trace.e2e_s"] - statistics.median(
            untraced_e2e
        )
        metrics = {name: {"value": merged[name], "unit": unit}
                   for name, unit in units.items()}
        first = traced_runs[0]
        layers = sum(first[name] for name in SELF_TIME_METRICS.values())
        res.check(abs(layers + first["untraced_s"] - first["trace.e2e_s"]) < 1e-6,
                  "layer self times plus untraced_s do not sum to the e2e time")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"workload-seed {args.workload_seed}  tracing on  "
          f"({len(traced_runs)} traced / {len(untraced_e2e)} untraced probes)")
    for name, entry in metrics.items():
        print(f"{name:<34} {entry['unit']:<6} {entry['value']:>14.6g}")
    if metrics:
        timed = {n: e["value"] for n, e in metrics.items()
                 if n in SELF_TIME_METRICS.values()}
        print(f"largest layer self time: {max(timed, key=timed.get)}")
    print(f"operations: {res.attempted} attempted, {res.failed} failed")
    for problem in res.problems:
        print(f"CHECK FAILED: {problem}")
    return res, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"trace-generation seed (default {DEFAULT_SEED})")
    parser.add_argument("--workload-seed", type=int, default=DEFAULT_WORKLOAD_SEED,
                        help=f"job-generator seed (default {DEFAULT_WORKLOAD_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.workload_seed < 0:
        parser.error("seeds must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no repro sources under {SRC}; run from a source checkout\n")
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    attempted = failed = 0
    correct = True
    metrics: dict = {}
    try:
        # Byte-compile first, as an installed package would be, so the
        # first cold command of a checkout does not also pay compilation.
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                       check=True, stdout=subprocess.DEVNULL)
        for name in names:
            args.workload = name
            runner = Runner(work / name, time.time() + HARD_LIMIT_S)
            deadline = time.time() + args.seconds
            measure = per_layer if args.trace else end_to_end
            res, found = measure(runner, args, deadline)
            attempted += res.attempted
            failed += res.failed
            correct = correct and not res.problems
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + key: value for key, value in found.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
