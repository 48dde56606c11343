"""Span recorder and runtime instrumentation for the traced benchmark run.

Nothing under ``src/`` knows about this module.  :func:`install` wraps
the public entry points of each layer from the outside:

* module functions and class methods are replaced as their module is
  imported (a meta-path hook patches each ``repro`` module right after it
  executes, so modules that import a patched name bind the wrapper);
* ``simulator`` and ``renderer`` backends are re-registered through
  ``register_backend(..., replace=True)`` once the registry has loaded.

Every wrapped call records one span ``[bucket, start, end, parent]`` in
memory while the recorder is active; spans are written out once, at the
end of the run.  A span's self time is its duration minus the durations
of its direct children, so the self times of all spans under a root add
up to the root's duration.
"""

from __future__ import annotations

import functools
import importlib.machinery
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter


class Tracer:
    """In-memory spans and counters; records only while ``active``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.active = False
        #: (seed, forecast_error, region, window) score-table keys seen.
        self.score_keys: set = set()
        #: Section hits of each open ``Session._run_delta`` call.
        self.delta_hits: List[set] = []

    def open(self, bucket: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([bucket, _clock(), 0.0, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _clock()
        self.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


TRACER = Tracer()


def _wrap(fn: Callable, bucket: str, counter: Optional[str] = None,
          after: Optional[Callable] = None, before: Optional[Callable] = None):
    """A span-recording wrapper around ``fn`` (a no-op while inactive)."""
    tracer = TRACER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if before is not None:
            before(args, kwargs)
        index = tracer.open(bucket)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if counter is not None:
            tracer.count(counter)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


# --- counter hooks ------------------------------------------------------------
def _note_score_key(args, kwargs):
    service, region, window = args[0], args[1], args[2]
    TRACER.score_keys.add(
        (service._seed, repr(service._forecast_error), region, int(window))
    )


def _count_jobs(args, kwargs, batch):
    TRACER.count("workloads.jobs", len(batch))


def _count_sim(args, kwargs, sim):
    TRACER.count("cluster.sim_jobs", sim.n_jobs)


def _note_section_hit(args, kwargs, found):
    hit, _payload = found
    if hit and TRACER.delta_hits:
        TRACER.delta_hits[-1].add(args[1])


def _count_attempts(args, kwargs, run):
    TRACER.count("resilience.attempts", sum(o.attempts for o in run.outcomes))
    TRACER.count("resilience.rebuilds", run.rebuilds)


def _delta_scope(fn: Callable):
    """Collect the section hits of one ``Session._run_delta`` call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not TRACER.active:
            return fn(*args, **kwargs)
        TRACER.delta_hits.append(set())
        try:
            return fn(*args, **kwargs)
        finally:
            TRACER.delta_hits.pop()

    return wrapper


def _forced_live(fn: Callable, section: str):
    """Count sections a delta run recomputes although the cache served them."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if TRACER.active and TRACER.delta_hits and section in TRACER.delta_hits[-1]:
            TRACER.count("sweep.delta_forced_live")
        return fn(*args, **kwargs)

    return wrapper


# --- the patch table ----------------------------------------------------------
#: module -> [(attribute path, bucket, call counter, after hook, before hook)]
_PATCHES: Dict[str, list] = {
    "repro.cli": [("main", "cli.main", None, None, None)],
    "repro.session.backends": [
        ("load_builtin_backends", "session.registry_load", None, None, None),
    ],
    "repro.session.scenario": [
        ("Scenario.build", "session.build", "session.build_calls", None, None),
    ],
    "repro.session.session": [
        ("Session.run", "session.run", None, None, None),
        ("Session._run_delta", "session.run", None, None, None),
        ("Session._jobs", "workloads.generate", None, _count_jobs, None),
    ],
    "repro.session.result": [
        ("ScenarioResult.to_dict", "session.to_dict", None, None, None),
    ],
    "repro.session.fingerprint": [
        ("session_fingerprint", "session.fingerprint",
         "session.fingerprint_calls", None, None),
        ("section_fingerprints", "session.fingerprint",
         "session.fingerprint_calls", None, None),
    ],
    "repro.intensity.generator": [
        ("generate_all_traces", "intensity.traces", None, None, None),
    ],
    "repro.intensity.api": [
        ("CarbonIntensityService.window_score_table", "intensity.score_table",
         "intensity.score_table_calls", None, _note_score_key),
        ("CarbonIntensityService._build_score_table", "intensity.score_table",
         "intensity.score_table_builds", None, None),
        ("CarbonIntensityService.truth_window_table", "intensity.truth_table",
         None, None, None),
        ("CarbonIntensityService._build_truth_table", "intensity.truth_table",
         "intensity.truth_table_builds", None, None),
    ],
    "repro.workloads.runner": [
        ("simulate_training_run", "workloads.training", None, None, None),
    ],
    "repro.scheduler.evaluation": [
        ("evaluate_policy", "scheduler.evaluate_policy",
         "scheduler.evaluate_policy_calls", None, None),
    ],
    "repro.accounting.engines": [
        ("VectorizedChargingEngine.charge", "accounting.charge",
         "accounting.charge_calls", None, None),
        ("ScalarReferenceChargingEngine.charge", "accounting.charge",
         "accounting.charge_calls", None, None),
    ],
    "repro.upgrade.advisor": [
        ("UpgradeAdvisor.evaluate", "upgrade.evaluate", None, None, None),
    ],
    "repro.analysis.audit": [
        ("CenterAuditor.audit", "analysis.audit", None, None, None),
        ("CenterAudit.summary_lines", "analysis.render", None, None, None),
    ],
    "repro.sweep.planner": [("plan_sweep", "sweep.plan", None, None, None)],
    "repro.sweep.runner": [("SweepService.run", "sweep.run", None, None, None)],
    "repro.sweep.cache": [
        ("ResultCache.get", "sweep.cache_get", None, None, None),
        ("ResultCache.put", "sweep.cache_put", "sweep.cache_put_calls", None, None),
        ("ResultCache.get_section", "sweep.section_get", None,
         _note_section_hit, None),
        ("ResultCache.put_section", "sweep.section_put", None, None, None),
    ],
    "repro.sweep.store": [
        ("SharedTraceStore.ensure_traces", "sweep.store_ensure", None, None, None),
    ],
    "repro.resilience.runner": [
        ("run_resilient", "resilience.run", None, _count_attempts, None),
    ],
}

#: Delta-path section runners whose recomputation of a cached section is
#: counted as forced-live waste (see ``Session._run_delta``).
_FORCED = {
    "_run_scheduling": "scheduling",
    "_run_upgrade": "upgrade",
    "_run_cluster": "cluster",
}

#: Backend kinds wrapped through the registry, with their span bucket.
_REGISTRY_KINDS = {"simulator": "cluster.simulate", "renderer": "analysis.render"}
_REGISTRY_AFTER = {"simulator": _count_sim}

#: id(original function) -> wrapper, so re-exports bind the same wrapper.
_WRAPPED: Dict[int, Any] = {}


def _patch_module(name: str, module) -> None:
    for path, bucket, counter, after, before in _PATCHES.get(name, ()):
        owner = module
        *scope, attr = path.split(".")
        for part in scope:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = _wrap(original, bucket, counter, after, before)
        _WRAPPED[id(original)] = wrapper
        setattr(owner, attr, wrapper)
    if name == "repro.session.session":
        session = module.Session
        session._run_delta = _delta_scope(session.__dict__["_run_delta"])
        for attr, section in _FORCED.items():
            setattr(session, attr, _forced_live(session.__dict__[attr], section))
    if name == "repro.session.registry":
        _hook_registry(module)
    # Names this module imported from an already-patched module.
    for attr, value in list(vars(module).items()):
        wrapper = _WRAPPED.get(id(value))
        if wrapper is not None and wrapper is not value:
            setattr(module, attr, wrapper)


def _hook_registry(registry_module) -> None:
    """Re-register simulator and renderer keys once the built-ins load."""
    ensure = registry_module.ensure_default_backends
    done = []

    @functools.wraps(ensure)
    def ensure_then_wrap():
        ensure()
        if done or registry_module._defaults_state != "loaded":
            return
        done.append(True)
        registry = registry_module.registry
        for kind, bucket in _REGISTRY_KINDS.items():
            for key in registry.available(kind):
                original = registry.resolve(kind, key)
                wrapper = _WRAPPED.get(id(original))
                if wrapper is None:
                    wrapper = _wrap(original, bucket, None,
                                    _REGISTRY_AFTER.get(kind), None)
                    _WRAPPED[id(original)] = wrapper
                registry_module.register_backend(kind, key, wrapper, replace=True)

    registry_module.ensure_default_backends = ensure_then_wrap


class _PatchingFinder:
    """Meta-path finder: time each ``repro`` module body, then patch it."""

    @staticmethod
    def find_spec(fullname, path, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        execute = spec.loader.exec_module

        def exec_module(module):
            tracer = TRACER
            index = tracer.open("import.modules") if tracer.active else None
            try:
                execute(module)
            finally:
                if index is not None:
                    tracer.close(index)
            _patch_module(fullname, module)

        spec.loader.exec_module = exec_module
        return spec


def install() -> Tracer:
    """Hook imports so every ``repro`` module is instrumented as it loads.

    Must run before anything imports ``repro``.
    """
    if any(name == "repro" or name.startswith("repro.") for name in sys.modules):
        raise RuntimeError("install the tracer before importing repro")
    sys.meta_path.insert(0, _PatchingFinder())
    return TRACER


# --- aggregation ------------------------------------------------------------------
def self_times(spans: List[list]) -> Dict[str, float]:
    """Per-bucket self time (duration minus direct children's durations)."""
    child = [0.0] * len(spans)
    for bucket, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: Dict[str, float] = {}
    for (bucket, start, end, _parent), covered in zip(spans, child):
        totals[bucket] = totals.get(bucket, 0.0) + (end - start) - covered
    return totals


def inclusive_times(spans: List[list]) -> Dict[str, float]:
    """Per-bucket inclusive time, counting only the outermost span of a bucket."""
    totals: Dict[str, float] = {}
    for bucket, start, end, parent in spans:
        outer = True
        while parent >= 0:
            if spans[parent][0] == bucket:
                outer = False
                break
            parent = spans[parent][3]
        if outer:
            totals[bucket] = totals.get(bucket, 0.0) + (end - start)
    return totals
