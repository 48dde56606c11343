"""Registry conformance: every built-in backend honors its kind's contract.

The Scenario/Session facade trusts each ``(kind, key)`` factory to
return an object shaped the way :mod:`repro.session.backends` documents.
This suite instantiates **every built-in key of every kind** and asserts
the protocol — required methods, attributes, and basic value domains —
so a future backend (or a refactor of an existing one) that breaks the
contract fails loudly here instead of deep inside a scenario run.

Each kind has a dedicated checker; the meta-test at the bottom asserts
the checker table covers every kind in ``BACKEND_KINDS``, so adding a
registry kind without teaching this suite about it is itself a failure.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.session import BACKEND_KINDS, available_backends, resolve_backend
from repro.session.types import SystemDeployment

#: Extra factory kwargs required by specific ``(kind, key)`` built-ins.
_FACTORY_KWARGS = {
    ("intensity", "constant"): {"value": 100.0, "regions": ("ESO", "CISO")},
    ("pue", "constant"): {"value": 1.25},
    ("pue", "flat"): {"value": 1.25},
    ("pue", "profile"): {"values": [1.1, 1.3, 1.2]},
    ("pue", "hourly"): {"values": [1.1, 1.3, 1.2]},
    ("faults", "random"): {"seed": 0, "error_p": 1.0},
    ("faults", "chaos"): {"seed": 0, "error_p": 1.0},
    ("faults", "scripted"): {"error_at": [0]},
    ("faults", "script"): {"error_at": [0]},
}


def _factory_kwargs(kind: str, key: str) -> dict:
    return dict(_FACTORY_KWARGS.get((kind, key), {}))


@pytest.fixture(scope="module")
def flat_service():
    """A two-region constant-intensity service for policy construction."""
    return resolve_backend("intensity", "constant")(
        value=100.0, regions=("ESO", "CISO"), seed=0
    )


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """A small committed-schema JSON trace for the workload:trace backend."""
    from repro.cluster.traceio import save_jobs
    from repro.workloads.sources import WorkloadParams, generate_workload

    jobs = generate_workload(
        WorkloadParams(horizon_h=24.0, total_gpus=4, home_region="ESO"), seed=5
    )
    return str(
        save_jobs(jobs, tmp_path_factory.mktemp("conformance") / "trace.json")
    )


@pytest.fixture(scope="module")
def v100_node():
    return resolve_backend("node", "V100")()


# --- per-kind protocol checkers --------------------------------------------
def _check_system(key, factory, ctx):
    deployment = factory()
    assert isinstance(deployment, SystemDeployment)
    assert isinstance(deployment.spec.name, str) and deployment.spec.name
    assert deployment.n_nodes >= 0
    assert deployment.nics_per_node >= 1
    by_class = deployment.spec.embodied_by_class()
    assert by_class, f"system {key!r} has an empty embodied inventory"
    assert all(b.total_g >= 0.0 for b in by_class.values())


def _check_node(key, factory, ctx):
    node = factory()
    assert isinstance(node.name, str) and node.name
    assert int(node.gpu_count) >= 1
    breakdown = node.embodied()
    assert breakdown.total_g > 0.0


def _check_intensity(key, factory, ctx):
    service = factory(seed=0, forecast_error=0.0, **_factory_kwargs("intensity", key))
    regions = tuple(service.regions)
    assert regions, f"intensity {key!r} serves no regions"
    trace = service.trace(regions[0])
    values = np.asarray(trace.values, dtype=float)
    assert values.ndim == 1 and values.size > 0
    assert np.all(np.isfinite(values)) and float(values.min()) >= 0.0


def _check_workload(key, factory, ctx):
    from repro.cluster.job import JobBatch

    if key in ("trace", "replay"):
        kwargs = {"path": ctx["trace_path"]}
    else:
        kwargs = {"horizon_h": 48.0, "total_gpus": 8, "home_region": "ESO"}
    source = factory(**kwargs)
    assert isinstance(source.name, str) and source.name
    assert hasattr(source, "horizon_h")
    batch = source.generate(seed=3)
    assert isinstance(batch, JobBatch), (
        f"workload {key!r} returned {type(batch).__name__}, expected JobBatch"
    )
    assert len(batch) >= 1, f"workload {key!r} generated no jobs"
    assert np.all(batch.duration_h > 0.0)
    assert np.all(batch.n_gpus >= 1)
    assert np.all(batch.submit_h >= 0.0)
    horizon = source.horizon_h
    if horizon is not None:
        assert float(batch.submit_h.max()) < horizon, (
            f"workload {key!r} submitted past its horizon"
        )
    # Deterministic per seed (the sweep-reproducibility contract).
    assert factory(**kwargs).generate(seed=3) == batch
    # The columnar batch round-trips losslessly through scalar Jobs.
    assert JobBatch.from_jobs(batch.to_jobs()) == batch


def _check_policy(key, factory, ctx):
    from repro.cluster.job import PlacementBatch
    from repro.workloads.sources import WorkloadParams, generate_workload

    policy = factory(ctx["flat_service"], "ESO", regions=None)
    assert isinstance(policy.name, str) and policy.name
    assert callable(getattr(policy, "place", None)), (
        f"policy {key!r} lacks the place(job) protocol method"
    )
    # The batched kernel returns columns, row for row the scalar path's.
    jobs = generate_workload(
        WorkloadParams(horizon_h=24.0, total_gpus=4, home_region="ESO",
                       slack_fraction=1.0),
        seed=5,
    )
    placed = policy.place_all(jobs)
    assert isinstance(placed, PlacementBatch), (
        f"policy {key!r} place_all returned {type(placed).__name__}, "
        "expected PlacementBatch"
    )
    assert placed == [policy.place(job) for job in jobs]


def _check_simulator(key, factory, ctx):
    from repro.cluster.simulator import Cluster
    from repro.workloads.sources import WorkloadParams, generate_workload

    cluster = Cluster(ctx["v100_node"], 1)
    # Empty workload: the degenerate case every discipline must handle.
    empty = factory([], cluster, horizon_h=2.0, intensity=100.0, pue=None, config=None)
    assert empty.n_jobs == 0
    assert empty.ic_energy_kwh >= 0.0
    assert empty.carbon_g >= 0.0
    assert empty.ledger is not None
    # Real workload: the schedule protocol every discipline must honor.
    cluster = Cluster(ctx["v100_node"], 2)
    jobs = generate_workload(
        WorkloadParams(horizon_h=48.0, total_gpus=cluster.total_gpus), seed=4
    )
    result = factory(
        jobs, cluster, horizon_h=72.0, intensity=100.0, pue=None, config=None
    )
    scheduled = result.scheduled
    assert result.n_jobs == len(scheduled) == len(jobs), (
        f"simulator {key!r} dropped or duplicated jobs"
    )
    # Every input job appears exactly once.
    assert sorted(s.job.job_id for s in scheduled) == sorted(
        j.job_id for j in jobs
    )
    # FCFS intake ordering: the schedule is sorted by (submit, job_id).
    keys = [(s.job.submit_h, s.job.job_id) for s in scheduled]
    assert keys == sorted(keys), f"simulator {key!r} broke intake ordering"
    for s in scheduled:
        assert s.start_h >= s.job.submit_h, (
            f"simulator {key!r} started job {s.job.job_id} before submit"
        )
        assert 0 <= s.node_index < cluster.n_nodes
        assert s.job.n_gpus <= cluster.gpus_per_node
    # Capacity invariant: per-node concurrent GPU demand within bounds,
    # checked at every schedule start event.
    for probe in scheduled:
        for node in range(cluster.n_nodes):
            demand = sum(
                s.job.n_gpus
                for s in scheduled
                if s.node_index == node
                and s.start_h <= probe.start_h < s.end_h
            )
            assert demand <= cluster.gpus_per_node, (
                f"simulator {key!r} oversubscribed node {node} "
                f"at t={probe.start_h}"
            )
    # Accounting attachment: busy profile spans the horizon, ledger on.
    assert result.busy_gpu_hours_per_hour.shape == (72,)
    assert float(result.busy_gpu_hours_per_hour.min()) >= 0.0
    assert result.mean_wait_h() >= 0.0
    assert result.makespan_h() > 0.0
    assert result.ledger is not None and len(result.ledger) >= 1
    # Discipline-specific invariants on top of the shared contract.
    if key in ("carbon-aware", "green"):
        from repro.intensity.trace import IntensityTrace

        # A clean day/night swing so admission has a real signal; the
        # capacity-rich cluster means every slack budget holds some
        # feasible start, so the bound must hold for every job.
        hours = np.arange(24 * 14)
        trace = IntensityTrace(
            region_code="CONF",
            tz_offset_hours=0,
            values=300.0 + 200.0 * np.sin(2.0 * np.pi * hours / 24.0),
        )
        green = factory(
            jobs, cluster, horizon_h=200.0, intensity=trace,
            pue=None, config=None,
        )
        for s in green.scheduled:
            assert s.start_h <= s.job.submit_h + s.job.slack_h + 1e-9, (
                f"simulator {key!r} spent more than job "
                f"{s.job.job_id}'s slack budget"
            )
        # A uniform override narrows every budget the same way.
        tight = factory(
            jobs, cluster, horizon_h=200.0, intensity=trace,
            pue=None, config=None, slack_h=2.0,
        )
        for s in tight.scheduled:
            assert s.start_h <= s.job.submit_h + 2.0 + 1e-9
    if key in ("power-cap", "capped"):
        cap_fraction = 0.5
        capped = factory(
            jobs, cluster, horizon_h=72.0, intensity=100.0,
            pue=None, config=None, cap_fraction=cap_fraction,
        )
        cap_gpus = int(cap_fraction * cluster.total_gpus)
        assert float(capped.busy_gpu_hours_per_hour.max()) <= cap_gpus + 1e-9, (
            f"simulator {key!r} let the hourly busy profile exceed its cap"
        )
        # The cap binds scheduling, never the accounting contract.
        assert capped.n_jobs == len(jobs)


def _check_accounting(key, factory, ctx):
    engine = factory()
    charge = getattr(engine, "charge", None)
    assert callable(charge), f"accounting {key!r} lacks charge(...)"
    params = inspect.signature(charge).parameters
    for required in (
        "jobs", "placements", "service", "node", "pue", "config",
        "transfer_overhead_fraction",
    ):
        assert required in params, (
            f"accounting {key!r}.charge is missing the {required!r} parameter"
        )


def _check_pue(key, factory, ctx):
    model = factory(**_factory_kwargs("pue", key))
    assert model is not None  # None is the defer-to-config sentinel only
    profile_method = getattr(model, "profile", None)
    assert callable(profile_method), f"pue {key!r} lacks profile(n_hours)"
    profile = np.asarray(profile_method(48), dtype=float)
    assert profile.shape == (48,)
    assert np.all(np.isfinite(profile))
    assert float(profile.min()) >= 1.0, (
        f"pue {key!r} produced an overhead below the physical floor"
    )
    # Every profile object must survive resolve_pue, the charge paths'
    # single normalization chokepoint.
    from repro.accounting import resolve_pue

    scalar, resolved = resolve_pue(model)
    assert scalar >= 1.0
    assert resolved is None or resolved.ndim == 1


def _check_renderer(key, factory, ctx):
    from repro.session.result import ScenarioResult

    text = factory(ScenarioResult(name="conformance", region=None, seed=0))
    assert isinstance(text, str) and text


def _check_report(key, factory, ctx):
    # Reports are whole-corpus generators (minutes of work); the
    # contract here is the calling convention, not the content.
    assert callable(factory)
    params = inspect.signature(factory).parameters
    assert all(
        p.default is not inspect.Parameter.empty
        or p.kind in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        for p in params.values()
    ), f"report {key!r} factory must be callable with no arguments"


def _check_executor(key, factory, ctx):
    sweep = factory()
    assert callable(sweep)
    assert list(sweep([])) == []


def _check_sweep(key, factory, ctx):
    from repro.sweep.planner import SweepPlan
    from repro.sweep.runner import SweepOutcome

    service = factory()  # construction must touch no disk
    plan = service.plan([])
    assert isinstance(plan, SweepPlan)
    assert plan.n_cells == 0 and plan.n_unique == 0
    outcome = service.run([])
    assert isinstance(outcome, SweepOutcome)
    assert outcome.results == ()
    assert outcome.n_cells == 0 and outcome.n_ran == 0
    assert outcome.stats.hits == 0 and outcome.stats.misses == 0


def _check_faults(key, factory, ctx):
    import pickle

    from repro.resilience.faults import FAULT_KINDS, FaultAction

    injector = factory(**_factory_kwargs("faults", key))
    action = getattr(injector, "action", None)
    assert callable(action), f"faults {key!r} lacks action(...)"
    decision = action(token="fp-a", index=0, attempt=1)
    assert decision is None or (
        isinstance(decision, FaultAction) and decision.kind in FAULT_KINDS
    )
    # Deterministic for equal arguments: the byte-reproducible chaos
    # contract documented in repro.session.backends.
    assert action(token="fp-a", index=0, attempt=1) == decision
    # Picklable: injectors ride into process-pool workers.
    clone = pickle.loads(pickle.dumps(injector))
    assert clone.action(token="fp-a", index=0, attempt=1) == decision


_CHECKERS = {
    "system": _check_system,
    "node": _check_node,
    "intensity": _check_intensity,
    "workload": _check_workload,
    "policy": _check_policy,
    "simulator": _check_simulator,
    "accounting": _check_accounting,
    "pue": _check_pue,
    "renderer": _check_renderer,
    "report": _check_report,
    "executor": _check_executor,
    "sweep": _check_sweep,
    "faults": _check_faults,
}


def _all_builtin_pairs():
    for kind in BACKEND_KINDS:
        for key in available_backends(kind):
            yield pytest.param(kind, key, id=f"{kind}:{key}")


@pytest.mark.parametrize("kind,key", _all_builtin_pairs())
def test_builtin_backend_conforms(kind, key, flat_service, v100_node, trace_path):
    checker = _CHECKERS.get(kind)
    assert checker is not None, (
        f"registry kind {kind!r} has no conformance checker; add one to "
        "tests/test_backend_conformance.py"
    )
    ctx = {
        "flat_service": flat_service,
        "v100_node": v100_node,
        "trace_path": trace_path,
    }
    checker(key, resolve_backend(kind, key), ctx)


def test_every_kind_has_builtins_and_a_checker():
    assert set(_CHECKERS) == set(BACKEND_KINDS)
    for kind in BACKEND_KINDS:
        assert available_backends(kind), f"kind {kind!r} ships no built-ins"


def test_pue_kind_is_registered():
    assert "pue" in BACKEND_KINDS
    assert {"constant", "seasonal", "profile"} <= set(available_backends("pue"))


def test_workload_kind_is_registered():
    assert "workload" in BACKEND_KINDS
    assert {"synthetic", "diurnal", "bursty", "trace"} <= set(
        available_backends("workload")
    )
