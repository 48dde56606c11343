"""FCFS engine parity pins and the other disciplines' semantics.

The columnar FCFS engine (:func:`repro.cluster.simulator.simulate_cluster`,
the ``fcfs`` key) must match the seed's scalar simulator
(``oracles.simulate_cluster``, kept with the tests) in every observable —
the (job, node, start) schedule, the busy GPU-hours array, energy,
carbon, and the attached ledger — **byte for byte**.  These tests pin
that contract with hypothesis-generated workloads (including saturated
regimes that exercise the contended slow path) and across all four
workload registry backends.

``backfill`` is a genuinely different discipline (EASY backfill over a
live queue, not plan-ahead earliest-fit), so it gets semantic
invariants instead of a parity pin: capacity safety, FCFS-safe head
treatment, and a constructed head-of-line-blocking case where a short
job demonstrably jumps the queue without delaying the head.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.cluster.engine import (
    simulate_cluster_backfill,
    simulate_cluster_carbon_aware,
    simulate_cluster_power_cap,
)
from repro.cluster.job import Job, JobBatch
from repro.cluster.simulator import SimulationError, simulate_cluster
from repro.session import resolve_backend
from repro.workloads.models import get_model

import oracles

HORIZON_H = 96.0


@pytest.fixture(scope="module")
def v100_node():
    return resolve_backend("node", "V100")()


def _assert_parity(ref, col):
    """The full byte-identity contract between oracle and engine."""
    assert col.n_jobs == ref.n_jobs
    assert col.scheduled == ref.scheduled
    assert np.array_equal(
        col.busy_gpu_hours_per_hour, ref.busy_gpu_hours_per_hour
    )
    assert col.ic_energy_kwh == ref.ic_energy_kwh
    assert col.carbon_g == ref.carbon_g
    assert col.pue == ref.pue
    assert col.mean_wait_h() == ref.mean_wait_h()
    assert col.makespan_h() == ref.makespan_h()
    assert np.array_equal(col.utilization(), ref.utilization())
    assert col.average_usage() == ref.average_usage()
    assert list(col.ledger.entries()) == list(ref.ledger.entries())


@st.composite
def job_lists(draw):
    """Workloads spanning idle, mixed, and saturated regimes.

    Short submit windows with many wide jobs saturate small clusters,
    forcing the engine off its admit-at-submit fast path and into the
    contended earliest-start sweep — the branch parity bugs hide in.
    """
    n = draw(st.integers(min_value=0, max_value=30))
    window = draw(st.sampled_from([4.0, 24.0, 80.0]))
    jobs = []
    for i in range(n):
        duration = draw(
            st.floats(min_value=0.1, max_value=30.0, allow_nan=False)
        )
        jobs.append(
            Job(
                job_id=i,
                user=f"u{i % 3}",
                model=get_model("BERT"),
                n_gpus=draw(st.sampled_from([1, 2, 4])),
                duration_h=duration,
                submit_h=draw(st.floats(min_value=0.0, max_value=window)),
                slack_h=0.0,
            )
        )
    return jobs


@settings(max_examples=60, deadline=None)
@given(jobs=job_lists(), n_nodes=st.sampled_from([1, 2, 5]))
def test_columnar_matches_oracle_hypothesis(jobs, n_nodes, v100_node):
    cluster = Cluster(v100_node, n_nodes)
    ref = oracles.simulate_cluster(
        jobs, cluster, horizon_h=HORIZON_H, intensity=150.0
    )
    col = simulate_cluster(
        jobs, cluster, horizon_h=HORIZON_H, intensity=150.0
    )
    _assert_parity(ref, col)


@pytest.mark.parametrize("key", ["synthetic", "diurnal", "bursty", "trace"])
def test_columnar_matches_oracle_all_workload_backends(
    key, v100_node, tmp_path
):
    if key == "trace":
        from repro.cluster.traceio import save_jobs
        from repro.workloads.sources import WorkloadParams, generate_workload

        seed_jobs = generate_workload(
            WorkloadParams(horizon_h=72.0, total_gpus=16), seed=9
        )
        source = resolve_backend("workload", key)(
            path=str(save_jobs(seed_jobs, tmp_path / "trace.json"))
        )
    else:
        source = resolve_backend("workload", key)(
            horizon_h=72.0, total_gpus=16, target_usage=0.7
        )
    batch = source.generate(seed=13)
    cluster = Cluster(v100_node, 4)
    trace = resolve_backend("intensity", "synthetic")(seed=2).trace("ESO")
    ref = oracles.simulate_cluster(
        batch, cluster, horizon_h=HORIZON_H, intensity=trace, pue=1.25
    )
    col = simulate_cluster(
        batch, cluster, horizon_h=HORIZON_H, intensity=trace, pue=1.25
    )
    _assert_parity(ref, col)


def test_columnar_accepts_batch_and_sequence(v100_node):
    from repro.workloads.sources import WorkloadParams, generate_workload

    jobs = generate_workload(
        WorkloadParams(horizon_h=48.0, total_gpus=8), seed=3
    )
    cluster = Cluster(v100_node, 2)
    from_list = simulate_cluster(jobs, cluster, horizon_h=60.0)
    from_batch = simulate_cluster(
        JobBatch.from_jobs(jobs), cluster, horizon_h=60.0
    )
    assert from_list.scheduled == from_batch.scheduled
    assert from_list.ic_energy_kwh == from_batch.ic_energy_kwh


def test_columnar_empty_workload(v100_node):
    cluster = Cluster(v100_node, 2)
    ref = oracles.simulate_cluster(
        [], cluster, horizon_h=4.0, intensity=100.0
    )
    col = simulate_cluster([], cluster, horizon_h=4.0, intensity=100.0)
    _assert_parity(ref, col)
    assert col.scheduled == ()
    assert col.mean_wait_h() == 0.0
    assert col.makespan_h() == 0.0


def _one_job(job_id, submit, duration, gpus):
    return Job(
        job_id=job_id,
        user="u0",
        model=get_model("BERT"),
        n_gpus=gpus,
        duration_h=duration,
        submit_h=submit,
        slack_h=0.0,
    )


@pytest.mark.parametrize(
    "simulate", [simulate_cluster, simulate_cluster_backfill]
)
def test_engine_rejects_oversized_job(simulate, v100_node):
    cluster = Cluster(v100_node, 2)
    too_wide = _one_job(7, 0.0, 1.0, cluster.gpus_per_node + 1)
    with pytest.raises(SimulationError, match="job 7 requests"):
        simulate([too_wide], cluster, horizon_h=4.0)
    with pytest.raises(SimulationError, match="horizon must be positive"):
        simulate([], cluster, horizon_h=0.0)


@pytest.mark.parametrize("horizon", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "simulate",
    [
        simulate_cluster,
        simulate_cluster_backfill,
        simulate_cluster_carbon_aware,
        simulate_cluster_power_cap,
    ],
)
def test_non_finite_horizon_is_a_simulation_error(simulate, horizon, v100_node):
    # NaN raised a bare ValueError and inf an OverflowError from
    # int(ceil(horizon)), after placement had already run.
    cluster = Cluster(v100_node, 2)
    with pytest.raises(SimulationError, match="horizon must be positive"):
        simulate([_one_job(0, 0.0, 1.0, 1)], cluster, horizon_h=horizon)


def test_contended_tie_goes_to_the_lowest_node(v100_node):
    # Continuous hypothesis durations almost never tie two nodes' earliest
    # starts, so the tie-break needs a constructed case: both nodes free
    # up at t=2 for the third full-node job.
    cap = v100_node.gpu_count
    cluster = Cluster(v100_node, 2)
    jobs = [
        _one_job(0, 0.0, 2.0, cap),
        _one_job(1, 0.0, 2.0, cap),
        _one_job(2, 0.5, 1.0, cap),
        _one_job(3, 0.5, 1.0, cap),
    ]
    ref = oracles.simulate_cluster(jobs, cluster, horizon_h=8.0)
    col = simulate_cluster(jobs, cluster, horizon_h=8.0)
    _assert_parity(ref, col)
    assert [(s.node_index, s.start_h) for s in col.scheduled] == [
        (0, 0.0), (1, 0.0), (0, 2.0), (1, 2.0)
    ]


def test_columnar_error_matches_oracle(v100_node):
    cluster = Cluster(v100_node, 1)
    bad = _one_job(3, 0.0, 1.0, cluster.gpus_per_node + 2)
    with pytest.raises(SimulationError) as oracle_err:
        oracles.simulate_cluster([bad], cluster, horizon_h=4.0)
    with pytest.raises(SimulationError) as engine_err:
        simulate_cluster([bad], cluster, horizon_h=4.0)
    assert str(engine_err.value) == str(oracle_err.value)


def test_columnar_scheduled_is_lazy_and_cached(v100_node):
    from repro.workloads.sources import WorkloadParams, generate_workload

    jobs = generate_workload(
        WorkloadParams(horizon_h=24.0, total_gpus=8), seed=1
    )
    cluster = Cluster(v100_node, 2)
    col = simulate_cluster(jobs, cluster, horizon_h=48.0)
    assert col._scheduled is None  # nothing materialized on the hot path
    first = col.scheduled
    assert col._scheduled is not None
    assert col.scheduled is first  # cached, not rebuilt


# --- backfill discipline ----------------------------------------------------
def _capacity_safe(result, cluster):
    """No node exceeds its GPU capacity at any schedule start event."""
    scheduled = result.scheduled
    for probe in scheduled:
        for node in range(cluster.n_nodes):
            demand = sum(
                s.job.n_gpus
                for s in scheduled
                if s.node_index == node
                and s.start_h <= probe.start_h < s.end_h
            )
            if demand > cluster.gpus_per_node:
                return False
    return True


@settings(max_examples=40, deadline=None)
@given(jobs=job_lists(), n_nodes=st.sampled_from([1, 3]))
def test_backfill_invariants_hypothesis(jobs, n_nodes, v100_node):
    cluster = Cluster(v100_node, n_nodes)
    result = simulate_cluster_backfill(
        jobs, cluster, horizon_h=HORIZON_H, intensity=150.0
    )
    assert result.n_jobs == len(jobs)
    assert sorted(s.job.job_id for s in result.scheduled) == sorted(
        j.job_id for j in jobs
    )
    for s in result.scheduled:
        assert s.start_h >= s.job.submit_h
        assert 0 <= s.node_index < n_nodes
    assert _capacity_safe(result, cluster)
    assert float(result.busy_gpu_hours_per_hour.max(initial=0.0)) <= (
        cluster.total_gpus + 1e-9
    )


def test_backfill_jumps_queue_without_delaying_head(v100_node):
    """The canonical EASY scenario on one 8-GPU node.

    A full-width running job blocks a full-width head-of-queue job; a
    short narrow job behind the head fits in the gap and ends before
    the head's reservation, so EASY starts it immediately.  Strict
    FCFS intake order would have parked it behind the head.
    """
    cap = v100_node.gpu_count
    cluster = Cluster(v100_node, 1)
    jobs = [
        _one_job(0, 0.0, 10.0, cap // 2),  # runs [0, 10), half the node
        _one_job(1, 1.0, 5.0, cap),        # head: blocked until t=10
        _one_job(2, 2.0, 3.0, cap // 2),   # fits the gap, ends before R
    ]
    result = simulate_cluster_backfill(jobs, cluster, horizon_h=24.0)
    starts = {s.job.job_id: s.start_h for s in result.scheduled}
    assert starts[0] == 0.0
    assert starts[1] == 10.0  # the head's reservation is honored
    assert starts[2] == 2.0, "short job should backfill immediately"


def test_backfill_respects_head_reservation(v100_node):
    """A backfill candidate that would delay the head must wait.

    The candidate is narrow but *long*: it overlaps the head's
    reservation on the only node and would steal GPUs the head needs,
    so EASY refuses the jump.
    """
    cap = v100_node.gpu_count
    cluster = Cluster(v100_node, 1)
    jobs = [
        _one_job(0, 0.0, 10.0, cap // 2),      # runs [0, 10), half the node
        _one_job(1, 1.0, 5.0, cap),            # head: needs the full node
        _one_job(2, 2.0, 50.0, cap // 2),      # long: would delay the head
    ]
    result = simulate_cluster_backfill(jobs, cluster, horizon_h=120.0)
    starts = {s.job.job_id: s.start_h for s in result.scheduled}
    assert starts[0] == 0.0
    assert starts[1] == 10.0
    assert starts[2] >= starts[1], (
        "long candidate must not delay the head's reservation"
    )


def test_backfill_reduces_wait_under_head_of_line_blocking(v100_node):
    """Mean wait drops vs strict-FCFS intake in a blocked-queue regime.

    Many short narrow jobs queue behind full-width long jobs on one
    node: EASY lets the shorts fill the gaps.  (FCFS earliest-fit
    plans starts at submit time, which backfills implicitly, so the
    honest baseline for this comparison is strict FCFS start order —
    job k never starts before job k-1.)
    """
    cap = v100_node.gpu_count
    cluster = Cluster(v100_node, 1)
    wide = cap - 1  # leaves a one-GPU gap for backfill
    jobs = [_one_job(0, 0.0, 8.0, wide), _one_job(1, 0.5, 8.0, wide)]
    jobs += [
        _one_job(2 + i, 1.0 + 0.1 * i, 0.5, 1) for i in range(6)
    ]
    easy = simulate_cluster_backfill(jobs, cluster, horizon_h=48.0)
    starts = {s.job.job_id: s.start_h for s in easy.scheduled}
    # The wide jobs run back to back (the second can't overlap the
    # first), while every short job backfilled into the one-GPU gap
    # during the head's blocked window instead of queueing behind it.
    assert starts[0] == 0.0 and starts[1] == 8.0
    assert all(starts[2 + i] < 8.0 for i in range(6))


def test_registry_keys_resolve_to_engine():
    from repro.session import available_backends

    keys = set(available_backends("simulator"))
    assert {
        "fcfs", "fcfs-columnar", "backfill", "carbon-aware", "power-cap"
    } <= keys
    for key in ("fcfs", "default", "fcfs-columnar", "columnar"):
        assert resolve_backend("simulator", key) is simulate_cluster
    assert resolve_backend("simulator", "easy") is resolve_backend(
        "simulator", "backfill"
    )
    assert resolve_backend("simulator", "green") is resolve_backend(
        "simulator", "carbon-aware"
    )
    assert resolve_backend("simulator", "capped") is resolve_backend(
        "simulator", "power-cap"
    )


def test_scenario_discipline_sweep_byte_identical_fcfs():
    """Through the facade: the fcfs spellings serialize the same cluster
    section apart from the ``simulator`` name, which keeps them apart in
    the fingerprints (a sweep flipping ``fcfs`` -> ``fcfs-columnar``
    recomputes the cluster section)."""
    import json

    from repro import Scenario

    def build(sim):
        return (
            Scenario()
            .node("A100")
            .region("ESO")
            .workload("synthetic", horizon_h=48.0, total_gpus=8)
            .cluster(2, simulator=sim)
            .seed(7)
            .build()
        )

    sessions = {sim: build(sim) for sim in ("fcfs", "fcfs-columnar", "columnar")}
    sections = {}
    for sim, session in sessions.items():
        section = session.run().to_dict()["cluster"]
        assert section.pop("simulator") == sim
        sections[sim] = json.dumps(section, sort_keys=True)
    assert len(set(sections.values())) == 1
    for fingerprints in (
        [s.section_fingerprints()["cluster"] for s in sessions.values()],
        [s.fingerprint() for s in sessions.values()],
    ):
        assert len(set(fingerprints)) == len(sessions)


# --- carbon-aware discipline -------------------------------------------------
def _diurnal_trace(days: int = 14):
    """A clean sinusoidal day: min intensity at hour 18, max at hour 6."""
    from repro.intensity.trace import IntensityTrace

    hours = np.arange(24 * days, dtype=float)
    values = 300.0 + 200.0 * np.sin(2.0 * np.pi * hours / 24.0)
    return IntensityTrace(
        region_code="TEST", tz_offset_hours=0, values=values
    )


def _slacked_jobs(seed=21):
    from repro.workloads.sources import WorkloadParams, generate_workload

    return generate_workload(
        WorkloadParams(horizon_h=72.0, total_gpus=8), seed=seed
    )


def test_carbon_aware_respects_slack_budget(v100_node):
    """No job ever starts past ``submit + slack``, per-job or overridden.

    The capacity-rich cluster (16 GPUs against a workload sized for 8)
    guarantees every budget holds a feasible start, so the bound is
    unconditional here; saturation behavior is pinned separately below.
    """
    cluster = Cluster(v100_node, 4)
    trace = _diurnal_trace()
    own = simulate_cluster_carbon_aware(
        _slacked_jobs(), cluster, horizon_h=200.0, intensity=trace
    )
    assert own.n_jobs > 0
    for s in own.scheduled:
        assert s.start_h <= s.job.submit_h + s.job.slack_h + 1e-9
    uniform = simulate_cluster_carbon_aware(
        _slacked_jobs(), cluster, horizon_h=200.0, intensity=trace,
        slack_h=2.0,
    )
    for s in uniform.scheduled:
        assert s.start_h <= s.job.submit_h + 2.0 + 1e-9


def test_carbon_aware_constant_intensity_degenerates_to_fcfs(v100_node):
    """No hourly signal means no reason to delay: exact FCFS placement."""
    cluster = Cluster(v100_node, 2)
    jobs = _slacked_jobs(seed=4)
    green = simulate_cluster_carbon_aware(
        jobs, cluster, horizon_h=200.0, intensity=150.0
    )
    fcfs = simulate_cluster(
        jobs, cluster, horizon_h=200.0, intensity=150.0
    )
    assert np.array_equal(
        np.asarray([s.start_h for s in green.scheduled]),
        np.asarray([s.start_h for s in fcfs.scheduled]),
    )
    assert [s.node_index for s in green.scheduled] == [
        s.node_index for s in fcfs.scheduled
    ]


def test_carbon_aware_zero_slack_is_fcfs(v100_node):
    """A zero budget leaves only the earliest-fit start."""
    cluster = Cluster(v100_node, 2)
    jobs = _slacked_jobs(seed=5)
    green = simulate_cluster_carbon_aware(
        jobs, cluster, horizon_h=200.0, intensity=_diurnal_trace(),
        slack_h=0.0,
    )
    fcfs = simulate_cluster(jobs, cluster, horizon_h=200.0)
    assert [
        (s.job.job_id, s.start_h, s.node_index) for s in green.scheduled
    ] == [(s.job.job_id, s.start_h, s.node_index) for s in fcfs.scheduled]


def test_carbon_aware_moves_job_to_cleanest_feasible_hour(v100_node):
    """One unconstrained job lands on the lowest-scoring start in budget.

    The sinusoid's one-hour-window minimum is hour 18; a job submitted
    at 0 with 24 h of slack must start exactly there.
    """
    cluster = Cluster(v100_node, 1)
    job = Job(
        job_id=0, user="u0", model=get_model("BERT"), n_gpus=1,
        duration_h=1.0, submit_h=0.0, slack_h=24.0,
    )
    result = simulate_cluster_carbon_aware(
        [job], cluster, horizon_h=48.0, intensity=_diurnal_trace()
    )
    (placed,) = result.scheduled
    assert placed.start_h == 18.0


def test_carbon_aware_option_validation(v100_node):
    cluster = Cluster(v100_node, 1)
    with pytest.raises(SimulationError, match="not both"):
        simulate_cluster_carbon_aware(
            [], cluster, horizon_h=4.0, slack_h=1.0, slack=2.0
        )
    with pytest.raises(SimulationError, match="non-negative"):
        simulate_cluster_carbon_aware(
            [], cluster, horizon_h=4.0, slack_h=-1.0
        )


def _budget_clearly_feasible(placed_before, s, slack, capacity, n_nodes):
    """Conservative witness that some in-budget candidate start existed.

    Checks the engine's candidate set (submit plus whole hours within
    the budget) against the jobs placed *before* ``s`` in FCFS order,
    counting any overlapping job as busy for the whole window — an
    under-approximation of the engine's exact admission check, so a
    ``True`` here proves the engine had a feasible in-budget start and
    an over-budget placement is a genuine violation.
    """
    d, g, sub = s.job.duration_h, s.job.n_gpus, s.job.submit_h
    cands = [sub]
    h = float(np.ceil(sub))
    while h <= sub + slack + 1e-12:
        if h != sub:
            cands.append(h)
        h += 1.0
    for t in cands:
        for nd in range(n_nodes):
            used = sum(
                p.job.n_gpus
                for p in placed_before
                if p.node_index == nd and p.start_h < t + d and t < p.end_h
            )
            if used + g <= capacity:
                return True
    return False


@settings(max_examples=25, deadline=None)
@given(jobs=job_lists(), n_nodes=st.sampled_from([1, 3]))
def test_carbon_aware_invariants_hypothesis(jobs, n_nodes, v100_node):
    """Capacity safety and completeness hold under slack-driven delays.

    ``job_lists`` deliberately saturates small clusters, where the
    documented earliest-fit fallback may overrun a budget that holds no
    feasible start — so the budget bound is asserted exactly when a
    conservative feasibility witness proves a candidate existed.
    """
    cluster = Cluster(v100_node, n_nodes)
    result = simulate_cluster_carbon_aware(
        jobs, cluster, horizon_h=HORIZON_H, intensity=_diurnal_trace(),
        slack_h=6.0,
    )
    assert result.n_jobs == len(jobs)
    scheduled = result.scheduled
    for i, s in enumerate(scheduled):
        assert s.start_h >= s.job.submit_h
        if s.start_h > s.job.submit_h + 6.0 + 1e-9:
            assert not _budget_clearly_feasible(
                scheduled[:i], s, 6.0, cluster.gpus_per_node, n_nodes
            ), (
                f"job {s.job.job_id} overran its slack budget although an "
                "in-budget start was demonstrably feasible"
            )
    assert _capacity_safe(result, cluster)
    assert float(result.busy_gpu_hours_per_hour.max(initial=0.0)) <= (
        cluster.total_gpus + 1e-9
    )


def test_carbon_aware_reduces_carbon_on_canonical_diurnal_month():
    """The acceptance pin: green admission cuts operational grams CO2
    vs ``fcfs-columnar`` on the canonical diurnal month, trading mean
    wait for cleaner start hours."""
    from repro import Scenario

    def run(sim, **opts):
        return (
            Scenario()
            .node("V100")
            .region("ESO")
            .workload("diurnal", horizon_h=24.0 * 28, total_gpus=8)
            .cluster(2, simulator=sim, **opts)
            .window(hours=24.0 * 30)
            .seed(7)
            .run()
            .cluster
        )

    base = run("fcfs-columnar")
    own_slack = run("carbon-aware")
    wide_slack = run("carbon-aware", slack_h=24.0)
    assert own_slack.n_jobs == base.n_jobs
    assert own_slack.carbon_g < base.carbon_g
    assert wide_slack.carbon_g < own_slack.carbon_g  # more slack, greener
    # The carbon saving is bought with queueing delay, not free.
    assert own_slack.mean_wait_h > base.mean_wait_h


# --- power-cap discipline ----------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    jobs=job_lists(),
    n_nodes=st.sampled_from([2, 4]),
    fraction=st.sampled_from([0.5, 1.0]),
)
def test_power_cap_busy_never_exceeds_cap_hypothesis(
    jobs, n_nodes, fraction, v100_node
):
    """The cap binds everywhere: hourly busy GPU-hours stay under it."""
    cluster = Cluster(v100_node, n_nodes)
    result = simulate_cluster_power_cap(
        jobs, cluster, horizon_h=HORIZON_H, cap_fraction=fraction
    )
    cap_gpus = int(np.floor(fraction * cluster.total_gpus + 1e-9))
    assert result.n_jobs == len(jobs)
    assert float(result.busy_gpu_hours_per_hour.max(initial=0.0)) <= (
        cap_gpus + 1e-9
    )
    assert _capacity_safe(result, cluster)
    for s in result.scheduled:
        assert s.start_h >= s.job.submit_h


def test_power_cap_full_cap_matches_fcfs(v100_node):
    """cap_fraction=1.0 never binds: placement is FCFS byte-for-byte."""
    cluster = Cluster(v100_node, 2)
    jobs = _slacked_jobs(seed=6)
    capped = simulate_cluster_power_cap(
        jobs, cluster, horizon_h=200.0, cap_fraction=1.0
    )
    fcfs = simulate_cluster(jobs, cluster, horizon_h=200.0)
    assert [
        (s.job.job_id, s.start_h, s.node_index) for s in capped.scheduled
    ] == [(s.job.job_id, s.start_h, s.node_index) for s in fcfs.scheduled]
    assert np.array_equal(
        capped.busy_gpu_hours_per_hour, fcfs.busy_gpu_hours_per_hour
    )


def test_power_cap_binding_serializes_wide_jobs(v100_node):
    """Two nodes could run both jobs at once; the cap forbids it.

    2 x 4 GPUs installed, cap 0.5 -> 4 concurrent GPUs: the second
    full-node job must wait for the first to finish even though its own
    node is idle.
    """
    cap = v100_node.gpu_count
    cluster = Cluster(v100_node, 2)
    jobs = [_one_job(0, 0.0, 2.0, cap), _one_job(1, 0.0, 2.0, cap)]
    result = simulate_cluster_power_cap(
        jobs, cluster, horizon_h=24.0, cap_fraction=0.5
    )
    starts = sorted(s.start_h for s in result.scheduled)
    assert starts == [0.0, 2.0]
    assert float(result.busy_gpu_hours_per_hour.max(initial=0.0)) <= cap


def test_power_cap_option_validation(v100_node):
    cluster = Cluster(v100_node, 2)
    with pytest.raises(SimulationError, match="not both"):
        simulate_cluster_power_cap(
            [], cluster, horizon_h=4.0, cap_fraction=0.5, cap=0.5
        )
    for bad in (0.0, 1.5, -0.25):
        with pytest.raises(SimulationError, match="cap_fraction"):
            simulate_cluster_power_cap(
                [], cluster, horizon_h=4.0, cap_fraction=bad
            )
    wide = _one_job(9, 0.0, 1.0, v100_node.gpu_count)
    with pytest.raises(SimulationError, match="the power cap admits"):
        simulate_cluster_power_cap(
            [wide], cluster, horizon_h=4.0, cap_fraction=0.25
        )


# --- zero-job metrics (warning hygiene) --------------------------------------
def test_zero_job_metrics_are_warning_free(v100_node):
    """Empty batches yield exact zeros with no numpy mean-of-empty
    RuntimeWarning, across every discipline and the scalar oracle."""
    import warnings

    cluster = Cluster(v100_node, 2)
    engines = [
        oracles.simulate_cluster,
        simulate_cluster,
        simulate_cluster_backfill,
        simulate_cluster_carbon_aware,
        simulate_cluster_power_cap,
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for simulate in engines:
            result = simulate([], cluster, horizon_h=8.0, intensity=100.0)
            assert result.n_jobs == 0
            assert result.mean_wait_h() == 0.0
            assert result.makespan_h() == 0.0
            assert result.average_usage() == 0.0


# --- EASY no-delay guarantee across workload backends ------------------------
@pytest.fixture(scope="module")
def shared_trace_path(tmp_path_factory):
    """A module-scoped replay trace so the hypothesis property below can
    exercise the ``trace`` backend without a function-scoped fixture."""
    from repro.cluster.traceio import save_jobs
    from repro.workloads.sources import WorkloadParams, generate_workload

    seed_jobs = generate_workload(
        WorkloadParams(horizon_h=72.0, total_gpus=16), seed=9
    )
    target = tmp_path_factory.mktemp("easy-trace") / "trace.json"
    return str(save_jobs(seed_jobs, target))


@pytest.mark.parametrize("key", ["synthetic", "diurnal", "bursty", "trace"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=40))
def test_backfill_never_delays_head_job(key, seed, v100_node,
                                        shared_trace_path):
    """EASY's no-delay guarantee: the head-of-queue job never starts
    later under ``backfill`` than under ``fcfs-columnar``."""
    if key == "trace":
        source = resolve_backend("workload", key)(path=shared_trace_path)
    else:
        source = resolve_backend("workload", key)(
            horizon_h=48.0, total_gpus=8, target_usage=0.9
        )
    batch = source.generate(seed=seed)
    if len(batch) == 0:
        return
    cluster = Cluster(v100_node, 2)
    fcfs = simulate_cluster(batch, cluster, horizon_h=HORIZON_H)
    easy = simulate_cluster_backfill(batch, cluster, horizon_h=HORIZON_H)
    order = np.lexsort((batch.job_ids, batch.submit_h))
    head = int(batch.job_ids[order[0]])
    fcfs_start = {s.job.job_id: s.start_h for s in fcfs.scheduled}[head]
    easy_start = {s.job.job_id: s.start_h for s in easy.scheduled}[head]
    assert easy_start <= fcfs_start + 1e-9
