"""Cluster substrate: jobs, workload generation, simulation invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.cluster.job import Job, Placement
from repro.cluster.simulator import Cluster, simulate_cluster
from repro.workloads.sources import WorkloadParams, generate_workload
from repro.hardware.node import v100_node
from repro.intensity.trace import IntensityTrace
from repro.workloads.models import get_model


def make_job(job_id=0, gpus=1, duration=2.0, submit=0.0, **kw) -> Job:
    return Job(
        job_id=job_id,
        user=kw.pop("user", "user00"),
        model=get_model("BERT"),
        n_gpus=gpus,
        duration_h=duration,
        submit_h=submit,
        **kw,
    )


class TestJob:
    def test_gpu_hours(self):
        assert make_job(gpus=4, duration=2.5).gpu_hours == 10.0

    def test_latest_start(self):
        job = make_job(submit=3.0, slack_h=5.0)
        assert job.latest_start_h == 8.0

    def test_with_slack(self):
        assert make_job().with_slack(7.0).slack_h == 7.0

    @pytest.mark.parametrize(
        "kw", [dict(gpus=0), dict(duration=0.0), dict(submit=-1.0)]
    )
    def test_validation(self, kw):
        with pytest.raises(SimulationError):
            make_job(**kw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "kw, what",
        [("submit", "submit time"), ("duration", "duration"), ("slack_h", "slack")],
    )
    def test_non_finite_times_rejected(self, kw, what, value):
        with pytest.raises(SimulationError, match=f"job 7: {what} must be finite"):
            make_job(job_id=7, **{kw: value})

    def test_placement_end(self):
        p = Placement(job_id=1, region="ESO", start_h=2.0, duration_h=3.0)
        assert p.end_h == 5.0

    def test_placement_validation(self):
        with pytest.raises(SimulationError):
            Placement(job_id=1, region="ESO", start_h=-1.0, duration_h=1.0)


class TestWorkloadGen:
    def test_target_usage_exact(self):
        params = WorkloadParams(horizon_h=24 * 7, target_usage=0.4, total_gpus=16)
        jobs = generate_workload(params, seed=1)
        gpu_hours = sum(j.gpu_hours for j in jobs)
        assert gpu_hours == pytest.approx(0.4 * 16 * 24 * 7, rel=1e-9)

    def test_deterministic(self):
        params = WorkloadParams()
        a = generate_workload(params, seed=5)
        b = generate_workload(params, seed=5)
        assert [(j.submit_h, j.n_gpus, j.duration_h) for j in a] == [
            (j.submit_h, j.n_gpus, j.duration_h) for j in b
        ]

    def test_submits_sorted_within_horizon(self):
        jobs = generate_workload(WorkloadParams(horizon_h=100.0), seed=2)
        submits = [j.submit_h for j in jobs]
        assert submits == sorted(submits)
        assert all(0.0 <= s <= 100.0 for s in submits)

    def test_gpu_counts_power_of_two(self):
        jobs = generate_workload(WorkloadParams(), seed=3)
        assert set(j.n_gpus for j in jobs) <= {1, 2, 4}

    def test_users_spread(self):
        jobs = generate_workload(WorkloadParams(n_users=4), seed=4)
        assert len({j.user for j in jobs}) > 1

    def test_slack_proportional_to_duration(self):
        params = WorkloadParams(slack_fraction=2.0)
        for job in generate_workload(params, seed=6)[:20]:
            assert job.slack_h == pytest.approx(2.0 * job.duration_h)

    def test_home_region_attached(self):
        params = WorkloadParams(home_region="ESO")
        assert all(j.home_region == "ESO" for j in generate_workload(params, seed=7))

    def test_invalid_params(self):
        with pytest.raises(SimulationError):
            WorkloadParams(target_usage=0.0)
        with pytest.raises(SimulationError):
            WorkloadParams(horizon_h=-1.0)


class TestSimulator:
    @pytest.fixture()
    def cluster(self):
        return Cluster(v100_node(), n_nodes=2)

    def test_cluster_capacity(self, cluster):
        assert cluster.gpus_per_node == 4
        assert cluster.total_gpus == 8

    def test_jobs_run_immediately_when_free(self, cluster):
        jobs = [make_job(job_id=i, gpus=4, submit=float(i)) for i in range(2)]
        result = simulate_cluster(jobs, cluster, horizon_h=24.0)
        assert all(s.wait_h == 0.0 for s in result.scheduled)

    def test_queueing_when_saturated(self, cluster):
        # 3 full-node jobs at t=0 on 2 nodes: the third must wait.
        jobs = [make_job(job_id=i, gpus=4, duration=2.0, submit=0.0) for i in range(3)]
        result = simulate_cluster(jobs, cluster, horizon_h=24.0)
        waits = sorted(s.wait_h for s in result.scheduled)
        assert waits[:2] == [0.0, 0.0]
        assert waits[2] == pytest.approx(2.0)

    def test_packing_shares_a_node(self, cluster):
        # Two 2-GPU jobs fit one node concurrently.
        jobs = [make_job(job_id=i, gpus=2, duration=1.0, submit=0.0) for i in range(4)]
        result = simulate_cluster(jobs, cluster, horizon_h=10.0)
        assert all(s.wait_h == 0.0 for s in result.scheduled)

    def test_oversized_job_rejected(self, cluster):
        with pytest.raises(SimulationError):
            simulate_cluster([make_job(gpus=8)], cluster, horizon_h=10.0)

    @pytest.mark.parametrize("n_nodes", [float("nan"), float("inf"), 2.5, True, 0])
    def test_cluster_needs_a_whole_node_count(self, n_nodes):
        # Cluster(node, 2.5) used to report total_gpus == 10.0.
        with pytest.raises(SimulationError, match="whole number of nodes"):
            Cluster(v100_node(), n_nodes)

    def test_integral_float_node_count_is_an_int(self):
        cluster = Cluster(v100_node(), 2.0)
        assert cluster.n_nodes == 2 and isinstance(cluster.n_nodes, int)

    def test_nan_constant_intensity_rejected(self, cluster):
        # A NaN intensity passed the < 0 check and returned NaN carbon.
        with pytest.raises(SimulationError, match="finite and non-negative"):
            simulate_cluster(
                [make_job()], cluster, horizon_h=4.0, intensity=float("nan")
            )

    def test_utilization_matches_busy_hours(self, cluster):
        jobs = [make_job(job_id=0, gpus=4, duration=6.0, submit=0.0)]
        result = simulate_cluster(jobs, cluster, horizon_h=12.0)
        util = result.utilization()
        assert util[:6].sum() == pytest.approx(6 * 4 / 8)
        assert util[6:].sum() == 0.0

    def test_average_usage_equals_offered_load(self, cluster):
        params = WorkloadParams(
            horizon_h=24 * 14, target_usage=0.3, total_gpus=8, mean_duration_h=2.0
        )
        jobs = generate_workload(params, seed=8)
        result = simulate_cluster(jobs, cluster, horizon_h=24 * 14 * 1.2)
        # Tail truncation and queueing move a little load past the window.
        assert result.average_usage() == pytest.approx(0.3 / 1.2, rel=0.15)

    def test_energy_positive_even_idle(self, cluster):
        result = simulate_cluster([], cluster, horizon_h=24.0)
        assert result.ic_energy_kwh > 0.0  # idle draw
        assert result.n_jobs == 0

    def test_carbon_scales_with_intensity(self, cluster):
        jobs = [make_job(job_id=0, gpus=4, duration=5.0)]
        low = simulate_cluster(jobs, cluster, horizon_h=24.0, intensity=100.0)
        high = simulate_cluster(jobs, cluster, horizon_h=24.0, intensity=400.0)
        assert high.carbon_g == pytest.approx(4 * low.carbon_g, rel=1e-9)
        assert high.ic_energy_kwh == pytest.approx(low.ic_energy_kwh)

    def test_trace_intensity(self, cluster):
        trace = IntensityTrace("T", 0, np.full(48, 200.0))
        jobs = [make_job(job_id=0, gpus=2, duration=3.0)]
        with_trace = simulate_cluster(jobs, cluster, horizon_h=48.0, intensity=trace)
        constant = simulate_cluster(jobs, cluster, horizon_h=48.0, intensity=200.0)
        assert with_trace.carbon_g == pytest.approx(constant.carbon_g, rel=1e-9)

    def test_pue_scaling(self, cluster):
        jobs = [make_job(job_id=0, gpus=2, duration=3.0)]
        base = simulate_cluster(jobs, cluster, horizon_h=24.0, pue=1.0)
        scaled = simulate_cluster(jobs, cluster, horizon_h=24.0, pue=1.5)
        assert scaled.carbon_g == pytest.approx(1.5 * base.carbon_g, rel=1e-9)

    def test_fcfs_order_respected(self, cluster):
        # Earlier submitter starts no later than a later submitter needing
        # the same resources.
        jobs = [
            make_job(job_id=0, gpus=4, duration=4.0, submit=0.0),
            make_job(job_id=1, gpus=4, duration=4.0, submit=0.1),
            make_job(job_id=2, gpus=4, duration=4.0, submit=0.2),
        ]
        result = simulate_cluster(jobs, cluster, horizon_h=24.0)
        starts = {s.job.job_id: s.start_h for s in result.scheduled}
        assert starts[0] <= starts[1] <= starts[2]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_capacity_never_exceeded(self, seed):
        cluster = Cluster(v100_node(), n_nodes=2)
        params = WorkloadParams(horizon_h=24 * 3, target_usage=0.8, total_gpus=8)
        jobs = generate_workload(params, seed=seed)
        result = simulate_cluster(jobs, cluster, horizon_h=24 * 4)
        assert float(result.busy_gpu_hours_per_hour.max(initial=0.0)) <= 8 + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_every_job_scheduled_exactly_once(self, seed):
        cluster = Cluster(v100_node(), n_nodes=3)
        params = WorkloadParams(horizon_h=24 * 3, target_usage=0.5, total_gpus=12)
        jobs = generate_workload(params, seed=seed)
        result = simulate_cluster(jobs, cluster, horizon_h=24 * 5)
        ids = [s.job.job_id for s in result.scheduled]
        assert sorted(ids) == sorted(j.job_id for j in jobs)
        assert all(s.start_h >= s.job.submit_h for s in result.scheduled)
