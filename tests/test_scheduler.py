"""Scheduling policies, evaluation invariants, and carbon savings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accounting import VectorizedChargingEngine
from repro.core.errors import SchedulingError
from repro.cluster.job import Job, JobBatch, Placement
from repro.workloads.sources import WorkloadParams, generate_workload
from repro.hardware.node import v100_node
from repro.intensity.api import CarbonIntensityService
from repro.intensity.trace import IntensityTrace
from repro.scheduler.evaluation import compare_policies, evaluate_policy
from repro.scheduler.policies import (
    CarbonObliviousPolicy,
    GeographicPolicy,
    TemporalGeographicPolicy,
    TemporalShiftingPolicy,
)
from repro.workloads.models import get_model


def make_service(forecast_error=0.0):
    # Region A alternates 100/300; region B flat 150.
    a = IntensityTrace("A", 0, np.tile([100.0, 300.0], 120))
    b = IntensityTrace("B", 0, np.full(240, 150.0))
    return CarbonIntensityService({"A": a, "B": b}, forecast_error=forecast_error)


def make_job(job_id=0, submit=0.0, duration=1.0, slack=0.0, region="A"):
    return Job(
        job_id=job_id,
        user="u0",
        model=get_model("BERT"),
        n_gpus=1,
        duration_h=duration,
        submit_h=submit,
        slack_h=slack,
        home_region=region,
    )


class ProposalPolicy:
    """A place()-only policy proposing the given start per job id
    (submit time otherwise), in the job's home region."""

    def __init__(self, starts, name="proposer"):
        self.starts = starts
        self.name = name

    def place(self, job):
        return Placement(
            job_id=job.job_id,
            region=job.home_region,
            start_h=self.starts.get(job.job_id, job.submit_h),
            duration_h=job.duration_h,
        )


class RecordingEngine(VectorizedChargingEngine):
    """The default charging engine, counting its charge calls."""

    def __init__(self):
        self.calls = 0

    def charge(self, *args, **kwargs):
        self.calls += 1
        return super().charge(*args, **kwargs)


class TestCarbonOblivious:
    def test_places_at_submit_in_home_region(self):
        policy = CarbonObliviousPolicy(make_service(), "A")
        placement = policy.place(make_job(submit=5.0))
        assert placement.start_h == 5.0
        assert placement.region == "A"
        assert not placement.migrated

    def test_unknown_default_region_rejected(self):
        with pytest.raises(SchedulingError):
            CarbonObliviousPolicy(make_service(), "Z")


class TestTemporalShifting:
    def test_moves_to_clean_hour(self):
        policy = TemporalShiftingPolicy(make_service(), "A")
        # Submit at a dirty hour (odd = 300), slack allows +1 h to a clean one.
        placement = policy.place(make_job(submit=1.0, duration=1.0, slack=1.0))
        assert placement.start_h == 2.0

    def test_rigid_job_not_moved(self):
        policy = TemporalShiftingPolicy(make_service(), "A")
        placement = policy.place(make_job(submit=1.0, slack=0.0))
        assert placement.start_h == 1.0

    def test_never_violates_slack(self):
        policy = TemporalShiftingPolicy(make_service(), "A")
        for submit in (0.0, 1.0, 2.5):
            job = make_job(submit=submit, slack=3.0)
            placement = policy.place(job)
            assert job.submit_h <= placement.start_h <= job.latest_start_h + 1e-9

    def test_bad_step_rejected(self):
        with pytest.raises(SchedulingError):
            TemporalShiftingPolicy(make_service(), "A", step_h=0.0)

    @pytest.mark.parametrize(
        "policy", [TemporalShiftingPolicy, TemporalGeographicPolicy]
    )
    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_non_finite_step_rejected(self, policy, step):
        """A NaN step would fail only at the first placement, inside
        ``np.arange``; an infinite one would shrink the grid to the
        submit time."""
        with pytest.raises(SchedulingError, match="step must be finite"):
            policy(make_service(), "A", step_h=step)


class TestGeographic:
    def test_picks_cleaner_region(self):
        policy = GeographicPolicy(make_service(), "A")
        # A 1-hour job at an odd (300) hour: B at 150 wins.
        placement = policy.place(make_job(submit=1.0))
        assert placement.region == "B"
        assert placement.migrated

    def test_stays_home_when_home_is_cleanest(self):
        policy = GeographicPolicy(make_service(), "A")
        placement = policy.place(make_job(submit=0.0))  # A at 100 < B 150
        assert placement.region == "A"
        assert not placement.migrated

    def test_candidate_restriction(self):
        policy = GeographicPolicy(make_service(), "A", regions=["A"])
        placement = policy.place(make_job(submit=1.0))
        assert placement.region == "A"

    def test_unknown_candidate_rejected(self):
        with pytest.raises(SchedulingError):
            GeographicPolicy(make_service(), "A", regions=["A", "Z"])


class TestTemporalGeographic:
    def test_at_least_as_good_as_either(self):
        service = make_service()
        job = make_job(submit=1.0, duration=1.0, slack=2.0)
        combined = TemporalGeographicPolicy(service, "A").place(job)
        # Best option: shift to hour 2 in region A at 100.
        assert combined.region == "A"
        assert combined.start_h == 2.0


class TestRowScopedScoreTables:
    def test_kernels_read_only_the_rows_their_candidates_need(self):
        """Placements over the first ~2.5 days of a year-long trace build
        one row block per table, and match placements scored against
        whole-year tables."""
        from repro.intensity import table_cache_info, trace_cache_clear

        def place_all(service):
            jobs = [
                make_job(job_id=i, submit=1.5 * i, duration=1.0 + i % 5,
                         slack=12.0, region="ESO")
                for i in range(32)
            ]
            return [
                policy(service, "ESO").place_all(jobs)
                for policy in (
                    TemporalShiftingPolicy,
                    GeographicPolicy,
                    TemporalGeographicPolicy,
                )
            ]

        trace_cache_clear()
        service = CarbonIntensityService(seed=7, forecast_error=0.1)
        scoped = place_all(service)
        info = table_cache_info()
        # Candidate hours end at 1.5 * 31 + 12 < 64: one block each.
        assert info.entries > 0 and info.bytes == info.entries * 64 * 8
        trace_cache_clear()
        service = CarbonIntensityService(seed=7, forecast_error=0.1)
        for region in service.regions:
            for window in range(1, 6):
                service.window_score_table(region, window)  # whole year
        assert place_all(service) == scoped
        # Every table the kernels read was the whole-year one.
        assert table_cache_info().bytes == info.entries * 8760 * 8


class TestEvaluation:
    def test_migration_overhead_charged(self):
        service = make_service()
        job = make_job(submit=1.0)
        geo = GeographicPolicy(service, "A")
        base = evaluate_policy(
            [job], geo, service, v100_node(), transfer_overhead_fraction=0.0
        )
        taxed = evaluate_policy(
            [job], geo, service, v100_node(), transfer_overhead_fraction=0.10
        )
        assert taxed.total_energy.kwh == pytest.approx(
            base.total_energy.kwh * 1.10
        )

    def test_energy_independent_of_region_choice(self):
        service = make_service()
        jobs = [make_job(job_id=i, submit=float(i)) for i in range(6)]
        res = compare_policies(
            jobs,
            [CarbonObliviousPolicy(service, "A"), TemporalShiftingPolicy(service, "A")],
            service,
            v100_node(),
        )
        # Shifting changes carbon, not energy.
        assert res["carbon-oblivious"].total_energy.kwh == pytest.approx(
            res["temporal-shifting"].total_energy.kwh
        )

    def test_oracle_temporal_never_worse(self):
        service = make_service()
        jobs = [make_job(job_id=i, submit=float(i), slack=4.0) for i in range(20)]
        res = compare_policies(
            jobs,
            [CarbonObliviousPolicy(service, "A"), TemporalShiftingPolicy(service, "A")],
            service,
            v100_node(),
        )
        assert (
            res["temporal-shifting"].total_carbon.grams
            <= res["carbon-oblivious"].total_carbon.grams + 1e-9
        )

    def test_slack_violation_detected(self):
        service = make_service()

        class BadPolicy:
            name = "bad"

            def place(self, job):
                return Placement(
                    job_id=job.job_id,
                    region="A",
                    start_h=job.latest_start_h + 10.0,
                    duration_h=job.duration_h,
                )

        with pytest.raises(SchedulingError):
            evaluate_policy([make_job()], BadPolicy(), service, v100_node())

    def test_wrong_job_id_detected(self):
        service = make_service()

        class MixupPolicy:
            name = "mixup"

            def place(self, job):
                return Placement(
                    job_id=job.job_id + 1,
                    region="A",
                    start_h=job.submit_h,
                    duration_h=job.duration_h,
                )

        with pytest.raises(SchedulingError):
            evaluate_policy([make_job()], MixupPolicy(), service, v100_node())

    def test_duplicate_policy_names_rejected(self):
        service = make_service()
        policies = [
            CarbonObliviousPolicy(service, "A"),
            CarbonObliviousPolicy(service, "A"),
        ]
        with pytest.raises(SchedulingError):
            compare_policies([make_job()], policies, service, v100_node())

    @pytest.mark.parametrize(
        "starts, message",
        [
            # Job 1 breaks its slack, job 2 starts early: job 1 is named.
            ({1: 22.0, 2: 22.0}, "policy 'bad' violated slack for job 1"),
            ({1: 12.0, 2: 32.0}, "policy 'bad' started job 1 before submit"),
        ],
    )
    def test_first_offending_job_reported(self, starts, message):
        """Evaluation names the first offending job in input order, with
        the seed evaluator's message."""
        service = make_service()
        jobs = [make_job(job_id=i, submit=10.0 * i + 5.0, slack=2.0) for i in range(3)]
        policy = ProposalPolicy(starts, name="bad")
        with pytest.raises(SchedulingError) as evaluated:
            evaluate_policy(jobs, policy, service, v100_node())
        assert str(evaluated.value) == message


class TestRejectedBeforeCharging:
    """Inputs evaluate_policy once accepted and then mis-charged or
    reported late: each raises SchedulingError before any charging."""

    @pytest.fixture(scope="class")
    def case(self):
        service = CarbonIntensityService()
        jobs = [
            make_job(job_id=i, submit=5.0 * i, duration=2.0, slack=6.0, region="ESO")
            for i in range(3)
        ]
        return service, jobs

    def test_nan_start_rejected(self, case):
        service, jobs = case
        engine = RecordingEngine()
        with pytest.raises(
            SchedulingError,
            match="policy 'proposer' placed job 1 at non-finite start nan",
        ):
            evaluate_policy(
                jobs, ProposalPolicy({1: float("nan")}), service, v100_node(),
                accounting=engine,
            )
        assert engine.calls == 0

    def test_batch_of_other_jobs_rejected(self, case):
        service, jobs = case
        other = JobBatch.coerce(
            [
                make_job(job_id=10 + i, submit=5.0 * i, duration=30.0, region="ESO")
                for i in range(3)
            ]
        )
        engine = RecordingEngine()
        with pytest.raises(SchedulingError, match="batch row 0 holds job 10"):
            evaluate_policy(
                jobs, CarbonObliviousPolicy(service, "ESO"), service, v100_node(),
                accounting=engine, batch=other,
            )
        assert engine.calls == 0

    @pytest.mark.parametrize("overhead", [float("nan"), float("inf")])
    def test_non_finite_transfer_overhead_rejected(self, case, overhead):
        service, jobs = case
        engine = RecordingEngine()
        with pytest.raises(SchedulingError, match="overhead must be finite"):
            evaluate_policy(
                jobs, GeographicPolicy(service, "ESO"), service, v100_node(),
                transfer_overhead_fraction=overhead, accounting=engine,
            )
        assert engine.calls == 0


class TestRealisticSavings:
    """Carbon-aware policies on the calibrated Table 3 traces."""

    @pytest.fixture(scope="class")
    def setup(self):
        service = CarbonIntensityService(forecast_error=0.0)
        params = WorkloadParams(
            horizon_h=24 * 14, total_gpus=32, home_region="ESO", slack_fraction=3.0
        )
        jobs = generate_workload(params, seed=11)
        return service, jobs

    def test_temporal_shifting_saves_in_volatile_region(self, setup):
        service, jobs = setup
        res = compare_policies(
            jobs,
            [
                CarbonObliviousPolicy(service, "ESO"),
                TemporalShiftingPolicy(service, "ESO"),
            ],
            service,
            v100_node(),
        )
        base = res["carbon-oblivious"].total_carbon.grams
        shifted = res["temporal-shifting"].total_carbon.grams
        assert shifted < base * 0.97  # >3% savings from slack alone

    def test_geographic_distribution_saves(self, setup):
        service, jobs = setup
        res = compare_policies(
            jobs,
            [
                CarbonObliviousPolicy(service, "ESO"),
                TemporalGeographicPolicy(
                    service, "ESO", regions=["ESO", "CISO", "ERCOT"]
                ),
            ],
            service,
            v100_node(),
        )
        base = res["carbon-oblivious"].total_carbon.grams
        combined = res["temporal+geographic"].total_carbon.grams
        assert combined < base * 0.95

    def test_forecast_error_degrades_savings(self, setup):
        _oracle_service, jobs = setup
        oracle = CarbonIntensityService(forecast_error=0.0)
        noisy = CarbonIntensityService(forecast_error=0.25)
        oracle_eval = evaluate_policy(
            jobs, TemporalShiftingPolicy(oracle, "ESO"), oracle, v100_node()
        )
        noisy_eval = evaluate_policy(
            jobs, TemporalShiftingPolicy(noisy, "ESO"), noisy, v100_node()
        )
        assert noisy_eval.total_carbon.grams >= oracle_eval.total_carbon.grams
