"""Scalar/vector placement equivalence and sweep-executor equality.

The vectorized ``place_all`` kernels and the parallel ``process``
executor are pure performance features: their outputs must be exactly
the outputs of the scalar reference path.  These tests pin that
contract with hypothesis-generated workloads across slack
distributions, ``step_h`` granularities, forecast-error levels, and
mixed home regions.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import Job, JobBatch, Placement
from repro.intensity.api import CarbonIntensityService
from repro.intensity.trace import IntensityTrace
from repro.scheduler.policies import (
    MAX_STARTS_PER_JOB,
    CarbonObliviousPolicy,
    GeographicPolicy,
    TemporalGeographicPolicy,
    TemporalShiftingPolicy,
    place_jobs,
)
from repro.workloads.models import get_model

import oracles

REGIONS = ("A", "B", "C")
N_HOURS = 240


def make_service(seed: int, forecast_error: float) -> CarbonIntensityService:
    rng = np.random.default_rng(seed)
    traces = {
        code: IntensityTrace(code, 0, rng.uniform(50.0, 500.0, size=N_HOURS))
        for code in REGIONS
    }
    return CarbonIntensityService(
        traces, forecast_error=forecast_error, seed=seed
    )


@st.composite
def job_lists(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    jobs = []
    for i in range(n):
        duration = draw(
            st.floats(min_value=0.1, max_value=40.0, allow_nan=False)
        )
        jobs.append(
            Job(
                job_id=i,
                user=f"u{i % 3}",
                model=get_model("BERT"),
                n_gpus=draw(st.sampled_from([1, 2, 4])),
                duration_h=duration,
                submit_h=draw(st.floats(min_value=0.0, max_value=400.0)),
                slack_h=duration * draw(st.sampled_from([0.0, 0.5, 2.0, 5.0])),
                home_region=draw(st.sampled_from([None, *REGIONS])),
            )
        )
    return jobs


POLICY_BUILDERS = {
    "carbon-oblivious": lambda svc, step: CarbonObliviousPolicy(svc, "A"),
    "temporal-shifting": lambda svc, step: TemporalShiftingPolicy(
        svc, "A", step_h=step
    ),
    "geographic": lambda svc, step: GeographicPolicy(
        svc, "A", regions=list(REGIONS)
    ),
    "temporal+geographic": lambda svc, step: TemporalGeographicPolicy(
        svc, "A", regions=list(REGIONS), step_h=step
    ),
}


class TestScalarVectorEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        jobs=job_lists(),
        seed=st.integers(0, 50),
        forecast_error=st.sampled_from([0.0, 0.05, 0.25]),
        step_h=st.sampled_from([0.25, 0.5, 1.0, 2.5]),
        policy_key=st.sampled_from(sorted(POLICY_BUILDERS)),
    )
    def test_place_all_matches_place_exactly(
        self, jobs, seed, forecast_error, step_h, policy_key
    ):
        service = make_service(seed, forecast_error)
        policy = POLICY_BUILDERS[policy_key](service, step_h)
        scalar = [policy.place(job) for job in jobs]
        batched = policy.place_all(jobs)
        assert scalar == batched  # byte-identical placements, input order

    def test_scores_are_deterministic_per_query(self):
        """Repeated (region, hour, window) queries return one value even
        with noisy forecasts — the score-table contract that makes the
        scalar and vector paths agree."""
        service = make_service(3, 0.25)
        first = service.forecast_window_mean("A", 17, 5)
        assert service.forecast_window_mean("A", 17, 5) == first

    def test_oracle_table_is_true_forward_mean(self):
        service = make_service(4, 0.0)
        table = service.window_score_table("B", 6)
        expected = service.trace("B").forward_window_mean(6)
        assert np.array_equal(table, expected)

    def test_place_jobs_falls_back_for_minimal_policies(self):
        class MinimalPolicy:
            name = "minimal"

            def place(self, job):
                return Placement(
                    job_id=job.job_id,
                    region="A",
                    start_h=job.submit_h,
                    duration_h=job.duration_h,
                )

        jobs = [
            Job(
                job_id=i,
                user="u0",
                model=get_model("BERT"),
                n_gpus=1,
                duration_h=1.0,
                submit_h=float(i),
            )
            for i in range(3)
        ]
        placements = place_jobs(MinimalPolicy(), jobs)
        assert [p.job_id for p in placements] == [0, 1, 2]

    def test_place_all_empty_stream(self):
        service = make_service(6, 0.0)
        for builder in POLICY_BUILDERS.values():
            assert builder(service, 1.0).place_all([]) == []

    def test_unequal_region_horizons_fall_back_to_scalar(self):
        """Mixed-length trace sets (legal on the service, which wraps
        each region modulo its own length) must keep placing — the
        batch path falls back to the scalar reference per job."""
        service = CarbonIntensityService(
            {
                "A": IntensityTrace("A", 0, np.tile([100.0, 300.0], 120)),
                "B": IntensityTrace("B", 0, np.full(48, 150.0)),
            },
            forecast_error=0.05,
        )
        jobs = [
            Job(
                job_id=i,
                user="u",
                model=get_model("BERT"),
                n_gpus=1,
                duration_h=2.0,
                submit_h=float(3 * i),
                slack_h=4.0,
                home_region="A",
            )
            for i in range(12)
        ]
        for policy in (
            GeographicPolicy(service, "A"),
            TemporalGeographicPolicy(service, "A"),
        ):
            assert policy.place_all(jobs) == [policy.place(j) for j in jobs]

    def test_place_jobs_rejects_mispaired_placements(self):
        """A place_all that reorders its output must be caught at the
        shared chokepoint, not just by individual callers."""
        from repro.core.errors import SchedulingError

        service = make_service(7, 0.0)
        inner = GeographicPolicy(service, "A", regions=list(REGIONS))

        class Shuffled:
            name = "shuffled"

            def place_all(self, jobs):
                return list(reversed(inner.place_all(jobs)))

        jobs = [
            Job(
                job_id=i,
                user="u",
                model=get_model("BERT"),
                n_gpus=1,
                duration_h=1.0,
                submit_h=float(i),
            )
            for i in range(4)
        ]
        with pytest.raises(SchedulingError):
            place_jobs(Shuffled(), jobs)

    def test_long_window_noisy_table_is_bounded_and_deterministic(self):
        """Windows far longer than the trace build chunked (no dense
        n x window intermediate) and stay memoized-deterministic."""
        service = make_service(8, 0.1)
        table = service.window_score_table("A", 1000)
        assert table.shape == (N_HOURS,)
        assert np.isfinite(table).all()
        assert service.forecast_window_mean("A", 5, 1000) == float(table[5])


#: One scalar ``place`` scan per carbon-aware policy (``tests/oracles.py``).
ORACLES = {
    "temporal-shifting": oracles.temporal_shifting_place,
    "geographic": oracles.geographic_place,
    "temporal+geographic": oracles.temporal_geographic_place,
}


class TestSharedSearchParity:
    """The shared search (``_ForecastSearch``) against one scalar scan
    per policy, kept in ``tests/oracles.py``."""

    @settings(max_examples=40, deadline=None)
    @given(
        jobs=job_lists(),
        seed=st.integers(0, 50),
        forecast_error=st.sampled_from([0.0, 0.05, 0.25]),
        step_h=st.sampled_from([0.25, 0.5, 1.0, 2.5]),
        candidates=st.sampled_from([None, ["B"], list(REGIONS)]),
        horizons=st.sampled_from(
            [(N_HOURS,) * 3, (N_HOURS, 168, N_HOURS), (72, N_HOURS, 100)]
        ),
        policy_key=st.sampled_from(sorted(ORACLES)),
    )
    def test_place_and_place_all_match_the_scalar_oracles(
        self, jobs, seed, forecast_error, step_h, candidates, horizons,
        policy_key,
    ):
        rng = np.random.default_rng(seed)
        service = CarbonIntensityService(
            {
                code: IntensityTrace(code, 0, rng.uniform(50.0, 500.0, size=n))
                for code, n in zip(REGIONS, horizons)
            },
            forecast_error=forecast_error,
            seed=seed,
        )
        if policy_key == "temporal-shifting":
            policy = TemporalShiftingPolicy(service, "A", step_h=step_h)
        elif policy_key == "geographic":
            policy = GeographicPolicy(service, "A", regions=candidates)
        else:
            policy = TemporalGeographicPolicy(
                service, "A", regions=candidates, step_h=step_h
            )
        expected = [ORACLES[policy_key](policy, job) for job in jobs]
        assert [policy.place(job) for job in jobs] == expected
        assert policy.place_all(jobs) == expected
        assert policy.place_all(JobBatch.from_jobs(jobs)) == expected

    def test_submit_only_starts_build_no_slack_grid(self, monkeypatch):
        """The geographic kernel scores submit times as one column: no
        candidate-start grid, which measurably slowed it.  The kernels
        that search the slack grid build it once per ``place_all``,
        never per job."""
        from repro.scheduler import policies

        calls = []
        real = policies._start_grid

        def counting(*args):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(policies, "_start_grid", counting)
        service = make_service(9, 0.05)
        jobs = [
            Job(
                job_id=i,
                user="u",
                model=get_model("BERT"),
                n_gpus=1,
                duration_h=1.0 + i % 3,
                submit_h=2.5 * i,
                slack_h=6.0,
                home_region=REGIONS[i % 3],
            )
            for i in range(10)
        ]
        GeographicPolicy(service, "A").place_all(jobs)
        assert calls == []
        # One grid call over all ten jobs per time-shifting kernel.
        TemporalGeographicPolicy(service, "A").place_all(jobs)
        TemporalShiftingPolicy(service, "A").place_all(jobs)
        assert calls == [len(jobs), len(jobs)]

    @pytest.mark.parametrize(
        "policy_cls", [TemporalShiftingPolicy, TemporalGeographicPolicy]
    )
    def test_slack_below_float_spacing_keeps_the_submit_time(self, policy_cls):
        """A positive slack too small to move ``submit + slack + 1e-9``
        past the submit time makes ``np.arange`` empty; the job still
        has its submit time to start at, as with a zero slack."""
        service = make_service(10, 0.05)
        policy = policy_cls(service, "A")
        jobs = [
            Job(
                job_id=i,
                user="u",
                model=get_model("BERT"),
                n_gpus=1,
                duration_h=2.0,
                submit_h=submit,
                slack_h=slack,
                home_region="B",
            )
            for i, (submit, slack) in enumerate(
                [(3e9, 1e-7), (1e12, 1e-6), (float(2**53), 0.5)]
            )
        ]
        expected = [ORACLES[policy.name](policy, job) for job in jobs]
        assert [p.start_h for p in expected] == [j.submit_h for j in jobs]
        assert [policy.place(job) for job in jobs] == expected
        assert policy.place_all(jobs) == expected

    @pytest.mark.parametrize("path", ["place", "place_all"])
    @pytest.mark.parametrize(
        "policy_cls", [TemporalShiftingPolicy, TemporalGeographicPolicy]
    )
    @pytest.mark.parametrize(
        "slack", [1e300, float(MAX_STARTS_PER_JOB)]
    )
    def test_unbounded_start_grid_is_a_scheduling_error(
        self, slack, policy_cls, path
    ):
        """A slack whose grid would pass the per-job start cap (one past
        it here, or an overflowing count) names the job instead of
        failing inside numpy, on both paths alike."""
        from repro.core.errors import SchedulingError

        policy = policy_cls(make_service(10, 0.05), "A")
        jobs = [
            Job(
                job_id=job_id,
                user="u",
                model=get_model("BERT"),
                n_gpus=1,
                duration_h=2.0,
                submit_h=0.0,
                slack_h=job_slack,
                home_region="B",
            )
            for job_id, job_slack in ((3, 1.0), (41, slack))
        ]
        place = policy.place if path == "place" else policy.place_all
        with pytest.raises(SchedulingError, match=r"job 41: a slack of "):
            place(jobs[1] if path == "place" else jobs)

    @pytest.mark.parametrize("policy_key", sorted(ORACLES))
    def test_ties_go_to_the_first_region_and_start(self, policy_key):
        """On a flat grid every candidate scores the same, so the scan
        order alone decides: the first candidate region, the submit
        time."""
        from repro.intensity.api import constant_service

        service = constant_service(value=200.0, regions=list(REGIONS))
        candidates = ["C", "A", "B"]
        if policy_key == "temporal-shifting":
            policy = TemporalShiftingPolicy(service, "A", step_h=0.5)
        elif policy_key == "geographic":
            policy = GeographicPolicy(service, "A", regions=candidates)
        else:
            policy = TemporalGeographicPolicy(
                service, "A", regions=candidates, step_h=0.5
            )
        jobs = [
            Job(
                job_id=i,
                user="u",
                model=get_model("BERT"),
                n_gpus=1,
                duration_h=1.0 + i % 4,
                submit_h=3.7 * i,
                slack_h=8.0,
                home_region=REGIONS[i % 3],
            )
            for i in range(12)
        ]
        expected = [ORACLES[policy_key](policy, job) for job in jobs]
        assert [policy.place(job) for job in jobs] == expected
        assert policy.place_all(jobs) == expected
        assert [p.start_h for p in expected] == [job.submit_h for job in jobs]
        assert [p.region for p in expected] == (
            [job.home_region for job in jobs]
            if policy_key == "temporal-shifting"
            else ["C"] * len(jobs)
        )


class TestStartGrid:
    """The search's flat candidate-start column against ``np.arange``
    (``oracles.slack_starts``), bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e7),
                st.sampled_from(["zero", "hours", "below spacing"]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            max_size=12,
        ),
        step_h=st.sampled_from([0.25, 0.5, 1 / 3, 1.0, 2.5]),
    )
    def test_matches_arange_bit_for_bit(self, jobs, step_h):
        from repro.scheduler.policies import _start_grid

        submits = np.array([submit for submit, _, _ in jobs], dtype=float)
        slacks = np.array(
            [
                0.0 if kind == "zero"
                else 72.0 * fraction if kind == "hours"
                else fraction * float(np.spacing(submit))
                for submit, kind, fraction in jobs
            ],
            dtype=float,
        )
        grids = [
            oracles.slack_starts(submit, slack, step_h)
            for submit, slack in zip(submits, slacks)
        ]
        sizes = np.array([grid.size for grid in grids], dtype=np.int64)
        firsts, owner, starts = _start_grid(
            submits, slacks, step_h, np.arange(len(jobs))
        )
        assert np.array_equal(firsts, np.cumsum(sizes) - sizes)
        assert np.array_equal(owner, np.repeat(np.arange(len(grids)), sizes))
        expected = np.concatenate([np.empty(0), *grids])
        assert np.array_equal(starts.view(np.int64), expected.view(np.int64))


class TestExecutorEquality:
    @pytest.fixture(scope="class")
    def sweep_scenarios(self):
        from repro.cluster import WorkloadParams
        from repro.session import Scenario

        def build():
            return [
                Scenario()
                .node("V100")
                .region(region)
                .workload(
                    WorkloadParams(
                        horizon_h=72.0, total_gpus=8, home_region=region
                    ),
                    seed=3,
                )
                .policy(policy)
                for region in ("ESO", "CISO")
                for policy in ("carbon-oblivious", "carbon_aware")
            ]

        return build

    @staticmethod
    def _fingerprint(result):
        return (
            result.name,
            [
                (o.policy, o.carbon_g, o.energy_kwh, o.mean_delay_h, o.migrations)
                for o in result.scheduling.outcomes
            ],
        )

    def test_process_sweep_equals_serial(self, sweep_scenarios):
        from repro.session import Session

        serial = Session.run_many(sweep_scenarios())
        procs = Session.run_many(
            sweep_scenarios(), executor="process", max_workers=2
        )
        assert [self._fingerprint(r) for r in serial] == [
            self._fingerprint(r) for r in procs
        ]

    def test_scenario_executor_knob_selects_engine(self, sweep_scenarios):
        from repro.session import Session

        scenarios = sweep_scenarios()
        scenarios[0] = scenarios[0].executor("process", max_workers=2)
        serial = Session.run_many(sweep_scenarios())
        knobbed = Session.run_many(scenarios)
        assert [self._fingerprint(r) for r in serial] == [
            self._fingerprint(r) for r in knobbed
        ]
        provenance = {p.knob: p for p in scenarios[0].build().provenance}
        assert provenance["executor"].backend == "executor:process"

    def test_built_session_keeps_executor_knob(self, sweep_scenarios):
        """run_many must honor the knob on pre-built Session items too
        (the Session carries its builder snapshot)."""
        from repro.session import Session
        from repro.session.executors import _sweep_seeds

        scenarios = sweep_scenarios()
        scenarios[0] = scenarios[0].executor("process", max_workers=2)
        built = [s.build() for s in scenarios]
        assert _sweep_seeds(built) == (2021,)
        serial = Session.run_many(sweep_scenarios())
        results = Session.run_many(built)
        assert [self._fingerprint(r) for r in serial] == [
            self._fingerprint(r) for r in results
        ]

    def test_unknown_executor_rejected(self, sweep_scenarios):
        from repro.core.errors import UnknownBackendError
        from repro.session import Session

        with pytest.raises(UnknownBackendError):
            Session.run_many(sweep_scenarios(), executor="gpu-cloud")

    def test_executor_registered_kinds(self):
        from repro.session import available_backends

        keys = available_backends("executor")
        assert "serial" in keys and "process" in keys
