"""Columnar placements: PlacementBatch and the evaluator that reads it.

The built-in ``place_all`` kernels return a
:class:`~repro.cluster.job.PlacementBatch`; validation, charging and the
carbon rollup read its columns, and ``PolicyEvaluation`` builds its
per-job ``outcomes`` only when a caller reads them.  These tests pin the
batch's sequence protocol, the evaluator's column reductions against
the object-by-object reductions they replace, and the absence of
per-job objects on a canonical-size run.
"""

from __future__ import annotations

import pickle
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting.engines import ScalarReferenceChargingEngine
from repro.core.errors import SimulationError
from repro.core.units import CarbonMass, Energy
from repro.cluster.job import Job, Placement, PlacementBatch
from repro.hardware.node import v100_node
from repro.intensity.api import CarbonIntensityService
from repro.intensity.trace import IntensityTrace
from repro.scheduler.evaluation import JobOutcome, evaluate_policy
from repro.scheduler.policies import (
    CarbonObliviousPolicy,
    GeographicPolicy,
    TemporalGeographicPolicy,
    TemporalShiftingPolicy,
)
from repro.workloads.models import get_model

REGIONS = ("A", "B", "C")
NODE = v100_node()
POLICIES = (
    "carbon-oblivious", "temporal-shifting", "geographic",
    "temporal+geographic",
)


def bits(value: float) -> bytes:
    """A float's IEEE bytes: equality that also tells -0.0 from 0.0."""
    return struct.pack("<d", value)


def make_service(seed: int, forecast_error: float) -> CarbonIntensityService:
    rng = np.random.default_rng(seed)
    traces = {
        code: IntensityTrace(code, 0, rng.uniform(50.0, 500.0, size=240))
        for code in REGIONS
    }
    return CarbonIntensityService(traces, forecast_error=forecast_error, seed=seed)


class PlaceOnlyPolicy:
    """A third-party policy with ``place`` alone: half-slack starts, odd
    jobs moved to region B."""

    name = "place-only"

    def __init__(self, service, default_region):
        del service
        self.default_region = default_region

    def place(self, job):
        home = job.home_region or self.default_region
        region = "B" if job.job_id % 2 else home
        return Placement(
            job_id=job.job_id,
            region=region,
            start_h=job.submit_h + job.slack_h / 2.0,
            duration_h=job.duration_h,
            migrated=region != home,
        )


BUILDERS = {
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
    "place-only": lambda svc, step: PlaceOnlyPolicy(svc, "A"),
}


@st.composite
def job_lists(draw):
    n = draw(st.integers(min_value=0, max_value=20))
    jobs = []
    for i in range(n):
        duration = draw(st.floats(min_value=0.1, max_value=40.0))
        jobs.append(
            Job(
                job_id=i,
                user=f"u{i % 3}",
                model=get_model("BERT"),
                n_gpus=draw(st.sampled_from([1, 2, 4])),
                duration_h=duration,
                submit_h=draw(st.floats(min_value=0.0, max_value=400.0)),
                slack_h=duration * draw(st.sampled_from([0.0, 0.5, 2.0])),
                home_region=draw(st.sampled_from([None, *REGIONS])),
            )
        )
    return jobs


def object_outcomes(jobs, policy, service):
    """Per-job outcomes built object by object, as the evaluator did
    before its columns: scalar ``place`` (byte-identical to the kernels)
    and the scalar reference engine (bit-identical to the default)."""
    placements = [policy.place(job) for job in jobs]
    charges = ScalarReferenceChargingEngine().charge(
        jobs, placements, service=service, node=NODE
    )
    return tuple(
        JobOutcome(
            job_id=job.job_id,
            placement=placement,
            energy_kwh=float(charges.energy_kwh[i]),
            carbon_g=float(charges.carbon_g[i]),
            delay_h=float(placement.start_h - job.submit_h),
        )
        for i, (job, placement) in enumerate(zip(jobs, placements))
    )


def sample_placements():
    return [
        Placement(job_id=3, region="A", start_h=1.0, duration_h=2.0),
        Placement(job_id=5, region="B", start_h=4.5, duration_h=1.0, migrated=True),
        Placement(job_id=8, region="A", start_h=6.0, duration_h=0.5),
        Placement(job_id=9, region="C", start_h=0.0, duration_h=3.0, migrated=True),
    ]


class TestPlacementBatchProtocol:
    def test_indexing_slices_and_iteration(self):
        placements = sample_placements()
        batch = PlacementBatch.from_placements(placements)
        assert len(batch) == 4
        assert batch[0] == placements[0] and batch[-1] == placements[-1]
        assert batch[-3] == placements[1]
        for index in (4, -5):
            with pytest.raises(IndexError):
                batch[index]
        for rows in (slice(1, 3), slice(None, None, 2), slice(3, 0, -1)):
            part = batch[rows]
            assert isinstance(part, PlacementBatch)
            assert part == placements[rows]
        assert list(batch) == placements
        assert batch.region_names() == ["A", "B", "A", "C"]
        assert PlacementBatch.coerce(batch) is batch

    def test_equality_ignores_the_region_table(self):
        placements = sample_placements()
        batch = PlacementBatch.from_placements(placements)
        recoded = PlacementBatch(
            job_ids=[3, 5, 8, 9],
            start_h=[1.0, 4.5, 6.0, 0.0],
            duration_h=[2.0, 1.0, 0.5, 3.0],
            migrated=[False, True, False, True],
            region_codes=[2, 0, 2, 3],
            regions=("B", "D", "A", "C"),
        )
        assert recoded.regions != batch.regions
        assert batch == recoded and recoded == batch
        assert batch == placements and placements == batch
        assert batch == tuple(placements)
        assert batch != placements[:-1]
        assert batch != [*placements[:-1], Placement(9, "B", 0.0, 3.0, True)]
        assert batch != [*placements[:-1], "not a placement"]
        assert batch != "ABAC"
        assert PlacementBatch.from_placements([]) == []

    def test_columns_are_read_only(self):
        starts = np.array([1.0, 2.0])
        batch = PlacementBatch(
            job_ids=[1, 2], start_h=starts, duration_h=[1.0, 1.0],
            migrated=[False, False], region_codes=[0, 0], regions=("A",),
        )
        assert starts.flags.writeable  # the caller's array is copied
        for name in ("job_ids", "start_h", "duration_h", "migrated", "region_codes"):
            column = getattr(batch, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = column[1]
        with pytest.raises(AttributeError):
            batch.start_h = starts

    @pytest.mark.parametrize(
        "start_h, duration_h",
        [
            ([0.0, -1.0, -2.0], [1.0, 1.0, 1.0]),  # negative start
            ([0.0, 0.0, 0.0], [1.0, 0.0, -1.0]),  # non-positive duration
            ([0.0, -1.0, 0.0], [1.0, 0.0, 1.0]),  # both: start checked first
            ([0.0, 0.0, -1.0], [1.0, 0.0, 1.0]),  # first offending row wins
        ],
    )
    def test_runs_the_placement_checks(self, start_h, duration_h):
        job_ids = [4, 6, 7]
        first = next(
            i for i in range(3) if start_h[i] < 0.0 or duration_h[i] <= 0.0
        )
        with pytest.raises(SimulationError) as scalar:
            Placement(job_ids[first], "A", start_h[first], duration_h[first])
        with pytest.raises(SimulationError) as columnar:
            PlacementBatch(
                job_ids=job_ids, start_h=start_h, duration_h=duration_h,
                migrated=[False] * 3, region_codes=[0] * 3, regions=("A",),
            )
        assert str(columnar.value) == str(scalar.value)

    def test_rejects_a_malformed_region_table(self):
        columns = dict(
            job_ids=[1, 2], start_h=[0.0, 1.0], duration_h=[1.0, 1.0],
            migrated=[False, False],
        )
        with pytest.raises(SimulationError, match="repeats a name"):
            PlacementBatch(**columns, region_codes=[0, 1], regions=("A", "A"))
        with pytest.raises(SimulationError, match="outside the region table"):
            PlacementBatch(**columns, region_codes=[0, 1], regions=("A",))
        with pytest.raises(SimulationError, match="has 1 rows, expected 2"):
            PlacementBatch(**{**columns, "start_h": [0.0]}, region_codes=[0, 0],
                           regions=("A",))

    def test_pickles(self):
        batch = PlacementBatch.from_placements(sample_placements())
        assert pickle.loads(pickle.dumps(batch)) == batch


class TestColumnarEvaluation:
    @settings(max_examples=30, deadline=None)
    @given(
        jobs=job_lists(),
        seed=st.integers(0, 50),
        forecast_error=st.sampled_from([0.0, 0.05, 0.25]),
        step_h=st.sampled_from([0.25, 0.5, 1.0, 2.5]),
        policy_key=st.sampled_from(sorted(BUILDERS)),
    )
    def test_columns_reduce_like_the_outcomes(
        self, jobs, seed, forecast_error, step_h, policy_key
    ):
        service = make_service(seed, forecast_error)
        policy = BUILDERS[policy_key](service, step_h)
        evaluation = evaluate_policy(jobs, policy, service, NODE)
        reference = object_outcomes(jobs, policy, service)

        # The reductions the evaluator made over its outcome objects.
        assert bits(evaluation.total_carbon.grams) == bits(
            CarbonMass(sum(o.carbon_g for o in reference)).grams
        )
        assert bits(evaluation.total_energy.kwh) == bits(
            Energy(sum(o.energy_kwh for o in reference)).kwh
        )
        mean_delay = (
            float(np.mean([o.delay_h for o in reference])) if reference else 0.0
        )
        assert bits(evaluation.mean_delay_h()) == bits(mean_delay)
        assert evaluation.migration_count() == sum(
            1 for o in reference if o.placement.migrated
        )

        assert evaluation.outcomes == reference
        for got, want in zip(evaluation.outcomes, reference):
            assert got.job_id == want.job_id
            assert got.placement == want.placement
            assert bits(got.placement.start_h) == bits(want.placement.start_h)
            for name in ("energy_kwh", "carbon_g", "delay_h"):
                assert bits(getattr(got, name)) == bits(getattr(want, name))

    @pytest.mark.parametrize("key", POLICIES)
    def test_plain_list_place_all_evaluates_like_the_kernel(self, key):
        from repro.session import resolve_backend
        from repro.workloads.sources import SyntheticSource, WorkloadParams

        service = CarbonIntensityService(forecast_error=0.05)
        jobs = SyntheticSource(
            WorkloadParams(
                horizon_h=24.0 * 7, total_gpus=16, home_region="ESO",
                slack_fraction=3.0,
            )
        ).generate(seed=4)
        kernel = resolve_backend("policy", key)(
            service, "ESO", regions=["ESO", "CISO", "ERCOT"]
        )

        class ListPolicy:
            name = kernel.name

            def place_all(self, jobs):
                return list(kernel.place_all(jobs))

        columnar = evaluate_policy(jobs, kernel, service, NODE)
        listed = evaluate_policy(jobs, ListPolicy(), service, NODE)
        assert listed.placements == columnar.placements
        for name in ("energy_kwh", "carbon_g", "delay_h"):
            assert getattr(listed, name).tobytes() == getattr(columnar, name).tobytes()
        assert bits(listed.total_carbon.grams) == bits(columnar.total_carbon.grams)
        assert listed.mean_delay_h() == columnar.mean_delay_h()
        assert listed.migration_count() == columnar.migration_count()
        assert listed.ledger.by_region() == columnar.ledger.by_region()
        assert listed.ledger.by_job() == columnar.ledger.by_job()
        assert listed == columnar


class TestNoPerJobObjects:
    def test_canonical_run_builds_outcomes_only_when_read(self, monkeypatch):
        """Placing, validating, charging and rolling up a canonical-size
        scenario builds no Placement or JobOutcome; reading
        ``outcomes`` builds one of each per job."""
        from repro.session import Scenario

        built = Counter()
        for cls in (Placement, JobOutcome):
            def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                         **kwargs):
                built[_name] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)

        result = (
            Scenario()
            .system("frontier")
            .node("A100")
            .region("ESO")
            .workload("synthetic", seed=7)
            .policies(list(POLICIES))
            .cluster(16)
            .training("BERT", n_gpus=4)
            .upgrade("V100", "A100")
            .run()
        )
        assert result.carbon is not None
        assert built == Counter()
        n_jobs = result.scheduling.n_jobs
        assert n_jobs == 2325
        for evaluation in result.scheduling.evaluations.values():
            assert len(evaluation.outcomes) == n_jobs
        assert built == Counter(
            {"Placement": 4 * n_jobs, "JobOutcome": 4 * n_jobs}
        )
