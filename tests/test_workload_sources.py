"""The ``workload`` registry kind: JobBatch, sources, and facade wiring.

Pins the refactor's two load-bearing contracts:

* ``workload:synthetic`` is **byte-identical** to the seed generator —
  hypothesis sweeps params and seeds and compares the scalar job lists
  field by field (the golden fixtures pin the same bytes end-to-end
  through the facade).
* ``JobBatch`` ↔ ``List[Job]`` round-trips are lossless, and the
  columnar placement/charging paths equal the per-object paths exactly.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SessionError, SimulationError
from repro.cluster.job import Job, JobBatch
from repro.cluster.traceio import read_workload, save_jobs
from repro.workloads.models import ALL_MODELS, get_model
from repro.workloads.sources import (
    BurstySource,
    DiurnalSource,
    SyntheticSource,
    TraceReplaySource,
    WorkloadParams,
    generate_workload,
)

PARAMS = WorkloadParams(horizon_h=48.0, total_gpus=8, home_region="ESO")


def make_job(job_id=0, **kw) -> Job:
    return Job(
        job_id=job_id,
        user=kw.pop("user", "user00"),
        model=kw.pop("model", get_model("BERT")),
        n_gpus=kw.pop("n_gpus", 1),
        duration_h=kw.pop("duration_h", 2.0),
        submit_h=kw.pop("submit_h", 0.0),
        **kw,
    )


# --- JobBatch ----------------------------------------------------------------
class TestJobBatch:
    def test_sequence_protocol(self):
        batch = SyntheticSource(PARAMS).generate(seed=1)
        assert len(batch) > 0
        assert isinstance(batch[0], Job)
        assert batch[-1] == batch[len(batch) - 1]
        assert [j.job_id for j in batch] == batch.job_ids.tolist()
        sub = batch[:3]
        assert isinstance(sub, JobBatch) and len(sub) == 3
        assert sub.to_jobs() == batch.to_jobs()[:3]

    def test_columns_read_only(self):
        batch = SyntheticSource(PARAMS).generate(seed=1)
        with pytest.raises(ValueError):
            batch.submit_h[0] = -1.0
        with pytest.raises(AttributeError):
            batch.submit_h = np.zeros(len(batch))

    def test_gpu_hours_match_scalar_sum(self):
        batch = SyntheticSource(PARAMS).generate(seed=2)
        assert batch.total_gpu_hours() == float(
            sum(j.gpu_hours for j in batch.to_jobs())
        )

    def test_span_matches_scalar_max(self):
        batch = SyntheticSource(PARAMS).generate(seed=2)
        assert batch.span_h() == max(
            j.submit_h + j.duration_h for j in batch.to_jobs()
        )

    def test_home_regions_fills_default(self):
        jobs = [
            make_job(job_id=0, home_region="ESO"),
            make_job(job_id=1),
        ]
        batch = JobBatch.from_jobs(jobs)
        assert batch.home_regions("CISO") == ["ESO", "CISO"]
        assert batch.home_regions() == ["ESO", None]

    def test_clipped(self):
        batch = SyntheticSource(PARAMS).generate(seed=3)
        clipped = batch.clipped(24.0)
        assert np.all(clipped.submit_h < 24.0)
        hard = batch.clipped(24.0, clip_durations=True)
        assert np.all(hard.submit_h + hard.duration_h <= 24.0 + 1e-12)

    @pytest.mark.parametrize(
        "column,value",
        [("n_gpus", 0), ("duration_h", 0.0), ("submit_h", -1.0), ("slack_h", -0.5)],
    )
    def test_validation_mirrors_job(self, column, value):
        batch = JobBatch.from_jobs([make_job()])
        columns = {
            name: np.asarray(getattr(batch, name)).copy()
            for name in (
                "job_ids", "submit_h", "duration_h", "n_gpus", "slack_h",
                "user_codes", "model_codes", "region_codes",
            )
        }
        columns[column] = np.asarray([value])
        with pytest.raises(SimulationError):
            JobBatch(
                users=batch.users, models=batch.models, regions=batch.regions,
                **columns,
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(SimulationError):
            JobBatch.from_jobs([make_job(job_id=1), make_job(job_id=1)])

    def test_region_code_without_table_rejected(self):
        base = JobBatch.from_jobs([make_job()])
        with pytest.raises(SimulationError, match="region codes"):
            JobBatch(
                job_ids=base.job_ids, submit_h=base.submit_h,
                duration_h=base.duration_h, n_gpus=base.n_gpus,
                slack_h=base.slack_h, user_codes=base.user_codes,
                users=base.users, model_codes=base.model_codes,
                models=base.models,
                region_codes=np.asarray([0]), regions=(),
            )

    def test_pickle_round_trip(self):
        import pickle

        batch = SyntheticSource(PARAMS).generate(seed=4)
        assert pickle.loads(pickle.dumps(batch)) == batch

    def test_constructor_does_not_freeze_caller_arrays(self):
        submit = np.array([0.0, 1.0])
        base = JobBatch.from_jobs([make_job(job_id=0), make_job(job_id=1)])
        JobBatch(
            job_ids=base.job_ids, submit_h=submit,
            duration_h=base.duration_h, n_gpus=base.n_gpus,
            slack_h=base.slack_h, user_codes=base.user_codes,
            users=base.users, model_codes=base.model_codes,
            models=base.models, region_codes=base.region_codes,
            regions=base.regions,
        )
        submit[0] = 5.0  # the caller's own buffer stays writable

    def test_round_trip_distinct_specs_sharing_a_name(self):
        from dataclasses import replace

        bert = get_model("BERT")
        variant = replace(bert, params_millions=bert.params_millions * 2)
        jobs = [
            make_job(job_id=0, model=bert),
            make_job(job_id=1, model=variant),
        ]
        batch = JobBatch.from_jobs(jobs)
        assert batch.to_jobs() == jobs
        assert batch.to_jobs()[1].model is variant


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    usage=st.floats(0.1, 0.9),
    horizon=st.floats(12.0, 24.0 * 10),
    slack=st.floats(0.0, 4.0),
)
def test_synthetic_byte_identical_to_seed_generator(seed, usage, horizon, slack):
    """The tentpole pin: workload:synthetic == the seed generator."""
    params = WorkloadParams(
        horizon_h=horizon, target_usage=usage, total_gpus=16,
        slack_fraction=slack, home_region="ESO",
    )
    legacy = generate_workload(params, seed=seed)
    batch = SyntheticSource(params).generate(seed=seed)
    assert batch.to_jobs() == legacy


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_batch_job_list_round_trip_lossless(seed):
    """JobBatch ↔ List[Job] loses nothing, in either direction."""
    jobs = generate_workload(PARAMS, seed=seed)
    batch = JobBatch.from_jobs(jobs)
    assert batch.to_jobs() == jobs
    assert JobBatch.from_jobs(batch.to_jobs()) == batch


def test_round_trip_preserves_mixed_regions_and_models():
    jobs = [
        make_job(job_id=0, home_region="ESO", model=get_model("BERT")),
        make_job(job_id=1, home_region=None, model=get_model("ViT")),
        make_job(job_id=2, home_region="CISO", model=get_model("BERT"),
                 user="alice", slack_h=3.5),
    ]
    batch = JobBatch.from_jobs(jobs)
    assert batch.to_jobs() == jobs
    assert batch.models == (get_model("BERT"), get_model("ViT"))


# --- generator backends ------------------------------------------------------
class TestGeneratorBackends:
    def test_diurnal_concentrates_arrivals_at_peak(self):
        source = DiurnalSource(
            WorkloadParams(horizon_h=24.0 * 28, total_gpus=64),
            peak_hour=14.0, amplitude=0.9,
        )
        batch = source.generate(seed=5)
        hour_of_day = np.asarray(batch.submit_h) % 24.0
        near_peak = np.abs(hour_of_day - 14.0) <= 4.0
        near_trough = np.minimum(hour_of_day, 24.0 - hour_of_day) <= 4.0
        assert near_peak.sum() > 1.5 * near_trough.sum()

    def test_bursty_is_burstier_than_poisson(self):
        params = WorkloadParams(horizon_h=24.0 * 28, total_gpus=64)
        bursty = BurstySource(
            params, mean_on_h=4.0, mean_off_h=12.0, off_rate_fraction=0.0
        ).generate(seed=6)
        poisson = SyntheticSource(params).generate(seed=6)

        def dispersion(batch):
            counts = np.bincount(
                np.floor(batch.submit_h).astype(int), minlength=24 * 28
            )
            return counts.var() / counts.mean()

        # Poisson hourly counts have dispersion ~1; on/off modulation
        # inflates it well past that.
        assert dispersion(bursty) > 2.0 * dispersion(poisson)

    @pytest.mark.parametrize("cls", [SyntheticSource, DiurnalSource, BurstySource])
    def test_target_usage_exact(self, cls):
        source = cls(PARAMS)
        batch = source.generate(seed=7)
        assert batch.total_gpu_hours() == pytest.approx(
            0.4 * 8 * 48.0, rel=1e-9
        )

    @pytest.mark.parametrize("cls", [SyntheticSource, DiurnalSource, BurstySource])
    def test_field_spelling_equals_params(self, cls):
        by_params = cls(PARAMS).generate(seed=8)
        by_fields = cls(
            horizon_h=48.0, total_gpus=8, home_region="ESO"
        ).generate(seed=8)
        assert by_params == by_fields

    def test_params_and_fields_conflict(self):
        with pytest.raises(SimulationError):
            SyntheticSource(PARAMS, horizon_h=24.0)

    def test_float_count_fields_coerce(self):
        """Loosely-typed surfaces hand counts over as floats."""
        loose = WorkloadParams(n_users=12.0, total_gpus=64.0)
        assert loose.n_users == 12 and loose.total_gpus == 64
        assert SyntheticSource(loose).generate(seed=1) == SyntheticSource(
            WorkloadParams()
        ).generate(seed=1)
        with pytest.raises(SimulationError, match="whole number"):
            WorkloadParams(n_users=2.5)

    @pytest.mark.parametrize(
        "kw",
        [dict(horizon_h=float("nan")), dict(horizon_h=float("inf")),
         dict(slack_fraction=float("nan")), dict(duration_sigma=float("nan"))],
        ids=["nan-horizon", "inf-horizon", "nan-slack", "nan-sigma"],
    )
    def test_non_finite_params_rejected(self, kw):
        with pytest.raises(SimulationError, match="finite"):
            WorkloadParams(**kw)

    def test_diurnal_amplitude_domain(self):
        with pytest.raises(SimulationError):
            DiurnalSource(PARAMS, amplitude=1.5)

    def test_bursty_sojourn_domain(self):
        with pytest.raises(SimulationError):
            BurstySource(PARAMS, mean_on_h=0.0)


# --- trace replay ------------------------------------------------------------
SWF_SAMPLE = """\
; Standard Workload Format sample
; MaxProcs: 64
1 0 10 3600 4 -1 -1 4 7200 -1 1 3 1 1 1 1 -1 -1
2 1800 0 1800 -1 -1 -1 2 3600 -1 1 5 1 1 1 1 -1 -1
3 3600 5 0 4 -1 -1 4 3600 -1 0 3 1 1 1 1 -1 -1
4 7200 5 900 8 -1 -1 8 900 -1 1 7 1 1 1 1 -1 -1
"""


class TestTraceReplay:
    @pytest.fixture()
    def json_trace(self, tmp_path):
        jobs = generate_workload(PARAMS, seed=9)
        return save_jobs(jobs, tmp_path / "trace.json"), jobs

    @pytest.fixture()
    def swf_trace(self, tmp_path):
        path = tmp_path / "log.swf"
        path.write_text(SWF_SAMPLE, encoding="utf-8")
        return path

    def test_json_replay_is_lossless(self, json_trace):
        path, jobs = json_trace
        batch = TraceReplaySource(path).generate()
        assert batch.to_jobs() == jobs

    def test_swf_truncated_cancelled_record_skipped(self, tmp_path):
        # Cancelled lines in real archives are often short; the skip
        # must fire before any fallback field is read.
        path = tmp_path / "short.swf"
        path.write_text(
            "12 3600 0 -1 -1\n"
            "1 0 10 3600 4 -1 -1 4 7200 -1 1 3 1 1 1 1 -1 -1\n",
            encoding="utf-8",
        )
        batch = read_workload(path)
        assert len(batch) == 1 and batch.job_ids.tolist() == [1]

    def test_swf_parsing(self, swf_trace):
        batch = read_workload(swf_trace)
        # Job 3 has zero runtime (failed) and is skipped; job 2's
        # allocated count is -1, so the requested count stands in.
        assert len(batch) == 3
        assert batch.n_gpus.tolist() == [4, 2, 8]
        assert batch.submit_h.tolist() == [0.0, 0.5, 2.0]
        assert batch.duration_h.tolist() == [1.0, 0.5, 0.25]
        assert batch.users == ("user3", "user5", "user7")

    def test_swf_column_map(self, swf_trace):
        batch = read_workload(
            swf_trace, column_map={"run_s": 8}  # requested time as runtime
        )
        # Remapping the runtime column also resurrects job 3 (its
        # requested time is positive even though its run time is 0).
        assert batch.duration_h.tolist() == [2.0, 1.0, 1.0, 0.25]

    def test_swf_gpu_conversion(self, swf_trace):
        batch = read_workload(swf_trace, procs_per_gpu=4.0, max_gpus=4)
        assert batch.n_gpus.tolist() == [1, 1, 2]

    def test_swf_model_fill_in(self, swf_trace):
        batch = read_workload(swf_trace, model="ResNet50")
        assert batch.models == (get_model("ResNet50"),)

    def test_horizon_clipping_and_overrides(self, swf_trace):
        source = TraceReplaySource(
            swf_trace, horizon_h=1.0, slack_fraction=2.0, home_region="ESO"
        )
        batch = source.generate()
        assert len(batch) == 2
        assert batch.home_regions() == ["ESO", "ESO"]
        assert np.allclose(batch.slack_h, 2.0 * batch.duration_h)
        assert source.horizon_h == 1.0

    def test_missing_file_fails_at_construction(self, tmp_path):
        with pytest.raises(SimulationError):
            TraceReplaySource(tmp_path / "nope.swf")

    @pytest.mark.parametrize(
        "opts",
        [dict(format="swff"), dict(procs_per_gpu=0.0), dict(max_gpus=0)],
        ids=["bad-format", "bad-procs-per-gpu", "bad-max-gpus"],
    )
    def test_replay_options_fail_at_construction(self, swf_trace, opts):
        with pytest.raises(SimulationError):
            TraceReplaySource(swf_trace, **opts)

    def test_home_region_fill_reuses_existing_table_entry(self, tmp_path):
        jobs = [
            make_job(job_id=0, home_region="ESO"),
            make_job(job_id=1, home_region=None),
        ]
        path = save_jobs(jobs, tmp_path / "mixed.json")
        batch = TraceReplaySource(path, home_region="ESO").generate()
        assert batch.regions == ("ESO",)
        assert batch.home_regions() == ["ESO", "ESO"]

    def test_remapped_user_column_out_of_range_raises(self, swf_trace):
        with pytest.raises(SimulationError, match="user_id"):
            read_workload(swf_trace, column_map={"user_id": 25})

    def test_repr_renders_every_non_default_option(self, swf_trace):
        """The facade records this repr as provenance; option sweeps
        must stay distinguishable."""
        four = repr(TraceReplaySource(swf_trace, procs_per_gpu=4.0))
        eight = repr(TraceReplaySource(swf_trace, procs_per_gpu=8.0))
        assert four != eight and "procs_per_gpu=4.0" in four
        remapped = repr(
            TraceReplaySource(swf_trace, column_map={"run_s": 8}, model="ViT")
        )
        assert "column_map={'run_s': 8}" in remapped and "model='ViT'" in remapped

    def test_negative_column_index_rejected(self, swf_trace):
        with pytest.raises(SimulationError, match=">= 0"):
            read_workload(swf_trace, column_map={"run_s": -1})

    def test_parse_memo_shared_across_instances(self, json_trace, monkeypatch):
        path, _jobs = json_trace
        # Override-free replays share the raw batch object outright.
        assert (
            TraceReplaySource(path).generate()
            is TraceReplaySource(path).generate()
        )
        # Sweeps varying only the cheap overrides re-use one parse.
        import repro.cluster.traceio as traceio_module
        import repro.workloads.sources as sources_module

        sources_module._TRACE_MEMO.clear()
        calls = {"n": 0}
        real = traceio_module.read_workload

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(traceio_module, "read_workload", counting)
        for slack in (1.5, 2.0, 3.0):
            batch = TraceReplaySource(path, slack_fraction=slack).generate()
            assert np.allclose(batch.slack_h, slack * batch.duration_h)
        assert calls["n"] == 1, "overrides must not force re-parsing"

    def test_unknown_format_rejected(self, swf_trace):
        with pytest.raises(SimulationError):
            read_workload(swf_trace, format="csv")

    def test_unknown_column_rejected(self, swf_trace):
        with pytest.raises(SimulationError):
            read_workload(swf_trace, column_map={"walltime": 9})


# --- columnar hot paths ------------------------------------------------------
class TestColumnarPaths:
    @pytest.fixture(scope="class")
    def service(self):
        from repro.intensity.api import CarbonIntensityService

        return CarbonIntensityService(seed=0, forecast_error=0.0)

    @pytest.fixture(scope="class")
    def workload(self):
        params = WorkloadParams(
            horizon_h=24.0 * 7, total_gpus=16, home_region="ESO",
            slack_fraction=3.0,
        )
        return SyntheticSource(params).generate(seed=10)

    @pytest.mark.parametrize(
        "key", ["carbon-oblivious", "temporal-shifting", "geographic",
                "temporal+geographic"],
    )
    def test_place_all_batch_equals_objects(self, service, workload, key):
        from repro.session import resolve_backend

        policy = resolve_backend("policy", key)(
            service, "ESO", regions=["ESO", "CISO", "ERCOT"]
        )
        assert policy.place_all(workload) == policy.place_all(workload.to_jobs())

    def test_evaluate_policy_batch_equals_objects(self, service, workload):
        from repro.hardware.node import v100_node
        from repro.scheduler.evaluation import evaluate_policy
        from repro.scheduler.policies import TemporalGeographicPolicy

        policy = TemporalGeographicPolicy(
            service, "ESO", regions=["ESO", "CISO"]
        )
        node = v100_node()
        from_batch = evaluate_policy(workload, policy, service, node)
        from_jobs = evaluate_policy(workload.to_jobs(), policy, service, node)
        assert from_batch.outcomes == from_jobs.outcomes
        assert from_batch.total_carbon.grams == from_jobs.total_carbon.grams

    def test_engines_agree_on_batch(self, service, workload):
        from repro.accounting import VectorizedChargingEngine
        from repro.accounting.engines import ScalarReferenceChargingEngine
        from repro.hardware.node import v100_node
        from repro.scheduler.policies import TemporalShiftingPolicy, place_jobs

        policy = TemporalShiftingPolicy(service, "ESO")
        placements = place_jobs(policy, workload)
        node = v100_node()
        vec = VectorizedChargingEngine().charge(
            workload, placements, service=service, node=node,
            pue=None, config=None, transfer_overhead_fraction=0.02,
            transfer_model=None,
        )
        ref = ScalarReferenceChargingEngine().charge(
            workload, placements, service=service, node=node,
            pue=None, config=None, transfer_overhead_fraction=0.02,
            transfer_model=None,
        )
        assert np.array_equal(vec.carbon_g, ref.carbon_g)
        assert np.array_equal(vec.energy_kwh, ref.energy_kwh)

    def test_third_party_policy_sees_original_job_objects(self, service):
        """A place()-only policy gets the caller's own objects — a Job
        subclass carrying extra state must survive evaluate_policy."""
        from dataclasses import dataclass

        from repro.cluster.job import Placement
        from repro.hardware.node import v100_node
        from repro.scheduler.evaluation import evaluate_policy

        @dataclass(frozen=True, slots=True)
        class PriorityJob(Job):
            priority: int = 0

        jobs = [
            PriorityJob(
                job_id=i, user="user00", model=get_model("BERT"),
                n_gpus=1, duration_h=2.0, submit_h=float(i),
                home_region="ESO", priority=i + 1,
            )
            for i in range(3)
        ]
        seen = []

        class PriorityPolicy:
            name = "priority-probe"
            place_all = None  # force the per-job place() path

            def place(self, job):
                seen.append(job.priority)  # subclass state must be intact
                return Placement(
                    job_id=job.job_id, region="ESO",
                    start_h=job.submit_h, duration_h=job.duration_h,
                )

        evaluation = evaluate_policy(
            jobs, PriorityPolicy(), service, v100_node()
        )
        assert seen == [1, 2, 3]
        assert len(evaluation.outcomes) == 3

    def test_simulator_accepts_batch(self, workload):
        from repro.cluster.simulator import Cluster, simulate_cluster
        from repro.hardware.node import v100_node

        cluster = Cluster(v100_node(), n_nodes=8)
        from_batch = simulate_cluster(workload, cluster, horizon_h=24.0 * 8)
        from_jobs = simulate_cluster(
            workload.to_jobs(), cluster, horizon_h=24.0 * 8
        )
        assert from_batch.carbon_g == from_jobs.carbon_g
        assert from_batch.scheduled == from_jobs.scheduled


# --- facade wiring -----------------------------------------------------------
class TestScenarioWorkloadSpellings:
    def _base(self):
        from repro.session import Scenario

        return (
            Scenario()
            .node("V100")
            .region("ESO")
            .policy("temporal-shifting")
            .seed(7)
        )

    def test_key_spelling_equals_legacy_params(self):
        """.workload("synthetic", ...) == .workload(WorkloadParams(...)),
        serialized byte for byte (the legacy path stays exact)."""
        legacy = (
            self._base()
            .workload(
                WorkloadParams(horizon_h=48.0, total_gpus=8, home_region="ESO"),
                seed=11,
            )
            .run()
        )
        keyed = (
            self._base()
            .workload("synthetic", seed=11, horizon_h=48.0, total_gpus=8)
            .run()
        )
        legacy_dict, keyed_dict = legacy.to_dict(), keyed.to_dict()
        # The key spelling adds its provenance row; everything else is
        # byte-identical.
        keyed_dict["provenance"] = [
            p for p in keyed_dict["provenance"] if p["knob"] != "workload"
        ]
        assert json.dumps(legacy_dict, sort_keys=True) == json.dumps(
            keyed_dict, sort_keys=True
        )

    def test_alias_spelling_serializes_canonically(self):
        """poisson and synthetic are the same backend; their serialized
        results — provenance included — must be byte-identical."""
        by_alias = (
            self._base()
            .workload("poisson", seed=11, horizon_h=48.0, total_gpus=8)
            .run()
        )
        canonical = (
            self._base()
            .workload("synthetic", seed=11, horizon_h=48.0, total_gpus=8)
            .run()
        )
        rows = [p for p in by_alias.provenance if p.knob == "workload"]
        assert rows[0].backend == "workload:synthetic"
        # Same backend, same options, same constructed source: the full
        # serialized result — provenance included — is byte-identical.
        assert json.dumps(by_alias.to_dict(), sort_keys=True) == json.dumps(
            canonical.to_dict(), sort_keys=True
        )

    def test_provenance_records_backend_and_options(self):
        result = (
            self._base()
            .workload("diurnal", seed=11, horizon_h=48.0, total_gpus=8,
                      peak_hour=10.0)
            .run()
        )
        rows = [p for p in result.provenance if p.knob == "workload"]
        assert len(rows) == 1
        assert rows[0].backend == "workload:diurnal"
        assert rows[0].source == "explicit"
        # The note carries the constructed source repr, so option
        # sweeps stay distinguishable in serialized results.
        assert rows[0].value.startswith("DiurnalSource(")
        assert "peak_hour=10.0" in rows[0].value

    def test_legacy_params_add_no_provenance_row(self):
        result = (
            self._base()
            .workload(
                WorkloadParams(horizon_h=48.0, total_gpus=8, home_region="ESO"),
                seed=11,
            )
            .run()
        )
        assert not [p for p in result.provenance if p.knob == "workload"]

    def test_trace_path_spelling(self, tmp_path):
        jobs = generate_workload(PARAMS, seed=12)
        path = save_jobs(jobs, tmp_path / "wl.json")
        by_path = self._base().workload(str(path)).run()
        by_jobs = self._base().workload(jobs).run()
        assert by_path.scheduling.outcomes == by_jobs.scheduling.outcomes
        rows = [p for p in by_path.provenance if p.knob == "workload"]
        assert rows and rows[0].backend == "workload:trace"

    def test_batch_and_list_spellings_agree(self):
        batch = SyntheticSource(PARAMS).generate(seed=13)
        from_batch = self._base().workload(batch).run()
        from_list = self._base().workload(batch.to_jobs()).run()
        assert from_batch.scheduling.outcomes == from_list.scheduling.outcomes

    def test_source_object_spelling(self):
        source = DiurnalSource(PARAMS)
        result = self._base().workload(source, seed=14).run()
        assert result.scheduling.n_jobs == len(source.generate(seed=14))
        rows = [p for p in result.provenance if p.knob == "workload"]
        assert rows and rows[0].value == repr(source)

    def test_unknown_key_lists_choices(self):
        from repro.core.errors import UnknownBackendError

        with pytest.raises(UnknownBackendError, match="synthetic"):
            self._base().workload("tidal", horizon_h=48.0).build()

    def test_bad_options_fail_at_build(self):
        with pytest.raises(SessionError, match="rejected its options"):
            self._base().workload("synthetic", wavelength=3).build()

    def test_options_require_key(self):
        from repro.session import Scenario

        with pytest.raises(SessionError, match="registry key"):
            Scenario().workload(
                WorkloadParams(horizon_h=48.0), target_usage=0.5
            )

    def test_home_region_injected_from_scenario(self):
        result = (
            self._base()
            .workload("bursty", seed=15, horizon_h=48.0, total_gpus=8)
            .run()
        )
        # Home-region jobs placed by a temporal policy stay in ESO.
        evaluation = result.scheduling.evaluations["temporal-shifting"]
        assert {o.placement.region for o in evaluation.outcomes} == {"ESO"}

    def test_run_many_sweeps_workload_backends(self, tmp_path):
        from repro.session import Scenario, Session

        path = save_jobs(generate_workload(PARAMS, seed=16), tmp_path / "t.json")
        scenarios = [
            self._base().workload(key, seed=16, horizon_h=48.0, total_gpus=8)
            for key in ("synthetic", "diurnal", "bursty")
        ] + [self._base().workload(str(path))]
        results = Session.run_many(scenarios)
        assert len(results) == 4
        assert all(r.scheduling is not None and r.scheduling.n_jobs for r in results)
        carbons = [r.scheduling.best().carbon_g for r in results]
        assert all(c > 0.0 for c in carbons)


# --- hour-resolved training PUE (ROADMAP open item) -------------------------
class TestHourlyTrainingPUE:
    def test_tracker_constant_profile_bit_identical_to_scalar(self):
        from repro.hardware.node import v100_node
        from repro.power.tracker import CarbonTracker

        node = v100_node()
        scalar = CarbonTracker(node, 250.0, pue=1.3).track_run(
            5.5, gpu_utilization=0.9, cpu_utilization=0.5
        )
        profile = CarbonTracker(node, 250.0, pue=np.full(24, 1.3)).track_run(
            5.5, gpu_utilization=0.9, cpu_utilization=0.5
        )
        assert profile.carbon.grams == scalar.carbon.grams
        assert profile.pue == scalar.pue

    def test_tracker_matches_operational_carbon_seasonal(self):
        """Whole-hour runs at 1 h sampling equal the Eq. 6 reference."""
        from repro.hardware.node import v100_node
        from repro.intensity.trace import IntensityTrace
        from repro.power.pue import SeasonalPUE, operational_carbon_seasonal
        from repro.power.tracker import CarbonTracker

        node = v100_node()
        model = SeasonalPUE(annual_mean=1.25, seasonal_amplitude=0.1)
        hours = 24
        values = 200.0 + 50.0 * np.sin(np.arange(hours))
        trace = IntensityTrace("T", 0, values)
        tracker = CarbonTracker(node, trace, pue=model, sample_step_h=1.0)
        report = tracker.track_run(
            float(hours), gpu_utilization=0.8, cpu_utilization=0.4,
            start_hour=6.0,
        )
        power_w = np.full(hours, report.average_power_w)
        expected = operational_carbon_seasonal(
            power_w, values[(6 + np.arange(hours)) % hours], model, start_hour=6
        )
        assert report.carbon.grams == pytest.approx(expected, rel=1e-12)

    def test_scenario_flag_routes_profile_to_training(self):
        from repro.session import Scenario

        def build(hourly):
            scenario = (
                Scenario()
                .node("A100")
                .region("ESO")
                .training("BERT", epochs=1)
                .pue("seasonal", mean=1.2, amplitude=0.15)
            )
            if hourly:
                scenario.hourly_training_pue()
            return scenario.run()

        annual = build(False)
        hourly = build(True)
        assert hourly.training.operational_g != annual.training.operational_g
        # The flag is recorded only when set, keeping default bytes.
        assert not [
            p for p in annual.provenance if p.knob == "hourly_training_pue"
        ]
        assert [p for p in hourly.provenance if p.knob == "hourly_training_pue"]

    def test_flag_is_exact_for_constant_pue(self):
        from repro.session import Scenario

        def build(hourly):
            scenario = (
                Scenario()
                .node("A100")
                .region("ESO")
                .training("BERT", epochs=1)
                .pue(1.25)
            )
            if hourly:
                scenario.hourly_training_pue()
            return scenario.run()

        assert (
            build(True).training.operational_g
            == build(False).training.operational_g
        )


# --- re-exports --------------------------------------------------------------
def test_cluster_package_reexport_is_silent(recwarn):
    from repro.cluster import WorkloadParams as reexported

    assert reexported is WorkloadParams
    assert not [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]


def test_workloads_package_exports_sources():
    import repro.workloads as workloads

    assert workloads.WorkloadParams is WorkloadParams
    assert workloads.SyntheticSource is SyntheticSource
    assert issubclass(workloads.TraceReplaySource, object)
    with pytest.raises(AttributeError):
        workloads.not_a_name


def test_all_models_zoo_nonempty():
    assert len(ALL_MODELS) == 15


def test_pathlib_path_spelling(tmp_path):
    from repro.session import Scenario

    path = save_jobs(generate_workload(PARAMS, seed=17), tmp_path / "p.json")
    result = (
        Scenario()
        .node("V100")
        .region("ESO")
        .policy("carbon-oblivious")
        .workload(pathlib.Path(path))
        .run()
    )
    assert result.scheduling.n_jobs == len(generate_workload(PARAMS, seed=17))
