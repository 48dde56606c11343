"""Deployment rankings, workload trace I/O, and the analysis CLI commands."""

from __future__ import annotations

import pytest

from repro.analysis.ranking import Deployment, evaluate_deployment, rank_deployments
from repro.cluster.job import Job
from repro.cluster.traceio import (
    SCHEMA_VERSION,
    jobs_from_json,
    jobs_to_json,
    load_jobs,
    save_jobs,
)
from repro.workloads.sources import WorkloadParams, generate_workload
from repro.core.errors import ExperimentError, SimulationError
from repro.hardware.node import a100_node, v100_node
from repro.workloads.models import get_model


class TestRanking:
    @pytest.fixture(scope="class")
    def deployments(self):
        return [
            Deployment("A100@gas", a100_node(), 100, 400.0),
            Deployment("A100@hydro", a100_node(), 100, 20.0),
            Deployment("V100@hydro", v100_node(), 100, 20.0),
        ]

    def test_efficiency_ignores_grid(self, deployments):
        ranked = rank_deployments(deployments)["efficiency"]
        # Both A100 fleets tie at the top; V100 is last.
        assert ranked[-1].name == "V100@hydro"

    def test_operational_ranking_inverts(self, deployments):
        ranked = rank_deployments(deployments)["operational"]
        # The least efficient fleet on hydro beats the efficient one on gas.
        names = [m.name for m in ranked]
        assert names.index("V100@hydro") < names.index("A100@gas")

    def test_total_ranking_includes_embodied(self, deployments):
        metrics = {
            m.name: m for m in rank_deployments(deployments)["total"]
        }
        a100 = metrics["A100@hydro"]
        v100 = metrics["V100@hydro"]
        # Same grid: totals differ by embodied + power profile.
        assert a100.total_g_over_life != v100.total_g_over_life

    def test_evaluate_deployment_fields(self):
        metrics = evaluate_deployment(
            Deployment("X", v100_node(), 10, 100.0), service_years=3.0
        )
        assert metrics.gflops_per_w > 0.0
        assert metrics.operational_g_per_year > 0.0
        assert metrics.total_g_over_life > 3 * 0.9 * metrics.operational_g_per_year

    def test_duplicate_names_rejected(self):
        d = Deployment("X", v100_node(), 1, 100.0)
        with pytest.raises(ExperimentError):
            rank_deployments([d, d])

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            rank_deployments([])

    def test_invalid_deployment(self):
        with pytest.raises(ExperimentError):
            Deployment("X", v100_node(), 0, 100.0)

    @pytest.mark.parametrize(
        "n_nodes, intensity, pue, years",
        [
            (10, 100.0, float("nan"), 5.0),
            (10, float("nan"), None, 5.0),
            (10, float("inf"), None, 5.0),
            (2.5, 100.0, None, 5.0),
            (True, 100.0, None, 5.0),
            (10, 100.0, None, float("nan")),
            (10, 100.0, None, float("inf")),
        ],
    )
    def test_non_finite_or_fractional_input_rejected(
        self, n_nodes, intensity, pue, years
    ):
        # Each was accepted: NaN inputs ranked a NaN total and 2.5 nodes
        # ranked a fractional fleet.
        with pytest.raises(ExperimentError, match="^X: "):
            deployment = Deployment("X", v100_node(), n_nodes, intensity, pue=pue)
            rank_deployments([deployment], service_years=years)


class TestTraceIO:
    def test_roundtrip_preserves_jobs(self):
        jobs = generate_workload(
            WorkloadParams(horizon_h=48.0, total_gpus=8, home_region="ESO"), seed=5
        )
        restored = jobs_from_json(jobs_to_json(jobs))
        assert len(restored) == len(jobs)
        for a, b in zip(jobs, restored):
            assert a.job_id == b.job_id
            assert a.user == b.user
            assert a.model.name == b.model.name
            assert a.n_gpus == b.n_gpus
            assert a.duration_h == pytest.approx(b.duration_h)
            assert a.submit_h == pytest.approx(b.submit_h)
            assert a.home_region == b.home_region

    def test_file_roundtrip(self, tmp_path):
        jobs = generate_workload(
            WorkloadParams(horizon_h=24.0, total_gpus=4), seed=2
        )
        path = save_jobs(jobs, tmp_path / "trace.json")
        assert load_jobs(path)[0].job_id == jobs[0].job_id

    def test_schema_version_checked(self):
        document = jobs_to_json([]).replace(
            f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 99'
        )
        with pytest.raises(SimulationError):
            jobs_from_json(document)

    def test_missing_fields_rejected(self):
        with pytest.raises(SimulationError):
            jobs_from_json('{"schema_version": 1, "jobs": [{"job_id": 1}]}')

    def test_duplicate_ids_rejected(self):
        job = Job(
            job_id=1, user="u", model=get_model("BERT"),
            n_gpus=1, duration_h=1.0, submit_h=0.0,
        )
        document = jobs_to_json([job, job])
        with pytest.raises(SimulationError):
            jobs_from_json(document)

    def test_invalid_json_rejected(self):
        with pytest.raises(SimulationError):
            jobs_from_json("not json")
        with pytest.raises(SimulationError):
            jobs_from_json("[1, 2, 3]")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SimulationError):
            load_jobs(tmp_path / "nope.json")

    def test_job_validation_applied_on_load(self):
        document = """
        {"schema_version": 1, "jobs": [{"job_id": 1, "user": "u",
          "model": "BERT", "n_gpus": 0, "duration_h": 1.0, "submit_h": 0.0}]}
        """
        with pytest.raises(SimulationError):
            jobs_from_json(document)


class TestNewCliCommands:
    def test_audit_command(self, capsys):
        from repro.cli import main

        assert main(["audit", "--system", "LUMI", "--region", "ESO"]) == 0
        out = capsys.readouterr().out
        assert "Carbon audit — LUMI" in out and "TOTAL" in out

    def test_advise_command(self, capsys):
        from repro.cli import main

        assert main(
            ["advise", "--old", "V100", "--new", "A100", "--intensity", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "breakeven" in out

    def test_list_includes_new_commands(self, capsys):
        from repro.cli import main

        main(["list"])
        out = capsys.readouterr().out
        assert "audit" in out and "advise" in out and "export" in out


class TestModelsCliCommand:
    def test_models_command(self, capsys):
        from repro.cli import main

        assert main(
            ["models", "--suite", "CANDLE", "--node", "A100", "--epochs", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Training footprint" in out
        assert "Combo" in out and "kg/epoch" in out
