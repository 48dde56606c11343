"""Experiment checks, report generation, and the CLI."""

from __future__ import annotations

import contextlib
import io
import re

import pytest

from repro.analysis.report import run_all_checks
from repro.cli import main


class TestChecks:
    @pytest.fixture(scope="class")
    def checks(self):
        return run_all_checks()

    def test_all_pass(self, checks):
        failing = [c for c in checks if not c.ok]
        assert not failing, failing

    def test_every_experiment_covered(self, checks):
        experiments = {c.experiment for c in checks}
        expected = {f"Fig. {i}" for i in range(1, 10)} | {"Table 6"}
        assert expected <= experiments

    def test_checks_carry_paper_and_measured(self, checks):
        for check in checks:
            assert check.paper and check.measured


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        """What ``repro-hpc report`` prints."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["report"]) == 0
        return out.getvalue()

    def test_matches_golden(self, report, golden_file):
        # Re-bless: pytest tests/test_report_and_cli.py --update-golden
        golden_file("EXPERIMENTS.md", report)

    def test_contains_all_artifacts(self, report):
        for token in (
            "Table 1",
            "Table 6",
            "Fig. 1",
            "Fig. 5",
            "Fig. 7",
            "Fig. 9",
        ):
            assert token in report

    def test_summary_header(self, report):
        assert "Shape checks:" in report
        assert "pass" in report

    def test_mentions_paper_values(self, report):
        assert "44.4%" in report  # Table 6 P100->V100 NLP


#: The two workload scenarios CI's installed-package step runs (and
#: ``cmp``s against these files): the canonical month under all four
#: policies on a 16-node cluster, and the three carbon-aware policies
#: over a restricted candidate-region list.  They are the byte pins of
#: the temporal-shifting and geographic policies on their own.
_WORKLOAD_SCENARIOS = {
    "scenario-month": [
        "--policies",
        "carbon-oblivious,temporal-shifting,geographic,temporal+geographic",
        "--cluster", "16",
    ],
    "scenario-regions": [
        "--regions", "ESO,CISO,PJM",
        "--policies", "temporal-shifting,geographic,temporal+geographic",
        "--cluster", "4",
    ],
}


@pytest.mark.parametrize("name", sorted(_WORKLOAD_SCENARIOS))
def test_workload_scenario_matches_golden(name, capsys, golden_file):
    # Re-bless: pytest tests/test_report_and_cli.py --update-golden
    assert main([
        "scenario", "--system", "frontier", "--node", "A100",
        "--region", "ESO", "--workload", "synthetic",
        *_WORKLOAD_SCENARIOS[name], "--renderer", "json",
    ]) == 0
    golden_file(f"cli/{name}.json", capsys.readouterr().out)


#: The paper's 15 artifacts, in the order ``repro-hpc list`` and
#: ``repro-hpc export`` name them.
ARTIFACT_IDS = tuple(f"fig{n}" for n in range(1, 10)) + tuple(
    f"table{n}" for n in range(1, 7)
)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    """What ``repro-hpc export`` writes, by file name (CSV bytes as text,
    line endings untouched)."""
    directory = tmp_path_factory.mktemp("export")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["export", "-d", str(directory)]) == 0
    return {
        path.name: path.read_bytes().decode("utf-8")
        for path in directory.iterdir()
    }


def test_export_writes_every_artifact(exported):
    assert sorted(exported) == sorted(f"{name}.csv" for name in ARTIFACT_IDS)


@pytest.mark.parametrize("artifact", ARTIFACT_IDS)
def test_export_matches_golden(artifact, exported, golden_file):
    # CI's installed-package step cmps the same files.
    # Re-bless: pytest tests/test_report_and_cli.py --update-golden
    golden_file(f"export/{artifact}.csv", exported[f"{artifact}.csv"])


@pytest.fixture(scope="module")
def report_text():
    from repro.analysis.report import generate_report

    return generate_report()


def _report_section(report: str, artifact: str) -> str:
    """The report's section of ``figN``/``tableN``: its ``### Fig. N —``
    heading and everything up to the blank line before the next heading."""
    kind, number = re.fullmatch(r"(fig|table)(\d)", artifact).groups()
    label = f"{'Fig.' if kind == 'fig' else 'Table'} {number}"
    match = re.search(rf"^### {label} — .*?\n(?=\n##)", report, re.M | re.S)
    assert match is not None, artifact
    return match.group(0)


@pytest.mark.parametrize("artifact", ARTIFACT_IDS)
def test_artifact_command_prints_its_report_section(artifact, report_text, capsys):
    assert main([artifact]) == 0
    assert capsys.readouterr().out == _report_section(report_text, artifact)


def test_cli_export_and_entries_share_the_artifact_ids(tmp_path):
    from repro import cli
    from repro.analysis.artifacts import ARTIFACTS
    from repro.analysis.export import export_all

    assert cli.ARTIFACT_IDS == tuple(ARTIFACTS) == ARTIFACT_IDS
    written = export_all(tmp_path)
    assert tuple(path.stem for path in written) == cli.ARTIFACT_IDS


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig1", "fig9", "table6", "checks", "report"):
            assert name in out

    @pytest.mark.parametrize(
        "command,expect",
        [
            ("fig1", "AMD MI250X"),
            ("fig2", "HDD 16TB"),
            ("fig3", "DRAM"),
            ("fig4", "Perf/Embodied"),
            ("fig5", "Frontier"),
            ("fig6", "ESO"),
            ("fig7", "CISO"),
            ("table1", "Seagate"),
            ("table2", "LUMI"),
            ("table3", "ERCOT"),
            ("table4", "CANDLE"),
            ("table5", "V100"),
            ("table6", "P100 to A100"),
        ],
    )
    def test_experiment_commands(self, capsys, command, expect):
        assert main([command]) == 0
        assert expect in capsys.readouterr().out

    def test_fig8_and_fig9_render_sparklines(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "->" in out
        assert main(["fig9"]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_checks_command(self, capsys):
        assert main(["checks"]) == 0
        out = capsys.readouterr().out
        assert "checks pass" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "-o", str(target)]) == 0
        assert target.exists()
        assert "paper vs. measured" in target.read_text()

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestWorkloadCli:
    """The ``workload`` subcommand and the scenario ``--workload`` flags."""

    def test_list_includes_workload(self, capsys):
        assert main(["list"]) == 0
        assert "workload" in capsys.readouterr().out.split()

    def test_generate_then_describe(self, tmp_path, capsys):
        out = tmp_path / "wl.json"
        assert main([
            "workload", "generate", "--backend", "diurnal", "--out", str(out),
            "--days", "2", "--gpus", "8", "--region", "ESO", "--seed", "3",
            "--workload-arg", "amplitude=0.8",
        ]) == 0
        assert "wrote" in capsys.readouterr().out
        assert out.exists()
        assert main(["workload", "describe", str(out)]) == 0
        described = capsys.readouterr().out
        assert "n_jobs" in described and "gpu_hours" in described

    def test_describe_backend_key(self, capsys):
        assert main([
            "workload", "describe", "bursty", "--days", "2", "--gpus", "8",
            "--seed", "5",
        ]) == 0
        assert "n_jobs" in capsys.readouterr().out

    def test_describe_trace_backend_key(self, tmp_path, capsys):
        """The trace *key* (and its alias) must not receive the
        generator defaults (--days/--gpus) — only its own options."""
        out = tmp_path / "t.json"
        assert main([
            "workload", "generate", "--backend", "synthetic",
            "--out", str(out), "--days", "2", "--gpus", "8",
        ]) == 0
        capsys.readouterr()
        for key in ("trace", "replay"):
            assert main([
                "workload", "describe", key, "--days", "28",
                "--workload-arg", f"path={out}",
            ]) == 0
            assert "n_jobs" in capsys.readouterr().out

    def test_scenario_replay_alias_accepts_path_arg(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        assert main([
            "workload", "generate", "--backend", "synthetic",
            "--out", str(out), "--days", "2", "--gpus", "8",
            "--region", "ESO",
        ]) == 0
        capsys.readouterr()
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--policies", "carbon-oblivious", "--workload", "replay",
            "--workload-arg", f"path={out}",
        ]) == 0
        assert "scheduling" in capsys.readouterr().out

    def test_workload_flags_require_policies(self, capsys):
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--workload", "diurnal",
        ]) == 2
        assert "require --policies" in capsys.readouterr().err

    def test_generate_rejects_swf_destination(self, capsys):
        assert main([
            "workload", "generate", "--backend", "synthetic",
            "--out", "/tmp/w.swf", "--days", "2", "--gpus", "8",
        ]) == 2
        assert "name the output *.json" in capsys.readouterr().err

    def test_workload_arg_requires_workload(self, capsys):
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--policies", "carbon-oblivious",
            "--workload-arg", "target_usage=0.6",
        ]) == 2
        assert "requires --workload" in capsys.readouterr().err

    def test_scoped_args_follow_aliases(self, tmp_path, capsys):
        """synthetic:-scoped options reach the poisson alias (and vice
        versa): buckets are canonical-key keyed."""
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--policies", "carbon-oblivious",
            "--workload", "poisson", "--days", "2", "--gpus", "8",
            "--workload-arg", "synthetic:target_usage=0.8",
        ]) == 0
        aliased = capsys.readouterr().out
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--policies", "carbon-oblivious",
            "--workload", "synthetic", "--days", "2", "--gpus", "8",
            "--workload-arg", "target_usage=0.8",
        ]) == 0
        direct = capsys.readouterr().out
        assert aliased == direct

    def test_third_party_backend_gets_no_generator_defaults(self, capsys):
        """--days/--gpus default only into the built-in synthetic family;
        a plugin JobSource with its own signature stays reachable."""
        from repro.session import register_backend, registry
        from repro.workloads.sources import SyntheticSource, WorkloadParams

        class MinimalSource:
            """Accepts only the documented contract kwarg (home_region);
            a horizon_h/total_gpus injection would TypeError."""

            name = "minimal-cli-test"
            horizon_h = 48.0

            def __init__(self, *, home_region=None):
                self.home_region = home_region

            def generate(self, *, seed=7):
                return SyntheticSource(
                    WorkloadParams(
                        horizon_h=48.0, total_gpus=8,
                        home_region=self.home_region,
                    )
                ).generate(seed=seed)

        register_backend("workload", "minimal-cli-test", MinimalSource)
        try:
            assert main([
                "scenario", "--node", "V100", "--region", "ESO",
                "--policies", "carbon-oblivious",
                "--workload", "minimal-cli-test",
            ]) == 0
            assert "scheduling" in capsys.readouterr().out
        finally:
            del registry._factories["workload"]["minimal-cli-test"]

    def test_convert_accepts_backend_level_trace_options(self, tmp_path, capsys):
        swf = tmp_path / "log.swf"
        swf.write_text(
            "1 0 10 3600 4 -1 -1 4 7200 -1 1 3 1 1 1 1 -1 -1\n"
            "2 9000 0 1800 2 -1 -1 2 3600 -1 1 5 1 1 1 1 -1 -1\n",
            encoding="utf-8",
        )
        dest = tmp_path / "out.json"
        assert main([
            "workload", "convert", str(swf), str(dest),
            "--workload-arg", "trace:slack_fraction=3.0",
            "--workload-arg", "trace:horizon_h=1.0",
        ]) == 0
        capsys.readouterr()
        from repro.cluster.traceio import load_jobs

        jobs = load_jobs(dest)
        assert len(jobs) == 1  # horizon clip applied
        assert jobs[0].slack_h == pytest.approx(3.0 * jobs[0].duration_h)

    def test_convert_column_map_string_spelling(self, tmp_path, capsys):
        swf = tmp_path / "log.swf"
        swf.write_text(
            "1 0 10 3600 4 -1 -1 4 7200 -1 1 3 1 1 1 1 -1 -1\n",
            encoding="utf-8",
        )
        dest = tmp_path / "out.json"
        assert main([
            "workload", "convert", str(swf), str(dest),
            "--workload-arg", "column_map=run_s:8",
        ]) == 0
        capsys.readouterr()
        from repro.cluster.traceio import load_jobs

        assert load_jobs(dest)[0].duration_h == 2.0  # requested time

    def test_convert_rejects_generator_source_and_path_override(
        self, tmp_path, capsys
    ):
        swf = tmp_path / "log.swf"
        swf.write_text(
            "1 0 10 3600 4 -1 -1 4 7200 -1 1 3 1 1 1 1 -1 -1\n",
            encoding="utf-8",
        )
        assert main(["workload", "convert", "bursty", "/tmp/x.json"]) == 2
        assert "trace file" in capsys.readouterr().err
        assert main([
            "workload", "convert", str(swf), "/tmp/x.json",
            "--workload-arg", f"trace:path={swf}",
        ]) == 2
        assert "positionally" in capsys.readouterr().err

    def test_workload_subcommands_reject_unused_scoped_args(
        self, tmp_path, capsys
    ):
        swf = tmp_path / "log.swf"
        swf.write_text(
            "1 0 10 3600 4 -1 -1 4 7200 -1 1 3 1 1 1 1 -1 -1\n",
            encoding="utf-8",
        )
        assert main([
            "workload", "convert", str(swf), str(tmp_path / "o.json"),
            "--workload-arg", "synthetic:model=ViT",
        ]) == 2
        assert "no workload backend" in capsys.readouterr().err
        assert main([
            "workload", "describe", "bursty", "--days", "2", "--gpus", "8",
            "--workload-arg", "diurnal:amplitude=0.5",
        ]) == 2
        assert "no workload backend" in capsys.readouterr().err

    def test_path_like_scoped_prefix_rejected(self, capsys):
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--policies", "carbon-oblivious", "--workload", "diurnal",
            "--days", "2", "--gpus", "8",
            "--workload-arg", "/data/log.swf:model=ViT",
        ]) == 2
        assert "backend key" in capsys.readouterr().err

    def test_unknown_scoped_prefix_fails_loudly(self, capsys):
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--policies", "carbon-oblivious",
            "--workload", "diurnal", "--days", "2", "--gpus", "8",
            "--workload-arg", "diurnl:target_usage=0.9",
        ]) == 2
        assert "not a workload backend" in capsys.readouterr().err

    def test_comma_in_string_values_survives(self, tmp_path):
        from repro.cli import _coerce_workload_arg

        assert _coerce_workload_arg("/data/run,1/log.swf") == "/data/run,1/log.swf"
        assert _coerce_workload_arg("1.5,2.5") == [1.5, 2.5]
        assert _coerce_workload_arg("8") == 8
        assert _coerce_workload_arg("true") is True

    def test_workload_conflicts_with_sweep_workloads(self, capsys):
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--policies", "carbon-oblivious",
            "--workload", "diurnal",
            "--sweep-workloads", "synthetic,bursty",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_convert_honors_trace_scoped_args(self, tmp_path, capsys):
        swf = tmp_path / "log.swf"
        swf.write_text(
            "1 0 10 3600 4 -1 -1 4 7200 -1 1 3 1 1 1 1 -1 -1\n",
            encoding="utf-8",
        )
        dest = tmp_path / "out.json"
        assert main([
            "workload", "convert", str(swf), str(dest),
            "--workload-arg", "trace:model=ViT",
        ]) == 0
        capsys.readouterr()
        from repro.cluster.traceio import load_jobs

        assert {j.model.name for j in load_jobs(dest)} == {"ViT"}

    def test_convert_swf(self, tmp_path, capsys):
        swf = tmp_path / "log.swf"
        swf.write_text(
            "; header\n"
            "1 0 10 3600 4 -1 -1 4 7200 -1 1 3 1 1 1 1 -1 -1\n"
            "2 1800 0 1800 2 -1 -1 2 3600 -1 1 5 1 1 1 1 -1 -1\n",
            encoding="utf-8",
        )
        dest = tmp_path / "out.json"
        assert main([
            "workload", "convert", str(swf), str(dest),
            "--workload-arg", "model=ResNet50",
        ]) == 0
        assert "converted" in capsys.readouterr().out
        from repro.cluster.traceio import load_jobs

        jobs = load_jobs(dest)
        assert len(jobs) == 2
        assert {j.model.name for j in jobs} == {"ResNet50"}

    def test_scenario_workload_key_matches_facade(self, capsys):
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--policies", "carbon-oblivious", "--workload", "diurnal",
            "--days", "2", "--gpus", "8", "--seed", "3",
        ]) == 0
        flagged = capsys.readouterr().out

        from repro.session import Scenario

        expected = (
            Scenario()
            .seed(3)
            .node("V100")
            .region("ESO")
            .policies(["carbon-oblivious"])
            .workload("diurnal", seed=3, horizon_h=48.0, total_gpus=8)
            .build()
        )
        assert expected.render() == flagged.rstrip("\n")

    def test_scenario_sweeps_all_workload_backends(self, tmp_path, capsys):
        """The acceptance sweep: 4 policies x 4 workload backends through
        Session.run_many from the CLI."""
        trace = tmp_path / "trace.json"
        assert main([
            "workload", "generate", "--backend", "synthetic",
            "--out", str(trace), "--days", "2", "--gpus", "8",
            "--region", "ESO",
        ]) == 0
        capsys.readouterr()
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--policies",
            "carbon-oblivious,temporal-shifting,geographic,carbon_aware",
            "--days", "2", "--gpus", "8",
            "--sweep-workloads", "synthetic,diurnal,bursty,trace",
            "--workload-arg", f"trace:path={trace}",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("Scenario ") == 4
        for policy in ("carbon-oblivious", "temporal-shifting", "geographic",
                       "temporal+geographic"):
            assert out.count(policy) >= 4

    def test_scenario_list_backends_includes_workload(self, capsys):
        assert main(["scenario", "--list-backends"]) == 0
        out = capsys.readouterr().out
        assert "workload: " in out
        assert "diurnal" in out and "bursty" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "--node", "V100", "--region", "ESO",
             "--policies", "carbon-oblivious", "--workload", "tidal",
             "--days", "2", "--gpus", "8"],
            ["scenario", "--node", "V100", "--region", "ESO",
             "--policies", "carbon-oblivious", "--workload", "synthetic",
             "--days", "2", "--gpus", "8", "--workload-arg", "wavelength=3"],
            ["scenario", "--node", "V100", "--region", "ESO",
             "--policies", "carbon-oblivious", "--workload", "/no/such.json",
             "--days", "2", "--gpus", "8"],
            ["workload", "describe", "tidal"],
            ["workload", "convert", "/no/such.swf", "/tmp/x.json"],
            ["workload", "generate", "--backend", "synthetic",
             "--out", "/tmp/x.json", "--workload-arg", "broken"],
            ["scenario", "--node", "V100", "--region", "ESO",
             "--policies", "carbon-oblivious", "--workload", "synthetic",
             "--days", "2", "--gpus", "8", "--workload-arg", "seed=5"],
            ["scenario", "--node", "V100", "--region", "ESO",
             "--policies", "carbon-oblivious", "--workload", "diurnal",
             "--days", "2", "--gpus", "8",
             "--workload-arg", "trace:path=/tmp/x.json"],
        ],
        ids=["unknown-key", "bad-option", "missing-trace",
             "describe-unknown", "convert-missing", "malformed-arg",
             "reserved-seed", "unused-scope"],
    )
    def test_invalid_workload_flags_fail_cleanly(self, capsys, argv):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err

    def test_scenario_simulator_args_reach_backend(self, capsys):
        assert main([
            "scenario", "--node", "V100", "--region", "ESO",
            "--workload", "diurnal", "--days", "2", "--gpus", "8",
            "--cluster", "2", "--simulator", "carbon-aware",
            "--simulator-arg", "slack=24", "--seed", "3",
        ]) == 0
        flagged = capsys.readouterr().out

        from repro.session import Scenario

        expected = (
            Scenario()
            .seed(3)
            .node("V100")
            .region("ESO")
            .workload("diurnal", seed=3, horizon_h=48.0, total_gpus=8)
            .cluster(2, simulator="carbon-aware", slack=24)
            .build()
        )
        assert expected.render() == flagged.rstrip("\n")

    @pytest.mark.parametrize(
        "argv,expect",
        [
            (["scenario", "--node", "V100", "--region", "ESO",
              "--workload", "diurnal", "--days", "2", "--gpus", "8",
              "--cluster", "2", "--simulator-arg", "slack=24"],
             "requires --simulator"),
            (["scenario", "--node", "V100", "--region", "ESO",
              "--workload", "diurnal", "--days", "2", "--gpus", "8",
              "--simulator", "carbon-aware"],
             "requires --cluster"),
            (["scenario", "--node", "V100", "--region", "ESO",
              "--workload", "diurnal", "--days", "2", "--gpus", "8",
              "--cluster", "2", "--simulator", "carbon-aware",
              "--simulator-arg", "broken"],
             "K=V"),
            (["scenario", "--node", "V100", "--region", "ESO",
              "--workload", "diurnal", "--days", "2", "--gpus", "8",
              "--cluster", "2", "--simulator", "fcfs",
              "--simulator-arg", "slack=24"],
             "rejected options"),
        ],
        ids=["arg-without-simulator", "simulator-without-cluster",
             "malformed-arg", "option-unknown-to-discipline"],
    )
    def test_invalid_simulator_flags_fail_cleanly(self, capsys, argv, expect):
        assert main(argv) == 2
        assert expect in capsys.readouterr().err

    def test_sweep_axes_are_exclusive(self, capsys):
        assert main([
            "scenario", "--node", "V100",
            "--policies", "carbon-oblivious",
            "--sweep-regions", "ESO,CISO",
            "--sweep-workloads", "synthetic,diurnal",
        ]) == 2
        assert "mutually exclusive" in capsys.readouterr().err


class TestPUEFlags:
    """`--pue` / `--pue-arg` on the scenario, audit, and advise commands."""

    def test_scenario_numeric_pue_matches_facade(self, capsys):
        assert main([
            "scenario", "--system", "Perlmutter", "--region", "CISO",
            "--pue", "1.5",
        ]) == 0
        flagged = capsys.readouterr().out

        from repro.session import Scenario

        expected = (
            Scenario().system("Perlmutter").region("CISO").pue(1.5).build()
        )
        assert expected.render() == flagged.rstrip("\n")

    def test_scenario_seasonal_pue_differs_from_constant(self, capsys):
        base = ["scenario", "--system", "Perlmutter", "--region", "CISO"]
        assert main([*base, "--pue", "1.2"]) == 0
        constant = capsys.readouterr().out
        assert main([
            *base, "--pue", "seasonal",
            "--pue-arg", "mean=1.2", "--pue-arg", "amplitude=0.1",
        ]) == 0
        seasonal = capsys.readouterr().out
        assert constant != seasonal

    def test_audit_and_advise_accept_pue(self, capsys):
        assert main(["audit", "--system", "Perlmutter", "--pue", "1.5"]) == 0
        high = capsys.readouterr().out
        assert main(["audit", "--system", "Perlmutter", "--pue", "1.2"]) == 0
        low = capsys.readouterr().out
        assert "Carbon audit" in high and high != low
        assert main([
            "advise", "--intensity", "200", "--pue", "seasonal",
            "--pue-arg", "amplitude=0.05",
        ]) == 0
        assert "carbon breakeven" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "--system", "Perlmutter", "--region", "CISO",
             "--pue", "0.5"],
            ["scenario", "--system", "Perlmutter", "--region", "CISO",
             "--pue", "nan"],
            ["scenario", "--system", "Perlmutter", "--region", "CISO",
             "--pue", "tidal"],
            ["scenario", "--system", "Perlmutter", "--region", "CISO",
             "--pue-arg", "amplitude=0.1"],
            ["scenario", "--system", "Perlmutter", "--region", "CISO",
             "--pue", "seasonal", "--pue-arg", "amplitude"],
            ["audit", "--system", "Perlmutter", "--pue", "0.5"],
            ["advise", "--intensity", "200", "--pue", "0.5"],
        ],
        ids=["below-floor", "nan", "unknown-key", "arg-without-pue",
             "malformed-arg", "audit-below-floor", "advise-below-floor"],
    )
    def test_invalid_pue_flags_fail_cleanly(self, capsys, argv):
        assert main(argv) == 2
        assert "error" in capsys.readouterr().err


class TestAuditAdviseErrors:
    """Bad `audit`/`advise` inputs exit 2 with a typed error line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["audit", "--years", "nan"],
            ["audit", "--years", "-1"],
            ["advise", "--lifetime", "nan"],
            ["advise", "--usage", "2"],
            ["advise", "--intensity", "-5"],
        ],
        ids=["audit-years-nan", "audit-years-negative", "advise-lifetime-nan",
             "advise-usage-above-one", "advise-intensity-negative"],
    )
    def test_bad_input_fails_cleanly(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{argv[0]} error: ")
        assert captured.out == ""

