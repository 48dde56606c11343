"""What a cold process imports: numpy only, and only what a command runs.

numpy is the only runtime dependency, so a cold process never loads
scipy.  Built-in backends are rows that import their module on first
use, and every package re-exports lazily, so a command loads the modules
it resolves and no others; ``Scenario.build()`` and ``import
repro.sweep.runner`` load what a run or a sweep pass will execute, so
the timed steps import nothing.

Every check runs in a fresh interpreter so that no module an earlier
test imported (the scipy parity oracles among them) can hide or fake an
import made by the package itself.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: The layer packages the registry's built-in rows point into.
LAYERS = (
    "repro.hardware",
    "repro.intensity",
    "repro.workloads",
    "repro.scheduler",
    "repro.cluster",
    "repro.accounting",
    "repro.power",
    "repro.analysis",
    "repro.upgrade",
    "repro.sweep",
    "repro.resilience",
    "repro.session.executors",
)

#: Modules a cold ``audit --system Frontier`` runs nothing of.
NOT_AUDIT = (
    "repro.sweep",
    "repro.resilience",
    "repro.cluster.engine",
    "repro.analysis.figures",
    "repro.analysis.report",
    "multiprocessing",
    "concurrent.futures",
)

_CLI = """
import contextlib
import io

from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""

_SCIPY = textwrap.dedent(
    """
    import contextlib
    import io
    import sys

    from repro.cli import main
    from repro.session import Scenario

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["audit", "--system", "Frontier"]) == 0
        assert main([
            "scenario", "--system", "frontier", "--region", "ESO",
            "--seed", "2021",
        ]) == 0

    result = (
        Scenario()
        .system("frontier")
        .node("A100")
        .region("ESO")
        .workload("synthetic", seed=7, horizon_h=48.0, total_gpus=8)
        .policies(["carbon-oblivious", "temporal+geographic"])
        .cluster(2)
        .training("BERT", n_gpus=4)
        .upgrade("V100", "A100")
        .run()
    )
    assert result.scheduling is not None and result.cluster is not None
    assert result.training is not None and result.upgrade is not None

    loaded = sorted(
        name for name in sys.modules
        if name == "scipy" or name.startswith("scipy.")
    )
    print("scipy modules:", loaded)
    sys.exit(1 if loaded else 0)
    """
)


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _modules_after(script: str) -> set:
    """Every module loaded once ``script`` has run in a fresh interpreter."""
    out = _run(
        textwrap.dedent(script)
        + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    )
    return set(json.loads(out.splitlines()[-1]))


def _repro_added(script: str) -> list:
    """``repro`` modules the step between ``before`` and the end imported.

    ``script`` binds ``before = set(sys.modules)`` ahead of the step.
    """
    out = _run(
        textwrap.dedent(script)
        + "\nimport json, sys\nprint(json.dumps(sorted("
        "name for name in set(sys.modules) - before "
        "if name == 'repro' or name.startswith('repro.'))))\n"
    )
    return json.loads(out.splitlines()[-1])


def test_cold_cli_and_scenario_never_import_scipy():
    _run(_SCIPY)


def test_cold_audit_imports_only_what_it_runs():
    loaded = _modules_after(_CLI.format(argv=["audit", "--system", "Frontier"]))
    assert sorted(loaded & set(NOT_AUDIT)) == []


def test_scenario_without_cluster_skips_the_cluster_engine():
    loaded = _modules_after(
        _CLI.format(argv=["scenario", "--system", "frontier", "--region", "ESO"])
    )
    assert "repro.cluster.engine" not in loaded


def test_fcfs_cluster_run_skips_the_discipline_engine():
    loaded = _modules_after(
        _CLI.format(argv=[
            "scenario", "--system", "frontier", "--node", "A100",
            "--region", "ESO", "--workload", "synthetic", "--cluster", "2",
        ])
    )
    assert "repro.cluster.simulator" in loaded
    assert "repro.cluster.engine" not in loaded


def test_listing_backends_imports_no_layer():
    loaded = _modules_after(_CLI.format(argv=["scenario", "--list-backends"]))
    assert sorted(loaded & set(LAYERS)) == []
    assert "numpy" not in loaded


def test_memo_registry_loads_no_layer():
    loaded = _modules_after("import repro._memo")
    assert "numpy" not in loaded
    assert sorted(
        name for name in loaded if name == "repro" or name.startswith("repro.")
    ) == ["repro", "repro._lazy", "repro._memo"]


def test_canonical_run_imports_nothing_after_build():
    added = _repro_added(
        """
        import sys

        from repro.session import Scenario

        session = (
            Scenario()
            .system("frontier")
            .node("A100")
            .region("ESO")
            .workload("synthetic", seed=7)
            .policies(["carbon-oblivious", "temporal-shifting", "geographic",
                       "temporal+geographic"])
            .cluster(16)
            .training("BERT", n_gpus=4)
            .upgrade("V100", "A100")
            .build()
        )
        before = set(sys.modules)
        session.run()
        """
    )
    assert added == []


def test_sweep_pass_imports_nothing_over_built_cell_kinds(tmp_path):
    added = _repro_added(
        f"""
        import sys

        from repro.session import Scenario
        from repro.sweep import SweepService

        def grid(simulator):
            return [
                Scenario()
                .system(system)
                .node("A100")
                .region("ESO")
                .workload("synthetic", seed=7, horizon_h=24.0, total_gpus=8)
                .policy("geographic")
                .cluster(2, simulator=simulator)
                .training("BERT", n_gpus=4)
                .upgrade("V100", "A100")
                for system in ("frontier", "lumi")
            ]

        for cell in grid("fcfs") + grid("fcfs-columnar"):
            cell.build()
        before = set(sys.modules)
        serial = {str(tmp_path / "serial")!r}
        SweepService(cache_dir=serial).run(grid("fcfs"))
        SweepService(cache_dir=serial).run(grid("fcfs-columnar"))
        SweepService(
            cache_dir={str(tmp_path / "shared")!r}, executor="shared",
            max_workers=1,
        ).run(grid("fcfs"))
        """
    )
    assert added == []


def test_cold_commands_never_import_numpy_ma(tmp_path):
    """numpy 2.4's np.median and np.unique import numpy.ma (~11 ms) on
    first use; none of the cold paths calls them."""
    loaded = _modules_after(
        f"""
        import contextlib
        import io

        from repro.cli import main
        from repro.session import Scenario
        from repro.sweep import SweepService

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["audit", "--system", "Frontier"]) == 0
            assert main(["scenario", "--system", "frontier", "--region", "ESO"]) == 0

        (
            Scenario()
            .system("frontier")
            .node("A100")
            .region("ESO")
            .workload("synthetic", seed=7)
            .policies(["carbon-oblivious", "temporal-shifting", "geographic",
                       "temporal+geographic"])
            .cluster(16)
            .training("BERT", n_gpus=4)
            .upgrade("V100", "A100")
            .build()
            .run()
        )

        def grid(simulator):
            return [
                Scenario()
                .system(system)
                .node("A100")
                .region("ESO")
                .workload("synthetic", seed=7, horizon_h=24.0, total_gpus=8)
                .policy("geographic")
                .cluster(2, simulator=simulator)
                .training("BERT", n_gpus=4)
                .upgrade("V100", "A100")
                for system in ("frontier", "lumi")
            ]

        cache = {str(tmp_path / "cache")!r}
        SweepService(cache_dir=cache).run(grid("fcfs"))
        SweepService(cache_dir=cache).run(grid("fcfs-columnar"))
        """
    )
    assert "numpy" in loaded
    assert sorted(
        name for name in loaded if name == "numpy.ma" or name.startswith("numpy.ma.")
    ) == []


def test_every_package_export_resolves():
    out = _run(
        """
        import importlib
        import pkgutil

        import repro

        packages = ["repro"] + [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.ispkg
        ]
        missing = []
        for name in packages:
            package = importlib.import_module(name)
            exports = package.__all__
            assert len(set(exports)) == len(exports), name
            assert set(exports) <= set(dir(package)), name
            missing += [
                f"{name}.{attr}" for attr in exports if not hasattr(package, attr)
            ]
        print(len(packages), missing)
        """
    )
    count, missing = out.split(" ", 1)
    assert int(count) >= 13
    assert missing.strip() == "[]"


def test_session_registry_attribute_is_the_instance():
    _run(
        """
        import repro.session.registry

        from repro.session.registry import BackendRegistry

        assert isinstance(repro.session.registry, BackendRegistry)
        import repro

        assert repro.registry is repro.session.registry
        """
    )
