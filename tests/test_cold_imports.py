"""numpy is the only runtime dependency: a cold process never loads scipy.

The check runs in a fresh interpreter so that no module an earlier test
imported (the scipy parity oracles among them) can hide or fake an
import made by the package itself.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_SCRIPT = textwrap.dedent(
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


def test_cold_cli_and_scenario_never_import_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
