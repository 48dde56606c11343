"""Every shipped example must run cleanly and print exactly its golden
stdout (``tests/golden/examples/<name>.txt``; re-bless with
``pytest tests/test_examples.py --update-golden``)."""

from __future__ import annotations

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

_EXPECTED = {
    "quickstart.py": ["total embodied", "C_total"],
    "procurement_rfp.py": ["RFP comparison", "Embodied per PF"],
    "carbon_aware_scheduling.py": ["Policy comparison", "Carbon-budget ledger"],
    "upgrade_planning.py": ["upgrade decisions", "Savings curves"],
    "green500_reranking.py": ["GFLOPS/W", "total 5-year carbon"],
    "full_center_audit.py": ["Carbon audit", "interconnect estimate"],
}


@pytest.mark.parametrize("script", sorted(_EXPECTED))
def test_example_runs(script, golden_file):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    for token in _EXPECTED[script]:
        assert token in proc.stdout, f"{script}: missing {token!r}"
    golden_file(f"examples/{path.stem}.txt", proc.stdout)


def test_examples_directory_complete():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert set(_EXPECTED) <= scripts
    assert len(scripts) >= 3  # the deliverable floor
