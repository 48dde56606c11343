"""Regenerate the embodied-carbon figures (F1, F2, F3, F5)."""

from __future__ import annotations

import pytest

from repro.analysis.artifacts import ARTIFACTS
from repro.analysis.figures import figure1, figure2, figure3, figure5


def test_figure1(benchmark):
    rows = benchmark(figure1)
    gpus = [r for r in rows if r.kind == "GPU"]
    cpus = [r for r in rows if r.kind == "CPU"]
    assert min(g.embodied_kg for g in gpus) > max(c.embodied_kg for c in cpus)
    assert max(g.embodied_per_tflop_kg for g in gpus) < min(
        c.embodied_per_tflop_kg for c in cpus
    )
    print("\n" + ARTIFACTS["fig1"].section())


def test_figure2(benchmark):
    rows = benchmark(figure2)
    assert all(5.0 <= r.embodied_kg <= 25.0 for r in rows)
    print("\n" + ARTIFACTS["fig2"].section())


def test_figure3(benchmark):
    rows = benchmark(figure3)
    shares = {r.component_class: r.packaging_share for r in rows}
    assert shares["DRAM"] == pytest.approx(0.42, abs=0.03)
    assert shares["SSD"] == pytest.approx(0.02, abs=0.01)
    print("\n" + ARTIFACTS["fig3"].section())


def test_figure5(benchmark):
    shares = benchmark(figure5)
    assert shares["Frontier"]["GPU"] / shares["Frontier"]["CPU"] >= 7.0
    assert "HDD" not in shares["Perlmutter"]
    print("\n" + ARTIFACTS["fig5"].section())
