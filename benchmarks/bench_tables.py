"""Regenerate paper Tables 1-6 (experiment ids T1-T6 in DESIGN.md)."""

from __future__ import annotations

import pytest

from repro.analysis.artifacts import ARTIFACTS
from repro.analysis.tables import table1, table2, table3, table4, table5, table6


def test_table1(benchmark):
    rows = benchmark(table1)
    assert len(rows) == 9
    print("\n" + ARTIFACTS["table1"].section())


def test_table2(benchmark):
    rows = benchmark(table2)
    assert [r[0] for r in rows] == ["Frontier", "LUMI", "Perlmutter"]
    print("\n" + ARTIFACTS["table2"].section())


def test_table3(benchmark):
    rows = benchmark(table3)
    assert len(rows) == 7
    print("\n" + ARTIFACTS["table3"].section())


def test_table4(benchmark):
    rows = benchmark(table4)
    assert len(rows) == 3
    print("\n" + ARTIFACTS["table4"].section())


def test_table5(benchmark):
    rows = benchmark(table5)
    assert {r[0] for r in rows} == {"P100", "V100", "A100"}
    print("\n" + ARTIFACTS["table5"].section())


def test_table6(benchmark):
    rows = benchmark(table6)
    # Paper row: P100->V100 improvements 44.4 / 41.2 / 45.5 / 43.4 %.
    first = rows[0]
    assert first.nlp_improvement == pytest.approx(0.444, abs=0.02)
    assert first.vision_improvement == pytest.approx(0.412, abs=0.02)
    assert first.candle_improvement == pytest.approx(0.455, abs=0.02)
    print("\n" + ARTIFACTS["table6"].section())
