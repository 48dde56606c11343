"""Regenerate the upgrade figures (F8, F9): savings curves and breakevens."""

from __future__ import annotations

import pytest

from repro.analysis.artifacts import ARTIFACTS, SAVINGS_YEARS
from repro.analysis.figures import figure8, figure9
from repro.analysis.render import format_table
from repro.upgrade.amortization import breakeven_table
from repro.upgrade.scenario import INTENSITY_LEVELS
from repro.workloads.models import Suite
from repro.workloads.performance import upgrade_options


def test_figure8(benchmark):
    grids = benchmark(figure8, times_years=SAVINGS_YEARS)
    grid = grids[("P100", "V100")]
    # Curves start negative everywhere; high intensity ends positive.
    for label in INTENSITY_LEVELS:
        assert grid.curve(label, Suite.NLP)[0] < 0.0
    assert grid.final_savings("High Carbon Intensity", Suite.NLP) > 0.15
    assert grid.final_savings("Low Carbon Intensity", Suite.NLP) < 0.0
    print("\n" + ARTIFACTS["fig8"].section())


def test_figure9(benchmark):
    grids = benchmark(figure9, times_years=SAVINGS_YEARS)
    grid = grids[("V100", "A100")]
    assert grid.final_savings("High Usage", Suite.NLP) > grid.final_savings(
        "Low Usage", Suite.NLP
    )
    print("\n" + ARTIFACTS["fig9"].section())


def test_breakeven_table(benchmark):
    """Sec. 5 summary: amortization times across the full grid."""
    table = benchmark(breakeven_table, upgrade_options(), INTENSITY_LEVELS)
    rows = []
    for (old, new, label, suite), years in sorted(table.items()):
        rows.append(
            (f"{old}->{new}", label.split()[0], suite.value,
             "never (<30y)" if years is None else f"{years:.2f} yr")
        )
    # High intensity always < 0.5 yr (paper: "less than half a year").
    for old, new in upgrade_options():
        for suite in Suite:
            be = table[(old, new, "High Carbon Intensity", suite)]
            assert be is not None and be < 0.5
    print("\nBreakeven years (upgrade x intensity x workload)")
    print(format_table(["Upgrade", "Intensity", "Suite", "Breakeven"], rows))
