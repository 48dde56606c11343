"""Regenerate the carbon-intensity figures (F6, F7) and profile the
trace-generation substrate."""

from __future__ import annotations

import pytest

from repro.analysis.artifacts import ARTIFACTS
from repro.analysis.figures import figure6, figure7
from repro.intensity.generator import generate_all_traces, generate_trace


def test_figure6(benchmark):
    stats = benchmark(figure6)
    medians = {code: s.median for code, s in stats.items()}
    assert min(medians, key=medians.get) == "ESO"
    assert max(medians, key=medians.get) == "TK"
    covs = {code: s.cov_percent for code, s in stats.items()}
    assert sorted(covs, key=covs.get, reverse=True)[:2] == ["ESO", "CISO"]
    print("\n" + ARTIFACTS["fig6"].section())


def test_figure7(benchmark):
    result = benchmark(figure7)
    eso_hours = set(result.hours_won("ESO"))
    assert set(range(8, 21)).issubset(eso_hours)
    assert len(set(result.winners_by_hour())) >= 2
    print("\n" + ARTIFACTS["fig7"].section())


def test_trace_generation_throughput(benchmark):
    """Substrate microbenchmark: one region-year of hourly intensity."""
    trace = benchmark(generate_trace, "ESO")
    assert len(trace) == 8760


def test_all_regions_generation(benchmark):
    traces = benchmark(generate_all_traces)
    assert len(traces) == 7
