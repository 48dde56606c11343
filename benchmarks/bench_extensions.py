"""Benchmarks for the extension subsystems (paper Sec. 6 / limitations
made executable): interconnect, replacements, seasonal PUE, the center
audit, sensitivity and the paper's takeaways."""

from __future__ import annotations

import numpy as np

from repro.analysis.audit import CenterAuditor
from repro.analysis.render import format_table
from repro.analysis.sensitivity import tornado
from repro.hardware.network import (
    estimate_fat_tree_interconnect,
    system_share_with_interconnect,
)
from repro.hardware.replacement import ReplacementModel
from repro.hardware.systems import frontier, perlmutter
from repro.intensity.generator import generate_trace
from repro.power.pue import SeasonalPUE, operational_carbon_seasonal


def test_interconnect_share(benchmark):
    """Quantify the paper's missing component: does the fabric change
    Fig. 5?"""
    shares = benchmark(
        system_share_with_interconnect, frontier(), 9408, nics_per_node=4
    )
    assert 0.005 <= shares["Network"] <= 0.15
    estimate = estimate_fat_tree_interconnect(9408, nics_per_node=4)
    print(
        f"\nFrontier fabric: {estimate.nics} NICs + {estimate.switches} switches; "
        f"network share of embodied carbon = {shares['Network']:.1%} "
        "(mid estimate)"
    )
    print(format_table(["Class", "Share"], [(k, f"{v:.1%}") for k, v in shares.items()]))


def test_replacement_overhead(benchmark):
    """RQ4 warning: DRAM replacements accumulate embodied carbon."""
    model = ReplacementModel()

    def compute():
        return {
            system.name: model.replacement_overhead_fraction(system, 5.0)
            for system in (frontier(), perlmutter())
        }

    overheads = benchmark(compute)
    assert all(0.01 < v < 0.25 for v in overheads.values())
    print("\n5-year replacement overhead vs initial build:")
    print(format_table(["System", "Overhead"], [(k, f"{v:.1%}") for k, v in overheads.items()]))


def test_seasonal_pue_error(benchmark):
    """Sec. 6: how wrong is the constant-PUE simplification for a
    summer-only campaign?"""
    model = SeasonalPUE(annual_mean=1.2, seasonal_amplitude=0.08)

    def compute():
        power = np.full(24 * 30, 2000.0)
        intensity = np.full(24 * 30, 300.0)
        summer = operational_carbon_seasonal(
            power, intensity, model, start_hour=24 * 190
        )
        constant = float(np.sum(power * intensity * 1.2)) / 1000.0
        return summer, constant

    summer, constant = benchmark(compute)
    error = (summer - constant) / constant
    assert error > 0.03
    print(
        f"\nConstant-PUE error for a July campaign: {error:+.1%} "
        f"({summer/1e6:.2f} t vs {constant/1e6:.2f} t)"
    )


def test_center_audit(benchmark):
    """The full Perlmutter-class audit as one call."""
    auditor = CenterAuditor(intensity=generate_trace("CISO"), n_nodes=4608)
    audit = benchmark(auditor.audit, perlmutter(), service_years=5.0)
    assert audit.total_g > 0.0
    print()
    for line in audit.summary_lines():
        print(line)


def test_sensitivity_tornado(benchmark):
    """Rank the paper's fixed constants by their effect on the upgrade
    breakeven (Sec. 6 threats, quantified)."""
    results = benchmark(tornado, "upgrade_breakeven")
    assert results[0].swing >= results[-1].swing
    print("\nSensitivity of V100->A100 breakeven (years) to model constants:")
    print(
        format_table(
            ["Parameter", "Low", "High", "Output @low", "@base", "@high"],
            [
                (r.parameter, r.low_setting, r.high_setting,
                 f"{r.at_low:.2f}", f"{r.baseline:.2f}", f"{r.at_high:.2f}")
                for r in results
            ],
        )
    )


def test_paper_takeaways(benchmark):
    """Re-derive the paper's nine Observations/Insights end to end."""
    from repro.analysis.insights import check_all_insights

    results = benchmark(check_all_insights)
    assert all(r.holds for r in results)
    rows = [(r.number, r.title, "yes" if r.holds else "NO") for r in results]
    print("\nThe paper's observations and insights, re-derived:")
    print(format_table(["#", "Takeaway", "Holds"], rows))
