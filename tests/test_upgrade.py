"""Upgrade scenarios, amortization sweeps, and the advisor (RQ7/RQ8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.errors import UpgradeAnalysisError
from repro.core.units import HOURS_PER_YEAR
from repro.intensity.generator import generate_trace
from repro.intensity.trace import IntensityTrace
from repro.power import HourlyPUE, SeasonalPUE
from repro.upgrade.advisor import UpgradeAdvisor, Verdict
from repro.upgrade.amortization import (
    breakeven_table,
    intensity_scaling_check,
    sweep_intensities,
    sweep_usages,
)
from repro.upgrade.scenario import INTENSITY_LEVELS, USAGE_LEVELS, UpgradeScenario
from repro.workloads.models import Suite
from repro.workloads.performance import upgrade_options


def scenario(old="P100", new="V100", suite=Suite.NLP, **kw):
    return UpgradeScenario.from_generations(old, new, suite, **kw)


class TestScenarioBasics:
    def test_speedup_from_table6(self):
        assert scenario().speedup == pytest.approx(1.800)
        assert scenario(new="A100").speedup == pytest.approx(2.430)

    def test_new_usage_scaled_by_speedup(self):
        sc = scenario(usage=0.4)
        assert sc.new_usage == pytest.approx(0.4 / 1.8)

    def test_embodied_cost_is_full_new_node(self):
        sc = scenario()
        assert sc.embodied_cost_g == pytest.approx(
            sc.new_node.embodied().total_g
        )

    def test_self_upgrade_rejected(self):
        with pytest.raises(UpgradeAnalysisError):
            scenario(old="V100", new="V100")

    def test_invalid_usage_rejected(self):
        with pytest.raises(UpgradeAnalysisError):
            scenario(usage=0.0)
        with pytest.raises(UpgradeAnalysisError):
            scenario(usage=1.5)

    def test_downgrade_speedup_rejected(self):
        sc = scenario(old="A100", new="P100")
        with pytest.raises(UpgradeAnalysisError):
            _ = sc.speedup

    def test_new_node_draws_less_average_power(self):
        sc = scenario()
        assert sc.new_power_w() < sc.old_power_w()


class TestSavingsCurve:
    def test_starts_negative_ends_positive_at_medium_intensity(self):
        sc = scenario(intensity=200.0)
        times = np.linspace(0.05, 5.0, 50)
        savings = sc.savings_curve(times)
        assert savings[0] < 0.0
        assert savings[-1] > 0.0

    def test_monotone_increasing(self):
        sc = scenario(intensity=200.0)
        savings = sc.savings_curve(np.linspace(0.1, 5.0, 50))
        assert np.all(np.diff(savings) > 0.0)

    def test_approaches_asymptote(self):
        sc = scenario(intensity=400.0)
        far = float(sc.savings_curve(np.array([100.0]))[0])
        assert far == pytest.approx(sc.asymptotic_savings(), abs=0.01)

    def test_zero_time_rejected(self):
        with pytest.raises(UpgradeAnalysisError):
            scenario().savings_curve(np.array([0.0, 1.0]))

    def test_trace_intensity_close_to_matching_constant(self):
        trace = generate_trace("PJM")
        sc_trace = scenario(intensity=trace)
        sc_const = scenario(intensity=trace.mean())
        t = np.array([2.0])
        assert sc_trace.savings_curve(t)[0] == pytest.approx(
            sc_const.savings_curve(t)[0], abs=0.02
        )

    def test_trace_cumulative_partial_year(self):
        trace = generate_trace("PJM")
        sc = scenario(intensity=trace)
        # Half a year of savings is between the 0.25 and 1.0 year values.
        quarter, half, full = sc.savings_curve(np.array([0.25, 0.5, 1.0]))
        assert quarter < half < full


class TestBreakeven:
    def test_paper_high_intensity_under_half_year(self):
        for old, new in upgrade_options():
            be = scenario(old=old, new=new, intensity=400.0).breakeven_years()
            assert be is not None and be < 0.5, (old, new)

    def test_paper_medium_intensity_under_year(self):
        for old, new in upgrade_options():
            be = scenario(old=old, new=new, intensity=200.0).breakeven_years()
            assert be is not None and be < 1.0, (old, new)

    def test_paper_low_intensity_about_five_years(self):
        for old, new in upgrade_options():
            be = scenario(old=old, new=new, intensity=20.0).breakeven_years(
                horizon_years=30.0
            )
            assert be is not None and be >= 3.5, (old, new)

    def test_breakeven_scales_inverse_with_intensity(self):
        ratio = intensity_scaling_check("P100", "A100", Suite.VISION, 20.0, 400.0)
        assert ratio == pytest.approx(400.0 / 20.0, rel=1e-9)

    def test_never_breaks_even_when_new_draws_more(self):
        # Usage so low that the idle floor dominates: A100 node has the
        # same GPU idle draw, so savings persist — instead test horizon cut.
        sc = scenario(intensity=20.0)
        assert sc.breakeven_years(horizon_years=1.0) is None

    def test_zero_intensity_never_breaks_even(self):
        sc = scenario(intensity=0.0)
        assert sc.breakeven_years() is None

    def test_breakeven_matches_curve_zero_crossing(self):
        sc = scenario(intensity=200.0)
        be = sc.breakeven_years()
        eps = 1.0 / HOURS_PER_YEAR
        before = sc.savings_curve(np.array([max(be - 0.01, eps)]))[0]
        after = sc.savings_curve(np.array([be + 0.01]))[0]
        assert before < 0.0 < after

    def test_trace_breakeven_close_to_constant(self):
        trace = generate_trace("PJM")
        be_trace = scenario(intensity=trace).breakeven_years()
        be_const = scenario(intensity=trace.mean()).breakeven_years()
        assert be_trace == pytest.approx(be_const, rel=0.1)


def full_grid_breakeven(sc, horizon_years):
    """Reference breakeven under a trace or hourly PUE: evaluate every
    whole hour of the horizon at once and take the first covered one."""
    old_w, new_w = sc.old_power_w(), sc.new_power_w()
    if new_w >= old_w:
        return None
    hours_grid = np.arange(1, int(horizon_years * HOURS_PER_YEAR) + 1)
    if hours_grid.size == 0:
        return None
    old_op = sc._cumulative_operational_g(old_w, hours_grid)
    new_op = sc._cumulative_operational_g(new_w, hours_grid)
    net = old_op - new_op - sc.embodied_cost_g
    crossing = np.argmax(net >= 0.0)
    if net[crossing] < 0.0:
        return None
    return float(hours_grid[crossing]) / HOURS_PER_YEAR


@st.composite
def cycled_scenarios(draw):
    """Upgrade scenarios whose breakeven comes from an hourly cycle."""
    old, new = draw(
        st.sampled_from([("P100", "V100"), ("P100", "A100"), ("V100", "A100")])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # 0.05 g/kWh never breaks even within 30 years; 500 crosses in days.
    scale = draw(st.sampled_from([0.05, 2.0, 20.0, 200.0, 500.0]))
    grid = draw(
        st.sampled_from(["trace", "trace+hourly", "hourly", "seasonal", "array"])
    )
    if grid.startswith("trace"):
        n_hours = draw(st.sampled_from([1, 24, 167, 8760]))
        intensity = IntensityTrace("X", 0, scale * (0.2 + rng.random(n_hours)))
    else:
        intensity = scale
    pue = None
    if grid in ("trace+hourly", "hourly"):
        pue = HourlyPUE(1.0 + rng.random(draw(st.integers(2, 48))))
    elif grid == "seasonal":
        pue = SeasonalPUE(
            annual_mean=1.3,
            seasonal_amplitude=draw(st.floats(0.0, 0.15)),
            diurnal_amplitude=draw(st.floats(0.01, 0.1)),
        )
    elif grid == "array":
        # A raw array is its own cycle: far shorter than a year.
        pue = 1.0 + rng.random(draw(st.integers(2, 30)))
    usage = draw(st.floats(0.05, 1.0))
    return UpgradeScenario.from_generations(
        old, new, Suite.NLP, usage=usage, intensity=intensity, pue=pue
    )


class TestBreakevenScan:
    @pytest.mark.parametrize(
        "grid",
        [
            {"intensity": generate_trace("ESO")},
            {"intensity": 400.0, "pue": SeasonalPUE()},
        ],
        ids=["trace", "profile"],
    )
    def test_sub_hour_horizon_never_breaks_even(self, grid):
        sc = scenario(**grid)
        assert sc.breakeven_years(horizon_years=1e-4) is None
        assert sc.breakeven_years(horizon_years=0.99 / HOURS_PER_YEAR) is None

    def test_horizon_cut_at_the_crossing_hour(self):
        sc = scenario(intensity=generate_trace("ESO"))
        hour = round(sc.breakeven_years() * HOURS_PER_YEAR)
        for horizon_h, expected in (
            (hour - 0.5, None),
            (hour + 0.5, hour / HOURS_PER_YEAR),
        ):
            horizon = horizon_h / HOURS_PER_YEAR
            assert sc.breakeven_years(horizon_years=horizon) == expected
            assert full_grid_breakeven(sc, horizon) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        sc=cycled_scenarios(),
        horizon=st.one_of(
            st.floats(1e-6, 0.99 / HOURS_PER_YEAR),  # under one hour
            st.floats(1e-4, 0.999),  # under one trace year
            st.floats(1.0, 30.0),
        ),
    )
    @example(sc=scenario(intensity=generate_trace("ESO")), horizon=30.0)
    @example(sc=scenario(intensity=generate_trace("ESO")), horizon=0.3)
    @example(
        sc=scenario(intensity=IntensityTrace("X", 0, np.full(24, 0.05))), horizon=30.0
    )
    @example(sc=scenario(intensity=20.0, pue=np.array([1.1, 1.7])), horizon=30.0)
    def test_scan_equals_full_grid(self, sc, horizon):
        assert sc.breakeven_years(horizon_years=horizon) == full_grid_breakeven(
            sc, horizon
        )


class TestSweeps:
    def test_sweep_intensities_grid_shape(self):
        grid = sweep_intensities("P100", "V100", INTENSITY_LEVELS)
        assert len(grid.curves) == 3 * 3  # levels x suites
        curve = grid.curve("High Carbon Intensity", Suite.NLP)
        assert curve.shape == grid.times_years.shape

    def test_sweep_usages_ordering(self):
        grid = sweep_usages("V100", "A100", USAGE_LEVELS)
        t_idx = -1
        high = grid.curve("High Usage", Suite.NLP)[t_idx]
        medium = grid.curve("Medium Usage", Suite.NLP)[t_idx]
        low = grid.curve("Low Usage", Suite.NLP)[t_idx]
        assert high > medium > low

    def test_higher_intensity_higher_savings(self):
        grid = sweep_intensities("P100", "A100", INTENSITY_LEVELS)
        high = grid.final_savings("High Carbon Intensity", Suite.CANDLE)
        low = grid.final_savings("Low Carbon Intensity", Suite.CANDLE)
        assert high > low

    def test_unknown_curve_rejected(self):
        grid = sweep_intensities("P100", "V100", INTENSITY_LEVELS)
        with pytest.raises(UpgradeAnalysisError):
            grid.curve("Nonexistent", Suite.NLP)

    def test_breakeven_table_complete(self):
        table = breakeven_table(upgrade_options(), INTENSITY_LEVELS)
        assert len(table) == 3 * 3 * 3
        # High intensity always amortizes fastest for a given upgrade/suite.
        for old, new in upgrade_options():
            for suite in Suite:
                high = table[(old, new, "High Carbon Intensity", suite)]
                low = table[(old, new, "Low Carbon Intensity", suite)]
                assert high is not None
                assert low is None or high < low


class TestAdvisor:
    def test_dirty_grid_upgrade_now(self):
        advisor = UpgradeAdvisor(400.0)
        decision = advisor.evaluate("P100", "A100", Suite.CANDLE)
        assert decision.verdict is Verdict.UPGRADE_NOW
        assert decision.breakeven_years < 0.5

    def test_green_grid_extend_lifetime(self):
        advisor = UpgradeAdvisor(20.0)
        decision = advisor.evaluate("P100", "V100", Suite.NLP, lifetime_years=3.0)
        assert decision.verdict is Verdict.EXTEND_LIFETIME
        assert decision.savings_at_lifetime < 0.0

    def test_green_grid_long_lifetime_conditional(self):
        advisor = UpgradeAdvisor(20.0)
        decision = advisor.evaluate("V100", "A100", Suite.NLP, lifetime_years=5.0)
        assert decision.verdict is Verdict.UPGRADE_IF_LONG_LIVED

    def test_performance_gain_reported(self):
        advisor = UpgradeAdvisor(200.0)
        decision = advisor.evaluate("P100", "V100", Suite.NLP)
        assert decision.performance_gain == pytest.approx(0.444, abs=0.01)

    def test_best_option_prefers_biggest_jump_on_dirty_grid(self):
        advisor = UpgradeAdvisor(400.0)
        best = advisor.best_option("P100", ["V100", "A100"], Suite.CANDLE)
        assert best.new == "A100"

    def test_rationale_text(self):
        advisor = UpgradeAdvisor(400.0)
        decision = advisor.evaluate("P100", "A100", Suite.NLP)
        assert "amortizes" in decision.rationale

    def test_invalid_lifetime_rejected(self):
        advisor = UpgradeAdvisor(200.0)
        with pytest.raises(UpgradeAnalysisError):
            advisor.evaluate("P100", "V100", Suite.NLP, lifetime_years=0.0)

    def test_no_candidates_rejected(self):
        advisor = UpgradeAdvisor(200.0)
        with pytest.raises(UpgradeAnalysisError):
            advisor.best_option("P100", [], Suite.NLP)

    def test_trace_backed_advisor(self):
        advisor = UpgradeAdvisor(generate_trace("ESO"))
        decision = advisor.evaluate("V100", "A100", Suite.CANDLE)
        assert decision.breakeven_years is not None
