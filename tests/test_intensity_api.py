"""CarbonIntensityService: history, forecasts, region queries, table memo."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TraceError
from repro.intensity import api, table_cache_info, trace_cache_clear
from repro.intensity.api import CarbonIntensityService
from repro.intensity.trace import IntensityTrace
from repro.session import resolve_backend


@pytest.fixture()
def two_region_service():
    a = IntensityTrace("A", 0, np.tile([100.0, 300.0], 24))
    b = IntensityTrace("B", 0, np.full(48, 200.0))
    return CarbonIntensityService({"A": a, "B": b}, forecast_error=0.0)


class TestCatalog:
    def test_default_regions_cover_table3(self):
        service = CarbonIntensityService()
        assert set(service.regions) == {"KN", "TK", "ESO", "CISO", "PJM", "MISO", "ERCOT"}

    def test_unknown_region_rejected(self, two_region_service):
        with pytest.raises(TraceError):
            two_region_service.trace("Z")

    def test_empty_service_rejected(self):
        with pytest.raises(TraceError):
            CarbonIntensityService({})

    def test_negative_forecast_error_rejected(self):
        with pytest.raises(TraceError):
            CarbonIntensityService(forecast_error=-0.1)

    def test_horizon(self, two_region_service):
        assert two_region_service.horizon_hours() == 48


class TestQueries:
    def test_intensity_at_wraps(self, two_region_service):
        assert two_region_service.intensity_at("A", 0) == 100.0
        assert two_region_service.intensity_at("A", 48) == 100.0  # wrap
        assert two_region_service.intensity_at("A", 49) == 300.0

    def test_history_matches_truth(self, two_region_service):
        hist = two_region_service.history("A", 0, 4)
        assert list(hist) == [100.0, 300.0, 100.0, 300.0]

    def test_cleanest_region(self, two_region_service):
        assert two_region_service.cleanest_region(0) == "A"  # 100 < 200
        assert two_region_service.cleanest_region(1) == "B"  # 300 > 200

    def test_cleanest_region_subset(self, two_region_service):
        assert two_region_service.cleanest_region(1, regions=["A"]) == "A"

    def test_cleanest_region_empty_rejected(self, two_region_service):
        with pytest.raises(TraceError):
            two_region_service.cleanest_region(0, regions=[])


class TestForecasts:
    def test_oracle_forecast_equals_truth(self, two_region_service):
        forecast = two_region_service.forecast("A", 0, 6)
        truth = two_region_service.history("A", 0, 6)
        assert np.array_equal(forecast, truth)

    def test_noisy_forecast_differs_but_tracks(self):
        trace = IntensityTrace("A", 0, np.full(8760, 200.0))
        service = CarbonIntensityService({"A": trace}, forecast_error=0.05)
        forecast = service.forecast("A", 0, 48)
        assert not np.allclose(forecast, 200.0)
        assert forecast.mean() == pytest.approx(200.0, rel=0.15)
        assert float(forecast.min()) >= 0.0

    def test_error_grows_with_lead_time(self):
        trace = IntensityTrace("A", 0, np.full(8760, 200.0))
        service = CarbonIntensityService({"A": trace}, forecast_error=0.05, seed=1)
        errors_near, errors_far = [], []
        for start in range(0, 4000, 40):
            forecast = service.forecast("A", start, 48)
            errors_near.append(abs(forecast[0] - 200.0))
            errors_far.append(abs(forecast[-1] - 200.0))
        assert np.mean(errors_far) > 2.0 * np.mean(errors_near)

    def test_zero_horizon(self, two_region_service):
        assert two_region_service.forecast("A", 0, 0).size == 0

    def test_negative_horizon_rejected(self, two_region_service):
        with pytest.raises(TraceError):
            two_region_service.forecast("A", 0, -1)

    def test_window_mean(self, two_region_service):
        mean = two_region_service.forecast_window_mean("A", 0, 2)
        assert mean == pytest.approx(200.0)

    def test_window_mean_needs_positive_window(self, two_region_service):
        with pytest.raises(TraceError):
            two_region_service.forecast_window_mean("A", 0, 0)


def random_traces(content_seed: int, n_hours: int = 240):
    """Two random regions; short traces keep the table builds cheap."""
    rng = np.random.default_rng(content_seed)
    return {
        code: IntensityTrace(code, 0, 50.0 + 400.0 * rng.random(n_hours))
        for code in ("A", "B")
    }


class TestTableMemo:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        forecast_error=st.sampled_from([0.0, 0.03]) | st.floats(0.0, 0.5),
        region=st.sampled_from(["A", "B"]),
        # Past the 240-h trace and the 512-h lead-time chunk.
        window=st.integers(1, 700),
    )
    def test_memo_serves_a_fresh_build(self, seed, forecast_error, region, window):
        traces = random_traces(seed % 3)
        first, second = (
            CarbonIntensityService(traces, forecast_error=forecast_error, seed=seed)
            for _ in range(2)
        )
        for get, build in (
            ("window_score_table", "_build_score_table"),
            ("truth_window_table", "_build_truth_table"),
        ):
            served = getattr(first, get)(region, window)
            assert getattr(second, get)(region, window) is served
            assert np.array_equal(served, getattr(second, build)(region, window))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        forecast_error=st.sampled_from([0.0, 0.1]),
        value=st.floats(1.0, 500.0),
        window=st.integers(1, 48),
        differ=st.sampled_from(["seed", "forecast_error", "value"]),
    )
    def test_score_tables_never_cross_identities(
        self, seed, forecast_error, value, window, differ
    ):
        knobs = {"value": value, "regions": ["ESO"], "seed": seed,
                 "forecast_error": forecast_error}
        other = dict(knobs)
        other[differ] += 1 if differ == "seed" else 0.05
        constant = resolve_backend("intensity", "constant")
        a, b = constant(**knobs), constant(**other)
        table_a = a.window_score_table("ESO", window)
        table_b = b.window_score_table("ESO", window)
        assert table_a is not table_b
        assert np.array_equal(table_a, a._build_score_table("ESO", window))
        assert np.array_equal(table_b, b._build_score_table("ESO", window))

    @settings(max_examples=20, deadline=None)
    @given(
        errors=st.lists(st.floats(0.0, 0.5), min_size=2, max_size=4),
        window=st.integers(1, 300),
    )
    def test_truth_tables_are_shared_across_forecast_errors(self, errors, window):
        traces = random_traces(7)
        services = [
            CarbonIntensityService(traces, forecast_error=error, seed=i)
            for i, error in enumerate(errors)
        ]
        table = services[0].truth_window_table("B", window)
        assert all(s.truth_table_cached("B", window) for s in services)
        assert all(s.truth_window_table("B", window) is table for s in services)

    def test_trace_cache_clear_empties_the_memo(self):
        service = CarbonIntensityService(random_traces(11), forecast_error=0.1)
        service.window_score_table("A", 6)
        service.truth_window_table("A", 6)
        info = table_cache_info()
        assert info.entries >= 2 and info.bytes > 0
        trace_cache_clear()
        assert table_cache_info() == (0, 0, 0, 0, 0)
        assert not service.truth_table_cached("A", 6)

    def test_over_budget_evicts_least_recently_used(self, monkeypatch):
        trace_cache_clear()
        service = CarbonIntensityService(random_traces(12), forecast_error=0.1)
        table_bytes = 240 * 8
        monkeypatch.setattr(api, "_TABLE_MEMO_BYTES", 3 * table_bytes)
        first = {w: service.window_score_table("A", w).copy() for w in (1, 2, 3)}
        service.window_score_table("A", 1)  # window 2 is now least recent
        service.window_score_table("A", 4)  # over budget: drops window 2
        info = table_cache_info()
        assert (info.entries, info.bytes, info.builds) == (3, 3 * table_bytes, 4)
        service.window_score_table("A", 1)
        service.window_score_table("A", 3)
        assert table_cache_info().builds == 4
        rebuilt = service.window_score_table("A", 2)
        assert table_cache_info().builds == 5
        assert rebuilt.tobytes() == first[2].tobytes()
