"""CarbonIntensityService: history, forecasts, region queries, table memo."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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

    @pytest.mark.parametrize("error", [float("nan"), float("inf")])
    def test_non_finite_forecast_error_rejected(self, error):
        with pytest.raises(TraceError, match="finite and non-negative"):
            CarbonIntensityService(random_traces(1), forecast_error=error)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_trace_seed_range_rejected(self, seed):
        # The score-table noise streams take the range generate_trace
        # enforces; a service over given traces used to construct and
        # then fail its first score-table build inside numpy.
        constant = resolve_backend("intensity", "constant")
        with pytest.raises(TraceError, match=r"seed must be in \[0, 2\*\*64\)"):
            constant(value=100.0, regions=["ESO"], seed=seed)

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


def row_requests():
    """Row counts asked of one 240-h table in turn: 1, past the trace
    length, ``None`` (all rows), drawn in any, ascending or descending
    order."""
    drawn = st.lists(
        st.integers(1, 300) | st.sampled_from([1, 240, 241, 1000]) | st.none(),
        min_size=1,
        max_size=6,
    )

    def ordered(pair):
        order, rows = pair
        if order == "drawn":
            return rows
        return sorted(rows, key=lambda r: 10**9 if r is None else r,
                      reverse=order == "descending")

    return st.tuples(
        st.sampled_from(["drawn", "ascending", "descending"]), drawn
    ).map(ordered)


class TestTableMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        forecast_error=st.sampled_from([0.0, 0.03]) | st.floats(0.0, 0.5),
        region=st.sampled_from(["A", "B"]),
        # Past the 240-h trace and the 512-h lead-time chunk.
        window=st.integers(1, 700),
        rows=row_requests(),
    )
    @example(seed=3, forecast_error=0.1, region="A", window=24,
             rows=[1, 64, 65, 100, 239, 240, 241])
    @example(seed=3, forecast_error=0.1, region="B", window=512,
             rows=[300, 200, 1])
    @example(seed=4, forecast_error=0.1, region="B", window=513, rows=[1, None])
    @example(seed=5, forecast_error=0.0, region="A", window=7, rows=[1, 2])
    def test_memo_serves_a_fresh_build(
        self, seed, forecast_error, region, window, rows
    ):
        trace_cache_clear()
        traces = random_traces(seed % 3)
        first, second = (
            CarbonIntensityService(traces, forecast_error=forecast_error, seed=seed)
            for _ in range(2)
        )
        whole = second._build_score_table(region, window).tobytes()
        for request in rows:
            served = first.window_score_table(region, window, rows=request)
            assert second.window_score_table(region, window, rows=request) is served
            assert served.shape[0] >= min(240 if request is None else request, 240)
            # Every served table is the leading rows of a whole build.
            assert served.tobytes() == whole[: served.nbytes]
            # Growth replaces the one entry; its bytes count once.
            assert table_cache_info()[2:] == (1, 1, served.nbytes)
        truth = first.truth_window_table(region, window)
        assert second.truth_window_table(region, window) is truth
        assert np.array_equal(truth, second._build_truth_table(region, window))
        info = table_cache_info()
        assert info[2:] == (2, 2, served.nbytes + truth.nbytes)

    def test_interrupted_growth_leaves_the_table_as_it_was(self, monkeypatch):
        """A unit deadline (SIGALRM) can land inside a growth step after
        the noise draw, and the unit may retry in this process: the next
        request must still serve the rows of a whole build."""
        from repro.resilience.runner import UnitTimeout

        trace_cache_clear()
        service = CarbonIntensityService(
            random_traces(13, n_hours=2000), forecast_error=0.1, seed=5
        )
        whole = service._build_score_table("A", 24).tobytes()
        held = service.window_score_table("A", 24, rows=10)
        build = CarbonIntensityService._build_score_table

        def draw_then_time_out(self, *args, **kwargs):
            build(self, *args, **kwargs)
            raise UnitTimeout("unit exceeded its deadline")

        monkeypatch.setattr(
            CarbonIntensityService, "_build_score_table", draw_then_time_out
        )
        with pytest.raises(UnitTimeout):
            service.window_score_table("A", 24, rows=500)
        monkeypatch.undo()
        assert service.window_score_table("A", 24, rows=10) is held
        assert table_cache_info()[2:] == (1, 1, held.nbytes)
        for request in (500, 1500, None):
            grown = service.window_score_table("A", 24, rows=request)
            assert grown.tobytes() == whole[: grown.nbytes]
        assert grown.nbytes == len(whole)

    def test_hour_by_hour_scan_grows_a_table_log_n_times(self):
        """The scalar ``place`` path asks for one more row at a time."""
        trace_cache_clear()
        n = 8760
        service = CarbonIntensityService(
            random_traces(14, n_hours=n), forecast_error=0.1
        )
        means = [service.forecast_window_mean("A", hour, 5) for hour in range(n)]
        info = table_cache_info()
        assert info.builds == 1
        assert info.misses <= 2 * math.log2(n), info
        assert np.array_equal(means, service._build_score_table("A", 5))

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

    def test_memo_hits_reuse_one_key_per_table(self, monkeypatch):
        """A service builds each table's memo key once per (kind, region,
        window), and every later hit on that table reuses it."""
        trace_cache_clear()
        built = []
        real = api.table_key

        def counting(kind, identity, region, window):
            built.append((kind, region, window))
            return real(kind, identity, region, window)

        monkeypatch.setattr(api, "table_key", counting)
        traces = random_traces(15)
        service = CarbonIntensityService(traces, forecast_error=0.1, seed=2)
        for _ in range(5):
            held = service.window_score_table("A", 6, rows=10)
            truth = service.truth_window_table("A", 6)
            assert service.truth_table_cached("A", 6)
        assert service.window_score_table("A", 6, rows=10) is held
        assert service.truth_window_table("A", 6) is truth
        assert sorted(built) == [("score", "A", 6), ("truth", "A", 6)]
        # The memo key is the tuple table_key builds, unchanged.
        assert service._table_key("score", "A", 6) == real(
            "score", service._table_identity("A"), "A", 6
        )
        # A second service over the same inputs builds its own keys and
        # hits the same tables.
        other = CarbonIntensityService(traces, forecast_error=0.1, seed=2)
        assert other.window_score_table("A", 6, rows=10) is held
        assert built.count(("score", "A", 6)) == 2

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
        monkeypatch.setattr(api._TABLES, "capacity", 3 * table_bytes)
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
