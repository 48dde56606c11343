"""Synthetic trace generator: determinism, calibration, structure."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.errors import TraceError
from repro.intensity.generator import (
    DEFAULT_SEED,
    _median,
    ar1_noise,
    generate_all_traces,
    generate_trace,
)
from repro.intensity.regions import REGIONS, get_region
from repro.intensity.trace import HOURS_PER_STUDY_YEAR


class TestAr1Noise:
    def test_deterministic_given_rng(self):
        a = ar1_noise(1000, 0.2, 0.9, np.random.default_rng(1))
        b = ar1_noise(1000, 0.2, 0.9, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_marginal_std_close_to_sigma(self):
        noise = ar1_noise(200_000, 0.2, 0.9, np.random.default_rng(2))
        assert noise.std() == pytest.approx(0.2, rel=0.05)

    def test_autocorrelation_close_to_rho(self):
        noise = ar1_noise(100_000, 0.3, 0.95, np.random.default_rng(3))
        r = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert r == pytest.approx(0.95, abs=0.01)

    def test_rho_zero_is_white(self):
        noise = ar1_noise(50_000, 0.1, 0.0, np.random.default_rng(4))
        r = np.corrcoef(noise[:-1], noise[1:])[0, 1]
        assert abs(r) < 0.02

    def test_zero_length(self):
        assert ar1_noise(0, 0.1, 0.5, np.random.default_rng(5)).size == 0

    def test_invalid_params_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(TraceError):
            ar1_noise(-1, 0.1, 0.5, rng)
        with pytest.raises(TraceError):
            ar1_noise(10, -0.1, 0.5, rng)
        with pytest.raises(TraceError):
            ar1_noise(10, 0.1, 1.0, rng)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        with pytest.raises(TraceError, match="finite"):
            ar1_noise(10, sigma, 0.5, np.random.default_rng(6))


@pytest.fixture(scope="module")
def lfilter_ar1():
    """The former ``scipy.signal`` evaluation of :func:`ar1_noise`, kept
    as its oracle: scipy is a test-only dependency."""
    signal = pytest.importorskip("scipy.signal")

    def oracle(n, sigma, rho, rng):
        innovations = rng.standard_normal(n) * (sigma * np.sqrt(1.0 - rho * rho))
        if rho == 0.0:
            return innovations
        x0 = rng.standard_normal() * sigma
        zi = signal.lfiltic([1.0], [1.0, -rho], y=[x0])
        out, _ = signal.lfilter([1.0], [1.0, -rho], innovations, zi=zi)
        return np.asarray(out)

    return oracle


class TestAr1OracleParity:
    """The scalar recursion is byte-identical to the ``lfilter`` oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 20_000),
        sigma=st.floats(0.0, 2.0),
        rho=st.floats(0.0, 0.9999),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1000, sigma=0.2, rho=0.0, seed=0)
    @example(n=1, sigma=0.2, rho=0.9, seed=1)
    @example(n=20_000, sigma=0.2, rho=0.999999, seed=2)
    @example(n=1, sigma=0.0, rho=0.5, seed=4)  # signed zeros
    def test_matches_lfilter(self, lfilter_ar1, n, sigma, rho, seed):
        ours_rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        ours = ar1_noise(n, sigma, rho, ours_rng)
        oracle = lfilter_ar1(n, sigma, rho, oracle_rng)
        assert ours.dtype == oracle.dtype and ours.shape == oracle.shape
        assert ours.tobytes() == oracle.tobytes()
        # Same draws in the same order: the streams stay in step.
        assert ours_rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7, DEFAULT_SEED])
    def test_traces_match_lfilter(self, lfilter_ar1, monkeypatch, seed):
        ours = {code: generate_trace(code, seed=seed).values for code in REGIONS}
        monkeypatch.setattr(
            "repro.intensity.generator.ar1_noise", lfilter_ar1
        )
        for code in REGIONS:
            oracle = generate_trace(code, seed=seed).values
            assert ours[code].tobytes() == oracle.tobytes(), code


class TestGenerateTrace:
    def test_deterministic(self):
        a = generate_trace("ESO")
        b = generate_trace("ESO")
        assert np.array_equal(a.values, b.values)

    def test_seed_changes_noise(self):
        a = generate_trace("ESO", seed=1)
        b = generate_trace("ESO", seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_regions_independent(self):
        # Same seed, different regions -> different streams.
        a = generate_trace("KN", seed=1)
        b = generate_trace("TK", seed=1)
        assert not np.array_equal(a.values, b.values)

    def test_year_length_and_tz(self):
        trace = generate_trace("CISO")
        assert len(trace) == HOURS_PER_STUDY_YEAR
        assert trace.tz_offset_hours == get_region("CISO").tz_offset_hours

    def test_median_calibrated(self):
        for code, spec in REGIONS.items():
            trace = generate_trace(code)
            assert trace.median() == pytest.approx(
                spec.profile.median_g_per_kwh, rel=0.05
            ), code

    def test_floor_respected(self):
        for code, spec in REGIONS.items():
            trace = generate_trace(code)
            assert float(trace.values.min()) >= spec.profile.floor_g_per_kwh - 1e-9

    def test_all_positive(self):
        trace = generate_trace("ESO")
        assert float(trace.values.min()) > 0.0

    def test_diurnal_structure_present(self):
        # ESO's demand peak (~17:00 local) must exceed its night trough.
        profile = generate_trace("ESO").hourly_profile()
        assert profile[17] > profile[4] * 1.2

    def test_ciso_solar_dip(self):
        # California's midday solar dip: local noon below local evening.
        profile = generate_trace("CISO").hourly_profile()
        assert profile[12] < profile[19] * 0.8

    def test_weekend_effect(self):
        trace = generate_trace("KN")
        days = trace.by_hour_of_day().mean(axis=1)
        # Jan 1 2021 is a Friday -> indices 1,2 are the first weekend.
        weekdays = np.ones(365, dtype=bool)
        for start in range(1, 365, 7):
            weekdays[start : start + 2] = False
        assert days[~weekdays].mean() < days[weekdays].mean()

    def test_custom_horizon(self):
        trace = generate_trace("ESO", n_hours=48)
        assert len(trace) == 48

    def test_too_short_horizon_rejected(self):
        with pytest.raises(TraceError):
            generate_trace("ESO", n_hours=12)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(TraceError, match=r"\[0, 2\*\*64\)"):
            generate_trace("ESO", n_hours=48, seed=seed)

    def test_large_seed_accepted(self):
        assert len(generate_trace("ESO", n_hours=48, seed=2**32)) == 48

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_cli_bad_seed_is_a_scenario_error(self, capsys, seed):
        assert main([
            "scenario", "--system", "frontier", "--region", "ESO",
            "--seed", seed,
        ]) == 2
        assert capsys.readouterr().err.startswith(
            "scenario error: trace seed must be in [0, 2**64)"
        )


class TestMedian:
    """The trace calibration's median: ``np.median`` without its
    ``numpy.ma`` import, bit for bit."""

    @given(
        values=st.lists(
            st.floats(allow_nan=False, width=64), min_size=1, max_size=64
        )
    )
    @example(values=[3.0, 1.0])
    @example(values=[3.0, 1.0, 2.0])
    @example(values=[-0.0, 0.0, -0.0, 0.0])
    @example(values=[0.0, -0.0, 0.0])
    @example(values=[-0.0, -0.0])
    @example(values=[-0.0])
    @settings(deadline=None, max_examples=300)
    def test_equals_np_median_bit_for_bit(self, values):
        data = np.asarray(values, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, overflow
            expected = float(np.median(data))
            got = _median(data)
        assert struct.pack("<d", got) == struct.pack("<d", expected)

    def test_nan_input_gives_nan(self):
        data = np.array([1.0, float("nan"), 2.0, 3.0])
        assert math.isnan(_median(data)) and math.isnan(float(np.median(data)))


class TestGenerateAll:
    def test_default_covers_table3(self, all_traces):
        assert set(all_traces) == set(REGIONS)

    def test_subset_selection(self):
        traces = generate_all_traces(regions=["ESO", "CISO"])
        assert set(traces) == {"ESO", "CISO"}

    def test_default_seed_constant(self):
        assert DEFAULT_SEED == 2021
