"""Scenario-level PUE profiles: the `pue` registry kind, end to end.

The load-bearing guarantee: a facility overhead with **no hourly
variation** — a plain float, the ``pue:constant`` backend, an all-equal
hourly array, or a :class:`SeasonalPUE` with zero amplitudes — charges
**bit-identically** through every path (`evaluate_policy`, the
whole-center audit, and the ledger's power-profile charge), because
:func:`repro.accounting.resolve_pue` collapses variation-free profiles
to the exact legacy scalar arithmetic.  Hypothesis pins that collapse
across the PUE domain; the facade tests pin the registry threading.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import CarbonLedger, resolve_pue
from repro.analysis.audit import CenterAuditor
from repro.cluster import WorkloadParams
from repro.workloads.sources import generate_workload
from repro.core.errors import PUEError, SessionError, UnknownBackendError
from repro.hardware import get_node_generation
from repro.intensity.api import CarbonIntensityService
from repro.intensity.trace import IntensityTrace
from repro.power import ConstantPUE, HourlyPUE, SeasonalPUE
from repro.scheduler.evaluation import evaluate_policy
from repro.scheduler.policies import TemporalShiftingPolicy
from repro.session import Scenario, Session

#: PUE domain for the equivalence pins (>= the physical floor of 1.0).
_pues = st.floats(min_value=1.0, max_value=3.0, allow_nan=False, allow_infinity=False)


def _spellings(pue: float):
    """Every constant spelling that must collapse to the scalar ``pue``."""
    return (
        pue,
        ConstantPUE(pue),
        np.full(72, pue),
        SeasonalPUE(annual_mean=pue, seasonal_amplitude=0.0, diurnal_amplitude=0.0),
    )


@pytest.fixture(scope="module")
def ramp_service():
    """A one-week single-region ramp service (deterministic forecasts)."""
    trace = IntensityTrace(
        region_code="RMP",
        tz_offset_hours=0,
        values=100.0 + 50.0 * np.sin(np.arange(168) / 11.0) ** 2,
    )
    return CarbonIntensityService({"RMP": trace}, forecast_error=0.0, seed=0)


@pytest.fixture(scope="module")
def small_jobs():
    return generate_workload(
        WorkloadParams(horizon_h=24.0, total_gpus=4, home_region="RMP"), seed=5
    )


@given(pue=_pues)
@settings(max_examples=12, deadline=None)
def test_constant_spellings_bit_identical_in_evaluate_policy(
    ramp_service, small_jobs, pue
):
    node = get_node_generation("V100")
    policy = TemporalShiftingPolicy(ramp_service, "RMP")
    reference = None
    for spelling in _spellings(pue):
        ev = evaluate_policy(small_jobs, policy, ramp_service, node, pue=spelling)
        snapshot = (
            tuple(o.carbon_g for o in ev.outcomes),
            tuple(o.energy_kwh for o in ev.outcomes),
            ev.ledger.operational_g,
        )
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference  # bitwise, not approx


@given(pue=_pues)
@settings(max_examples=12, deadline=None)
def test_constant_spellings_bit_identical_in_audit(ramp_service, pue):
    from repro.hardware import perlmutter

    system = perlmutter()
    trace = ramp_service.trace("RMP")
    totals = {
        CenterAuditor(intensity=trace, pue=spelling).audit(system).operational_g
        for spelling in _spellings(pue)
    }
    assert len(totals) == 1  # one bit pattern across every spelling


@given(pue=_pues)
@settings(max_examples=20, deadline=None)
def test_constant_spellings_bit_identical_in_ledger_totals(pue):
    power = np.linspace(500.0, 1500.0, 48)
    intensity = np.linspace(80.0, 300.0, 48)
    grams = set()
    for spelling in _spellings(pue):
        eff, profile = resolve_pue(spelling)
        ledger = CarbonLedger()
        grams.add(
            ledger.charge_power_profile(
                "pin", power, intensity, pue=eff if profile is None else profile
            )
        )
    assert len(grams) == 1


@given(pue=_pues)
@settings(max_examples=12, deadline=None)
def test_resolve_pue_collapses_every_constant_spelling(pue):
    resolved = {resolve_pue(s) for s in _spellings(pue)}
    assert resolved == {(pue, None)}


# --- facade threading -------------------------------------------------------
def _scenario(pue_spec=None, **opts):
    scenario = (
        Scenario()
        .system("frontier")
        .region("ESO")
        .node("V100")
        .policy("temporal-shifting")
        .workload(WorkloadParams(horizon_h=48.0, total_gpus=8), seed=3)
        .cluster(2)
    )
    if pue_spec is not None:
        scenario.pue(pue_spec, **opts)
    return scenario


class TestScenarioPUEBackends:
    def test_float_and_constant_key_serialize_identically(self):
        left = _scenario(1.3).run().to_dict()
        right = _scenario("constant", value=1.3).run().to_dict()
        assert left == right

    def test_zero_amplitude_seasonal_matches_float(self):
        base = _scenario(1.3).run()
        seasonal = _scenario(
            SeasonalPUE(annual_mean=1.3, seasonal_amplitude=0.0, diurnal_amplitude=0.0)
        ).run()
        assert seasonal.carbon.total_g == base.carbon.total_g
        assert seasonal.cluster.carbon_g == base.cluster.carbon_g
        assert seasonal.audit.operational_g == base.audit.operational_g
        assert [o.carbon_g for o in seasonal.scheduling.outcomes] == [
            o.carbon_g for o in base.scheduling.outcomes
        ]

    def test_seasonal_profile_changes_every_charged_section(self):
        base = _scenario(1.3).run()
        seasonal = _scenario("seasonal", mean=1.3, amplitude=0.15).run()
        assert seasonal.audit.operational_g != base.audit.operational_g
        assert seasonal.cluster.carbon_g != base.cluster.carbon_g
        assert seasonal.carbon.total_g != base.carbon.total_g

    def test_hourly_profile_object_reaches_cluster(self):
        base = _scenario(1.2).run()
        hourly = _scenario(HourlyPUE([1.1, 1.7])).run()
        assert hourly.cluster.carbon_g != base.cluster.carbon_g

    def test_provenance_records_pue_backend(self):
        result = _scenario("seasonal", amplitude=0.1).run()
        (entry,) = [p for p in result.provenance if p.knob == "pue"]
        assert entry.source == "explicit"
        assert entry.backend == "pue:seasonal"
        float_entry = [
            p for p in _scenario(1.3).build().provenance if p.knob == "pue"
        ][0]
        assert float_entry.backend == "pue:constant"

    def test_upgrade_section_charges_through_profile(self):
        def upgrade(pue_spec=None, **opts):
            scenario = Scenario().upgrade("P100", "A100").constant_intensity(200.0)
            if pue_spec is not None:
                scenario.pue(pue_spec, **opts)
            return scenario.run().upgrade

        base = upgrade(1.2)
        amplified = upgrade("seasonal", mean=1.2, amplitude=0.15)
        flat_seasonal = upgrade(
            SeasonalPUE(annual_mean=1.2, seasonal_amplitude=0.0, diurnal_amplitude=0.0)
        )
        assert flat_seasonal.breakeven_years == base.breakeven_years
        assert flat_seasonal.savings_at_lifetime == base.savings_at_lifetime
        assert amplified.breakeven_years is not None
        assert amplified.breakeven_years != base.breakeven_years

    def test_run_many_sweeps_pue_models(self):
        sweep = [
            _scenario(1.3),
            _scenario("seasonal", mean=1.3, amplitude=0.1),
            _scenario("profile", values=[1.2, 1.5, 1.3]),
        ]
        results = Session.run_many(sweep)
        assert len(results) == 3
        totals = [r.carbon.total_g for r in results]
        assert len(set(totals)) == 3  # each PUE model prices differently
        backends = [
            [p.backend for p in r.provenance if p.knob == "pue"][0] for r in results
        ]
        assert backends == ["pue:constant", "pue:seasonal", "pue:profile"]

    def test_unknown_pue_key_lists_choices_at_build(self):
        with pytest.raises(UnknownBackendError, match="seasonal"):
            _scenario("tidal").build()


class TestScenarioPUEValidation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(PUEError, match="finite"):
            Scenario().pue(bad)

    @pytest.mark.parametrize("bad", [0.0, 0.99, -3.0])
    def test_below_physical_floor_rejected(self, bad):
        with pytest.raises(PUEError, match=">= 1.0"):
            Scenario().pue(bad)

    def test_pue_error_is_a_session_error(self):
        # Existing facade handlers catch SessionError; the typed
        # subclass must stay inside that hierarchy.
        assert issubclass(PUEError, SessionError)

    def test_bool_rejected(self):
        with pytest.raises(PUEError):
            Scenario().pue(True)

    def test_opts_require_a_key(self):
        with pytest.raises(PUEError, match="options"):
            Scenario().pue(1.2, amplitude=0.1)
        with pytest.raises(PUEError, match="options"):
            Scenario().pue(SeasonalPUE(), amplitude=0.1)

    def test_empty_key_rejected(self):
        with pytest.raises(PUEError, match="non-empty"):
            Scenario().pue("  ")

    def test_malformed_profile_rejected_at_build(self):
        with pytest.raises(SessionError):
            _scenario(np.array([[1.2, 1.3]])).build()  # 2-D
        with pytest.raises(SessionError):
            _scenario(np.array([1.2, 0.5])).build()  # dips below 1.0


class TestReviewRegressions:
    """Pins for defects found in review of the `pue` kind's first cut."""

    def test_constant_key_default_honors_scenario_config(self):
        # The factory defers (returns None) so resolution reads the
        # *scenario's* config, not the globally active one.
        from repro.core.config import default_config

        config = default_config().with_overrides(pue=1.5)
        result = (
            Scenario()
            .system("perlmutter")
            .region("CISO")
            .config(config)
            .pue("constant")
            .run()
        )
        explicit = (
            Scenario()
            .system("perlmutter")
            .region("CISO")
            .config(config)
            .pue(1.5)
            .run()
        )
        assert result.audit.operational_g == explicit.audit.operational_g
        (entry,) = [p for p in result.provenance if p.knob == "pue"]
        assert entry.value == "1.5"

    def test_seasonal_rejects_conflicting_spellings(self):
        from repro.core.errors import PowerModelError

        with pytest.raises(PowerModelError, match="not both"):
            _scenario("seasonal", mean=1.3, annual_mean=1.1).build()
        with pytest.raises(PowerModelError, match="not both"):
            _scenario("seasonal", amplitude=0.1, seasonal_amplitude=0.2).build()

    def test_upgrade_profile_does_not_phase_reset_at_trace_boundary(self):
        # A 2-hour profile over a 3-hour trace: the combined cycle is 6
        # hours, so hour 3 multiplies trace[0] by profile[1] (wrap), not
        # profile[0] (reset).
        from repro.upgrade.scenario import UpgradeScenario
        from repro.workloads.models import Suite

        trace = IntensityTrace(
            region_code="T3", tz_offset_hours=0, values=np.array([100.0, 200.0, 300.0])
        )
        scenario = UpgradeScenario.from_generations(
            "P100", "A100", Suite.NLP, intensity=trace, pue=np.array([1.0, 2.0])
        )
        hours = np.array([6.0])
        got = scenario._cumulative_operational_g(1000.0, hours)[0]
        expected = sum(
            1000.0 / 1000.0 * trace.values[h % 3] * [1.0, 2.0][h % 2]
            for h in range(6)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_resolve_pue_rejects_non_numeric_spec(self):
        from repro.core.errors import AccountingError

        with pytest.raises(AccountingError, match="number series"):
            resolve_pue("")

    def test_cli_malformed_value_list_fails_cleanly(self, capsys):
        from repro.cli import main

        assert main([
            "audit", "--system", "Perlmutter",
            "--pue", "profile", "--pue-arg", "values=1.2,abc",
        ]) == 2
        assert "non-number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--pue", "profile"],  # missing required values=
            ["--pue", "seasonal", "--pue-arg", "amp=0.1"],  # unknown option
            ["--pue", "seasonal", "--pue-arg", "mean=abc"],  # non-numeric
        ],
        ids=["missing-option", "unknown-option", "non-numeric-option"],
    )
    def test_cli_factory_option_errors_fail_cleanly(self, capsys, argv):
        from repro.cli import main

        assert main(["audit", "--system", "Perlmutter", *argv]) == 2
        assert "error" in capsys.readouterr().err

    def test_factory_option_errors_are_typed_at_build(self):
        with pytest.raises(PUEError, match="rejected its options"):
            _scenario("profile").build()  # missing values=
        with pytest.raises(PUEError, match="rejected its options"):
            _scenario("seasonal", amp=0.1).build()  # unknown option

    def test_cyclic_cycle_cap_keeps_whole_intensity_cycles(self, monkeypatch):
        from repro.accounting import pue as pue_mod

        monkeypatch.setattr(pue_mod, "_MAX_CYCLE_HOURS", 30)
        values = np.arange(1.0, 11.0)  # 10-hour intensity cycle
        profile = 1.0 + np.arange(7.0) / 10.0  # 7-hour PUE cycle (lcm 70)
        cycle = pue_mod.cyclic_product_cycle(values, profile)
        # Fallback: 3 whole intensity cycles, profile phase continuous
        # within the window.
        assert cycle.shape == (30,)
        hours = np.arange(30)
        assert np.array_equal(cycle, values[hours % 10] * profile[hours % 7])

    def test_sub_hour_upgrade_horizon_stays_finite_with_profile(self):
        from repro.upgrade.scenario import UpgradeScenario
        from repro.workloads.models import Suite

        scalar = UpgradeScenario.from_generations(
            "P100", "A100", Suite.NLP, intensity=300.0, pue=1.2
        )
        profiled = UpgradeScenario.from_generations(
            "P100", "A100", Suite.NLP, intensity=300.0,
            pue=HourlyPUE([1.2, 1.2, 1.2]),  # flat: collapses to scalar
        )
        varying = UpgradeScenario.from_generations(
            "P100", "A100", Suite.NLP, intensity=300.0,
            pue=HourlyPUE([1.1, 1.3]),
        )
        tiny = np.array([1e-4])
        assert np.isfinite(scalar.savings_curve(tiny)).all()
        assert np.isfinite(profiled.savings_curve(tiny)).all()
        assert np.isfinite(varying.savings_curve(tiny)).all()
        # And at whole-hour horizons a flat profile still matches the
        # scalar path bit for bit.
        grid = np.array([0.5, 1.0, 2.5])
        assert np.array_equal(
            scalar.savings_curve(grid), profiled.savings_curve(grid)
        )


class TestProfileObjects:
    def test_constant_pue_validates(self):
        from repro.core.errors import PowerModelError

        with pytest.raises(PowerModelError):
            ConstantPUE(0.9)
        with pytest.raises(PowerModelError):
            ConstantPUE(float("nan"))
        assert np.array_equal(ConstantPUE(1.4).profile(5), np.full(5, 1.4))

    def test_hourly_pue_wraps(self):
        model = HourlyPUE([1.1, 1.5])
        assert np.array_equal(model.profile(5), [1.1, 1.5, 1.1, 1.5, 1.1])

    def test_hourly_pue_validates(self):
        from repro.core.errors import PowerModelError

        with pytest.raises(PowerModelError):
            HourlyPUE([])
        with pytest.raises(PowerModelError):
            HourlyPUE([1.2, 0.9])
        with pytest.raises(PowerModelError):
            HourlyPUE([1.2, float("nan")])

    def test_hourly_pue_is_immutable_and_picklable(self):
        import pickle

        model = HourlyPUE([1.1, 1.2])
        with pytest.raises(AttributeError):
            model.values = np.array([1.0])
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
