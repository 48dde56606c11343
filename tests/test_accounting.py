"""The unified carbon ledger (repro.accounting).

The load-bearing guarantee is the byte-identity pin: the vectorized
charging engine (and the preserved scalar reference engine) must
reproduce the *seed* ``evaluate_policy`` per-job loop bit for bit —
per-job energies, per-job carbon, and therefore evaluation totals —
across policies, fractional submit hours, and both transfer-cost
models.  A literal copy of the pre-refactor loop lives here as the
oracle so the pin survives any future engine rewrite.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accounting import (
    CarbonLedger,
    LedgerEntry,
    VectorizedChargingEngine,
    amortized_embodied_g,
    resolve_pue,
)
from repro.accounting.engines import ScalarReferenceChargingEngine
from repro.core.config import get_config
from repro.core.errors import AccountingError, SchedulingError
from repro.cluster.job import Job
from repro.hardware.node import v100_node
from repro.intensity.api import CarbonIntensityService
from repro.power.node import NodePowerModel
from repro.power.pue import SeasonalPUE
from repro.scheduler.evaluation import evaluate_policy
from repro.scheduler.policies import (
    CarbonObliviousPolicy,
    GeographicPolicy,
    TemporalGeographicPolicy,
    TemporalShiftingPolicy,
    place_jobs,
)
from repro.scheduler.transfer import (
    default_transfer_model,
    transfer_carbon_g,
    transfer_energy_kwh,
)
from repro.workloads.models import get_model

REGIONS = ("ESO", "CISO", "ERCOT", "PJM")
MODELS = ("BERT", "ResNet50", "NT3", "RoBERTa")


@pytest.fixture(scope="module")
def service() -> CarbonIntensityService:
    return CarbonIntensityService(forecast_error=0.03)


@pytest.fixture(scope="module")
def node():
    return v100_node()


# ---------------------------------------------------------------------------
# The pre-refactor scalar loop, verbatim (the oracle).
# ---------------------------------------------------------------------------
def seed_evaluate(
    jobs,
    policy,
    service,
    node,
    *,
    transfer_overhead_fraction=0.02,
    transfer_model=None,
    pue=None,
):
    """Per-job (energy_kwh, carbon_g) exactly as the seed loop computed."""
    eff_pue = get_config().pue if pue is None else float(pue)
    power = NodePowerModel(node)
    per_gpu_busy_w = power.gpu_power_w(busy=True) / node.gpu_count
    placements = place_jobs(policy, jobs)
    results = []
    for job, placement in zip(jobs, placements):
        energy_kwh = job.n_gpus * per_gpu_busy_w * job.duration_h / 1000.0
        transfer_g = 0.0
        if placement.migrated:
            if transfer_model is not None:
                home = (
                    job.home_region if job.home_region is not None else placement.region
                )
                hour = int(np.floor(placement.start_h))
                transfer_g = transfer_carbon_g(
                    job.model,
                    home,
                    placement.region,
                    service.intensity_at(home, hour),
                    service.intensity_at(placement.region, hour),
                    transfer=transfer_model,
                )
                energy_kwh += transfer_energy_kwh(
                    job.model, home, placement.region, transfer=transfer_model
                )
            else:
                energy_kwh *= 1.0 + transfer_overhead_fraction
        window = max(int(np.ceil(job.duration_h)), 1)
        truth = service.history(
            placement.region, int(np.floor(placement.start_h)), window
        )
        compute_energy = (
            job.n_gpus * per_gpu_busy_w * job.duration_h / 1000.0
            if transfer_model is not None
            else energy_kwh
        )
        carbon_g = compute_energy * float(truth.mean()) * eff_pue + transfer_g
        results.append((energy_kwh, carbon_g))
    return results


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------
def _job(draw, job_id: int) -> Job:
    return Job(
        job_id=job_id,
        user=f"u{draw(st.integers(0, 3))}",
        model=get_model(draw(st.sampled_from(MODELS))),
        n_gpus=draw(st.integers(1, 4)),
        duration_h=draw(
            st.floats(0.05, 70.0, allow_nan=False, allow_infinity=False)
        ),
        submit_h=draw(
            st.floats(0.0, 9000.0, allow_nan=False, allow_infinity=False)
        ),
        slack_h=draw(st.floats(0.0, 48.0, allow_nan=False, allow_infinity=False)),
        home_region=draw(st.sampled_from(REGIONS)),
    )


@st.composite
def workloads(draw):
    n = draw(st.integers(1, 30))
    return [_job(draw, i) for i in range(n)]


def _make_policy(kind: str, service):
    if kind == "oblivious":
        return CarbonObliviousPolicy(service, "ESO")
    if kind == "temporal":
        return TemporalShiftingPolicy(service, "ESO")
    if kind == "geographic":
        return GeographicPolicy(service, "ESO", regions=list(REGIONS))
    return TemporalGeographicPolicy(service, "ESO", regions=list(REGIONS))


class TestByteIdentityPin:
    @settings(max_examples=25, deadline=None)
    @given(
        jobs=workloads(),
        policy_kind=st.sampled_from(
            ["oblivious", "temporal", "geographic", "joint"]
        ),
        physical_transfer=st.booleans(),
        backend=st.sampled_from(
            [VectorizedChargingEngine, ScalarReferenceChargingEngine]
        ),
    )
    def test_engines_match_seed_loop(
        self, service, node, jobs, policy_kind, physical_transfer, backend
    ):
        policy = _make_policy(policy_kind, service)
        transfer = default_transfer_model() if physical_transfer else None
        reference = seed_evaluate(
            jobs, policy, service, node, transfer_model=transfer
        )
        evaluation = evaluate_policy(
            jobs,
            policy,
            service,
            node,
            transfer_model=transfer,
            accounting=backend(),
        )
        for outcome, (ref_energy, ref_carbon) in zip(
            evaluation.outcomes, reference
        ):
            assert outcome.energy_kwh == ref_energy  # bitwise
            assert outcome.carbon_g == ref_carbon  # bitwise
        # Totals accumulate the identical per-job floats in the identical
        # order, so they are byte-identical to the seed path too.
        assert evaluation.total_carbon.grams == sum(r[1] for r in reference)
        assert evaluation.total_energy.kwh == sum(r[0] for r in reference)
        # The ledger's per-job attribution reproduces each job's realized
        # carbon exactly (operational + transfer in the seed's order).
        by_job = evaluation.ledger.by_job()
        for outcome in evaluation.outcomes:
            assert by_job[outcome.job_id] == outcome.carbon_g

    def test_truth_table_bitwise_matches_history_means(self, service):
        for region in ("ESO", "CISO"):
            for window in (1, 3, 24, 100):
                table = service.truth_window_table(region, window)
                trace = service.trace(region)
                for start in (0, 7, 4000, len(trace) - 1):
                    expected = float(
                        service.history(region, start, window).mean()
                    )
                    assert float(table[start % len(trace)]) == expected

    def test_truth_table_is_readonly_and_memoized(self, service):
        a = service.truth_window_table("ESO", 6)
        b = service.truth_window_table("ESO", 6)
        assert a is b
        with pytest.raises(ValueError):
            a[0] = 0.0


class TestPUEProfiles:
    def test_constant_profile_reproduces_scalar_exactly(self, service, node):
        jobs = [
            Job(
                job_id=i,
                user="u",
                model=get_model("BERT"),
                n_gpus=2,
                duration_h=5.5,
                submit_h=10.0 * i + 0.25,
                slack_h=12.0,
                home_region="ESO",
            )
            for i in range(8)
        ]
        policy = TemporalShiftingPolicy(service, "ESO")
        scalar = evaluate_policy(jobs, policy, service, node, pue=1.37)
        profile = evaluate_policy(
            jobs, policy, service, node, pue=np.full(8760, 1.37)
        )
        for a, b in zip(scalar.outcomes, profile.outcomes):
            assert a.carbon_g == b.carbon_g  # bitwise

    def test_seasonal_profile_engines_agree_and_differ_from_constant(
        self, service, node
    ):
        jobs = [
            Job(
                job_id=i,
                user="u",
                model=get_model("ResNet50"),
                n_gpus=1,
                duration_h=30.0,
                submit_h=500.0 * i,
                slack_h=0.0,
                home_region="ESO",
            )
            for i in range(6)
        ]
        policy = CarbonObliviousPolicy(service, "ESO")
        seasonal = SeasonalPUE(annual_mean=1.2, seasonal_amplitude=0.08)
        vec = evaluate_policy(jobs, policy, service, node, pue=seasonal)
        ref = evaluate_policy(
            jobs, policy, service, node, pue=seasonal,
            accounting=ScalarReferenceChargingEngine(),
        )
        const = evaluate_policy(jobs, policy, service, node, pue=1.2)
        assert [o.carbon_g for o in vec.outcomes] == [
            o.carbon_g for o in ref.outcomes
        ]
        assert vec.total_carbon.grams != const.total_carbon.grams

    def test_resolve_pue_collapses_constant_profiles(self):
        scalar, profile = resolve_pue(np.full(100, 1.4))
        assert scalar == 1.4 and profile is None
        scalar, profile = resolve_pue([1.1, 1.3, 1.2])
        assert profile is not None and scalar == pytest.approx(1.2)
        assert resolve_pue(None)[0] == get_config().pue
        with pytest.raises(AccountingError):
            resolve_pue([0.9, 1.1])
        with pytest.raises(AccountingError):
            resolve_pue(0.5)
        with pytest.raises(AccountingError):
            resolve_pue([1.2, float("nan"), 1.3])

    def test_evaluate_policy_rejects_bad_pue_with_scheduling_error(
        self, service, node
    ):
        policy = CarbonObliviousPolicy(service, "ESO")
        with pytest.raises(SchedulingError):
            evaluate_policy([], policy, service, node, pue=0.8)


class TestCarbonLedger:
    def test_attribution_axes(self):
        ledger = CarbonLedger()
        ledger.add("operational", "a", 10.0, region="ESO", policy="p1", job_id=1)
        ledger.add("operational", "b", 5.0, region="CISO", policy="p1", job_id=2)
        ledger.add("transfer", "t", 1.0, region="CISO", policy="p1", job_id=2)
        ledger.charge_embodied("GPU", 20.0, region="ESO")
        assert ledger.total_carbon_g == pytest.approx(36.0)
        assert ledger.by_kind() == {
            "operational": 15.0,
            "transfer": 1.0,
            "embodied": 20.0,
        }
        assert ledger.by_region() == {"ESO": 30.0, "CISO": 6.0}
        assert ledger.by_policy() == {"p1": 16.0, "-": 20.0}
        assert ledger.by_job() == {1: 10.0, 2: 6.0}
        report = ledger.report()
        assert report.embodied_g == 20.0
        assert report.operational_g == 16.0
        rows = dict(
            (key, share) for key, _g, share in ledger.attribution_rows("region")
        )
        assert rows["ESO"] == pytest.approx(30.0 / 36.0)

    def test_entries_materialize_typed_records(self):
        ledger = CarbonLedger()
        ledger.add_batch(
            "operational",
            carbon_g=np.array([1.0, 2.0]),
            energy_kwh=np.array([0.5, 0.75]),
            regions="ESO",
            policy="p",
            job_ids=np.array([7, 8]),
        )
        entries = list(ledger)
        assert entries == [
            LedgerEntry(
                kind="operational", label="job:7", carbon_g=1.0,
                energy_kwh=0.5, region="ESO", policy="p", job_id=7,
            ),
            LedgerEntry(
                kind="operational", label="job:8", carbon_g=2.0,
                energy_kwh=0.75, region="ESO", policy="p", job_id=8,
            ),
        ]
        assert len(ledger) == 2

    def test_merge_and_str(self):
        a, b = CarbonLedger(), CarbonLedger()
        a.add("operational", "x", 1.0)
        b.add("embodied", "y", 2.0)
        a.merge(b)
        assert a.total_carbon_g == 3.0
        assert "2 entries" in str(a)

    def test_batch_validation(self):
        ledger = CarbonLedger()
        with pytest.raises(AccountingError):
            ledger.add_batch("nonsense", carbon_g=np.array([1.0]))
        with pytest.raises(AccountingError):
            ledger.add_batch(
                "operational",
                carbon_g=np.array([1.0, 2.0]),
                energy_kwh=np.array([1.0]),
            )
        with pytest.raises(AccountingError):
            ledger.charge_embodied("x", -1.0)
        with pytest.raises(AccountingError):
            ledger.attribution_rows("nonsense")

    def test_charge_power_profile_matches_simulator_expression(self):
        rng = np.random.default_rng(3)
        power = rng.uniform(0, 5000, 240)
        intensity = rng.uniform(20, 700, 240)
        ledger = CarbonLedger()
        grams = ledger.charge_power_profile(
            "cluster", power, intensity, pue=1.2, region="ESO"
        )
        assert grams == float(np.dot(power, intensity)) / 1000.0 * 1.2  # bitwise
        assert ledger.by_region() == {"ESO": grams}
        hourly = np.full(240, 1.2)
        ledger2 = CarbonLedger()
        with_profile = ledger2.charge_power_profile(
            "cluster", power, intensity, pue=hourly
        )
        assert with_profile == pytest.approx(grams)

    def test_amortized_embodied(self):
        grams = amortized_embodied_g(8760.0 * 5, 1.0, 5.0)
        assert grams == pytest.approx(1.0)
        ledger = CarbonLedger()
        charged = ledger.charge_amortized_embodied(
            "node", 1000.0, duration_h=87.6, lifetime_years=1.0, share=0.5
        )
        assert charged == pytest.approx(1000.0 * 0.5 * 87.6 / 8760.0)
        with pytest.raises(AccountingError):
            amortized_embodied_g(1.0, 1.0, 0.0)
        with pytest.raises(AccountingError):
            ledger.charge_amortized_embodied(
                "node", 1.0, duration_h=1.0, lifetime_years=1.0, share=1.5
            )

    def test_get_engine(self, service, node):
        # Engines resolve through the registry's accounting kind, whose
        # one built-in is the vectorized engine; evaluate_policy takes an
        # instance and defaults to a fresh vectorized engine.
        from repro.core.errors import UnknownBackendError
        from repro.session import resolve_backend

        for key in ("vectorized", "default", "ledger"):
            assert resolve_backend("accounting", key) is VectorizedChargingEngine
        with pytest.raises(UnknownBackendError, match="vectorized"):
            resolve_backend("accounting", "warp-drive")

        charged = []

        class Recording(VectorizedChargingEngine):
            def charge(self, *args, **kwargs):
                charged.append(self)
                return super().charge(*args, **kwargs)

        jobs = [
            Job(job_id=0, user="u", model=get_model("BERT"), n_gpus=1,
                duration_h=2.0, submit_h=0.0, home_region="ESO")
        ]
        policy = CarbonObliviousPolicy(service, "ESO")
        engine = Recording()
        passed = evaluate_policy(jobs, policy, service, node, accounting=engine)
        assert charged == [engine]
        default = evaluate_policy(jobs, policy, service, node)
        assert passed.outcomes == default.outcomes


class TestSubsystemConsolidation:
    def test_simulator_ledger_matches_result(self, node):
        from repro.cluster.simulator import Cluster, simulate_cluster
        from repro.workloads.sources import WorkloadParams, generate_workload
        from repro.intensity.generator import generate_trace

        jobs = generate_workload(
            WorkloadParams(horizon_h=48.0, total_gpus=16), seed=2
        )
        trace = generate_trace("ESO")
        sim = simulate_cluster(
            jobs, Cluster(node, 4), horizon_h=48.0, intensity=trace
        )
        assert sim.ledger is not None
        assert sim.ledger.total_carbon_g == sim.carbon_g  # bitwise
        assert sim.ledger.by_region() == {"ESO": sim.carbon_g}

    def test_audit_ledger_matches_audit(self):
        from repro.analysis.audit import CenterAuditor
        from repro.hardware.systems import perlmutter
        from repro.intensity.generator import generate_trace

        auditor = CenterAuditor(
            intensity=generate_trace("CISO"), n_nodes=256, nics_per_node=1
        )
        audit = auditor.audit(perlmutter(), service_years=5.0)
        assert audit.region == "CISO"
        ledger = audit.to_ledger()
        assert ledger.total_carbon_g == pytest.approx(audit.total_g)
        assert ledger.embodied_g == pytest.approx(audit.embodied_total_g)
        assert ledger.operational_g == pytest.approx(audit.operational_g)
        assert set(ledger.by_region()) == {"CISO"}

    def test_upgrade_ledger_is_the_savings_comparison(self):
        from repro.upgrade.advisor import UpgradeAdvisor
        from repro.upgrade.scenario import UpgradeScenario

        scenario = UpgradeScenario.from_generations(
            "P100", "V100", "NLP", intensity=200.0
        )
        ledger = scenario.to_ledger(5.0)
        alternatives = ledger.by_policy()
        expected = float(scenario.savings_curve(np.array([5.0]))[0])
        assert 1.0 - alternatives["upgrade"] / alternatives["keep"] == expected
        decision = UpgradeAdvisor(200.0).evaluate("P100", "V100", "NLP")
        assert decision.ledger is not None
        assert decision.savings_at_lifetime == expected

    def test_advisor_zero_carbon_grid_keeps_seed_semantics(self):
        """Insight 8: on a zero-carbon grid the upgrade never pays off —
        the seed's savings diverged to -inf (not an exception)."""
        from repro.upgrade.advisor import UpgradeAdvisor, Verdict

        decision = UpgradeAdvisor(0.0).evaluate("P100", "V100", "NLP")
        assert decision.savings_at_lifetime == float("-inf")
        assert decision.breakeven_years is None
        assert decision.verdict is Verdict.EXTEND_LIFETIME

    def test_amortization_attribution_sweep(self):
        from repro.upgrade.amortization import attribution_sweep
        from repro.upgrade.scenario import INTENSITY_LEVELS

        ledgers = attribution_sweep(
            "P100", "A100", INTENSITY_LEVELS, "NLP", at_years=5.0
        )
        assert set(ledgers) == set(INTENSITY_LEVELS)
        for ledger in ledgers.values():
            assert set(ledger.by_policy()) == {"keep", "upgrade"}
            assert ledger.by_kind()["embodied"] > 0.0


class TestSessionCarbonSection:
    def test_accounting_backend_registered(self):
        from repro.session import available_backends

        keys = available_backends("accounting")
        assert keys == ("default", "ledger", "vectorized")

    def test_scalar_reference_is_not_a_key(self):
        from repro.core.errors import UnknownBackendError
        from repro.session import Scenario

        scenario = (
            Scenario().node("V100").region("ESO").accounting("scalar-reference")
        )
        with pytest.raises(UnknownBackendError, match="registered: .*vectorized"):
            scenario.build()

    def test_carbon_section_for_workload_scenario(self):
        from repro.cluster import WorkloadParams
        from repro.session import Scenario, ScenarioResult

        result = (
            Scenario()
            .node("V100")
            .region("ESO")
            .regions(list(REGIONS))
            .policy("carbon_aware")
            .workload(
                WorkloadParams(horizon_h=24.0 * 3, total_gpus=16,
                               home_region="ESO"),
                seed=11,
            )
            .run()
        )
        carbon = result.carbon
        assert carbon is not None
        assert carbon.backend == "vectorized"
        best = result.scheduling.best()
        assert carbon.source == f"scheduling:{best.policy}"
        assert carbon.operational_g == pytest.approx(best.carbon_g)
        assert carbon.embodied_g > 0.0
        assert carbon.total_g == carbon.operational_g + carbon.embodied_g
        assert sum(carbon.by_region.values()) == pytest.approx(carbon.total_g)
        assert f"scheduling:{best.policy}" in carbon.by_source
        # knob provenance names the backend that charged the numbers
        knob = {p.knob: p for p in result.provenance}["accounting"]
        assert knob.backend == "accounting:vectorized"
        # serialization round-trip
        restored = ScenarioResult.from_dict(result.to_dict())
        assert restored.carbon == carbon.__class__(
            backend=carbon.backend,
            source=carbon.source,
            operational_g=carbon.operational_g,
            embodied_g=carbon.embodied_g,
            by_region=carbon.by_region,
            by_policy=carbon.by_policy,
            by_source=carbon.by_source,
        )
        assert any("carbon ledger" in line for line in result.summary_lines())

    def test_scalar_reference_backend_equals_vectorized(self, plugin_backend):
        from repro.cluster import WorkloadParams
        from repro.session import Scenario

        plugin_backend(
            "accounting", "scalar-reference", ScalarReferenceChargingEngine
        )

        def build(key):
            return (
                Scenario()
                .node("V100")
                .region("ESO")
                .policy("temporal-shifting")
                .workload(
                    WorkloadParams(horizon_h=24.0 * 2, total_gpus=8,
                                   home_region="ESO"),
                    seed=4,
                )
                .accounting(key)
            )

        fast = build("vectorized").run()
        slow = build("scalar-reference").run()
        for a, b in zip(fast.scheduling.outcomes, slow.scheduling.outcomes):
            assert a.carbon_g == b.carbon_g and a.energy_kwh == b.energy_kwh
        assert slow.carbon.backend == "scalar-reference"

    def test_carbon_section_for_audit_scenario(self):
        from repro.session import Scenario

        result = Scenario().system("perlmutter").region("CISO").run()
        carbon = result.carbon
        assert carbon.source == "audit"
        assert carbon.total_g == pytest.approx(result.audit.total_g)
        assert carbon.by_source["audit"] == result.audit.total_g

    def test_carbon_section_for_upgrade_scenario(self):
        from repro.session import Scenario

        result = (
            Scenario().upgrade("P100", "V100").constant_intensity(200.0).run()
        )
        carbon = result.carbon
        assert carbon.source == "upgrade"
        assert set(carbon.by_policy) == {"keep", "upgrade"}
        assert carbon.by_source["upgrade:upgrade"] == pytest.approx(
            carbon.total_g
        )
