"""Scenario/Session facade: validation, equivalence, batching, round-trip."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.config import default_config
from repro.core.errors import SessionError, UnknownBackendError
from repro.session import Scenario, ScenarioResult, Session, run_scenario
from repro.cluster import WorkloadParams


def small_params(region="ESO"):
    """A deliberately tiny workload so facade tests stay fast."""
    return WorkloadParams(
        horizon_h=48.0, total_gpus=8, home_region=region, n_users=3
    )


class TestScenarioValidation:
    def test_empty_scenario_rejected(self):
        with pytest.raises(SessionError, match="nothing to compute"):
            Scenario().build()

    def test_system_without_region_rejected(self):
        with pytest.raises(SessionError, match="region"):
            Scenario().system("frontier").build()

    def test_training_without_node_rejected(self):
        with pytest.raises(SessionError, match="node"):
            Scenario().training("BERT").region("ESO").build()

    def test_workload_without_region_rejected(self):
        with pytest.raises(SessionError, match="region"):
            Scenario().node("V100").workload(small_params()).build()

    def test_policies_without_workload_rejected(self):
        with pytest.raises(SessionError, match="workload"):
            Scenario().node("V100").region("ESO").policy("geographic").build()

    def test_window_without_workload_rejected(self):
        with pytest.raises(SessionError, match="window"):
            Scenario().system("lumi").region("ESO").window(days=7).build()

    def test_conflicting_intensity_knobs_rejected(self):
        with pytest.raises(SessionError, match="mutually exclusive"):
            (
                Scenario()
                .system("lumi")
                .region("ESO")
                .intensity_source("oracle")
                .constant_intensity(100.0)
                .build()
            )

    def test_unknown_system_key_raises_at_build(self):
        with pytest.raises(UnknownBackendError, match="summit"):
            Scenario().system("summit").region("ESO").build()

    def test_unknown_region_raises_at_build(self):
        with pytest.raises(SessionError, match="not served"):
            Scenario().system("lumi").region("NOPE").build()

    def test_window_requires_exactly_one_unit(self):
        with pytest.raises(SessionError):
            Scenario().window()
        with pytest.raises(SessionError):
            Scenario().window(hours=24, days=1)

    def test_knob_domain_checks(self):
        with pytest.raises(SessionError):
            Scenario().usage(0.0)
        with pytest.raises(SessionError):
            Scenario().pue(0.9)
        with pytest.raises(SessionError):
            Scenario().lifetime(0.0)
        with pytest.raises(SessionError):
            Scenario().constant_intensity(-1.0)
        with pytest.raises(SessionError):
            Scenario().upgrade("A100", "A100")

    @pytest.mark.parametrize("error", [float("nan"), float("inf"), -0.1])
    def test_forecast_error_must_be_finite_and_non_negative(self, error):
        # A NaN error made every score table NaN, so temporal shifting
        # silently reported the carbon-oblivious placements.
        with pytest.raises(SessionError, match="finite and non-negative"):
            Scenario().forecast_error(error)

    @pytest.mark.parametrize("years", [float("nan"), float("inf")])
    def test_lifetime_must_be_finite(self, years):
        # A NaN lifetime printed nan% audit rows and exited 0.
        with pytest.raises(SessionError, match="finite and positive"):
            Scenario().lifetime(years)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_constant_intensity_must_be_finite(self, value):
        with pytest.raises(SessionError, match="finite and non-negative"):
            Scenario().constant_intensity(value)

    @pytest.mark.parametrize(
        "window",
        [{"hours": float("nan")}, {"hours": float("inf")},
         {"days": float("inf")}, {"hours": True}],
    )
    def test_window_must_be_a_finite_number(self, window):
        # An infinite window reached the simulator's int(ceil(horizon)).
        with pytest.raises(SessionError, match="window must be"):
            Scenario().window(**window)

    def test_regions_rejects_a_bare_string(self):
        # Iterated, "ESO" would become ['E', 'S', 'O'] and fail at run time.
        with pytest.raises(SessionError, match=r"regions .*\['ESO'\]"):
            Scenario().regions("ESO")

    @pytest.mark.parametrize("n_nodes", [float("nan"), float("inf"), 2.5, True])
    def test_cluster_needs_a_whole_node_count(self, n_nodes):
        # 2.5 silently ran 2 nodes; NaN raised a bare ValueError.
        with pytest.raises(SessionError, match="whole number of nodes"):
            Scenario().cluster(n_nodes)

    @pytest.mark.parametrize(
        "setter,args,kwargs,knob",
        [
            ("seed", (1.5,), {}, "seed"),
            ("seed", (True,), {}, "seed"),
            ("workload", ("synthetic",), {"seed": 1.5}, "workload seed"),
            ("n_nodes", (2.5,), {}, "n_nodes"),
            ("n_nodes", (True,), {}, "n_nodes"),
            ("n_nodes", ("3",), {}, "n_nodes"),
            ("n_nodes", (float("nan"),), {}, "n_nodes"),
            ("n_nodes", (float("inf"),), {}, "n_nodes"),
            ("nics_per_node", (1.9,), {}, "nics_per_node"),
            ("training", ("BERT",), {"n_gpus": 2.5}, "n_gpus"),
            ("training", ("BERT",), {"epochs": float("nan")}, "epochs"),
            ("executor", ("process",), {"max_workers": 2.5}, "max_workers"),
            ("lifetime", (True,), {}, "lifetime"),
            ("usage", (True,), {}, "usage"),
            ("constant_intensity", (True,), {}, "constant intensity"),
            ("forecast_error", (True,), {}, "forecast error"),
        ],
    )
    def test_number_knobs_reject_what_they_would_truncate(
        self, setter, args, kwargs, knob
    ):
        # Each of these was stored truncated (2.5 -> 2, True -> 1 or
        # 1.0, "3" -> 3) or failed with a bare ValueError/OverflowError.
        with pytest.raises(SessionError, match=knob):
            getattr(Scenario(), setter)(*args, **kwargs)

    def test_whole_number_knobs_store_ints(self):
        scenario = (
            Scenario()
            .seed(np.int64(5))
            .n_nodes(2.0)
            .nics_per_node(4)
            .training("BERT", epochs=2, n_gpus=4)
            .executor("process", max_workers=2)
        )
        assert type(scenario._seed) is int and scenario._seed == 5
        assert type(scenario._n_nodes) is int and scenario._n_nodes == 2
        assert scenario._training == {"model": "BERT", "epochs": 2, "n_gpus": 4}
        assert scenario._executor_opts == {"max_workers": 2}

    def test_run_is_idempotent(self):
        # The forecast RNG is consumed by a run; the session caches its
        # result so repeat run()/render() report identical numbers.
        session = (
            Scenario()
            .node("V100")
            .region("ESO")
            .workload(small_params(), seed=11)
            .policy("temporal-shifting")
            .build()
        )
        first = session.run()
        assert session.run() is first
        a, b = Session.run_many([session, session])
        assert a is b

    def test_session_is_immutable(self):
        session = Scenario().system("lumi").region("ESO").build()
        with pytest.raises(SessionError, match="immutable"):
            session._name = "tampered"

    def test_direct_session_construction_rejected(self):
        with pytest.raises(SessionError):
            Session()


class TestFacadeEquivalence:
    """The facade is a re-wiring, not a remodel: numbers match direct calls."""

    def test_audit_matches_center_auditor(self):
        from repro.analysis.audit import CenterAuditor
        from repro.hardware import get_system
        from repro.intensity import generate_trace

        result = Scenario().system("perlmutter").region("CISO").run()
        direct = CenterAuditor(
            intensity=generate_trace("CISO"), n_nodes=4608
        ).audit(get_system("Perlmutter"), service_years=5.0)
        assert result.audit == direct

    def test_training_matches_simulate_training_run(self):
        from repro.intensity import generate_trace
        from repro.workloads import simulate_training_run

        result = (
            Scenario().node("A100").region("ESO").training("BERT", epochs=2).run()
        )
        direct = simulate_training_run(
            "BERT", "A100", epochs=2, intensity=generate_trace("ESO")
        )
        assert result.training.duration_h == direct.duration_h
        assert result.training.operational_g == direct.carbon.grams
        assert result.training.energy_kwh == direct.energy.kwh

    def test_upgrade_matches_advisor(self):
        from repro.upgrade.advisor import UpgradeAdvisor

        result = (
            Scenario()
            .upgrade("P100", "A100", suite="NLP")
            .constant_intensity(400.0)
            .run()
        )
        direct = UpgradeAdvisor(400.0, usage=0.40).evaluate(
            "P100", "A100", "NLP", lifetime_years=5.0
        )
        assert result.upgrade.breakeven_years == direct.breakeven_years
        assert result.upgrade.savings_at_lifetime == direct.savings_at_lifetime
        assert result.upgrade.verdict == direct.verdict.value

    def test_explicit_spec_inherits_deployment_facts(self):
        from repro.hardware import frontier

        by_key = Scenario().system("frontier").region("MISO").run()
        by_spec = Scenario().system(frontier()).region("MISO").run()
        assert "Network" in by_spec.audit.build_g
        assert by_spec.audit == by_key.audit

    def test_embodied_section_matches_system_spec(self):
        from repro.hardware import get_system

        result = Scenario().system("lumi").region("ESO").run()
        spec = get_system("LUMI")
        assert result.embodied.total_g == pytest.approx(
            spec.embodied_total().total_g
        )
        shares = result.embodied.shares()
        for cls, share in spec.embodied_shares().items():
            assert shares[cls.value] == pytest.approx(share)


class TestScheduling:
    @pytest.fixture(scope="class")
    def result(self):
        return (
            Scenario()
            .node("V100")
            .region("ESO")
            .regions(["ESO", "CISO"])
            .workload(small_params(), seed=11)
            .policies(["temporal-shifting", "carbon_aware"])
            .run()
        )

    def test_baseline_auto_prepended(self, result):
        assert result.scheduling.baseline == "carbon-oblivious"
        assert result.scheduling.outcomes[0].policy == "carbon-oblivious"
        assert result.scheduling.outcomes[0].savings_fraction == 0.0

    def test_all_policies_evaluated(self, result):
        names = [o.policy for o in result.scheduling.outcomes]
        assert names == [
            "carbon-oblivious", "temporal-shifting", "temporal+geographic"
        ]

    def test_savings_consistent_with_carbon(self, result):
        base = result.scheduling.outcomes[0].carbon_g
        for outcome in result.scheduling.outcomes:
            assert outcome.savings_fraction == pytest.approx(
                1.0 - outcome.carbon_g / base
            )

    def test_live_evaluations_attached(self, result):
        evaluations = result.scheduling.evaluations
        assert set(evaluations) == {
            "carbon-oblivious", "temporal-shifting", "temporal+geographic"
        }
        assert evaluations["carbon-oblivious"].outcomes

    def test_baseline_alias_not_duplicated(self):
        # 'oblivious' is a registry alias of the baseline; the facade
        # must recognize it by the constructed policy's name instead of
        # inserting a second carbon-oblivious evaluation.
        result = (
            Scenario()
            .node("V100")
            .region("ESO")
            .workload(small_params(), seed=11)
            .policies(["oblivious", "temporal-shifting"])
            .run()
        )
        names = [o.policy for o in result.scheduling.outcomes]
        assert names == ["carbon-oblivious", "temporal-shifting"]
        assert result.scheduling.baseline == "carbon-oblivious"

    def test_baseline_used_even_when_listed_last(self):
        result = (
            Scenario()
            .node("V100")
            .region("ESO")
            .workload(small_params(), seed=11)
            .policies(["temporal-shifting", "carbon-oblivious"])
            .run()
        )
        assert result.scheduling.baseline == "carbon-oblivious"
        by_name = {o.policy: o for o in result.scheduling.outcomes}
        assert by_name["carbon-oblivious"].savings_fraction == 0.0

    def test_cluster_section(self):
        result = (
            Scenario()
            .node("V100")
            .region("ESO")
            .workload(small_params(), seed=11)
            .cluster(4)
            .run()
        )
        assert result.cluster.n_nodes == 4
        assert result.cluster.carbon_g > 0.0
        assert 0.0 <= result.cluster.average_usage <= 1.0

    def test_cluster_simulator_opts_reach_backend_and_provenance(self):
        def build(**opts):
            return (
                Scenario()
                .node("V100")
                .region("ESO")
                .workload(small_params(), seed=11)
                .cluster(2, simulator="carbon-aware", **opts)
            )

        with_opts = build(slack_h=24.0).run()
        rows = {p.knob: p for p in with_opts.provenance}
        assert "simulator_opts" in rows
        assert rows["simulator_opts"].backend == "simulator:carbon-aware"
        assert "slack_h" in rows["simulator_opts"].value
        # No options -> no row (keeps pre-existing fixtures byte-stable).
        bare = build().run()
        assert "simulator_opts" not in {p.knob for p in bare.provenance}
        # Options key the fingerprint: a changed budget is a new cell.
        assert (
            build(slack_h=24.0).build().fingerprint()
            != build(slack_h=6.0).build().fingerprint()
        )
        assert (
            build(slack_h=24.0).build().fingerprint()
            != bare.fingerprint()
        )

    def test_cluster_rejected_simulator_option_reports_cleanly(self):
        scenario = (
            Scenario()
            .node("V100")
            .region("ESO")
            .workload(small_params(), seed=11)
            .cluster(2, simulator="fcfs-columnar", slack_h=4.0)
        )
        with pytest.raises(SessionError, match="rejected options"):
            scenario.run()


class TestRunMany:
    def test_traces_generated_once_per_unique_seed(self):
        from repro.intensity import trace_cache_clear, trace_cache_info

        trace_cache_clear()
        scenarios = [
            Scenario()
            .node("V100")
            .region(region)
            .workload(small_params(region), seed=3)
            .policy(policy)
            for region in ("ESO", "CISO", "ERCOT", "MISO", "PJM")
            for policy in ("carbon-oblivious", "temporal-shifting", "geographic")
        ]
        results = Session.run_many(scenarios)
        assert len(results) == 15
        info = trace_cache_info()
        assert info.misses == 1  # one unique seed -> one generation
        assert info.hits == 14

    def test_batch_equals_standalone(self):
        scenario = (
            Scenario()
            .node("V100")
            .region("ESO")
            .workload(small_params(), seed=5)
            .policy("temporal-shifting")
        )
        [batched] = Session.run_many([scenario])
        standalone = (
            Scenario()
            .node("V100")
            .region("ESO")
            .workload(small_params(), seed=5)
            .policy("temporal-shifting")
            .run()
        )
        assert [o.carbon_g for o in batched.scheduling.outcomes] == [
            o.carbon_g for o in standalone.scheduling.outcomes
        ]

    def test_results_in_input_order(self):
        results = Session.run_many(
            Scenario().system("lumi").region(region)
            for region in ("ESO", "CISO")
        )
        assert [r.region for r in results] == ["ESO", "CISO"]

    def test_rejects_foreign_items(self):
        with pytest.raises(SessionError, match="Scenario/Session"):
            Session.run_many(["not-a-scenario"])

    def test_run_scenario_function(self):
        result = run_scenario(Scenario().system("lumi").region("ESO"))
        assert isinstance(result, ScenarioResult)
        with pytest.raises(SessionError):
            run_scenario("nope")


class TestProvenance:
    def test_explicit_vs_default_sources(self):
        session = (
            Scenario().system("frontier").region("ESO").usage(0.6).build()
        )
        provenance = {p.knob: p for p in session.provenance}
        assert provenance["system"].source == "explicit"
        assert provenance["system"].backend == "system:frontier"
        assert provenance["usage"].source == "explicit"
        assert provenance["lifetime_years"].source == "default"
        assert provenance["seed"].source == "default"

    def test_provenance_carried_into_result(self):
        result = Scenario().system("lumi").region("CISO").run()
        knobs = {p.knob for p in result.provenance}
        assert {"system", "region", "seed", "renderer"} <= knobs


class TestResultRoundTrip:
    def test_export_round_trip(self, tmp_path):
        from repro.analysis.export import read_scenario, write_scenario

        result = (
            Scenario()
            .node("V100")
            .region("ESO")
            .workload(small_params(), seed=7)
            .policy("carbon_aware")
            .training("ResNet50", epochs=1)
            .run()
        )
        path = write_scenario(result, tmp_path / "scenario.json")
        loaded = read_scenario(path)
        # Live objects are dropped by design; the serialized views match
        # exactly (JSON normalizes tuple/list, so compare via dumps).
        original = json.dumps(result.to_dict(), sort_keys=True)
        rebuilt = json.dumps(loaded.to_dict(), sort_keys=True)
        assert original == rebuilt
        assert loaded.scheduling.evaluations is None
        assert loaded.training.result is None

    def test_renderers(self):
        from repro.session import resolve_backend

        result = Scenario().system("lumi").region("ESO").run()
        text = resolve_backend("renderer", "text")(result)
        assert "Carbon audit" in text
        payload = json.loads(resolve_backend("renderer", "json")(result))
        assert payload["region"] == "ESO"
        markdown = resolve_backend("renderer", "markdown")(result)
        assert "| knob |" in markdown

    def test_session_render_uses_scenario_renderer(self):
        session = (
            Scenario().system("lumi").region("ESO").renderer("json").build()
        )
        payload = json.loads(session.render())
        assert payload["name"] == "lumi@ESO"


class TestDeprecationShims:
    def test_new_surface_does_not_warn(self, recwarn):
        import repro

        _ = repro.Scenario, repro.Session, repro.use_config, repro.ModelConfig
        deprecations = [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]
        assert not deprecations

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestConfigPlumbing:
    """use_config(...) reaches every layer a Scenario touches."""

    def test_pue_override_scales_audit_operation(self):
        from repro.core import use_config

        base = Scenario().system("lumi").region("ESO").run().audit
        with use_config(default_config().with_overrides(pue=1.8)):
            scaled = Scenario().system("lumi").region("ESO").run().audit
        assert scaled.operational_g == pytest.approx(
            base.operational_g * 1.8 / 1.2
        )

    def test_pue_reaches_ranking_deployments(self):
        from repro.analysis.ranking import Deployment, evaluate_deployment
        from repro.core import use_config
        from repro.hardware import v100_node

        deployment = Deployment("X", v100_node(), 10, 300.0)
        base = evaluate_deployment(deployment).operational_g_per_year
        with use_config(default_config().with_overrides(pue=1.8)):
            scaled = evaluate_deployment(deployment).operational_g_per_year
        assert scaled == pytest.approx(base * 1.8 / 1.2)

    def test_explicit_config_knob_on_scenario(self):
        config = default_config().with_overrides(pue=1.8)
        base = Scenario().system("lumi").region("ESO").run().audit
        scaled = (
            Scenario().system("lumi").region("ESO").config(config).run().audit
        )
        assert scaled.operational_g == pytest.approx(
            base.operational_g * 1.8 / 1.2
        )

    def test_cache_never_serves_default_config_results_under_use_config(
        self, tmp_path
    ):
        # The sweep cache keyed results without the active config, so a
        # cached default-config result was served under use_config(...).
        from repro.core import use_config
        from repro.sweep import SweepService

        def audit():
            return Scenario().system("frontier").region("ESO")

        SweepService(cache_dir=tmp_path).run([audit()])
        with use_config(default_config().with_overrides(fab_yield=0.6)):
            served = SweepService(cache_dir=tmp_path).run([audit()]).results[0]
            fresh = audit().run()
        assert served.embodied.manufacturing_g == fresh.embodied.manufacturing_g
        assert served.to_dict() == fresh.to_dict()

    def test_default_active_config_keeps_fingerprints(self):
        # The pinned config is recorded only when it differs from the
        # default, so default sessions hash as they always did.
        from repro.core import use_config

        session = Scenario().system("lumi").region("ESO").build()
        with use_config(default_config()):
            same = Scenario().system("lumi").region("ESO").build()
        with use_config(default_config().with_overrides(pue=1.8)):
            other = Scenario().system("lumi").region("ESO").build()
        assert same.fingerprint() == session.fingerprint()
        assert other.fingerprint() != session.fingerprint()
        assert (
            other.section_fingerprints()["audit"]
            != session.section_fingerprints()["audit"]
        )

    def test_session_built_under_override_runs_with_it(self):
        from repro.core import use_config

        config = default_config().with_overrides(fab_yield=0.6, pue=1.8)
        with use_config(config):
            session = (
                Scenario()
                .system("lumi")
                .node("V100")
                .region("ESO")
                .training("BERT", n_gpus=2)
                .upgrade("P100", "A100")
                .build()
            )
        pinned = session.run()
        explicit = (
            Scenario()
            .system("lumi")
            .node("V100")
            .region("ESO")
            .training("BERT", n_gpus=2)
            .upgrade("P100", "A100")
            .config(config)
            .run()
        )
        default = (
            Scenario()
            .system("lumi")
            .node("V100")
            .region("ESO")
            .training("BERT", n_gpus=2)
            .upgrade("P100", "A100")
            .run()
        )
        for section in ("embodied", "audit", "training", "upgrade"):
            got = getattr(pinned, section)
            assert got == getattr(explicit, section), section
            assert got != getattr(default, section), section

