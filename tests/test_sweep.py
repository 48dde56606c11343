"""The repro.sweep subsystem: specs, planner, cache, service, CLI.

The load-bearing pins:

* **byte-identity** — cached sweep results serialize to exactly the
  bytes :meth:`Session.run_many` produces for the same cells, hit or
  recompute (the golden 2x2 matrix from ``test_golden_fixtures``);
* **invalidation** — any knob change keys a new fingerprint and misses;
* **fail-soft** — corrupted or truncated cache-dir entries count as
  errors and recompute, never surface wrong results.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from repro.cluster import WorkloadParams
from repro.core.errors import ReproError, SweepError
from repro.session import Scenario
from repro.session.session import Session
from repro.sweep import (
    CacheClearance,
    ResultCache,
    SweepService,
    SweepSpec,
    plan_sweep,
)

#: The golden 2x2 matrix (mirrors tests/test_golden_fixtures.py).
_MATRIX = [
    ("frontier", "ESO", "carbon-oblivious"),
    ("frontier", "ESO", "temporal+geographic"),
    ("perlmutter", "CISO", "carbon-oblivious"),
    ("perlmutter", "CISO", "temporal+geographic"),
]


def _cell(system: str, region: str, policy: str) -> Scenario:
    return (
        Scenario()
        .system(system)
        .region(region)
        .node("V100")
        .policy(policy)
        .workload(
            WorkloadParams(horizon_h=48.0, total_gpus=8, home_region=region),
            seed=11,
        )
        .seed(7)
        .pue(1.25)
    )


def _matrix_cells() -> list:
    return [_cell(s, r, p) for s, r, p in _MATRIX]


def _serialize(result) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


def _object_policy_cell() -> Scenario:
    """A runnable cell with no stable identity (policy passed as object)."""
    from repro.session import resolve_backend

    service = resolve_backend("intensity", "constant")(
        value=100.0, regions=("ESO",), seed=0
    )
    policy = resolve_backend("policy", "carbon-oblivious")(
        service, "ESO", regions=None
    )
    return (
        Scenario()
        .system("frontier")
        .region("ESO")
        .node("V100")
        .policy(policy)
        .workload(
            WorkloadParams(horizon_h=24.0, total_gpus=8, home_region="ESO"),
            seed=11,
        )
        .seed(7)
    )


_SPEC_MAPPING = {
    "name": "grid",
    "base": {
        "node": "V100",
        "region": "ESO",
        "seed": 7,
        "workload": "synthetic",
        "workload_opts": {"horizon_h": 24.0, "total_gpus": 8},
    },
    "axes": {
        "system": ["frontier", "perlmutter"],
        "policy": ["carbon-oblivious", "temporal+geographic"],
    },
}


# --- declarative specs -------------------------------------------------------
class TestSweepSpec:
    def test_grid_expansion_order(self):
        spec = SweepSpec.from_mapping(_SPEC_MAPPING)
        assert len(spec) == 4
        cells = list(spec.grid())
        # Declaration order: first axis slow, last axis fast.
        assert [c["system"] for c in cells] == [
            "frontier", "frontier", "perlmutter", "perlmutter",
        ]
        assert [c["policy"] for c in cells] == [
            "carbon-oblivious", "temporal+geographic",
        ] * 2

    def test_scenarios_resolve_base_and_axis_knobs(self):
        scenarios = list(SweepSpec.from_mapping(_SPEC_MAPPING).scenarios())
        assert len(scenarios) == 4
        sessions = [s.build() for s in scenarios]
        assert len({s.fingerprint() for s in sessions}) == 4

    def test_unknown_knob_rejected(self):
        bad = {**_SPEC_MAPPING, "axes": {"sytem": ["frontier"]}}
        with pytest.raises(SweepError, match="sytem"):
            SweepSpec.from_mapping(bad)

    def test_wrong_type_rejected(self):
        bad = {**_SPEC_MAPPING, "axes": {"seed": ["seven"]}}
        with pytest.raises(SweepError, match="seed"):
            SweepSpec.from_mapping(bad)

    def test_empty_axis_rejected(self):
        bad = {**_SPEC_MAPPING, "axes": {"system": []}}
        with pytest.raises(SweepError, match="empty"):
            SweepSpec.from_mapping(bad)

    def test_base_axis_conflict_rejected(self):
        bad = {
            **_SPEC_MAPPING,
            "base": {**_SPEC_MAPPING["base"], "system": "frontier"},
        }
        with pytest.raises(SweepError, match="system"):
            SweepSpec.from_mapping(bad)

    @pytest.mark.parametrize("suffix", [".yaml", ".toml", ".json"])
    def test_from_file_formats(self, tmp_path, suffix):
        path = tmp_path / f"grid{suffix}"
        if suffix == ".yaml":
            path.write_text(
                "name: grid\n"
                "base:\n"
                "  node: V100\n"
                "  region: ESO\n"
                "  seed: 7\n"
                "  workload: synthetic\n"
                "  workload_opts: {horizon_h: 24.0, total_gpus: 8}\n"
                "axes:\n"
                "  system: [frontier, perlmutter]\n"
                "  policy: [carbon-oblivious, temporal+geographic]\n"
            )
        elif suffix == ".toml":
            path.write_text(
                'name = "grid"\n'
                "[base]\n"
                'node = "V100"\n'
                'region = "ESO"\n'
                "seed = 7\n"
                'workload = "synthetic"\n'
                "workload_opts = {horizon_h = 24.0, total_gpus = 8}\n"
                "[axes]\n"
                'system = ["frontier", "perlmutter"]\n'
                'policy = ["carbon-oblivious", "temporal+geographic"]\n'
            )
        else:
            path.write_text(json.dumps(_SPEC_MAPPING))
        spec = SweepSpec.from_file(path)
        assert spec.name == "grid"
        assert len(spec) == 4
        # Every format resolves to the same fingerprints.
        reference = {
            s.build().fingerprint()
            for s in SweepSpec.from_mapping(_SPEC_MAPPING).scenarios()
        }
        assert {s.build().fingerprint() for s in spec.scenarios()} == reference

    def test_scenario_from_spec_flat_mapping(self):
        scenario = Scenario.from_spec(
            {**_SPEC_MAPPING["base"], "system": "frontier"}
        )
        assert "system" in scenario._explicit
        reference = (
            Scenario()
            .system("frontier")
            .node("V100")
            .region("ESO")
            .seed(7)
            .workload("synthetic", horizon_h=24.0, total_gpus=8)
        )
        assert scenario.build().fingerprint() == reference.build().fingerprint()

    def test_scenario_from_spec_rejects_axes(self):
        with pytest.raises(ReproError, match="axes"):
            Scenario.from_spec(_SPEC_MAPPING)


# --- planner -----------------------------------------------------------------
class TestPlanner:
    def test_deduplicates_identical_cells(self):
        a, b, c = _cell(*_MATRIX[0]), _cell(*_MATRIX[0]), _cell(*_MATRIX[1])
        plan = plan_sweep([a, b, c])
        assert plan.n_cells == 3
        assert plan.n_unique == 2
        assert plan.n_deduplicated == 1
        assert plan.units[0].indices == (0, 1)
        assert plan.units[1].indices == (2,)

    def test_representative_is_original_item(self):
        cells = _matrix_cells()
        plan = plan_sweep(cells)
        assert [u.item for u in plan.units] == cells

    def test_uncacheable_cells_get_own_units(self):
        # A policy *object* embeds a live service: no stable identity.
        plan = plan_sweep([_object_policy_cell(), _object_policy_cell()])
        assert plan.n_unique == 2
        assert all(not u.cacheable for u in plan.units)

    def test_rejects_foreign_items(self):
        with pytest.raises(SweepError, match="Scenario/Session"):
            plan_sweep(["frontier"])


# --- result cache ------------------------------------------------------------
class TestResultCache:
    def test_hit_is_byte_identical_to_recompute(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "cache")
        cells = _matrix_cells()
        cold = service.run(cells)
        assert cold.n_ran == 4 and cold.stats.misses == 4
        warm = service.run(_matrix_cells())
        assert warm.n_ran == 0 and warm.stats.hits == 4
        reference = Session.run_many(_matrix_cells())
        for ref, a, b in zip(reference, cold.results, warm.results):
            assert _serialize(a) == _serialize(ref)
            assert _serialize(b) == _serialize(ref)

    def test_disk_tier_survives_a_new_process_worth_of_state(self, tmp_path):
        SweepService(cache_dir=tmp_path / "cache").run(_matrix_cells())
        fresh = SweepService(cache_dir=tmp_path / "cache")
        warm = fresh.run(_matrix_cells())
        assert warm.n_ran == 0 and warm.stats.hits == 4

    def test_knob_change_invalidates(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "cache")
        service.run([_cell(*_MATRIX[0])])
        changed = service.run([_cell(*_MATRIX[0]).seed(8)])
        assert changed.n_ran == 1 and changed.stats.misses == 1

    def test_corrupted_entries_fail_soft(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "cache")
        service.run(_matrix_cells())
        entries = list(service.cache.entries())
        assert len(entries) == 4
        entries[0][1].write_text("{ not json", encoding="utf-8")  # torn
        entries[1][1].write_text(
            json.dumps({"schema": 999, "fingerprint": entries[1][0]}),
            encoding="utf-8",
        )  # stale schema
        entries[2][1].write_text(
            json.dumps(
                {"schema": 1, "fingerprint": entries[2][0], "result": {}}
            ),
            encoding="utf-8",
        )  # partial payload
        fresh = SweepService(cache_dir=tmp_path / "cache")
        outcome = fresh.run(_matrix_cells())
        assert outcome.n_ran == 3  # three damaged entries recompute
        assert outcome.stats.hits == 1
        assert outcome.stats.errors == 3
        reference = Session.run_many(_matrix_cells())
        for ref, got in zip(reference, outcome.results):
            assert _serialize(got) == _serialize(ref)

    def test_memory_lru_evicts_and_counts(self):
        cache = ResultCache(None, memory_slots=1)
        results = Session.run_many(_matrix_cells()[:2])
        cache.put(results[0].fingerprint(), results[0])
        cache.put(results[1].fingerprint(), results[1])
        assert cache.stats.evictions == 1
        assert cache.get(results[0].fingerprint()) is None  # evicted
        assert cache.get(results[1].fingerprint()) is not None

    def test_hits_carry_the_fingerprint(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "cache")
        cold = service.run([_cell(*_MATRIX[0])])
        fresh = SweepService(cache_dir=tmp_path / "cache")
        warm = fresh.run([_cell(*_MATRIX[0])])
        assert warm.results[0].fingerprint() == cold.results[0].fingerprint()

    def test_direct_service_never_caches(self, tmp_path):
        service = SweepService(cache=False)
        assert service.cache is None
        out = service.run([_cell(*_MATRIX[0]), _cell(*_MATRIX[0])])
        assert out.n_cells == 2 and out.n_unique == 1 and out.n_ran == 1
        with pytest.raises(SweepError, match="cache_dir"):
            SweepService(cache=False, cache_dir=tmp_path)

    def test_clear_sweeps_stale_tmp_and_prunes_shards(self, tmp_path):
        """Orphaned ``*.tmp`` droppings and emptied shard directories
        go with the entries, and all three removals are counted."""
        service = SweepService(cache_dir=tmp_path / "cache")
        service.run(_matrix_cells())
        results = tmp_path / "cache" / "results"
        shards = [p for p in results.iterdir() if p.is_dir()]
        assert shards  # entries landed in at least one shard
        # A writer killed mid-put leaves a tmp dropping; an earlier
        # clear may have left a shard with nothing in it.
        (shards[0] / "deadbeefcafe.tmp").write_text("{ torn", encoding="utf-8")
        (shards[0] / "0123abcd.tmp").write_text("", encoding="utf-8")
        (results / "zz").mkdir()
        clearance = service.cache.clear()
        assert clearance.entries == 4
        assert clearance.stale_tmp == 2
        # Delta evaluation populated the section tier alongside the
        # whole results, so the clear also removed section payloads and
        # pruned their shard + per-section directories.
        assert clearance.sections > 0
        assert clearance.pruned_dirs > len(shards) + 1
        assert clearance.summary() == (
            "4 cached result(s), 2 stale temp file(s), "
            f"{clearance.pruned_dirs} empty shard dir(s), "
            f"{clearance.sections} cached section payload(s)"
        )
        assert list(results.iterdir()) == []  # nothing left behind
        sections_root = tmp_path / "cache" / "sections"
        assert list(sections_root.iterdir()) == []

    def test_sweep_stale_is_noop_without_disk(self):
        cache = ResultCache(None)
        assert cache.sweep_stale() == (0, 0)
        assert cache.clear() == CacheClearance()

    def test_put_failure_chains_original_error(self, tmp_path, monkeypatch):
        """A failed write surfaces as SweepError chained from the real
        cause, and best-effort tmp cleanup neither masks it nor leaks."""
        cache = ResultCache(tmp_path / "cache")
        result = _cell(*_MATRIX[0]).run()
        boom = OSError("disk full")

        def exploding_dumps(*args, **kwargs):
            raise boom

        monkeypatch.setattr(json, "dumps", exploding_dumps)
        with pytest.raises(
            SweepError, match="cannot write cache entry"
        ) as err:
            cache.put(result.fingerprint(), result)
        assert err.value.__cause__ is boom
        monkeypatch.undo()
        assert list((tmp_path / "cache" / "results").glob("*/*.tmp")) == []

    def test_put_failure_survives_unlink_failure(
        self, tmp_path, monkeypatch
    ):
        """Even when the tmp cleanup itself fails, the original write
        error is what surfaces (the cleanup must never mask it)."""
        import os as os_module

        cache = ResultCache(tmp_path / "cache")
        result = _cell(*_MATRIX[0]).run()
        boom = OSError("disk full")
        monkeypatch.setattr(
            json, "dumps", lambda *a, **k: (_ for _ in ()).throw(boom)
        )
        monkeypatch.setattr(
            os_module,
            "unlink",
            lambda *a, **k: (_ for _ in ()).throw(OSError("unlink failed")),
        )
        with pytest.raises(
            SweepError, match="cannot write cache entry"
        ) as err:
            cache.put(result.fingerprint(), result)
        assert err.value.__cause__ is boom


# --- service over specs and executors ---------------------------------------
class TestSweepService:
    def test_run_accepts_spec_mapping(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "cache")
        outcome = service.run(_SPEC_MAPPING)
        assert outcome.n_cells == 4
        assert [r.name for r in outcome.results] == [
            "frontier@ESO", "frontier@ESO", "perlmutter@ESO", "perlmutter@ESO",
        ]

    def test_run_accepts_spec_path(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(_SPEC_MAPPING))
        outcome = SweepService(cache_dir=tmp_path / "cache").run(path)
        assert outcome.n_cells == 4 and outcome.n_ran == 4

    def test_duplicate_cells_fan_out_one_run(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "cache")
        outcome = service.run([_cell(*_MATRIX[0]), _cell(*_MATRIX[0])])
        assert outcome.n_cells == 2 and outcome.n_ran == 1
        assert _serialize(outcome.results[0]) == _serialize(outcome.results[1])

    def test_rejects_unsweepable_input(self):
        with pytest.raises(SweepError, match="cannot sweep"):
            SweepService(cache=False).run(42)

    def test_uncacheable_cells_always_recompute(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "cache")
        first = service.run([_object_policy_cell()])
        second = service.run([_object_policy_cell()])
        assert first.n_ran == 1 and second.n_ran == 1
        assert first.results[0].fingerprint() is None

    def test_shared_executor_results_match_serial(self):
        import os

        from repro.session import resolve_backend

        reference = Session.run_many(_matrix_cells())
        engine = resolve_backend("executor", "shared")(
            max_workers=min(2, os.cpu_count() or 1),
        )
        results = engine(_matrix_cells())
        for ref, got in zip(reference, results):
            assert _serialize(got) == _serialize(ref)


# --- SWF output round trip ---------------------------------------------------
class TestSwfOutput:
    def test_json_swf_round_trip(self, tmp_path):
        from repro.cluster.traceio import load_swf, save_swf
        from repro.workloads.sources import SyntheticSource

        batch = SyntheticSource(
            WorkloadParams(horizon_h=24.0, total_gpus=16)
        ).generate(seed=3)
        path = save_swf(batch.to_jobs(), tmp_path / "w.swf")
        back = load_swf(path, model=batch.models[0].name)
        assert len(back) == len(batch)
        assert np.array_equal(back.job_ids, batch.job_ids)
        shifted = batch.submit_h - batch.submit_h.min()
        assert np.allclose(back.submit_h, shifted, atol=1e-9)
        assert np.allclose(back.duration_h, batch.duration_h, atol=1e-9)
        assert np.array_equal(back.n_gpus, batch.n_gpus)

    def test_cli_convert_to_swf_and_back(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "w.json"
        assert main(
            ["workload", "generate", "--backend", "synthetic",
             "--out", str(source), "--days", "1", "--gpus", "8"]
        ) == 0
        swf = tmp_path / "w.swf"
        assert main(["workload", "convert", str(source), str(swf)]) == 0
        assert swf.read_text().lstrip().startswith(";")
        back = tmp_path / "back.json"
        assert main(["workload", "convert", str(swf), str(back)]) == 0
        original = json.loads(source.read_text())["jobs"]
        returned = json.loads(back.read_text())["jobs"]
        assert len(returned) == len(original)
        for a, b in zip(original, returned):
            assert a["job_id"] == b["job_id"]
            assert a["n_gpus"] == b["n_gpus"]
            assert b["duration_h"] == pytest.approx(a["duration_h"])

    def test_generate_still_rejects_swf_out(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["workload", "generate", "--backend", "synthetic",
             "--out", str(tmp_path / "w.swf")]
        )
        assert code == 2
        assert "JSON schema" in capsys.readouterr().err


# --- CLI ---------------------------------------------------------------------
class TestSweepCli:
    @pytest.fixture()
    def spec_path(self, tmp_path) -> pathlib.Path:
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(_SPEC_MAPPING))
        return path

    def test_plan_run_cache_cycle(self, spec_path, tmp_path, capsys):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        assert main(["sweep", "plan", str(spec_path)]) == 0
        assert "4 cells -> 4 unique" in capsys.readouterr().out
        assert main(["sweep", "run", str(spec_path), "--cache-dir", cache_dir]) == 0
        assert "4 ran" in capsys.readouterr().out
        assert main(["sweep", "run", str(spec_path), "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "4 served from cache" in out and "0 ran" in out
        assert main(["sweep", "cache", "--cache-dir", cache_dir]) == 0
        assert "4 result(s)" in capsys.readouterr().out
        # A stale tmp dropping from a killed writer gets swept too,
        # and the clearance message itemizes all three removal kinds.
        results = pathlib.Path(cache_dir) / "results"
        shard = next(p for p in results.iterdir() if p.is_dir())
        (shard / "orphan.tmp").write_text("", encoding="utf-8")
        assert main(
            ["sweep", "cache", "--cache-dir", cache_dir, "--clear"]
        ) == 0
        out = capsys.readouterr().out
        assert "cleared 4 cached result(s), 1 stale temp file(s)" in out
        assert "empty shard dir(s)" in out

    def test_no_cache_conflicts_with_cache_dir(self, spec_path, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["sweep", "run", str(spec_path), "--no-cache",
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 2
        assert "sweep error" in capsys.readouterr().err

    def test_bad_spec_reports_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**_SPEC_MAPPING, "axes": {"sytem": ["x"]}}))
        assert main(["sweep", "run", str(bad)]) == 2
        assert "sweep error" in capsys.readouterr().err

    def test_non_finite_window_fails_before_any_cell_runs(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "window.json"
        # json.dumps spells float("inf") as the Infinity literal.
        spec.write_text(json.dumps({
            "name": "inf-window",
            "base": {
                "node": "V100", "region": "ESO", "seed": 7,
                "workload": "synthetic",
                "workload_opts": {"horizon_h": 24.0, "total_gpus": 8},
                "cluster": 2,
            },
            "axes": {"window_h": [24.0, float("inf")]},
        }))
        assert main(["sweep", "run", str(spec), "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert "sweep error" in captured.err
        assert "window must be positive and finite" in captured.err
        assert "cell 0" not in captured.out


# --- fingerprint plumbing ----------------------------------------------------
class TestFingerprintPlumbing:
    def test_replace_preserves_equality_semantics(self):
        result = _cell(*_MATRIX[0]).run()
        stripped = dataclasses.replace(result, provenance_hash=None)
        assert stripped == result  # compare=False: cache hits stay equal

    def test_jobbatch_content_digest_tracks_content(self):
        from repro.workloads.sources import SyntheticSource

        params = WorkloadParams(horizon_h=24.0, total_gpus=8)
        a = SyntheticSource(params).generate(seed=3)
        b = SyntheticSource(params).generate(seed=3)
        c = SyntheticSource(params).generate(seed=4)
        assert a.content_digest() == b.content_digest()
        assert a.content_digest() != c.content_digest()

    def test_batch_memo_reuses_equal_draws(self):
        from repro.workloads.sources import SyntheticSource

        params = WorkloadParams(horizon_h=24.0, total_gpus=8)
        a = SyntheticSource(params).generate(seed=5)
        b = SyntheticSource(params).generate(seed=5)
        assert a is b  # the sweep batch-reuse contract
        assert SyntheticSource(params).generate(seed=6) is not a
