"""Section-level delta evaluation: fingerprints, section tier, assembly.

The load-bearing pins:

* **soundness** — any knob change that alters a section's serialized
  output also changes that section's fingerprint (hypothesis-pinned:
  no stale-reuse hole);
* **insensitivity** — unrelated knobs leave section fingerprints
  untouched (changing ``renderer`` changes *no* section fingerprint;
  changing ``simulator`` changes only ``cluster`` + the rollup), so
  the delta path actually reuses work;
* **byte-identity** — a delta-assembled :class:`ScenarioResult`
  serializes to exactly the bytes a full recompute produces, across
  every cached-section combination;
* **section tier** — the ``(section, fingerprint)`` cache obeys the
  same LRU/atomic-write/fail-soft contract as the whole-result tier;
  its scheduling and upgrade payloads carry the ledgers the carbon
  rollup reads, bit for bit, so a delta pass in a fresh process
  recomputes no cached section.
"""

from __future__ import annotations

import collections
import json
import multiprocessing
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.accounting import CarbonLedger
from repro.accounting.ledger import KINDS
from repro.cluster import WorkloadParams
from repro.core.errors import SweepError
from repro.intensity.api import CarbonIntensityService
from repro.session import Scenario, Session
from repro.session.fingerprint import (
    KNOB_SECTIONS,
    RESULT_SECTIONS,
    SECTION_KNOBS,
    _SCENARIO_KNOBS,
)
from repro.session.result import (
    SchedulingSection,
    ScenarioResult,
    dump_section,
    load_section,
)
from repro.sweep import ResultCache, SweepService
from repro.sweep.cache import default_memory_slots


def _scenario(**over) -> Scenario:
    """A small but fully-featured cell: all six sections populated."""
    knobs = {
        "system": "frontier",
        "region": "ESO",
        "node": "V100",
        "policy": "carbon-oblivious",
        "pue": 1.25,
        "seed": 7,
        "renderer": "text",
    }
    knobs.update(over)
    scenario = (
        Scenario()
        .system(knobs["system"])
        .region(knobs["region"])
        .node(knobs["node"])
        .policy(knobs["policy"])
        .workload(
            WorkloadParams(
                horizon_h=24.0, total_gpus=8, home_region=knobs["region"]
            ),
            seed=knobs.get("workload_seed", 11),
        )
        .seed(knobs["seed"])
        .pue(knobs["pue"])
        .renderer(knobs["renderer"])
        .training("BERT", epochs=1)
        .cluster(
            knobs.get("cluster_nodes", 4),
            simulator=knobs.get("simulator", "fcfs"),
        )
        .window(hours=24)
    )
    if "accounting" in knobs:
        scenario = scenario.accounting(knobs["accounting"])
    if "lifetime_years" in knobs:
        scenario = scenario.lifetime(knobs["lifetime_years"])
    return scenario


def _canon(result: ScenarioResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _warm(cache: ResultCache, scenario: Scenario) -> ScenarioResult:
    """Run ``scenario`` through the delta path and write sections back."""
    result = scenario.build().run(reuse=cache)
    for name, (fp, payload) in (result.fresh_sections or {}).items():
        cache.put_section(name, fp, payload)
    return result


class TestSectionFingerprints:
    def test_every_scenario_knob_is_mapped(self):
        assert set(KNOB_SECTIONS) == set(_SCENARIO_KNOBS)

    def test_inversion_round_trips(self):
        for section, knobs in SECTION_KNOBS.items():
            for knob in knobs:
                if section == "carbon":
                    assert KNOB_SECTIONS[knob]  # feeds some section
                else:
                    assert section in KNOB_SECTIONS[knob]

    def test_carbon_is_the_union_of_the_six(self):
        union = set()
        for name in RESULT_SECTIONS[:-1]:
            union.update(SECTION_KNOBS[name])
        assert set(SECTION_KNOBS["carbon"]) == union

    def test_renderer_changes_no_section_fingerprint(self):
        base = _scenario().build().section_fingerprints()
        other = _scenario(renderer="json").build().section_fingerprints()
        assert base == other

    def test_simulator_changes_only_cluster_and_carbon(self):
        base = _scenario().build().section_fingerprints()
        other = (
            _scenario(simulator="columnar").build().section_fingerprints()
        )
        changed = {name for name in base if base[name] != other[name]}
        assert changed == {"cluster", "carbon"}

    def test_pue_spares_embodied(self):
        base = _scenario().build().section_fingerprints()
        other = _scenario(pue=1.5).build().section_fingerprints()
        unchanged = {name for name in base if base[name] == other[name]}
        assert "embodied" in unchanged
        assert base["scheduling"] != other["scheduling"]
        assert base["carbon"] != other["carbon"]

    def test_unknown_section_raises(self):
        session = _scenario().build()
        from repro.session.fingerprint import section_fingerprint

        with pytest.raises(SweepError, match="unknown result section"):
            section_fingerprint(session, "renderer")

    @given(
        knob=st.sampled_from(
            [
                ("seed", 7, 8),
                ("pue", 1.25, 1.5),
                ("region", "ESO", "CISO"),
                ("node", "V100", "A100"),
                ("cluster_nodes", 4, 6),
                ("simulator", "fcfs", "columnar"),
                ("workload_seed", 11, 12),
                ("lifetime_years", 5.0, 4.0),
                ("accounting", "vectorized", "ledger"),
            ]
        )
    )
    @settings(deadline=None, max_examples=9)
    def test_output_altering_knobs_alter_the_fingerprint(self, knob):
        """Soundness: if flipping a knob changes a section's serialized
        payload, that section's fingerprint changed too — the pin that
        makes stale reuse impossible."""
        name, a, b = knob
        left = _scenario(**{name: a}).build()
        right = _scenario(**{name: b}).build()
        fps_l, fps_r = (
            left.section_fingerprints(),
            right.section_fingerprints(),
        )
        res_l, res_r = left.run(), right.run()
        dict_l, dict_r = res_l.to_dict(), res_r.to_dict()
        for section in RESULT_SECTIONS:
            payload_l = json.dumps(dict_l[section], sort_keys=True)
            payload_r = json.dumps(dict_r[section], sort_keys=True)
            if payload_l != payload_r:
                assert fps_l[section] != fps_r[section], (
                    f"{name}: {section} output changed but its "
                    "fingerprint did not (stale-reuse hole)"
                )

    @given(renderer=st.sampled_from(["text", "json", "markdown"]))
    @settings(deadline=None, max_examples=3)
    def test_insensitive_to_renderer(self, renderer):
        base = _scenario().build().section_fingerprints()
        other = _scenario(renderer=renderer).build().section_fingerprints()
        assert base == other


class TestDeltaAssembly:
    def test_cold_delta_equals_full(self, tmp_path):
        full = _scenario().build().run()
        delta = _scenario().build().run(reuse=ResultCache(tmp_path / "c"))
        assert _canon(delta) == _canon(full)
        assert set(delta.fresh_sections) == set(RESULT_SECTIONS)

    @pytest.mark.parametrize(
        "over, expect_fresh",
        [
            ({"renderer": "json"}, set()),
            (
                {"pue": 1.5},
                {"audit", "training", "scheduling", "cluster", "upgrade",
                 "carbon"},
            ),
            ({"simulator": "columnar"}, {"cluster", "carbon"}),
            (
                {"node": "A100"},
                {"embodied", "training", "scheduling", "cluster", "carbon"},
            ),
        ],
    )
    def test_warm_delta_equals_full(self, tmp_path, over, expect_fresh):
        """After warming on the base cell, a knob flip recomputes only
        the dependent sections — byte-identical to a full run.  (A stale
        carbon rollup reads the ledger the cached scheduling payload
        carries, so scheduling stays served.)"""
        cache = ResultCache(tmp_path / "c")
        _warm(cache, _scenario())
        delta = _scenario(**over).build().run(reuse=cache)
        full = _scenario(**over).build().run()
        assert _canon(delta) == _canon(full)
        fresh = {n for n, (_, p) in delta.fresh_sections.items()}
        assert fresh == expect_fresh

    def test_absent_sections_round_trip(self, tmp_path):
        """A scenario without training/cluster caches ``None`` payloads
        and reassembles without resurrecting the missing sections."""
        cache = ResultCache(tmp_path / "c")

        def bare() -> Scenario:
            return (
                Scenario()
                .system("frontier")
                .region("ESO")
                .node("V100")
                .policy("carbon-oblivious")
                .workload(
                    WorkloadParams(
                        horizon_h=24.0, total_gpus=8, home_region="ESO"
                    ),
                    seed=11,
                )
                .seed(7)
            )

        _warm(cache, bare())
        delta = bare().renderer("json").build().run(reuse=cache)
        full = bare().renderer("json").build().run()
        assert _canon(delta) == _canon(full)
        assert delta.training is None and delta.cluster is None
        assert delta.fresh_sections == {}

    @given(drop=st.sets(st.sampled_from(RESULT_SECTIONS), max_size=4))
    @settings(
        deadline=None,
        max_examples=12,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_cached_subset_assembles_identically(self, tmp_path, drop):
        """Byte-identity across arbitrary cached-section combinations:
        whatever subset of sections is missing from the cache, the
        assembled result matches the full recompute."""
        root = tmp_path / "-".join(sorted(drop) or ["none"])
        cache = ResultCache(root)
        full = _warm(cache, _scenario())
        fps = _scenario().build().section_fingerprints()
        for section in drop:
            path = (
                root / "sections" / section / fps[section][:2]
                / f"{fps[section]}.json"
            )
            path.unlink()
        cache_fresh = ResultCache(root)  # cold memory tier: disk only
        delta = _scenario().build().run(reuse=cache_fresh)
        assert _canon(delta) == _canon(full)

    def test_memory_hit_equals_disk_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        _warm(cache, _scenario())
        via_memory = _scenario().build().run(reuse=cache)
        via_disk = _scenario().build().run(reuse=ResultCache(tmp_path / "c"))
        assert _canon(via_memory) == _canon(via_disk)

    def test_uncacheable_session_falls_back_to_full(self, tmp_path):
        from repro.session import resolve_backend

        service = resolve_backend("intensity", "constant")(
            value=100.0, regions=("ESO",), seed=0
        )
        policy = resolve_backend("policy", "carbon-oblivious")(
            service, "ESO", regions=None
        )
        scenario = (
            Scenario()
            .system("frontier")
            .region("ESO")
            .node("V100")
            .policy(policy)
            .workload(
                WorkloadParams(
                    horizon_h=24.0, total_gpus=8, home_region="ESO"
                ),
                seed=11,
            )
            .seed(7)
        )
        cache = ResultCache(tmp_path / "c")
        result = scenario.build().run(reuse=cache)
        assert result.fresh_sections is None  # full path: no delta ran
        assert _canon(result) == _canon(scenario.build().run())

    def test_load_section_rejects_unknown_name(self):
        with pytest.raises(KeyError):
            load_section("renderer", {})


class TestSectionTier:
    def test_hit_miss_and_absent_are_distinct(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fp = "ab" * 32
        assert cache.get_section("training", fp) == (False, None)
        cache.put_section("training", fp, None)  # absent section
        assert cache.get_section("training", fp) == (True, None)
        stats = cache.section_stats["training"]
        assert (stats.hits, stats.misses) == (1, 1)

    def test_disk_round_trip_and_corruption_fails_soft(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fp = "cd" * 32
        cache.put_section("embodied", fp, {"total_g": 1.0})
        fresh = ResultCache(tmp_path / "c")
        assert fresh.get_section("embodied", fp) == (True, {"total_g": 1.0})
        path = tmp_path / "c" / "sections" / "embodied" / fp[:2] / f"{fp}.json"
        path.write_text("{ torn", encoding="utf-8")
        damaged = ResultCache(tmp_path / "c")
        assert damaged.get_section("embodied", fp) == (False, None)
        assert damaged.section_stats["embodied"].errors == 1

    def test_schema_and_key_mismatches_fail_soft(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fp = "ef" * 32
        cache.put_section("audit", fp, {"x": 1})
        path = tmp_path / "c" / "sections" / "audit" / fp[:2] / f"{fp}.json"
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["schema"] = 999
        path.write_text(json.dumps(entry), encoding="utf-8")
        fresh = ResultCache(tmp_path / "c")
        assert fresh.get_section("audit", fp) == (False, None)
        assert fresh.section_stats["audit"].errors == 1

    def test_unknown_section_and_bad_payload_raise(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        with pytest.raises(SweepError, match="unknown result section"):
            cache.put_section("nope", "ab" * 32, {})
        with pytest.raises(SweepError, match="to_dict mappings"):
            cache.put_section("audit", "ab" * 32, [1, 2])

    def test_memory_lru_evicts_across_sections(self):
        cache = ResultCache(None, memory_slots=2)
        cache.put_section("embodied", "a" * 64, {"v": 1})
        cache.put_section("audit", "b" * 64, {"v": 2})
        cache.put_section("carbon", "c" * 64, {"v": 3})  # evicts embodied
        assert cache.get_section("embodied", "a" * 64) == (False, None)
        assert cache.section_stats["embodied"].evictions == 1
        assert cache.get_section("carbon", "c" * 64) == (True, {"v": 3})

    def test_memory_only_puts_never_touch_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put_section("training", "ab" * 32, {"v": 1}, disk=False)
        assert not (tmp_path / "c").exists()
        # ... but the memory tier still serves it back.
        assert cache.get_section("training", "ab" * 32) == (True, {"v": 1})

    def test_has_section_is_stat_free(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        fp = "ab" * 32
        assert not cache.has_section("cluster", fp)
        cache.put_section("cluster", fp, {"v": 1})
        assert cache.has_section("cluster", fp)
        fresh = ResultCache(tmp_path / "c")
        assert fresh.has_section("cluster", fp)  # disk peek
        stats = fresh.section_stats["cluster"]
        assert (stats.hits, stats.misses) == (0, 0)

    def test_section_entries_enumerates_disk(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put_section("embodied", "ab" * 32, {"v": 1})
        cache.put_section("carbon", "cd" * 32, None)
        listed = [(s, fp) for s, fp, _path in cache.section_entries()]
        assert listed == [("embodied", "ab" * 32), ("carbon", "cd" * 32)]


_REGION_CODES = st.sampled_from(["ESO", "CISO", "PJM", None])
_GRAMS = st.floats(
    min_value=0.0, max_value=1e15, allow_nan=False, allow_infinity=False
)


@st.composite
def _ledger_batches(draw):
    """``add_batch`` keyword sets: mixed, repeated and ``None`` regions
    (shared or per entry), several policies and repeated job ids."""
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 6))
        column = st.lists(_GRAMS, min_size=n, max_size=n)
        batches.append(
            {
                "kind": draw(st.sampled_from(KINDS)),
                "carbon_g": np.asarray(draw(column), dtype=float),
                "energy_kwh": draw(
                    st.none() | column.map(lambda v: np.asarray(v, dtype=float))
                ),
                "labels": draw(
                    st.none()
                    | st.lists(
                        st.text("job:0123456789", max_size=6),
                        min_size=n, max_size=n,
                    )
                ),
                "regions": draw(
                    _REGION_CODES
                    | st.lists(_REGION_CODES, min_size=n, max_size=n)
                ),
                "policy": draw(
                    st.sampled_from(["carbon-oblivious", "geographic", "keep", None])
                ),
                "job_ids": draw(
                    st.none()
                    | st.lists(st.integers(0, 5), min_size=n, max_size=n).map(
                        np.asarray
                    )
                ),
            }
        )
    return batches


def _ledger_bits(ledger: CarbonLedger) -> dict:
    """Every attribution table, total and entry, floats as ``float.hex``
    and tables in their insertion order."""

    def table(values) -> list:
        return [(key, grams.hex()) for key, grams in values.items()]

    return {
        "by_region": table(ledger.by_region()),
        "by_policy": table(ledger.by_policy()),
        "by_kind": table(ledger.by_kind()),
        "by_job": table(ledger.by_job()),
        "totals": [
            ledger.total_carbon_g.hex(),
            ledger.total_energy_kwh.hex(),
            ledger.operational_g.hex(),
            ledger.embodied_g.hex(),
        ],
        "entries": [
            (e.kind, e.label, e.carbon_g.hex(), e.energy_kwh.hex(), e.region,
             e.policy, e.job_id)
            for e in ledger
        ],
    }


class TestLedgerColumns:
    @given(batches=_ledger_batches())
    @settings(deadline=None, max_examples=60)
    def test_section_entry_round_trip_is_bit_identical(self, batches):
        """A ledger written with a scheduling section entry and read back
        from disk by a fresh cache attributes every gram identically."""
        ledger = CarbonLedger()
        for batch in batches:
            ledger.add_batch(batch.pop("kind"), **batch)
        section = SchedulingSection(
            baseline="carbon-oblivious", n_jobs=0, gpu_hours=0.0,
            outcomes=(), ledger=ledger,
        )
        fp = "ab" * 32
        with tempfile.TemporaryDirectory() as root:
            ResultCache(root).put_section(
                "scheduling", fp, dump_section("scheduling", section)
            )
            hit, payload = ResultCache(root).get_section("scheduling", fp)
        assert hit
        rebuilt = load_section("scheduling", payload)
        assert rebuilt == section  # the serialized fields
        assert rebuilt.ledger is not ledger
        assert _ledger_bits(rebuilt.ledger) == _ledger_bits(ledger)

    def test_to_dict_carries_no_ledger(self):
        result = _scenario().build().run()
        payload = result.to_dict()["scheduling"]
        assert "ledger" not in payload
        assert dump_section("scheduling", result.scheduling) == {
            **payload, "ledger": result.scheduling.ledger.to_columns()
        }
        assert dump_section("cluster", result.cluster) == (
            result.to_dict()["cluster"]
        )


def _simulator_grid(simulator: str) -> list:
    """Four small cells: two systems x two regions, sharing each
    region's scheduling and upgrade sections."""
    return [
        Scenario()
        .system(system)
        .node("A100")
        .region(region)
        .seed(7)
        .workload("synthetic", seed=11, horizon_h=24.0, total_gpus=8)
        .policies(["temporal-shifting", "geographic"])
        .upgrade("V100", "A100")
        .cluster(2, simulator=simulator)
        for system in ("frontier", "lumi")
        for region in ("ESO", "CISO")
    ]


#: The calls a delta pass that flips only the simulator must not make.
_RECOMPUTES = (
    (Session, "_run_scheduling"),
    (Session, "_run_upgrade"),
    (CarbonIntensityService, "_build_score_table"),
)


def _log_calls(monkeypatch, log: pathlib.Path, calls=_RECOMPUTES) -> None:
    """Append ``"<name> <pid>"`` to ``log`` for each call to an ``(owner,
    attr)`` of ``calls`` (a class or a module); pool workers forked from
    this process log theirs too."""
    for owner, attr in calls:
        original = owner.__dict__[attr]

        def logging(*args, _original=original, _attr=attr, **kwargs):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{_attr} {os.getpid()}\n")
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, logging)


def _logged(log: pathlib.Path) -> collections.Counter:
    """Logged call counts by name, over every process."""
    if not log.exists():
        return collections.Counter()
    lines = log.read_text(encoding="utf-8").splitlines()
    return collections.Counter(line.split()[0] for line in lines)


class TestFreshProcessDelta:
    @pytest.mark.parametrize("executor", ["serial", "shared"])
    def test_delta_after_memo_clear_recomputes_no_cached_section(
        self, executor, tmp_path, monkeypatch
    ):
        """What a fresh ``sweep run --delta`` process sees: the memos are
        empty, and the scheduling and upgrade sections come from the
        section tier with their ledgers, so only the cluster and the
        rollup run.  Both engines match a cache-free run byte for byte."""
        monkeypatch.setenv("REPRO_HPC_CACHE_DIR", str(tmp_path / "env"))
        options = (
            {} if executor == "serial"
            else {"executor": "shared", "max_workers": 2}
        )
        log = tmp_path / "calls.log"
        _log_calls(monkeypatch, log)
        # Pool workers inherit the logging wrappers only when forked.
        logs_workers = (
            executor == "serial" or multiprocessing.get_start_method() == "fork"
        )
        repro.memo_clear()
        cold = SweepService(cache_dir=tmp_path / "c").run(
            _simulator_grid("fcfs"), **options
        )
        if logs_workers:
            assert set(_logged(log)) == {attr for _, attr in _RECOMPUTES}
        log.unlink(missing_ok=True)
        repro.memo_clear()
        delta = SweepService(cache_dir=tmp_path / "c").run(
            _simulator_grid("backfill"), **options
        )
        assert cold.ok and delta.ok and delta.n_ran == 4
        assert _logged(log) == collections.Counter()
        reference = SweepService(cache=False)
        for report, simulator in ((cold, "fcfs"), (delta, "backfill")):
            truth = reference.run(_simulator_grid(simulator))
            assert [_canon(r) for r in report.results] == [
                _canon(r) for r in truth.results
            ]
        served = delta.results[0].scheduling
        assert served.evaluations is None and served.ledger is not None


class TestForkedPoolWorkers:
    def test_only_the_parent_generates_traces(self, tmp_path, monkeypatch):
        """Planning builds every cell's session, whose intensity service
        fills the trace memo before the pool starts, so forked workers
        inherit each trace: the parent generates the seed's seven Table 3
        traces once and no worker generates any."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("pool workers inherit the parent's memo only when forked")
        from repro.intensity import generator

        log = tmp_path / "calls.log"
        _log_calls(monkeypatch, log, calls=((generator, "generate_trace"),))
        repro.memo_clear()
        report = SweepService(cache=False).run(
            _simulator_grid("fcfs"), executor="process", max_workers=2
        )
        assert report.ok and report.n_ran == 4
        by_process = log.read_text(encoding="utf-8").splitlines()
        assert by_process == [f"generate_trace {os.getpid()}"] * 7


class _PlainPayloads:
    """A ``reuse`` object serving ``to_dict`` payloads: scheduling hits
    without the ledger the section tier stores with them."""

    def __init__(self, cache: ResultCache) -> None:
        self._cache = cache

    def get_section(self, name, fingerprint):
        hit, payload = self._cache.get_section(name, fingerprint)
        if hit and name == "scheduling" and payload is not None:
            payload = {k: v for k, v in payload.items() if k != "ledger"}
        return hit, payload


class TestLedgerFallback:
    def _count_scheduling(self, monkeypatch) -> dict:
        calls = {"scheduling": 0}
        original = Session.__dict__["_run_scheduling"]

        def counting(self, jobs):
            calls["scheduling"] += 1
            return original(self, jobs)

        monkeypatch.setattr(Session, "_run_scheduling", counting)
        return calls

    def test_schema_1_section_entry_is_a_miss(self, tmp_path, monkeypatch):
        """An entry written before payloads carried ledgers reads as a
        miss, so the section is recomputed and written afresh."""
        root = tmp_path / "c"
        cache = ResultCache(root)
        _warm(cache, _scenario())
        fp = _scenario().build().section_fingerprints()["scheduling"]
        path = root / "sections" / "scheduling" / fp[:2] / f"{fp}.json"
        entry = json.loads(path.read_text(encoding="utf-8"))
        del entry["payload"]["ledger"]
        entry["schema"] = 1
        path.write_text(json.dumps(entry, sort_keys=True), encoding="utf-8")
        fresh = ResultCache(root)
        assert fresh.get_section("scheduling", fp) == (False, None)
        assert fresh.section_stats["scheduling"].errors == 1
        calls = self._count_scheduling(monkeypatch)
        delta = _scenario(simulator="columnar").build().run(reuse=fresh)
        assert calls["scheduling"] == 1
        assert "scheduling" in delta.fresh_sections
        assert _canon(delta) == _canon(
            _scenario(simulator="columnar").build().run()
        )

    def test_a_hit_without_its_ledger_is_recomputed(self, monkeypatch):
        expected = _canon(_scenario(simulator="columnar").build().run())
        cache = ResultCache()
        _warm(cache, _scenario())
        calls = self._count_scheduling(monkeypatch)
        delta = _scenario(simulator="columnar").build().run(
            reuse=_PlainPayloads(cache)
        )
        assert calls["scheduling"] == 1
        # The recomputed hit needs no write; the stale rollup does.
        assert set(delta.fresh_sections) == {"cluster", "carbon"}
        assert delta.scheduling.evaluations is not None
        served = _scenario(simulator="columnar").build().run(reuse=cache)
        assert calls["scheduling"] == 1
        assert served.scheduling.evaluations is None
        assert _canon(delta) == _canon(served) == expected


class TestMemorySlotKnobs:
    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_HPC_CACHE_MEM", "3")
        assert default_memory_slots() == 3
        assert ResultCache(None).memory_slots == 3

    def test_env_var_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_HPC_CACHE_MEM", "many")
        with pytest.raises(SweepError, match="must be an integer"):
            default_memory_slots()
        monkeypatch.setenv("REPRO_HPC_CACHE_MEM", "-1")
        with pytest.raises(SweepError, match=">= 0"):
            default_memory_slots()

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_HPC_CACHE_MEM", "3")
        assert ResultCache(None, memory_slots=9).memory_slots == 9


def _grid(renderers, pues=(1.1, 1.25)):
    return {
        "name": "delta-grid",
        "base": {
            "system": "frontier",
            "node": "V100",
            "region": "ESO",
            "seed": 7,
            "workload": "synthetic",
            "workload_opts": {"horizon_h": 24.0, "total_gpus": 8},
            "workload_seed": 11,
            "policies": ["carbon-oblivious"],
            "window_h": 24.0,
        },
        "axes": {"pue": list(pues), "renderer": list(renderers)},
    }


class TestServiceDelta:
    def test_delta_defaults_follow_the_cache(self, tmp_path):
        assert SweepService(cache_dir=tmp_path / "c").delta
        assert not SweepService(cache=False).delta
        with pytest.raises(SweepError, match="needs the result cache"):
            SweepService(cache=False, delta=True)

    def test_run_rejects_forced_delta_without_cache(self):
        with pytest.raises(SweepError, match="needs the result cache"):
            SweepService(cache=False).run(_grid(["text"]), delta=True)

    def test_delta_run_matches_direct(self, tmp_path):
        direct = SweepService(cache=False)
        truth = direct.run(_grid(["json", "markdown"]))
        service = SweepService(cache_dir=tmp_path / "c")
        service.run(_grid(["text"]))  # warm the section tier
        report = service.run(_grid(["json", "markdown"]))
        assert report.n_ran == 4  # every cell misses the whole-result tier
        assert [_canon(r) for r in report.results] == [
            _canon(r) for r in truth.results
        ]
        hits = sum(s.hits for s in report.section_stats.values())
        misses = sum(s.misses for s in report.section_stats.values())
        assert (hits, misses) == (4 * len(RESULT_SECTIONS), 0)
        assert any("sections:" in line for line in report.summary_lines())

    def test_no_delta_reports_no_section_stats(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "c", delta=False)
        report = service.run(_grid(["text"]))
        assert report.section_stats is None
        assert not any(
            line.startswith("sections:") for line in report.summary_lines()
        )

    @staticmethod
    def _builds_per_pass(service, monkeypatch):
        """``(cells run, Scenario.build calls)`` of a cold, a warm and a
        simulator-flipped pass over two cells; the last pass's results
        must equal a cache-free run's."""
        calls = {"build": 0}
        original = Scenario.build

        def counting(self):
            calls["build"] += 1
            return original(self)

        monkeypatch.setattr(Scenario, "build", counting)
        passes = []
        for simulator in ("fcfs", "fcfs", "fcfs-columnar"):  # cold, warm, delta
            cells = [
                _scenario(system=system, simulator=simulator)
                for system in ("frontier", "lumi")
            ]
            calls["build"] = 0
            report = service.run(cells)
            passes.append((report.n_ran, calls["build"]))
        truth = SweepService(cache=False).run(cells)
        assert [_canon(r) for r in report.results] == [
            _canon(r) for r in truth.results
        ]
        return passes

    def test_each_computed_cell_builds_once(self, tmp_path, monkeypatch):
        # Planning builds every cell, and a computed cell runs the
        # planned session: each pass builds each of the two cells once.
        service = SweepService(cache_dir=tmp_path / "c")
        passes = self._builds_per_pass(service, monkeypatch)
        assert passes == [(2, 2), (0, 2), (2, 2)]

    @pytest.mark.parametrize("mode", ["cache-off", "delta-off"])
    def test_each_computed_cell_builds_once_without_delta(
        self, tmp_path, monkeypatch, mode
    ):
        # Passes that read no section tier run the planned session too.
        if mode == "cache-off":
            service = SweepService(cache=False)
            expected = [(2, 2), (2, 2), (2, 2)]
        else:
            service = SweepService(cache_dir=tmp_path / "c", delta=False)
            expected = [(2, 2), (0, 2), (2, 2)]
        assert self._builds_per_pass(service, monkeypatch) == expected

    def test_plan_predicts_section_hits(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "c")
        cold = service.plan(_grid(["text"]))
        assert all(
            not any(hit for _, hit in unit.section_hits)
            for unit in cold.units
        )
        service.run(_grid(["text"]))
        warm = service.plan(_grid(["json"]))
        for unit in warm.units:
            assert all(hit for _, hit in unit.section_hits)
        assert any(
            "sections: 7/7 cached" in line for line in warm.summary_lines()
        )
        # Stale sections are named in the plan line.
        partial = service.plan(_grid(["text"], pues=(1.4, 1.25)))
        lines = "\n".join(partial.summary_lines())
        assert "(stale:" in lines

    def test_plan_without_delta_skips_annotation(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "c")
        plan = service.plan(_grid(["text"]), delta=False)
        assert all(unit.section_hits is None for unit in plan.units)

    def test_process_executor_delta_matches_direct(self, tmp_path):
        truth = SweepService(cache=False).run(_grid(["json"]))
        service = SweepService(cache_dir=tmp_path / "c")
        service.run(_grid(["text"]))
        report = service.run(
            _grid(["json"]), executor="process", max_workers=2
        )
        assert [_canon(r) for r in report.results] == [
            _canon(r) for r in truth.results
        ]

    def test_process_delta_reports_section_counts_like_serial(
        self, tmp_path
    ):
        """Pooled units report the section reuse their workers saw.

        One renderer flip (every section reused) and one pue flip (the
        charged sections and the rollup stale), so no stale section is
        shared between cells and both engines recompute the same ones.
        """
        counts = {}
        for executor in ("serial", "process"):
            service = SweepService(cache_dir=tmp_path / executor)
            service.run(_grid(["text"]))
            report = service.run(
                _grid(["json"], pues=(1.1, 1.4)),
                executor=executor,
                max_workers=2,
            )
            counts[executor] = {
                name: (stats.hits, stats.misses)
                for name, stats in report.section_stats.items()
            }
        assert counts["process"] == counts["serial"]
        assert sum(hits for hits, _ in counts["serial"].values()) == 8
        assert sum(misses for _, misses in counts["serial"].values()) == 6

    def test_resilient_delta_crash_resume(self, tmp_path):
        """A delta unit that crashes retries/journals like a full unit,
        and the resumed run completes from the journal + section tier."""
        journal = tmp_path / "journal.jsonl"
        service = SweepService(cache_dir=tmp_path / "c")
        service.run(_grid(["text"]))  # populate the section tier
        crashing = service.run(
            _grid(["json", "markdown"]),
            journal=journal,
            faults={"kind": "scripted", "crash_at": 1, "attempts": 99},
        )
        assert crashing.failures  # the scripted crash exhausted retries
        done_before = sum(1 for r in crashing.results if r is not None)
        resumed = service.run(_grid(["json", "markdown"]), resume=journal)
        assert resumed.ok
        assert all(r is not None for r in resumed.results)
        truth = SweepService(cache=False).run(_grid(["json", "markdown"]))
        assert [_canon(r) for r in resumed.results] == [
            _canon(r) for r in truth.results
        ]
        assert done_before < len(resumed.results)

    def test_writeback_off_keeps_the_section_tier_clean(self, tmp_path):
        service = SweepService(cache_dir=tmp_path / "c")
        service.run(_grid(["text"]), cache_writeback=False)
        assert list(service.cache.section_entries()) == []


class TestDeltaCLI:
    def _write_spec(self, tmp_path) -> pathlib.Path:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_grid(["text"])), encoding="utf-8")
        return path

    def test_run_no_delta_flag(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        rc = main(
            [
                "sweep", "run", str(spec),
                "--cache-dir", str(tmp_path / "c"), "--no-delta",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "sections:" not in out
        assert list(
            ResultCache(tmp_path / "c").section_entries()
        ) == []

    def test_run_delta_reports_sections(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        assert main(
            ["sweep", "run", str(spec), "--cache-dir", str(tmp_path / "c")]
        ) == 0
        out = capsys.readouterr().out
        assert "sections:" in out
        assert main(
            [
                "sweep", "run", str(spec),
                "--cache-dir", str(tmp_path / "c"), "--delta",
            ]
        ) == 0

    def test_run_delta_with_no_cache_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        rc = main(["sweep", "run", str(spec), "--no-cache", "--delta"])
        assert rc == 2
        assert "needs the result cache" in capsys.readouterr().err

    def test_plan_shows_predicted_hits(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        assert main(
            ["sweep", "run", str(spec), "--cache-dir", str(tmp_path / "c")]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "plan", str(spec), "--cache-dir", str(tmp_path / "c")]
        ) == 0
        assert "sections: 7/7 cached" in capsys.readouterr().out

    def test_plan_no_delta_drops_prediction(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        assert main(["sweep", "plan", str(spec), "--no-delta"]) == 0
        assert "sections:" not in capsys.readouterr().out

    def test_cache_command_prints_section_tier(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        assert main(
            ["sweep", "run", str(spec), "--cache-dir", str(tmp_path / "c")]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "cache", "--cache-dir", str(tmp_path / "c")]
        ) == 0
        out = capsys.readouterr().out
        assert "section tier:" in out
        assert "memory tier:" in out
        assert "embodied" in out

    def test_cache_clear_counts_sections(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._write_spec(tmp_path)
        assert main(
            ["sweep", "run", str(spec), "--cache-dir", str(tmp_path / "c")]
        ) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "cache", "--cache-dir", str(tmp_path / "c"), "--clear"]
        ) == 0
        assert "cached section payload(s)" in capsys.readouterr().out
