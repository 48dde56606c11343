"""The carbon rollup of delta runs, served by the section tier.

A delta run whose carbon rollup is stale reads the ledgers of the
scheduling and upgrade sections.  Their section-tier payloads carry
those ledgers as plain JSON columns
(:func:`repro.session.result.dump_section`), so a cached copy serves
the rollup as well as a live one.  The pins:

* **counting** — a serial sweep computes each distinct scheduling and
  upgrade section once in its cold pass and none in a delta pass that
  flips only the simulator, even after every process-wide memo was
  emptied, byte-identical to a cache-free run;
* **no aliasing** — two results assembled from one cached ledger share
  no array and no ledger, so appending to one result's ledgers or
  writing into its columns never changes another;
* **soundness** — a cell the tier serves equals its cache-free run,
  under random knob flips.
"""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_delta import _canon, _scenario, _warm

import repro
from repro.session import Scenario, Session
from repro.sweep import ResultCache, SweepService


def _grid(simulator: str):
    """2 systems x 2 regions: system is in neither the scheduling nor the
    upgrade knob set, so each region's cells share both sections."""
    return [
        Scenario()
        .system(system)
        .node("A100")
        .region(region)
        .seed(7)
        .workload("synthetic", seed=11, horizon_h=24.0, total_gpus=8)
        .policy("geographic")
        .cluster(2, simulator=simulator)
        .upgrade("V100", "A100")
        for system in ("frontier", "lumi")
        for region in ("ESO", "CISO")
    ]


def _distinct(section: str, cells) -> int:
    return len({cell.build().section_fingerprints()[section] for cell in cells})


def _encode(results) -> str:
    return json.dumps([r.to_dict() for r in results], sort_keys=True)


def _count_runners(monkeypatch) -> dict:
    """Count calls of the scheduling and upgrade section runners."""
    calls = {"scheduling": 0, "upgrade": 0}
    for name in calls:
        original = Session.__dict__[f"_run_{name}"]

        def counting(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(Session, f"_run_{name}", counting)
    return calls


def _scheduling_cell(seed: int) -> Scenario:
    """A cell whose rollup reads only the scheduling section."""
    return (
        Scenario()
        .node("A100")
        .region("ESO")
        .seed(seed)
        .workload("synthetic", seed=11, horizon_h=24.0, total_gpus=8)
        .policy("temporal-shifting")
    )


def _cache_without_rollup(cell: Scenario) -> ResultCache:
    """A memory cache holding every section of ``cell`` but the rollup,
    so each delta run of ``cell`` rebuilds the rollup from the tier."""
    cache = ResultCache()
    result = cell.build().run(reuse=cache)
    for name, (fp, payload) in result.fresh_sections.items():
        if name != "carbon":
            cache.put_section(name, fp, payload)
    return cache


def _arrays(ledger):
    """The writable arrays behind ``ledger``'s batches (the read-only
    job columns of the workload memo may be shared: no one can write
    them)."""
    return [
        array
        for batch in ledger._batches
        for array in (batch.carbon_g, batch.energy_kwh, batch.job_ids)
        if array is not None and array.flags.writeable
    ]


class TestCounting:
    def test_cold_pass_once_per_section_and_delta_pass_none(
        self, tmp_path, monkeypatch
    ):
        repro.memo_clear()
        calls = _count_runners(monkeypatch)
        cold = SweepService(cache_dir=tmp_path / "c").run(_grid("fcfs"))
        expected = {
            name: _distinct(name, _grid("fcfs")) for name in calls
        }
        assert expected == {"scheduling": 2, "upgrade": 2}
        assert calls == expected
        calls.update(scheduling=0, upgrade=0)
        repro.memo_clear()
        delta = SweepService(cache_dir=tmp_path / "c").run(
            _grid("fcfs-columnar")
        )
        assert calls == {"scheduling": 0, "upgrade": 0}

        reference = SweepService(cache=False)
        assert _encode(cold.results) == _encode(
            reference.run(_grid("fcfs")).results
        )
        assert _encode(delta.results) == _encode(
            reference.run(_grid("fcfs-columnar")).results
        )


class TestNoAliasing:
    def _append(self, ledger, policy: str) -> None:
        ledger.add("operational", "extra", 1.0e9, region="ESO", policy=policy)

    def _assert_unshared(self, first, second) -> None:
        assert first is not second
        for a in _arrays(first):
            for b in _arrays(second):
                assert not np.shares_memory(a, b)

    def test_scheduling_ledgers_and_columns_are_never_shared(
        self, monkeypatch
    ):
        cell = _scheduling_cell(5)
        plain = cell.build().run()
        expected = _canon(plain)
        cache = _cache_without_rollup(cell)
        calls = _count_runners(monkeypatch)
        first = cell.build().run(reuse=cache)
        second = cell.build().run(reuse=cache)
        assert calls["scheduling"] == 0
        assert set(first.fresh_sections) == {"carbon"}
        assert first.scheduling.evaluations is None  # served, not live
        for result in (first, second):
            assert _canon(result) == expected
        self._assert_unshared(first.scheduling.ledger, second.scheduling.ledger)
        self._assert_unshared(first.carbon.ledger, second.carbon.ledger)

        self._append(first.carbon.ledger, "temporal-shifting")
        self._append(first.scheduling.ledger, "temporal-shifting")
        for array in _arrays(first.scheduling.ledger):
            array[:] = 0
        third = cell.build().run(reuse=cache)
        reference = plain.scheduling.ledger
        for result in (second, third):
            assert _canon(result) == expected
            ledger = result.scheduling.ledger
            assert ledger.by_region() == reference.by_region()
            assert ledger.by_job() == reference.by_job()
            assert ledger.total_energy_kwh == reference.total_energy_kwh
            assert result.carbon.ledger.by_policy() == (
                plain.carbon.ledger.by_policy()
            )

    def test_upgrade_primary_ledger_is_never_shared(self, monkeypatch):
        cell = Scenario().region("ESO").upgrade("V100", "A100")
        plain = cell.build().run()
        expected = _canon(plain)
        cache = _cache_without_rollup(cell)
        calls = _count_runners(monkeypatch)
        first = cell.build().run(reuse=cache)
        assert first.carbon.source == "upgrade"
        second = cell.build().run(reuse=cache)
        assert calls["upgrade"] == 0
        self._assert_unshared(first.upgrade.ledger, second.upgrade.ledger)
        self._assert_unshared(first.carbon.ledger, second.carbon.ledger)
        self._append(first.carbon.ledger, "upgrade")
        self._append(first.upgrade.ledger, "upgrade")
        third = cell.build().run(reuse=cache)
        for result in (second, third):
            assert _canon(result) == expected
            assert result.upgrade.ledger.by_policy() == (
                plain.upgrade.ledger.by_policy()
            )


#: One alternative value per knob ``tests/test_delta.py``'s ``_scenario``
#: takes (its defaults are the other value).
_FLIPS = {
    "seed": 8,
    "pue": 1.5,
    "region": "CISO",
    "node": "A100",
    "cluster_nodes": 6,
    "simulator": "columnar",
    "workload_seed": 12,
    "lifetime_years": 4.0,
    "accounting": "ledger",
}


@given(flips=st.sets(st.sampled_from(sorted(_FLIPS))))
@settings(deadline=None, max_examples=12)
def test_memo_served_cells_equal_cache_free_runs(flips):
    """Warm a cache with the base cell, empty every process-wide memo,
    then run a cell with random knob flips through the delta path:
    whatever the section tier serves, the result is byte-identical to a
    cache-free run."""
    cache = ResultCache()
    _warm(cache, _scenario())
    repro.memo_clear()
    over = {knob: _FLIPS[knob] for knob in flips}
    delta = _scenario(**over).build().run(reuse=cache)
    assert _canon(delta) == _canon(_scenario(**over).build().run())
