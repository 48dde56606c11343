"""The live-section memo behind delta runs (``Session._run_delta``).

A delta run whose carbon rollup is stale needs the scheduling and
upgrade sections *live*: the rollup reads their unserialized ledgers.
The process-wide memo keyed by ``(section, section fingerprint)`` serves
those values when this process already computed them.  The pins:

* **counting** — a serial sweep computes each distinct scheduling and
  upgrade section once in its cold pass and none in a delta pass that
  flips only the simulator, byte-identical to a cache-free run;
* **invalidation** — ``trace_cache_clear()`` and
  ``register_backend(..., replace=True)`` empty it;
* **scope** — plain ``Session.run()`` never reads or fills it, a
  raising runner stores nothing, and the least recently used entry
  goes first;
* **no aliasing** — appending to one result's ledgers never changes
  what the memo serves next;
* **soundness** — a memo-served cell equals its cache-free run, under
  random knob flips.
"""

from __future__ import annotations

import json
import shutil
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_delta import _canon, _scenario, _warm

from repro.intensity import trace_cache_clear
from repro.session import (
    Scenario,
    Session,
    live_section_info,
    register_backend,
    resolve_backend,
)
from repro.session import session as session_module
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
    """A cell whose only live section is scheduling."""
    return (
        Scenario()
        .node("A100")
        .region("ESO")
        .seed(seed)
        .workload("synthetic", seed=11, horizon_h=24.0, total_gpus=8)
        .policy("temporal-shifting")
    )


class TestCounting:
    def test_cold_pass_once_per_section_and_delta_pass_none(
        self, tmp_path, monkeypatch
    ):
        trace_cache_clear()
        calls = _count_runners(monkeypatch)
        cold = SweepService(cache_dir=tmp_path / "c").run(_grid("fcfs"))
        expected = {
            name: _distinct(name, _grid("fcfs")) for name in calls
        }
        assert expected == {"scheduling": 2, "upgrade": 2}
        assert calls == expected
        calls.update(scheduling=0, upgrade=0)
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

    def test_trace_cache_clear_makes_the_delta_pass_recompute(
        self, tmp_path, monkeypatch
    ):
        trace_cache_clear()
        SweepService(cache_dir=tmp_path / "a").run(_grid("fcfs"))
        shutil.copytree(tmp_path / "a", tmp_path / "b")
        calls = _count_runners(monkeypatch)
        served = SweepService(cache_dir=tmp_path / "a").run(
            _grid("fcfs-columnar")
        )
        assert calls == {"scheduling": 0, "upgrade": 0}
        trace_cache_clear()
        assert live_section_info() == (0, 0, 0)
        recomputed = SweepService(cache_dir=tmp_path / "b").run(
            _grid("fcfs-columnar")
        )
        assert calls == {"scheduling": 2, "upgrade": 2}
        assert _encode(served.results) == _encode(recomputed.results)


class TestInvalidationAndScope:
    def test_replacing_a_backend_empties_the_memo(self):
        _grid("fcfs")[0].build().run(reuse=ResultCache())
        assert live_section_info().entries > 0
        text = resolve_backend("renderer", "text")
        register_backend("renderer", "text", text, replace=True)
        assert live_section_info().entries == 0

    def test_plain_runs_neither_read_nor_fill_the_memo(self, monkeypatch):
        cell = _grid("fcfs")[0]
        cell.build().run(reuse=ResultCache())  # the memo now holds its sections
        before = live_section_info()
        calls = _count_runners(monkeypatch)
        cell.build().run()
        cell.build().run()
        assert calls == {"scheduling": 2, "upgrade": 2}
        assert live_section_info() == before

    def test_a_raising_runner_stores_nothing(self, monkeypatch):
        trace_cache_clear()
        cell = _grid("fcfs")[0]

        def failing(self):
            raise RuntimeError("upgrade runner failed")

        monkeypatch.setattr(Session, "_run_upgrade", failing)
        with pytest.raises(RuntimeError, match="upgrade runner failed"):
            cell.build().run(reuse=ResultCache())
        assert live_section_info().entries == 1  # scheduling ran first
        monkeypatch.undo()
        calls = _count_runners(monkeypatch)
        cell.build().run(reuse=ResultCache())
        assert calls == {"scheduling": 0, "upgrade": 1}

    def test_least_recently_used_entry_goes_first(self, monkeypatch):
        trace_cache_clear()
        monkeypatch.setattr(session_module._LIVE_SECTIONS, "capacity", 2)
        calls = _count_runners(monkeypatch)

        def run(seed: int) -> None:
            _scheduling_cell(seed).build().run(reuse=ResultCache())

        run(1)
        run(2)
        run(1)  # served: seed 2 is now the least recently used
        assert calls["scheduling"] == 2
        run(3)  # over the cap: drops seed 2
        assert live_section_info() == (1, 3, 2)
        run(1)
        assert calls["scheduling"] == 3
        run(2)
        assert calls["scheduling"] == 4

    def test_concurrent_lookups_keep_the_memo_consistent(self, monkeypatch):
        """Threads sharing the memo lose no count and never trip over
        each other's evictions."""
        trace_cache_clear()
        monkeypatch.setattr(session_module._LIVE_SECTIONS, "capacity", 4)
        memo = session_module._LIVE_SECTIONS
        errors = []

        def worker(offset: int) -> None:
            try:
                for i in range(2000):
                    key = ("scheduling", f"{(offset + i) % 9:064x}")
                    if memo.get(key) is None:
                        memo.put(key, i)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        info = live_section_info()
        assert info.hits + info.misses == 8 * 2000
        assert info.entries == 4
        trace_cache_clear()


class TestNoAliasing:
    def _append(self, ledger, policy: str) -> None:
        ledger.add("operational", "extra", 1.0e9, region="ESO", policy=policy)

    def test_scheduling_ledgers_and_columns_are_never_shared(self):
        trace_cache_clear()
        cell = _scheduling_cell(5)
        plain = cell.build().run()
        expected = _canon(plain)
        first = cell.build().run(reuse=ResultCache())
        self._append(first.carbon.ledger, "temporal-shifting")
        for name, evaluation in first.scheduling.evaluations.items():
            self._append(evaluation.ledger, name)
            for column in ("energy_kwh", "carbon_g", "delay_h"):
                getattr(evaluation, column)[:] = -1.0
        second = cell.build().run(reuse=ResultCache())
        assert live_section_info().hits == 1
        assert _canon(second) == expected
        for name, evaluation in second.scheduling.evaluations.items():
            reference = plain.scheduling.evaluations[name]
            assert len(evaluation.ledger) == len(reference.ledger)
            assert (
                evaluation.ledger.total_energy_kwh
                == reference.ledger.total_energy_kwh
            )
            assert evaluation.total_carbon == reference.total_carbon
            assert evaluation.total_energy == reference.total_energy
            assert evaluation.mean_delay_h() == reference.mean_delay_h()

    def test_upgrade_primary_ledger_is_never_shared(self):
        trace_cache_clear()
        cell = Scenario().region("ESO").upgrade("V100", "A100")
        expected = _canon(cell.build().run())
        first = cell.build().run(reuse=ResultCache())
        assert first.carbon.source == "upgrade"
        self._append(first.carbon.ledger, "upgrade")
        second = cell.build().run(reuse=ResultCache())
        assert live_section_info().hits == 1
        assert _canon(second) == expected


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
    """Warm the memo (and a cache) with the base cell, then run a cell
    with random knob flips through the delta path: whatever the memo
    serves, the result is byte-identical to a cache-free run."""
    cache = ResultCache()
    _warm(cache, _scenario())
    over = {knob: _FLIPS[knob] for knob in flips}
    delta = _scenario(**over).build().run(reuse=cache)
    assert _canon(delta) == _canon(_scenario(**over).build().run())
