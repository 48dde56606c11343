"""One bounded memo type and one registry for the process-wide memos.

Pins :class:`repro._memo.Memo` on its own (count and weight capacities,
least-recently-used eviction, the peek, a stored ``None``, a value the
caller rejects, threads sharing one) and its registry: the five
process-wide memos register by name, ``memo_clear()`` empties every
registered memo, one registered after an earlier clear included, and
``trace_cache_clear()`` is that clear, so the workload memos start cold
after it too.
"""

from __future__ import annotations

import sys
import threading

import pytest

import repro
import repro.cluster.traceio as traceio
from repro import _memo
from repro._memo import Memo, MemoInfo, memo_clear, memo_info
from repro.cluster.traceio import save_jobs
from repro.intensity import trace_cache_clear
from repro.session import Scenario
from repro.workloads.sources import SyntheticSource, TraceReplaySource

#: The five process-wide memos, by registry name.
PROCESS_MEMOS = (
    "intensity.traces",
    "intensity.tables",
    "workloads.batches",
    "workloads.traces",
    "sweep.worker_caches",
)

EMPTY = MemoInfo(0, 0, 0, 0, 0)


@pytest.fixture()
def make_memo():
    """``make_memo(name, capacity, weigh=None)``: a registered memo that
    leaves the registry after the test."""
    names = []

    def make(name, capacity, weigh=None):
        names.append(name)
        return Memo(name, capacity, weigh)

    yield make
    for name in names:
        _memo._MEMOS.pop(name, None)


def _workload_cell() -> Scenario:
    return (
        Scenario()
        .node("A100")
        .region("ESO")
        .seed(7)
        .workload("synthetic", seed=11, horizon_h=24.0, total_gpus=8)
        .policies(["temporal-shifting", "geographic"])
    )


class TestMemo:
    def test_count_capacity_evicts_the_least_recent_entry(self, make_memo):
        memo = make_memo("test.count", 2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # "b" is now the least recent
        memo.put("c", 3)
        assert ("a" in memo, "b" in memo, "c" in memo) == (True, False, True)
        assert memo.info() == MemoInfo(
            hits=1, misses=0, evictions=1, entries=2, size=2
        )
        assert memo.get("b") is None
        assert memo.info().misses == 1

    def test_weight_capacity_evicts_the_least_recent_entries(self, make_memo):
        memo = make_memo("test.weight", 10, weigh=len)
        memo.put("a", "xxxx")
        memo.put("b", "xxxx")
        memo.get("a")  # "b" is now the least recent
        memo.put("c", "xxxxxx")  # 14 > 10: drops "b"
        assert ("a" in memo, "b" in memo, "c" in memo) == (True, False, True)
        assert memo.info() == (1, 0, 1, 2, 10)
        memo.put("a", "xx")  # a replaced value weighs anew
        assert memo.info() == (1, 0, 1, 2, 8)
        memo.put("d", "x" * 11)  # heavier than the capacity on its own
        assert memo.info() == (1, 0, 4, 0, 0)

    def test_capacity_is_read_on_every_put(self, make_memo):
        memo = make_memo("test.shrink", 4)
        for key in "abcd":
            memo.put(key, key)
        memo.capacity = 2
        memo.put("e", "e")
        assert [key for key in "abcde" if key in memo] == ["d", "e"]
        assert memo.info().evictions == 3

    def test_in_neither_counts_nor_bumps(self, make_memo):
        memo = make_memo("test.peek", 2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert "a" in memo and "z" not in memo
        memo.put("c", 3)  # "a" stayed the least recent
        assert "a" not in memo
        assert memo.info() == (0, 0, 1, 2, 2)

    def test_a_stored_none_is_a_miss(self, make_memo):
        memo = make_memo("test.none", 2)
        memo.put("a", None)
        assert "a" in memo
        assert memo.get("a") is None
        assert memo.info() == (0, 1, 0, 1, 1)

    def test_a_rejected_value_is_a_miss_and_still_served(self, make_memo):
        memo = make_memo("test.accept", 2)
        memo.put("a", [1, 2])
        assert memo.get("a", lambda rows: len(rows) >= 3) == [1, 2]
        assert memo.get("a", lambda rows: len(rows) >= 2) == [1, 2]
        assert memo.info()[:2] == (1, 1)

    def test_clear_resets_entries_and_counters(self, make_memo):
        memo = make_memo("test.clear", 1)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.get("b")
        memo.get("a")
        memo.clear()
        assert memo.info() == EMPTY
        assert "b" not in memo

    def test_concurrent_lookups_keep_the_memo_consistent(self, make_memo):
        """Threads sharing a memo lose no count and never trip over
        each other's evictions."""
        memo = make_memo("test.concurrent", 4)
        errors = []

        def worker(offset: int) -> None:
            try:
                for i in range(2000):
                    key = f"{(offset + i) % 9:064x}"
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
        info = memo.info()
        assert info.hits + info.misses == 8 * 2000
        assert info.entries == 4


class TestRegistry:
    def test_the_process_wide_memos_are_registered(self):
        import repro.intensity.api  # noqa: F401
        import repro.session.session  # noqa: F401
        import repro.sweep.runner  # noqa: F401
        import repro.workloads.sources  # noqa: F401

        names = {name for name in memo_info() if not name.startswith("test.")}
        assert names == set(PROCESS_MEMOS)
        assert (repro.memo_info, repro.memo_clear) == (memo_info, memo_clear)

    def test_memo_clear_empties_every_memo_including_a_later_one(
        self, make_memo
    ):
        early = make_memo("test.early", 4)
        early.put("k", 1)
        early.get("k")
        memo_clear()
        assert early.info() == EMPTY
        late = make_memo("test.late", 1)
        for memo in (early, late):
            memo.put("a", 1)
            memo.put("b", 2)
            memo.get("b")
            memo.get("z")
        assert memo_info()["test.late"] == (1, 1, 1, 1, 1)
        memo_clear()
        info = memo_info()
        assert {"test.early", "test.late"} <= set(info)
        assert {name: EMPTY for name in info} == info

    def test_memo_clear_by_name_empties_only_those_memos(self, make_memo):
        first = make_memo("test.first", 2)
        second = make_memo("test.second", 2)
        first.put("a", 1)
        second.put("a", 1)
        memo_clear("test.first", "test.never-registered")
        assert (first.info().entries, second.info().entries) == (0, 1)


class TestStartsCold:
    def test_trace_cache_clear_makes_workloads_draw_and_parse_again(
        self, tmp_path, monkeypatch
    ):
        path = save_jobs(
            SyntheticSource(horizon_h=24.0, total_gpus=8).generate(seed=9).to_jobs(),
            tmp_path / "trace.json",
        )
        trace_cache_clear()
        calls = {"draw": 0, "parse": 0}
        draw = SyntheticSource._draw
        read = traceio.read_workload

        def counting_draw(self, *, seed):
            calls["draw"] += 1
            return draw(self, seed=seed)

        def counting_read(*args, **kwargs):
            calls["parse"] += 1
            return read(*args, **kwargs)

        monkeypatch.setattr(SyntheticSource, "_draw", counting_draw)
        monkeypatch.setattr(traceio, "read_workload", counting_read)

        def generate() -> None:
            SyntheticSource(horizon_h=24.0, total_gpus=8).generate(seed=3)
            TraceReplaySource(path).generate()

        generate()
        generate()
        assert calls == {"draw": 1, "parse": 1}
        trace_cache_clear()
        generate()
        assert calls == {"draw": 2, "parse": 2}

    def test_a_scenario_fills_the_memos_and_memo_clear_zeroes_them(self):
        memo_clear()
        _workload_cell().run()
        info = memo_info()
        for name in ("intensity.traces", "intensity.tables", "workloads.batches"):
            assert info[name].entries > 0 and info[name].misses > 0, name
        memo_clear()
        info = memo_info()
        assert {name: EMPTY for name in info} == info
