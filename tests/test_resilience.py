"""repro.resilience: retries, timeouts, checkpoint/resume, chaos.

The load-bearing pins:

* **byte-identity under chaos** — a sweep with injected faults must
  return results byte-identical to the fault-free run for every
  surviving cell, through every executor (the deterministic-injection
  contract);
* **isolation** — a unit that exhausts its retry budget yields a
  structured :class:`CellFailure` and leaves every other cell intact,
  including a real worker crash (``os._exit``) under the process pool;
* **resume** — a crash-interrupted (or failed) run's journal lets the
  next run recompute *zero* already-completed units;
* **no zombies** — interrupting a pooled sweep cancels queued work and
  terminates the workers (the PR 7 bugfix), asserted both against a
  stub pool and end-to-end with a real ``SIGINT``.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.errors import ResilienceError, SessionError, SweepError
from repro.resilience import (
    CellFailure,
    FaultAction,
    NoFaults,
    RandomFaults,
    ResilientUnit,
    RetryPolicy,
    ScriptedFaults,
    SweepJournal,
    UnitTimeout,
    run_resilient,
    traceback_digest,
)
from repro.resilience.runner import _attempt_deadline
from repro.session import Scenario
from repro.sweep import SweepReport, SweepService, SweepSpec
from repro.sweep.cache import CacheStats
from repro.workloads.sources import WorkloadParams

#: Three distinct cells sharing one seed (one trace warm-up per worker).
_REGIONS = ("ESO", "CISO", "PJM")


def _cell(region: str) -> Scenario:
    return (
        Scenario()
        .system("frontier")
        .region(region)
        .node("V100")
        .policy("carbon-oblivious")
        .workload(
            WorkloadParams(horizon_h=48.0, total_gpus=8, home_region=region),
            seed=11,
        )
        .seed(7)
        .pue(1.25)
    )


def _cells() -> list:
    return [_cell(region) for region in _REGIONS]


def _serialize(result) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    """Fault-free reference results, one per cell, computed once."""
    return [_serialize(cell.build().run()) for cell in _cells()]


# --- RetryPolicy ------------------------------------------------------------
class TestRetryPolicy:
    def test_coercions(self):
        assert RetryPolicy.coerce(None) == RetryPolicy()
        assert RetryPolicy.coerce(2).max_attempts == 3
        assert RetryPolicy.coerce(2).retries == 2
        policy = RetryPolicy.coerce({"retries": 1, "backoff_s": 0.5})
        assert policy.max_attempts == 2 and policy.backoff_s == 0.5
        assert RetryPolicy.coerce(policy) is policy

    @pytest.mark.parametrize(
        "bad",
        [
            -1,
            True,
            "twice",
            {"retries": 1, "max_attempts": 2},
            {"retries": -1},
            {"nope": 3},
            {"max_attempts": 0},
            {"backoff_s": -1.0},
            {"backoff_factor": 0.5},
            {"jitter": 1.5},
            {"unit_timeout_s": 0.0},
        ],
    )
    def test_invalid(self, bad):
        with pytest.raises(ResilienceError):
            RetryPolicy.coerce(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field", ["unit_timeout_s", "backoff_s", "backoff_factor"]
    )
    def test_non_finite_settings_rejected(self, field, value):
        with pytest.raises(ResilienceError, match=f"{field} must be a finite"):
            RetryPolicy.coerce({field: value})

    def test_active(self):
        assert not RetryPolicy().active
        assert RetryPolicy(max_attempts=2).active
        assert RetryPolicy(unit_timeout_s=1.0).active

    def test_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, backoff_s=0.1, backoff_factor=2.0)
        assert policy.delay_s(attempt=1, token="t") == 0.0
        assert policy.delay_s(attempt=2, token="t") == pytest.approx(0.1)
        assert policy.delay_s(attempt=3, token="t") == pytest.approx(0.2)
        assert policy.delay_s(attempt=4, token="t") == pytest.approx(0.4)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=3, backoff_s=1.0, jitter=0.25, seed=9)
        first = policy.delay_s(attempt=2, token="fp-a")
        assert first == policy.delay_s(attempt=2, token="fp-a")
        assert 0.75 <= first <= 1.25
        # Different tokens draw different (but each deterministic) scales.
        assert first != policy.delay_s(attempt=2, token="fp-b")


# --- CellFailure ------------------------------------------------------------
class TestCellFailure:
    def test_from_exception(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            failure = CellFailure.from_exception(
                exc,
                index=3,
                indices=(3, 5),
                name="cell",
                fingerprint="abc",
                attempts=2,
            )
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert len(failure.digest) == 16
        int(failure.digest, 16)  # a hex digest, not rendered traceback text
        payload = failure.to_dict()
        assert payload["indices"] == [3, 5]
        assert "2 attempts" in failure.summary()
        assert "boom" in failure.summary()

    def test_digest_is_stable_per_code_path(self):
        def boom():
            raise RuntimeError("x")

        digests = set()
        for _ in range(2):
            try:
                boom()
            except RuntimeError as exc:
                digests.add(traceback_digest(exc))
        assert len(digests) == 1


# --- fault injectors --------------------------------------------------------
class TestInjectors:
    def test_none_never_acts(self):
        assert NoFaults().action(token="t", index=0, attempt=1) is None

    def test_random_is_deterministic(self):
        injector = RandomFaults(error_p=0.5, seed=3)
        draws = [
            injector.action(token=f"fp-{i}", index=i, attempt=1)
            for i in range(32)
        ]
        again = [
            injector.action(token=f"fp-{i}", index=i, attempt=1)
            for i in range(32)
        ]
        assert draws == again
        kinds = {d.kind for d in draws if d is not None}
        assert kinds <= {"error"}
        assert any(draws) and not all(draws)  # p=0.5 hits some, not all

    def test_random_haunting_lifts_after_attempts(self):
        injector = RandomFaults(error_p=1.0, attempts=1)
        assert injector.action(token="t", index=0, attempt=1) is not None
        assert injector.action(token="t", index=0, attempt=2) is None

    def test_random_priority_and_delay(self):
        injector = RandomFaults(crash_p=1.0, error_p=1.0, delay_s=0.2)
        assert injector.action(token="t", index=0, attempt=1).kind == "crash"
        delay = RandomFaults(delay_p=1.0, delay_s=0.2).action(
            token="t", index=0, attempt=1
        )
        assert delay.kind == "delay" and delay.delay_s == 0.2

    def test_scripted_matches_unit_indices(self):
        injector = ScriptedFaults(error_at=[1], corrupt_at=(2,), attempts=2)
        assert injector.action(token="t", index=0, attempt=1) is None
        assert injector.action(token="t", index=1, attempt=1).kind == "error"
        assert injector.action(token="t", index=2, attempt=2).kind == "corrupt"
        assert injector.action(token="t", index=1, attempt=3) is None

    def test_scripted_accepts_scalar_index(self):
        assert ScriptedFaults(crash_at=1).crash_at == (1,)

    @pytest.mark.parametrize(
        "bad",
        [
            {"crash_at": [-1]},
            {"error_at": ["one"]},
            {"delay_s": -0.1},
            {"attempts": 0},
        ],
    )
    def test_scripted_invalid(self, bad):
        with pytest.raises(ResilienceError):
            ScriptedFaults(**bad)

    def test_random_invalid_probability(self):
        with pytest.raises(ResilienceError):
            RandomFaults(error_p=1.5)

    def test_fault_action_validates(self):
        with pytest.raises(ResilienceError):
            FaultAction("meltdown")


# --- the journal ------------------------------------------------------------
class TestJournal:
    def test_round_trip_and_idempotence(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        journal.record_done("fp-1", name="a")
        journal.record_done("fp-1", name="a")  # duplicate suppressed
        journal.record_done("fp-2", name="b", cached=True)
        journal.record_done(None, name="uncacheable")  # no identity: no-op
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 2
        fresh = SweepJournal(tmp_path / "j.jsonl")
        assert fresh.load_completed() == {"fp-1", "fp-2"}

    def test_torn_tail_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record_done("fp-1", name="a")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "status": "done", "fingerp')
        assert SweepJournal(path).load_completed() == {"fp-1"}

    def test_failed_records_never_gate(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = SweepJournal(path)
        journal.record_failed(
            CellFailure(
                index=0, indices=(0,), name="c", fingerprint="fp-f",
                kind="error", error_type="ValueError", message="x", attempts=1,
            )
        )
        assert SweepJournal(path).load_completed() == set()

    def test_missing_file_is_empty(self, tmp_path):
        assert SweepJournal(tmp_path / "nope.jsonl").load_completed() == set()

    def test_unwritable_path_raises(self, tmp_path):
        # Root ignores permission bits, so block the mkdir structurally:
        # nest the journal under a regular file.
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        journal = SweepJournal(blocker / "sub" / "j.jsonl")
        with pytest.raises(ResilienceError):
            journal.record_done("fp", name="x")


# --- chaos: byte-identity through every executor ----------------------------
class TestChaos:
    @pytest.mark.parametrize("executor", ["serial", "process", "shared"])
    @pytest.mark.parametrize("faults", ["scripted", "random"])
    def test_survivors_are_byte_identical(
        self, executor, faults, tmp_path, monkeypatch, golden
    ):
        """One retry recovers every injected fault; results match golden."""
        monkeypatch.setenv("REPRO_HPC_CACHE_DIR", str(tmp_path / "cache"))
        if faults == "scripted":
            injector = {"kind": "scripted", "error_at": [0], "corrupt_at": [2]}
        else:
            injector = {"kind": "random", "error_p": 1.0, "seed": 3}
        service = SweepService(cache=False)
        report = service.run(
            _cells(),
            executor=executor,
            max_workers=2 if executor != "serial" else None,
            retry=1,
            faults=injector,
        )
        assert isinstance(report, SweepReport)
        assert report.ok and not report.failures
        assert [_serialize(r) for r in report.results] == golden

    def test_failures_leave_other_cells_intact(self, golden):
        service = SweepService(cache=False)
        report = service.run(
            _cells(), faults={"kind": "scripted", "error_at": [1]}
        )
        assert not report.ok
        assert [f.kind for f in report.failures] == ["error"]
        assert report.failures[0].indices == (1,)
        assert report.results[1] is None
        assert _serialize(report.results[0]) == golden[0]
        assert _serialize(report.results[2]) == golden[2]

    def test_worker_crash_recovers_within_budget(self, golden):
        """An injected os._exit crash at cell 1 rebuilds the pool and
        retries; every cell completes byte-identical to golden."""
        service = SweepService(cache=False)
        report = service.run(
            _cells(),
            executor="process",
            max_workers=2,
            retry=1,
            faults={"kind": "scripted", "crash_at": [1]},
        )
        assert report.ok
        assert report.n_rebuilds >= 1
        assert [_serialize(r) for r in report.results] == golden

    def test_persistent_crash_yields_exactly_one_cell_failure(self, golden):
        """The acceptance criterion: a sweep with a worker crash at cell
        k completes the remaining cells and reports one CellFailure.

        The crash sits at the *last* cell with one worker, so the
        bystander cells deterministically finish before the first pool
        break can charge their in-flight attempts.
        """
        service = SweepService(cache=False)
        report = service.run(
            _cells(),
            executor="process",
            max_workers=1,
            retry=1,
            faults={"kind": "scripted", "crash_at": [2], "attempts": 99},
        )
        assert len(report.failures) == 1
        assert report.failures[0].kind == "crash"
        assert report.failures[0].error_type == "BrokenProcessPool"
        assert report.failures[0].indices == (2,)
        assert report.results[2] is None
        assert _serialize(report.results[0]) == golden[0]
        assert _serialize(report.results[1]) == golden[1]

    def test_rebuild_budget_exhaustion_raises(self):
        service = SweepService(cache=False)
        with pytest.raises(ResilienceError, match="broke"):
            service.run(
                [_cell("ESO")],
                executor="process",
                max_workers=1,
                retry=5,
                max_rebuilds=1,
                faults={"kind": "scripted", "crash_at": [0], "attempts": 99},
            )

    def test_timeout_fails_then_recovers_with_retry(self):
        service = SweepService(cache=False)
        slow = {
            "kind": "scripted", "delay_at": [0], "delay_s": 30.0,
            "attempts": 99,
        }
        report = service.run(
            [_cell("ESO")],
            retry={"retries": 0, "unit_timeout_s": 2.0},
            faults=slow,
        )
        assert [f.kind for f in report.failures] == ["timeout"]
        assert report.failures[0].error_type == "UnitTimeout"
        # The same delay injected only on attempt 1 recovers on retry.
        recovering = {"kind": "scripted", "delay_at": [0], "delay_s": 30.0}
        report = service.run(
            [_cell("ESO")],
            retry={"retries": 1, "unit_timeout_s": 2.0},
            faults=recovering,
        )
        assert report.ok


# --- checkpoint / resume ----------------------------------------------------
class TestResume:
    def test_crash_then_resume_recomputes_zero_journaled_cells(
        self, tmp_path, golden
    ):
        """The acceptance cycle: crash at a cell, journal the survivors,
        resume recomputes only the crashed cell, byte-identical."""
        journal = tmp_path / "journal.jsonl"
        first = SweepService(cache=False).run(
            _cells(),
            executor="process",
            max_workers=1,
            retry=1,
            faults={"kind": "scripted", "crash_at": [2], "attempts": 99},
            journal=journal,
        )
        assert len(first.failures) == 1
        assert SweepJournal(journal).load_completed() == {
            first.results[0].provenance_hash,
            first.results[1].provenance_hash,
        }
        second = SweepService(cache=False).run(_cells(), resume=journal)
        assert second.n_ran == 1  # only the crashed cell recomputes
        assert second.n_skipped == 2
        assert _serialize(second.results[2]) == golden[2]
        # The journal now holds all three: a third run recomputes zero.
        third = SweepService(cache=False).run(_cells(), resume=journal)
        assert third.n_ran == 0 and third.n_skipped == 3

    def test_resume_with_cache_serves_hits(self, tmp_path, golden):
        journal = tmp_path / "journal.jsonl"
        SweepService(cache_dir=tmp_path / "cache").run(
            _cells(), journal=journal
        )
        resumed = SweepService(cache_dir=tmp_path / "cache").run(
            _cells(), resume=journal
        )
        # Journaled AND cached: cells fill from the cache as hits.
        assert resumed.n_ran == 0 and resumed.n_skipped == 0
        assert resumed.n_hits == 3
        assert [_serialize(r) for r in resumed.results] == golden

    def test_journal_records_cache_hits_for_cache_free_resume(self, tmp_path):
        cache_dir = tmp_path / "cache"
        SweepService(cache_dir=cache_dir).run(_cells())
        journal = tmp_path / "late-journal.jsonl"
        # A later journaled run that hits the cache still journals, so
        # the journal alone can drive a cache-free resume.
        SweepService(cache_dir=cache_dir).run(_cells(), journal=journal)
        resumed = SweepService(cache=False).run(_cells(), resume=journal)
        assert resumed.n_ran == 0 and resumed.n_skipped == 3


# --- cache write-back -------------------------------------------------------
def _section_grid() -> list:
    """Four cells sharing their scheduling and upgrade sections: two
    systems, each on two cluster simulators."""
    cells = []
    for system in ("frontier", "lumi"):
        for simulator in ("fcfs", "backfill"):
            cells.append(
                Scenario()
                .system(system)
                .node("A100")
                .region("ESO")
                .seed(7)
                .workload("synthetic", seed=11, horizon_h=24.0, total_gpus=8)
                .policies(["temporal-shifting", "geographic"])
                .upgrade("V100", "A100")
                .cluster(2, simulator=simulator)
            )
    return cells


def _cache_tree(cache_dir: pathlib.Path) -> dict:
    """Relative path -> bytes of every entry under results/ and sections/."""
    return {
        str(path.relative_to(cache_dir)): path.read_bytes()
        for top in ("results", "sections")
        for path in sorted((cache_dir / top).rglob("*"))
        if path.is_file()
    }


@pytest.fixture()
def parent_writes(monkeypatch):
    """The paths this (the parent) process writes cache entries to."""
    from repro.sweep.cache import ResultCache

    written = []
    real = ResultCache._write_atomic
    parent = os.getpid()

    def recording(self, path, payload):
        if os.getpid() == parent:  # forked workers record nothing here
            written.append(path)
        return real(self, path, payload)

    monkeypatch.setattr(ResultCache, "_write_atomic", recording)
    return written


class TestWriteback:
    def test_pooled_workers_write_back_their_own_entries(self, tmp_path):
        """Fresh pooled results land on disk under the worker-reported
        fingerprint, and a fresh service serves them all."""
        cache_dir = tmp_path / "cache"
        service = SweepService(cache_dir=cache_dir)
        report = service.run(
            _cells(), executor="process", max_workers=2, retry=1
        )
        assert report.n_ran == 3
        for result in report.results:
            assert service.cache.get(result.provenance_hash) is not None
        warm = SweepService(cache_dir=cache_dir).run(_cells())
        assert warm.n_ran == 0 and warm.n_hits == 3

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pooled_and_serial_caches_are_byte_identical(
        self, workers, tmp_path, monkeypatch, parent_writes
    ):
        """A pooled sweep (shared store, retry, journal) writes the same
        entries, byte for byte, and the same journal lines as a serial
        one; its parent writes none of them.  With 4 workers every unit
        runs at once, so workers race to write their shared sections."""
        monkeypatch.setenv("REPRO_HPC_CACHE_DIR", str(tmp_path / "env"))
        trees, journals = {}, {}
        for executor in ("shared", "serial"):
            cache_dir = tmp_path / executor
            journal = tmp_path / f"{executor}.jsonl"
            del parent_writes[:]
            report = SweepService(cache_dir=cache_dir).run(
                _section_grid(),
                executor=executor,
                max_workers=workers if executor == "shared" else None,
                # The deadline bounds the test should a worker hang.
                retry={"retries": 1, "unit_timeout_s": 60.0},
                journal=journal,
            )
            assert report.ok and report.n_ran == 4
            trees[executor] = _cache_tree(cache_dir)
            journals[executor] = journal.read_text(encoding="utf-8")
            if executor == "shared":
                assert parent_writes == []
            else:
                # The serial parent writes every entry, each once.
                assert sorted(
                    str(path.relative_to(cache_dir)) for path in parent_writes
                ) == sorted(trees[executor])
        assert sum(name.startswith("results") for name in trees["serial"]) == 4
        assert any(name.startswith("sections") for name in trees["serial"])
        assert trees["shared"] == trees["serial"]
        assert not list((tmp_path / "shared").rglob("*.tmp"))
        assert journals["shared"] == journals["serial"]

    def test_pooled_results_stay_in_the_parents_memory(
        self, tmp_path, monkeypatch
    ):
        """The parent skips the disk write of a unit its worker stored,
        but still remembers the result: a later lookup reads no file."""
        from repro.sweep.cache import ResultCache

        service = SweepService(cache_dir=tmp_path / "cache")
        report = service.run(_cells(), executor="process", max_workers=2)
        assert report.ok

        def no_disk(self, fingerprint):
            raise AssertionError("read a result from disk")

        monkeypatch.setattr(ResultCache, "_load_entry", no_disk)
        hits = service.cache.stats.hits
        for result in report.results:
            assert service.cache.get(result.provenance_hash) is result
        assert service.cache.stats.hits == hits + 3
        again = service.run(_cells(), executor="process", max_workers=2)
        assert again.n_ran == 0 and again.n_hits == 3

    def test_pooled_no_writeback_writes_nothing(self, tmp_path):
        cache_dir = tmp_path / "cache"
        report = SweepService(cache_dir=cache_dir).run(
            _section_grid(),
            executor="process",
            max_workers=2,
            cache_writeback=False,
        )
        assert report.ok and report.n_ran == 4
        assert _cache_tree(cache_dir) == {}

    def test_exhausted_unit_leaves_no_entry(self, tmp_path):
        """A unit whose every attempt is corrupted fails and leaves no
        result file; the other cells are written by their workers."""
        cache_dir = tmp_path / "cache"
        report = SweepService(cache_dir=cache_dir).run(
            _cells(),
            executor="process",
            max_workers=2,
            retry=1,
            faults={"kind": "scripted", "corrupt_at": [1], "attempts": 2},
        )
        assert [failure.indices for failure in report.failures] == [(1,)]
        written = {path.stem for path in (cache_dir / "results").glob("*/*.json")}
        assert written == {
            result.provenance_hash
            for index, result in enumerate(report.results)
            if index != 1
        }

    def test_worker_write_failure_raises(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        (cache_dir / "results").write_text("a regular file, not a directory")
        with pytest.raises(SweepError, match="cannot write cache entry"):
            SweepService(cache_dir=cache_dir).run(
                _cells(), executor="process", max_workers=2
            )

    def test_worker_write_keeps_no_result_in_memory(self, tmp_path):
        """A worker writes its unit's result to disk without keeping it
        in its cache's result tier, which no worker reads; the sections
        it wrote stay in memory for its later units."""
        import pickle

        from repro.sweep.cache import ResultCache
        from repro.sweep.runner import _PlannedItem, _worker_cache

        cache_dir = tmp_path / "cache"
        item = _PlannedItem(
            _section_grid()[0], ResultCache(cache_dir), None,
            delta=True, writeback=True,
        )
        item = pickle.loads(pickle.dumps(item))  # as a worker receives it
        result = item.run()
        fingerprint = result.fingerprint()
        assert item.write_back(result, fingerprint)
        worker = _worker_cache(cache_dir)
        assert len(worker._memory) == 0
        assert len(worker) == 1  # the disk entry
        assert ResultCache(cache_dir).get(fingerprint) == result
        for name, (fp, _payload) in result.fresh_sections.items():
            assert (name, fp) in worker._section_memory

    def test_no_cache_writeback_escape_hatch(self, tmp_path):
        cache_dir = tmp_path / "cache"
        service = SweepService(cache_dir=cache_dir)
        service.run(_cells(), retry=1, cache_writeback=False)
        again = SweepService(cache_dir=cache_dir).run(_cells())
        assert again.n_hits == 0 and again.n_ran == 3

    def test_service_level_default(self, tmp_path):
        cache_dir = tmp_path / "cache"
        SweepService(cache_dir=cache_dir, cache_writeback=False).run(_cells())
        assert SweepService(cache_dir=cache_dir).run(_cells()).n_hits == 0


# --- spec resilience section ------------------------------------------------
class TestSpecResilience:
    def _spec(self, resilience):
        return {
            "name": "spec-res",
            "base": {
                "system": "frontier", "node": "V100", "seed": 7,
                "policy": "carbon-oblivious", "pue": 1.25,
                "workload": "synthetic", "workload_seed": 11,
                "workload_opts": {"horizon_h": 48.0, "total_gpus": 8},
            },
            "axes": {"region": ["ESO", "CISO"]},
            "resilience": resilience,
        }

    def test_section_parses_and_drives_the_run(self):
        spec = SweepSpec.from_mapping(
            self._spec(
                {"retries": 1, "faults": {"kind": "scripted", "error_at": [0]}}
            )
        )
        assert spec.resilience["retries"] == 1
        report = SweepService(cache=False).run(spec)
        assert report.ok  # the spec's own retry budget recovers its fault

    def test_run_arguments_override_the_section(self):
        spec = self._spec(
            {
                "retries": 0,
                "faults": {"kind": "scripted", "error_at": [0], "attempts": 99},
            }
        )
        report = SweepService(cache=False).run(spec, faults="none")
        assert report.ok  # run-level faults=none overrides the spec's

    @pytest.mark.parametrize(
        "bad",
        [
            {"nope": 1},
            {"retries": 1, "max_attempts": 2},
            {"retries": "two"},
            {"faults": {"no-kind": True}},
            "chaotic",
        ],
    )
    def test_invalid_sections(self, bad):
        with pytest.raises(SweepError):
            SweepSpec.from_mapping(self._spec(bad))

    def test_unknown_top_level_key_still_rejected(self):
        with pytest.raises(SweepError, match="resilience"):
            SweepSpec.from_mapping({"base": {}, "axes": {}, "resilence": {}})


# --- injector coercion / runner edges ---------------------------------------
class TestRunnerEdges:
    def test_injector_spellings(self):
        from repro.sweep.runner import _coerce_injector

        assert _coerce_injector(None) is None
        assert isinstance(_coerce_injector("none"), NoFaults)
        scripted = _coerce_injector({"kind": "scripted", "error_at": [1]})
        assert scripted.error_at == (1,)
        assert _coerce_injector(scripted) is scripted
        for bad in ({"error_at": [1]}, 3, {"kind": "scripted", "bogus": 1}):
            with pytest.raises(ResilienceError):
                _coerce_injector(bad)

    def test_empty_units_touch_nothing(self):
        run = run_resilient([], executor="process", policy=3)
        assert run.outcomes == () and run.rebuilds == 0

    def test_negative_rebuild_budget_rejected(self):
        unit = ResilientUnit(
            item=_cell("ESO"), index=0, indices=(0,), name="c",
            fingerprint=None,
        )
        with pytest.raises(ResilienceError):
            run_resilient([unit], max_rebuilds=-1)

    def test_foreign_executor_gets_parent_side_retry(self):
        from repro.session import register_backend

        calls = {"n": 0}

        def flaky_engine(items):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first call always fails")
            from repro.session.executors import _run_chunk

            return _run_chunk(items)

        register_backend(
            "executor", "test-flaky", lambda **_: flaky_engine, replace=True
        )
        unit = ResilientUnit(
            item=_cell("ESO"), index=0, indices=(0,), name="c",
            fingerprint=None,
        )
        run = run_resilient([unit], executor="test-flaky", policy=1)
        assert run.outcomes[0].ok and run.outcomes[0].attempts == 2

    def test_serial_crash_degrades_to_error(self):
        """Serial injected crashes raise instead of killing the host."""
        unit = ResilientUnit(
            item=_cell("ESO"), index=0, indices=(0,), name="c",
            fingerprint=None,
        )
        run = run_resilient(
            [unit], injector=ScriptedFaults(crash_at=[0], attempts=99)
        )
        failure = run.outcomes[0].failure
        assert failure is not None
        assert failure.error_type == "InjectedFault"

    def test_pooled_executor_validates_max_workers(self):
        unit = ResilientUnit(
            item=_cell("ESO"), index=0, indices=(0,), name="c",
            fingerprint=None,
        )
        with pytest.raises(SessionError, match="max_workers"):
            run_resilient(
                [unit], executor="process", executor_opts={"max_workers": 0}
            )


# --- what a pooled sweep stores, and where ----------------------------------
class TestSharedStoreDir:
    """Everything a pooled sweep stores is its cache entries: the
    ``shared`` spelling runs the ``process`` pool, which writes
    ``results/`` and ``sections/`` under the sweep's own cache directory
    and nothing else, there or under ``$REPRO_HPC_CACHE_DIR``."""

    @pytest.fixture()
    def env_dir(self, tmp_path, monkeypatch):
        """``$REPRO_HPC_CACHE_DIR``, the default cache home."""
        env = tmp_path / "env"
        env.mkdir()
        monkeypatch.setenv("REPRO_HPC_CACHE_DIR", str(env))
        return env

    def test_cli_sweep_keeps_the_store_under_its_cache_dir(
        self, tmp_path, env_dir, capsys
    ):
        from repro.cli import main

        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "name": "store-dir",
                    "base": {
                        "system": "frontier", "node": "V100", "seed": 7,
                        "workload": "synthetic", "workload_seed": 11,
                        "workload_opts": {"horizon_h": 24.0, "total_gpus": 8},
                    },
                    "axes": {"region": ["ESO", "CISO"]},
                }
            ),
            encoding="utf-8",
        )
        cache_dir = tmp_path / "X"
        assert main(
            [
                "sweep", "run", str(spec), "--cache-dir", str(cache_dir),
                "--executor", "shared", "--max-workers", "2",
            ]
        ) == 0
        assert "2 ran (executor shared)" in capsys.readouterr().out
        assert sorted(path.name for path in cache_dir.iterdir()) == [
            "results", "sections",
        ]
        assert list(env_dir.iterdir()) == []

    def test_memory_only_cache_keeps_the_default_store(self, env_dir):
        """A memory-only sweep leaves the default cache home untouched."""
        report = SweepService(disk=False).run(
            _cells()[:2], executor="shared", max_workers=2
        )
        assert report.ok
        assert list(env_dir.iterdir()) == []


# --- the failure contract without resilience knobs --------------------------
def _capped_cell(region: str) -> Scenario:
    """A cell whose power cap admits no job: it raises SimulationError."""
    return _cell(region).cluster(2, simulator="power-cap", cap_fraction=0.01)


class TestFailureContract:
    def test_knob_free_sweep_isolates_a_runtime_failure(
        self, tmp_path, golden
    ):
        service = SweepService(cache_dir=tmp_path / "cache")
        report = service.run([_cell("ESO"), _capped_cell("CISO"), _cell("PJM")])
        assert [
            (f.kind, f.attempts, f.indices, f.error_type)
            for f in report.failures
        ] == [("error", 1, (1,), "SimulationError")]
        assert report.results[1] is None
        assert _serialize(report.results[0]) == golden[0]
        assert _serialize(report.results[2]) == golden[2]
        for kept in (report.results[0], report.results[2]):
            assert service.cache.get(kept.provenance_hash) is not None

    def test_run_many_failure_contract(self):
        from repro.core.errors import SimulationError
        from repro.session import Session

        cells = [_cell("ESO"), _capped_cell("CISO")]
        with pytest.raises(SimulationError):
            Session.run_many(cells)
        with pytest.raises(ResilienceError, match=r"cell 1 \(frontier@CISO\)"):
            Session.run_many(cells, executor="process", max_workers=2)


# --- the deadline context manager -------------------------------------------
class TestDeadline:
    def test_preemptive_interrupts_a_sleep(self):
        started = time.perf_counter()
        with pytest.raises(UnitTimeout):
            with _attempt_deadline(0.1):
                time.sleep(5.0)
        assert time.perf_counter() - started < 2.0

    def test_no_timeout_is_a_no_op(self):
        with _attempt_deadline(None):
            pass

    def test_post_hoc_fallback_off_main_thread(self):
        outcome = {}

        def work():
            try:
                with _attempt_deadline(0.01):
                    time.sleep(0.05)
            except UnitTimeout as exc:
                outcome["exc"] = exc

        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert "post-hoc" in str(outcome["exc"])

    def test_handler_is_restored(self):
        previous = signal.getsignal(signal.SIGALRM)
        with _attempt_deadline(5.0):
            pass
        assert signal.getsignal(signal.SIGALRM) is previous


# --- interrupt handling (the zombie-worker bugfix) --------------------------
class _StubPool:
    """Records, in order, what the pool driver does to it on interrupt."""

    def __init__(self, error):
        self.error = error
        self.events = []
        self._processes = {1: self}  # pose as our own worker process

    def submit(self, fn, payload):
        raise self.error

    def shutdown(self, wait=True, cancel_futures=False):
        # The real pool drops its process table on shutdown — a
        # late terminate would find nothing to kill.
        self._processes = None
        self.events.append(
            ("shutdown", {"wait": wait, "cancel_futures": cancel_futures})
        )

    def terminate(self):
        self.events.append(("terminate", None))


def _drive_stub_pool(monkeypatch, error) -> _StubPool:
    """Run one unit through the pool driver on a pool raising ``error``."""
    from repro.resilience import runner

    pool = _StubPool(error)
    monkeypatch.setattr(runner, "ProcessPoolExecutor", lambda **_: pool)
    unit = ResilientUnit(
        item="unit", index=0, indices=(0,), name="u", fingerprint=None
    )
    with pytest.raises(type(error)):
        run_resilient(
            [unit], executor="process", executor_opts={"max_workers": 2}
        )
    return pool


class TestInterrupts:
    def test_pool_driver_terminates_then_cancels_on_interrupt(
        self, monkeypatch
    ):
        pool = _drive_stub_pool(monkeypatch, KeyboardInterrupt())
        # Workers hard-stopped FIRST (shutdown drops the process
        # table), then queued units cancelled.
        assert pool.events == [
            ("terminate", None),
            ("shutdown", {"wait": False, "cancel_futures": True}),
        ]

    def test_pool_driver_plain_errors_do_not_terminate(self, monkeypatch):
        pool = _drive_stub_pool(monkeypatch, ValueError("submit failed"))
        # Normal errors reap gracefully: cancel, never terminate.
        assert pool.events == [
            ("shutdown", {"wait": False, "cancel_futures": True}),
        ]

    @pytest.mark.skipif(
        sys.platform != "linux", reason="needs /proc and SIGINT semantics"
    )
    def test_sigint_leaves_no_zombie_workers(self, tmp_path):
        """End-to-end: SIGINT a pooled sweep mid-delay; the parent must
        exit promptly and leave no worker processes behind."""
        marker = f"repro-zombie-probe-{os.getpid()}"
        script = tmp_path / "sweep_victim.py"
        script.write_text(
            "import sys\n"
            "sys.argv = [sys.argv[0]]\n"  # shed the marker argument
            "from repro.session import Scenario\n"
            "from repro.sweep import SweepService\n"
            "from repro.workloads.sources import WorkloadParams\n"
            "cells = [\n"
            "    Scenario().system('frontier').region(r).node('V100')\n"
            "    .policy('carbon-oblivious')\n"
            "    .workload(WorkloadParams(horizon_h=48.0, total_gpus=8,\n"
            "              home_region=r), seed=11).seed(7).pue(1.25)\n"
            "    for r in ('ESO', 'CISO', 'PJM')\n"
            "]\n"
            "print('SWEEPING', flush=True)\n"
            "SweepService(cache=False).run(\n"
            "    cells, executor='process', max_workers=2,\n"
            "    faults={'kind': 'scripted', 'delay_at': [0, 1, 2],\n"
            "            'delay_s': 120.0, 'attempts': 99},\n"
            ")\n"
        )

        def survivors():
            alive = []
            for entry in pathlib.Path("/proc").iterdir():
                if not entry.name.isdigit():
                    continue
                try:
                    cmdline = (entry / "cmdline").read_bytes()
                except OSError:
                    continue
                if marker.encode() in cmdline:
                    alive.append(int(entry.name))
            return alive

        env = dict(os.environ)
        env["PYTHONPATH"] = str(
            pathlib.Path(__file__).resolve().parent.parent / "src"
        )
        proc = subprocess.Popen(
            [sys.executable, str(script), marker],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            assert proc.stdout.readline().strip() == b"SWEEPING"
            # Let the pool fork and settle into the injected delays.
            deadline = time.time() + 60.0
            while len(survivors()) < 2 and time.time() < deadline:
                time.sleep(0.2)
            assert len(survivors()) >= 2, "pool workers never appeared"
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=30.0)
            # Workers must be gone promptly — not after their 120s naps.
            deadline = time.time() + 10.0
            remaining = [pid for pid in survivors() if pid != proc.pid]
            while remaining and time.time() < deadline:
                time.sleep(0.2)
                remaining = [pid for pid in survivors() if pid != proc.pid]
            assert not remaining, f"zombie workers left behind: {remaining}"
        finally:
            if proc.poll() is None:
                proc.kill()
            for pid in survivors():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass


# --- SweepReport ------------------------------------------------------------
class TestSweepReport:
    def test_accounting_and_summary(self):
        failure = CellFailure(
            index=1, indices=(1,), name="c", fingerprint="fp", kind="error",
            error_type="ValueError", message="boom", attempts=2,
        )
        report = SweepReport(
            results=(None,) * 4,
            stats=CacheStats(),
            n_cells=4,
            n_unique=4,
            n_ran=1,
            executor="serial",
            failures=(failure,),
            n_skipped=2,
            n_rebuilds=1,
        )
        assert not report.ok
        assert report.n_hits == 1  # 4 unique - 1 ran - 2 skipped
        text = "\n".join(report.summary_lines())
        assert "2 journaled units skipped" in text
        assert "rebuilt 1 time" in text
        assert "boom" in text


# --- CLI --------------------------------------------------------------------
class TestCLI:
    def _spec_file(self, tmp_path):
        spec = {
            "name": "cli-res",
            "base": {
                "system": "frontier", "node": "V100", "seed": 7,
                "policy": "carbon-oblivious", "pue": 1.25,
                "workload": "synthetic", "workload_seed": 11,
                "workload_opts": {"horizon_h": 48.0, "total_gpus": 8},
            },
            "axes": {"region": ["ESO", "CISO"]},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(spec))
        return path

    def test_failure_exit_code_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._spec_file(tmp_path)
        journal = tmp_path / "j.jsonl"
        cache = str(tmp_path / "cache")
        rc = main(
            [
                "sweep", "run", str(spec), "--cache-dir", cache,
                "--faults", "scripted", "--fault-arg", "error_at=1",
                "--fault-arg", "attempts=99", "--retries", "1",
                "--journal", str(journal),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "cell 1: FAILED" in out
        assert "retry budget" in out
        # Resume: the journaled survivor is never recomputed; the failed
        # cell runs clean and the sweep exits 0.
        rc = main(
            [
                "sweep", "run", str(spec), "--cache-dir", cache,
                "--resume", str(journal),
            ]
        )
        assert rc == 0
        assert "cell 1" in capsys.readouterr().out

    def test_fault_arg_requires_faults(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._spec_file(tmp_path)
        rc = main(["sweep", "run", str(spec), "--fault-arg", "error_at=1"])
        assert rc == 2
        assert "--fault-arg requires --faults" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_non_finite_unit_timeout_exits_before_any_unit(
        self, tmp_path, capsys, timeout
    ):
        from repro.cli import main

        spec = self._spec_file(tmp_path)
        rc = main(
            [
                "sweep", "run", str(spec), "--no-cache",
                "--executor", "process", "--unit-timeout", timeout,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(
            "sweep error: unit_timeout_s must be a finite number"
        )

    def test_unit_timeout_and_writeback_flags_parse(self, tmp_path, capsys):
        from repro.cli import main

        spec = self._spec_file(tmp_path)
        rc = main(
            [
                "sweep", "run", str(spec), "--no-cache",
                "--retries", "1", "--unit-timeout", "30",
                "--no-cache-writeback", "--max-rebuilds", "2",
            ]
        )
        assert rc == 0
        assert "2 cells" in capsys.readouterr().out
