"""Fault-tolerant sweep execution: retries, timeouts, resume, chaos.

The :mod:`repro.resilience` layer wraps the sweep executors with the
machinery long campaigns need on real infrastructure:

* :class:`RetryPolicy` — bounded attempts with exponential backoff,
  deterministic seeded jitter, and per-attempt wall-clock timeouts;
* :class:`CellFailure` — the structured record a unit leaves behind
  when its whole retry budget is exhausted, instead of an exception
  aborting the campaign;
* :func:`run_resilient` — per-unit isolation over the registered
  executors, with process-pool crash detection, bounded pool rebuilds,
  and re-dispatch of only the unfinished units;
* :class:`SweepJournal` — the append-only JSONL checkpoint behind
  ``repro-hpc sweep run --resume``;
* the ``faults`` registry kind (:class:`NoFaults`,
  :class:`RandomFaults`, :class:`ScriptedFaults`) — byte-reproducible
  fault injection at the executor boundary, for chaos tests that
  actually replay.

:class:`~repro.sweep.runner.SweepService` consumes all of this; see
its ``retry`` / ``faults`` / ``journal`` / ``resume`` knobs.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.resilience.policy": ("RetryPolicy", "CellFailure", "traceback_digest"),
    "repro.resilience.faults": (
        "FaultAction", "InjectedFault", "NoFaults", "RandomFaults",
        "ScriptedFaults", "FAULT_KINDS",
    ),
    "repro.resilience.journal": ("SweepJournal", "JOURNAL_SCHEMA"),
    "repro.resilience.runner": (
        "ResilientUnit", "UnitOutcome", "ResilientRun", "UnitTimeout",
        "run_resilient", "DEFAULT_MAX_REBUILDS",
    ),
})
