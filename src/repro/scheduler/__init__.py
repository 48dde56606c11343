"""Carbon-aware job scheduling (paper RQ5/RQ6 implications).

Placement contract (the score-table / ``place_all`` pact)
---------------------------------------------------------
Policies score candidate placements against precomputed *score tables*:
:meth:`repro.intensity.api.CarbonIntensityService.window_score_table`
holds, once per ``(region, window)``, the per-issue-hour forecast
window means (the trace's window means under a deterministic
per-``(seed, region, window)`` noise draw), built only over the issue
hours callers read: a caller passes ``rows`` = its largest candidate
hour + 1 and wraps hours by the trace length, never by the table's row
count.  A later, wider request grows the table with the rows a
whole-year build would hold, byte for byte, so placements do not depend
on which caller asked first.  Both placement paths read it:

* ``policy.place(job)`` — the scalar reference path: per-candidate
  table lookups via ``forecast_window_mean`` (deduped by floored hour).
* ``policy.place_all(jobs)`` — the batched kernel: one pass over the
  whole stream.  Every job's candidate starts form one flat column, a
  (candidate region × candidate start) score block is filled with one
  table gather per (window key, region), and segmented minima pick each
  job's first best pair.  It returns a columnar
  :class:`~repro.cluster.job.PlacementBatch` in input order whose rows
  are **byte-identical** to per-job ``place`` calls (pinned by the
  hypothesis tests in ``tests/test_placement_vectorized.py``).

The three carbon-aware policies (temporal shifting, geographic, and
both) share one search, so one ``place`` and one ``place_all`` serve
them all; each policy only declares its candidate regions (its list,
or the job's home alone) and candidate starts (the slack grid, or the
submit time alone).  ``tests/oracles.py`` keeps one scalar scan per
policy as the parity oracle.

Evaluation drives policies through
:func:`repro.scheduler.policies.place_jobs`, which prefers ``place_all``
and falls back to per-job ``place`` for minimal third-party policies —
implementing ``place`` alone keeps a custom policy fully functional.
``place_jobs`` always returns a ``PlacementBatch``: a built-in kernel's
passes through, and a third-party list of
:class:`~repro.cluster.job.Placement` (or the ``place`` results) is
columnized once there.  Validation, charging and the carbon rollup read
the batch's columns; ``Placement`` and per-job ``JobOutcome`` objects
are built only when a caller reads them.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.scheduler.policies": (
        "SchedulingPolicy", "place_jobs", "CarbonObliviousPolicy",
        "TemporalShiftingPolicy", "GeographicPolicy", "TemporalGeographicPolicy",
    ),
    "repro.scheduler.evaluation": (
        "JobOutcome", "PolicyEvaluation", "evaluate_policy", "compare_policies",
    ),
    "repro.scheduler.budget": (
        "BudgetAccount", "CarbonBudgetLedger", "priority_order",
    ),
})
