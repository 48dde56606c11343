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
* ``policy.place_all(jobs)`` — the batched kernel: one gather +
  ``argmin`` per job group (2-D region × start matrix from
  ``window_score_matrix`` and ``unravel_index`` for the joint policy),
  returning placements in input order that are **byte-identical** to
  per-job ``place`` calls (pinned by the hypothesis tests in
  ``tests/test_placement_vectorized.py``).

Evaluation and capacity replay drive policies through
:func:`repro.scheduler.policies.place_jobs`, which prefers ``place_all``
and falls back to per-job ``place`` for minimal third-party policies —
implementing ``place`` alone keeps a custom policy fully functional.
"""

from repro.scheduler.budget import BudgetAccount, CarbonBudgetLedger, priority_order
from repro.scheduler.capacity import (
    CapacityAwareOutcome,
    simulate_with_policy,
    temporal_shifting_with_capacity,
)
from repro.scheduler.evaluation import (
    JobOutcome,
    PolicyEvaluation,
    compare_policies,
    evaluate_policy,
)
from repro.scheduler.transfer import (
    DATASET_GB,
    TransferModel,
    dataset_size_gb,
    default_transfer_model,
    transfer_carbon_g,
    transfer_energy_kwh,
)
from repro.scheduler.policies import (
    CarbonObliviousPolicy,
    GeographicPolicy,
    SchedulingPolicy,
    TemporalGeographicPolicy,
    TemporalShiftingPolicy,
    place_jobs,
)

__all__ = [
    "SchedulingPolicy",
    "place_jobs",
    "CarbonObliviousPolicy",
    "TemporalShiftingPolicy",
    "GeographicPolicy",
    "TemporalGeographicPolicy",
    "JobOutcome",
    "PolicyEvaluation",
    "evaluate_policy",
    "compare_policies",
    "BudgetAccount",
    "CarbonBudgetLedger",
    "priority_order",
    "CapacityAwareOutcome",
    "simulate_with_policy",
    "temporal_shifting_with_capacity",
    "TransferModel",
    "DATASET_GB",
    "dataset_size_gb",
    "default_transfer_model",
    "transfer_energy_kwh",
    "transfer_carbon_g",
]


# --- session-facade backends ------------------------------------------------
def register_backends(registry) -> None:
    """Self-register scheduling policies for the Scenario/Session facade.

    Policy factories take ``(service, default_region, regions=None)`` and
    return a :class:`SchedulingPolicy`.  ``carbon_aware`` is the paper's
    headline joint policy (alias of ``temporal+geographic``).
    """

    def oblivious(service, default_region, regions=None):
        del regions
        return CarbonObliviousPolicy(service, default_region)

    def temporal(service, default_region, regions=None):
        del regions
        return TemporalShiftingPolicy(service, default_region)

    def geographic(service, default_region, regions=None):
        return GeographicPolicy(service, default_region, regions=regions)

    def temporal_geographic(service, default_region, regions=None):
        return TemporalGeographicPolicy(service, default_region, regions=regions)

    registry.add(
        "policy", "carbon-oblivious", oblivious, aliases=("baseline", "oblivious")
    )
    registry.add(
        "policy", "temporal-shifting", temporal, aliases=("temporal",)
    )
    registry.add("policy", "geographic", geographic, aliases=("geo",))
    registry.add(
        "policy",
        "temporal+geographic",
        temporal_geographic,
        aliases=("carbon_aware", "carbon-aware", "temporal_geographic"),
    )


__all__.append("register_backends")
