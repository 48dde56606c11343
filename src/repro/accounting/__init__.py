"""Unified carbon accounting: one ledger behind every subsystem.

The paper's contribution is *end-to-end* accounting — embodied
manufacturing (Eq. 1-5) plus operational grid carbon (Eq. 6) in one
currency.  This package is the library's single implementation of the
charging side: the scheduler evaluator, the cluster simulator, the
whole-center audit and the upgrade analysis all record their carbon
into a :class:`CarbonLedger` instead of keeping bespoke sums, so
per-job / per-region / per-policy attribution and Eq. 1 rollups come
from one place.

* :class:`CarbonLedger` / :class:`LedgerEntry` — typed, columnar
  charge accounting with multi-axis attribution
  (:mod:`repro.accounting.ledger`).
* :class:`VectorizedChargingEngine` — batched charging of placed jobs
  (:mod:`repro.accounting.engines`), bit-identical to the seed per-job
  loop the tests pin it against; the session registry's
  ``accounting`` kind resolves it (``Scenario.accounting("vectorized")``).
* :func:`resolve_pue` — scalar *or hourly-profile* facility overhead,
  shared by every charge path (:mod:`repro.accounting.pue`).

The decision side of scheduling was batched in the placement kernels
(``window_score_table``); this package is the twin for the *charging*
side (``truth_window_table``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.accounting.ledger": (
        "CarbonLedger", "LedgerEntry", "amortized_embodied_g",
    ),
    "repro.accounting.engines": (
        "JobCharges", "VectorizedChargingEngine",
    ),
    "repro.accounting.pue": (
        "PUELike", "resolve_pue", "pue_window_means", "align_pue_profile",
        "cyclic_product_cycle", "cyclic_weighted_mean",
    ),
})
