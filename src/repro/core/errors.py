"""Exception hierarchy for the :mod:`repro` library.

Every error raised by this package derives from :class:`ReproError`, so
callers embedding the library can catch one base class.  Subclasses are
organized by subsystem rather than by failure mechanics: a user of the
scheduler only needs to catch :class:`SchedulingError`, not know which
internal helper raised it.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "UnitError",
    "ConfigurationError",
    "CatalogError",
    "CalibrationError",
    "TraceError",
    "PowerModelError",
    "WorkloadError",
    "SimulationError",
    "SchedulingError",
    "AccountingError",
    "BudgetError",
    "UpgradeAnalysisError",
    "ExperimentError",
    "SessionError",
    "PUEError",
    "SweepError",
    "ResilienceError",
    "UnknownBackendError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class UnitError(ReproError):
    """Invalid unit arithmetic or a physically impossible quantity.

    Raised, for example, when constructing a negative energy, adding a
    power to an energy, or multiplying two carbon masses.
    """


class ConfigurationError(ReproError):
    """A model configuration value is out of its valid domain.

    Examples: a fab yield outside ``(0, 1]``, a PUE below 1.0, or a
    negative per-IC packaging overhead.
    """


class CatalogError(ReproError):
    """A hardware part, node generation, or system lookup failed.

    Raised by :mod:`repro.hardware` when an unknown part name is requested
    or when a spec is constructed with inconsistent fields (e.g. an SSD
    with a DRAM emission factor).
    """


class CalibrationError(ReproError):
    """Calibrated model data is internally inconsistent.

    The workload performance tables and the regional intensity profiles
    are calibrated against the paper's published numbers; this error
    signals that a table is missing an entry or violates a monotonicity
    requirement (e.g. a newer GPU generation modeled slower than an older
    one for the same model).
    """


class TraceError(ReproError):
    """A carbon-intensity trace is malformed.

    Examples: non-hourly data where hourly is required, a trace whose
    length is not a whole number of days for day-structured analysis, or
    an alignment request between traces of different lengths.
    """


class PowerModelError(ReproError):
    """A power model or simulated meter was used out of its domain.

    Examples: utilization outside ``[0, 1]`` or sampling a meter that was
    never attached to a device.
    """


class WorkloadError(ReproError):
    """A workload/benchmark specification is invalid.

    Examples: an unknown model name, an empty suite, or a training run
    configured with zero GPUs.
    """


class SimulationError(ReproError):
    """The cluster simulator detected an impossible state.

    Examples: a job that finishes before it starts, negative free
    capacity, or event-queue corruption.  These indicate bugs or invalid
    user-supplied traces and always abort the simulation.
    """


class SchedulingError(ReproError):
    """A scheduling policy produced an invalid placement."""


class AccountingError(ReproError):
    """Carbon-ledger misuse (mismatched batch shapes, an unknown
    charging engine, or a PUE profile outside its valid domain)."""


class BudgetError(ReproError):
    """Carbon-budget ledger misuse (unknown user, negative allocation)."""


class UpgradeAnalysisError(ReproError):
    """An upgrade scenario is inconsistent (e.g. upgrading to the same
    generation, a non-positive analysis horizon, or an empty workload
    mix)."""


class ExperimentError(ReproError):
    """An experiment (figure/table reproduction) could not be assembled."""


class SessionError(ReproError):
    """A scenario/session facade request is invalid.

    Examples: a :class:`~repro.session.Scenario` missing a required knob
    (no system/node/region for a grid-dependent study), conflicting
    knobs (constant intensity and a synthetic source), or running an
    already-invalidated builder.
    """


class PUEError(SessionError):
    """An invalid facility PUE was requested through the facade.

    Raised by :meth:`~repro.session.Scenario.pue` for non-finite values
    (``nan``/``inf``), values below the physical floor of 1.0, and
    malformed profile specifications.  Subclasses
    :class:`SessionError`, so existing facade-level handlers keep
    working.
    """


class SweepError(SessionError):
    """A sweep-service request is invalid.

    Examples: a declarative sweep spec with an unknown knob or a
    mis-typed axis value, a scenario whose knobs cannot be fingerprinted
    for the result cache (an object with no stable identity), or an
    unwritable cache entry.  Subclasses :class:`SessionError`, so
    existing facade-level handlers keep working.
    """


class ResilienceError(SweepError):
    """Fault-tolerant sweep execution could not make progress.

    Raised when the resilience layer exhausts its recovery budget —
    e.g. a process pool that keeps crashing past ``max_rebuilds``
    rebuilds, or an invalid :class:`~repro.resilience.RetryPolicy` /
    fault-injector specification.  Per-unit failures do *not* raise:
    they surface as :class:`~repro.resilience.CellFailure` entries on
    the returned :class:`~repro.sweep.runner.SweepReport`.  Subclasses
    :class:`SweepError`, so existing sweep-level handlers keep working.
    """


class UnknownBackendError(SessionError):
    """A backend-registry lookup failed.

    Carries the registry ``kind`` and the known keys so callers (and
    error messages) can point at the available choices.
    """

    def __init__(self, kind: str, key: str, known: "tuple[str, ...]") -> None:
        self.kind = kind
        self.key = key
        self.known = tuple(known)
        choices = ", ".join(self.known) if self.known else "(none registered)"
        super().__init__(
            f"unknown {kind} backend {key!r}; registered: {choices}"
        )
