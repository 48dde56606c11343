"""Deterministic fault injection: the ``faults`` registry kind.

Chaos testing a sweep only proves something if the chaos replays: the
injectors here decide *byte-reproducibly* — from the unit's stable
token (its fingerprint, or name#index for uncacheable cells), its grid
index, and the attempt number — whether to crash the worker, raise an
error, delay, or corrupt the result in flight.  Three built-ins:

* ``none`` — the inert injector (the default everywhere);
* ``random`` — seeded per-token probabilities (``crash_p`` /
  ``error_p`` / ``corrupt_p`` / ``delay_p``), the "1% of my fleet is
  flaky" model;
* ``scripted`` — fail exactly the listed unit indices
  (``crash_at=[2]`` kills the worker running unit 2), the "reproduce
  the incident" model.

Injectors act at the executor boundary (see
:mod:`repro.resilience.runner`): a ``crash`` inside a pool worker is a
real ``os._exit`` — the parent sees ``BrokenProcessPool`` exactly as it
would for an OOM-killed worker — while serial execution degrades
``crash`` to a raised :class:`InjectedFault` (killing the only process
would abort the host, not simulate a lost worker).  ``corrupt`` lets
the unit compute, then discards the result and raises, modeling a
payload lost or mangled on the way back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.core.errors import ResilienceError
from repro.resilience.policy import _hash_fraction

__all__ = [
    "FaultAction",
    "InjectedFault",
    "NoFaults",
    "RandomFaults",
    "ScriptedFaults",
    "FAULT_KINDS",
]

#: The actions an injector may order, in priority order.
FAULT_KINDS: Tuple[str, ...] = ("crash", "error", "corrupt", "delay")


class InjectedFault(RuntimeError):
    """A deliberately injected unit failure (retryable like any other)."""


@dataclass(frozen=True)
class FaultAction:
    """One injector decision for one (unit, attempt)."""

    kind: str
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ResilienceError(
                f"unknown fault kind {self.kind!r}; known: "
                + ", ".join(FAULT_KINDS)
            )
        if self.delay_s < 0.0:
            raise ResilienceError(
                f"delay_s must be >= 0, got {self.delay_s!r}"
            )


@dataclass(frozen=True)
class NoFaults:
    """The inert injector: never acts."""

    name: str = "none"

    def action(
        self, *, token: str, index: int, attempt: int
    ) -> Optional[FaultAction]:
        return None


@dataclass(frozen=True)
class RandomFaults:
    """Seeded per-token fault probabilities.

    One uniform draw per fault class is derived from
    ``(seed, token, attempt)``, so a given unit fails the same way in
    every run of the sweep — and recovers on retry once ``attempts``
    injections have fired (default: only the first attempt is haunted,
    so a single retry always recovers; raise ``attempts`` to model
    persistent faults).
    """

    crash_p: float = 0.0
    error_p: float = 0.0
    corrupt_p: float = 0.0
    delay_p: float = 0.0
    delay_s: float = 0.05
    seed: int = 0
    attempts: int = 1
    name: str = field(default="random", init=False)

    def __post_init__(self) -> None:
        for label in ("crash_p", "error_p", "corrupt_p", "delay_p"):
            value = getattr(self, label)
            if not 0.0 <= value <= 1.0:
                raise ResilienceError(
                    f"{label} must be a probability in [0, 1], got {value!r}"
                )
        if self.delay_s < 0.0:
            raise ResilienceError(
                f"delay_s must be >= 0, got {self.delay_s!r}"
            )
        if int(self.attempts) < 1:
            raise ResilienceError(
                f"attempts must be >= 1, got {self.attempts!r}"
            )

    def action(
        self, *, token: str, index: int, attempt: int
    ) -> Optional[FaultAction]:
        if attempt > self.attempts:
            return None  # the haunting lifts: retries can recover
        for kind, probability in (
            ("crash", self.crash_p),
            ("error", self.error_p),
            ("corrupt", self.corrupt_p),
            ("delay", self.delay_p),
        ):
            if probability <= 0.0:
                continue
            draw = _hash_fraction("faults", self.seed, kind, token, attempt)
            if draw < probability:
                return FaultAction(
                    kind, delay_s=self.delay_s if kind == "delay" else 0.0
                )
        return None


def _index_tuple(label: str, values: Optional[Sequence[int]]) -> Tuple[int, ...]:
    if values is None:
        return ()
    if isinstance(values, bool) or isinstance(values, (int, float)):
        values = [values]
    out = []
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ResilienceError(
                f"{label} takes unit indices (integers), got {value!r}"
            )
        if value < 0:
            raise ResilienceError(f"{label} indices must be >= 0, got {value!r}")
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class ScriptedFaults:
    """Fail exactly the listed unit indices.

    ``crash_at`` / ``error_at`` / ``corrupt_at`` / ``delay_at`` name
    grid-cell indices (a deduplicated unit is addressed by its first
    cell).  Each listed unit is hit on attempts ``1..attempts``
    (default 1, so one retry recovers it); ``attempts`` large enough to
    outlast the retry budget produces a guaranteed
    :class:`~repro.resilience.CellFailure`.
    """

    crash_at: Tuple[int, ...] = ()
    error_at: Tuple[int, ...] = ()
    corrupt_at: Tuple[int, ...] = ()
    delay_at: Tuple[int, ...] = ()
    delay_s: float = 0.05
    attempts: int = 1
    name: str = field(default="scripted", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "crash_at", _index_tuple("crash_at", self.crash_at))
        object.__setattr__(self, "error_at", _index_tuple("error_at", self.error_at))
        object.__setattr__(
            self, "corrupt_at", _index_tuple("corrupt_at", self.corrupt_at)
        )
        object.__setattr__(self, "delay_at", _index_tuple("delay_at", self.delay_at))
        if self.delay_s < 0.0:
            raise ResilienceError(f"delay_s must be >= 0, got {self.delay_s!r}")
        if int(self.attempts) < 1:
            raise ResilienceError(f"attempts must be >= 1, got {self.attempts!r}")

    def action(
        self, *, token: str, index: int, attempt: int
    ) -> Optional[FaultAction]:
        if attempt > self.attempts:
            return None
        if index in self.crash_at:
            return FaultAction("crash")
        if index in self.error_at:
            return FaultAction("error")
        if index in self.corrupt_at:
            return FaultAction("corrupt")
        if index in self.delay_at:
            return FaultAction("delay", delay_s=self.delay_s)
        return None
