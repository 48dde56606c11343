"""Retry policies and structured per-cell failures.

A :class:`RetryPolicy` bounds how hard the resilience layer fights for
one work unit: how many attempts, how long to back off between them
(exponential, with *deterministic* seeded jitter so two runs of the
same sweep sleep the same schedule), and an optional per-attempt
wall-clock timeout.  A unit that exhausts its budget yields a
:class:`CellFailure` — exception type, message, a stable traceback
digest, attempt count, and the unit's fingerprint — instead of
propagating, so one pathological cell can no longer abort a campaign.
"""

from __future__ import annotations

import hashlib
import math
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.errors import ResilienceError

__all__ = ["RetryPolicy", "CellFailure", "traceback_digest"]


def _hash_fraction(*parts: object) -> float:
    """A deterministic uniform draw in ``[0, 1)`` keyed by ``parts``."""
    payload = ":".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, and how patiently, to re-run a failing unit.

    Parameters
    ----------
    max_attempts:
        Total attempts per unit (first run included); ``1`` disables
        retries.
    backoff_s / backoff_factor:
        Sleep before attempt ``n`` (n >= 2) is
        ``backoff_s * backoff_factor ** (n - 2)``.
    jitter:
        Fractional jitter in ``[0, 1]``: the sleep is scaled by a factor
        drawn deterministically from ``(seed, unit token, attempt)`` in
        ``[1 - jitter, 1 + jitter]`` — reproducible across runs, unlike
        wall-clock RNG jitter.
    unit_timeout_s:
        Per-*attempt* wall-clock deadline; a timed-out attempt counts
        as a failure and retries like any other.
    seed:
        Namespace for the jitter draws.
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.0
    unit_timeout_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if int(self.max_attempts) < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}"
            )
        # NaN slips through every range check below, and an infinite
        # deadline or sleep overflows the timer and time.sleep.
        for name in ("backoff_s", "backoff_factor", "unit_timeout_s"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ResilienceError(
                    f"{name} must be a finite number, got {value!r}"
                )
        if self.backoff_s < 0.0:
            raise ResilienceError(
                f"backoff_s must be >= 0, got {self.backoff_s!r}"
            )
        if self.backoff_factor < 1.0:
            raise ResilienceError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ResilienceError(
                f"jitter must be in [0, 1], got {self.jitter!r}"
            )
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0.0:
            raise ResilienceError(
                f"unit_timeout_s must be > 0, got {self.unit_timeout_s!r}"
            )

    @property
    def retries(self) -> int:
        """Extra attempts after the first (the CLI's ``--retries``)."""
        return int(self.max_attempts) - 1

    @property
    def active(self) -> bool:
        """Whether this policy changes anything over run-once-and-raise."""
        return self.max_attempts > 1 or self.unit_timeout_s is not None

    def delay_s(self, *, attempt: int, token: str) -> float:
        """Deterministic backoff before ``attempt`` (attempt >= 2)."""
        if attempt <= 1 or self.backoff_s <= 0.0:
            return 0.0
        base = self.backoff_s * self.backoff_factor ** (attempt - 2)
        if self.jitter <= 0.0:
            return base
        draw = _hash_fraction("jitter", self.seed, token, attempt)
        return base * (1.0 - self.jitter + 2.0 * self.jitter * draw)

    @classmethod
    def coerce(
        cls, value: Union["RetryPolicy", Mapping[str, Any], int, None]
    ) -> "RetryPolicy":
        """Normalize the spellings the service and CLI accept.

        ``None`` -> the inert policy; an int -> that many *retries*
        (``max_attempts = value + 1``); a mapping -> keyword fields,
        with ``retries`` accepted as the human spelling of
        ``max_attempts - 1``.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise ResilienceError(f"cannot build a RetryPolicy from {value!r}")
        if isinstance(value, int):
            if value < 0:
                raise ResilienceError(f"retries must be >= 0, got {value!r}")
            return cls(max_attempts=value + 1)
        if isinstance(value, Mapping):
            opts = {k: v for k, v in value.items() if v is not None}
            if "retries" in opts:
                if "max_attempts" in opts:
                    raise ResilienceError(
                        "set either 'retries' or 'max_attempts', not both"
                    )
                retries = opts.pop("retries")
                if not isinstance(retries, int) or isinstance(retries, bool) or (
                    retries < 0
                ):
                    raise ResilienceError(
                        f"retries must be a non-negative integer, got {retries!r}"
                    )
                opts["max_attempts"] = retries + 1
            unknown = sorted(
                set(opts)
                - {
                    "max_attempts", "backoff_s", "backoff_factor",
                    "jitter", "unit_timeout_s", "seed",
                }
            )
            if unknown:
                raise ResilienceError(
                    f"unknown RetryPolicy fields {unknown}; known: retries, "
                    "max_attempts, backoff_s, backoff_factor, jitter, "
                    "unit_timeout_s, seed"
                )
            try:
                return cls(**opts)
            except TypeError as exc:
                raise ResilienceError(f"invalid RetryPolicy: {exc}") from None
        raise ResilienceError(
            f"cannot build a RetryPolicy from {type(value).__name__} {value!r}"
        )


def traceback_digest(exc: BaseException) -> str:
    """A short stable hash of an exception's traceback frames.

    Digests the (file, line, function) triples rather than the rendered
    text, so two workers failing at the same code path — but with
    different object addresses in their messages — fingerprint alike.
    """
    frames = [
        (frame.filename, frame.lineno, frame.name)
        for frame in traceback.extract_tb(exc.__traceback__)
    ]
    payload = repr((type(exc).__name__, frames)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


@dataclass(frozen=True)
class CellFailure:
    """One work unit that stayed failed after its whole retry budget.

    ``kind`` tags the terminal failure mode: ``"error"`` (the unit
    raised), ``"timeout"`` (it blew its per-attempt deadline), or
    ``"crash"`` (its pool worker died — OOM-kill, segfault, injected
    ``os._exit``).  ``indices`` lists every grid cell the failed unit
    served (deduplicated cells fail together, exactly as they would
    have succeeded together).
    """

    index: int
    indices: Tuple[int, ...]
    name: str
    fingerprint: Optional[str]
    kind: str
    error_type: str
    message: str
    attempts: int
    digest: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        *,
        index: int,
        indices: Tuple[int, ...],
        name: str,
        fingerprint: Optional[str],
        attempts: int,
        kind: str = "error",
    ) -> "CellFailure":
        return cls(
            index=index,
            indices=tuple(indices),
            name=name,
            fingerprint=fingerprint,
            kind=kind,
            error_type=type(exc).__name__,
            message=str(exc),
            attempts=attempts,
            digest=traceback_digest(exc),
        )

    def summary(self) -> str:
        return (
            f"cell {self.index} ({self.name}): {self.kind} after "
            f"{self.attempts} attempt{'s' if self.attempts != 1 else ''} — "
            f"{self.error_type}: {self.message}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "indices": list(self.indices),
            "name": self.name,
            "fingerprint": self.fingerprint,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
            "digest": self.digest,
        }
