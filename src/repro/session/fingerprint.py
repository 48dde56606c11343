"""Provenance-keyed scenario fingerprints.

A fingerprint is a SHA-256 over the *canonical JSON* of everything that
determines a session's serialized result: the derived name, the set of
explicitly-set knobs (provenance rows spell ``explicit`` vs ``default``,
so the same value set two ways serializes differently), every builder
knob's canonical value, and the recorded provenance rows themselves.
Two sessions share a fingerprint exactly when ``run()`` would produce
byte-identical ``ScenarioResult.to_dict()`` JSON — the contract the
:mod:`repro.sweep` result cache and grid planner are built on.

Provenance rows alone are *not* a sufficient key: the facade keeps some
spellings row-free for golden-fixture byte stability (the legacy
``WorkloadParams`` path, ``training``/``upgrade``/``cluster`` knobs), so
the full knob map is hashed alongside them.

Values that carry no stable cross-process identity (an object whose
``repr`` embeds a memory address, a live policy instance without a
value-bearing ``repr``) make a scenario *uncacheable*:
:func:`session_fingerprint` raises :class:`~repro.core.errors.SweepError`
and the sweep service falls back to recomputing that cell every time —
conservative, never wrong.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import pathlib
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Mapping, Tuple

from repro.core.errors import SweepError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.session import Session

__all__ = [
    "canonical_json",
    "canonical_value",
    "session_fingerprint",
    "section_fingerprint",
    "section_fingerprints",
    "KNOB_SECTIONS",
    "SECTION_KNOBS",
    "RESULT_SECTIONS",
]

#: Preimage layout version; bump on any canonicalization change so old
#: cache directories invalidate wholesale instead of colliding.
#: 2: the ``simulator_opts`` knob joined the hashed knob set.
FINGERPRINT_SCHEMA = 2

#: Section-preimage layout version (hashed alongside
#: ``FINGERPRINT_SCHEMA``); bump whenever :data:`KNOB_SECTIONS` or the
#: per-section preimage shape changes, so section tiers written under
#: the old dependency map read as misses instead of serving stale
#: payloads.
SECTION_SCHEMA = 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace, ASCII-only."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _qualname(value: Any) -> str:
    cls = type(value)
    return f"{cls.__module__}.{cls.__qualname__}"


def canonical_value(value: Any, *, knob: str = "?") -> Any:
    """A JSON-able canonical form of one knob value.

    Raises :class:`SweepError` when the value has no stable identity
    (its fallback ``repr`` embeds a memory address), which the sweep
    layer treats as "uncacheable scenario", not as a failure.
    """
    import numpy as np

    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {
            "__ndarray__": hashlib.sha256(data.tobytes()).hexdigest(),
            "dtype": str(data.dtype),
            "shape": list(data.shape),
        }
    if isinstance(value, enum.Enum):
        return {"__enum__": _qualname(value), "value": value.name}
    if isinstance(value, pathlib.PurePath):
        return {"__path__": str(value)}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item, knob=knob) for item in value]
    if isinstance(value, (set, frozenset)):
        return {
            "__set__": sorted(
                canonical_json(canonical_value(item, knob=knob)) for item in value
            )
        }
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            return {
                key: canonical_value(item, knob=knob)
                for key, item in value.items()
            }
        return {
            "__items__": sorted(
                (
                    canonical_json(canonical_value(key, knob=knob)),
                    canonical_value(item, knob=knob),
                )
                for key, item in value.items()
            )
        }
    from repro.cluster.job import JobBatch

    if isinstance(value, JobBatch):
        return {"__jobbatch__": value.content_digest()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": _qualname(value),
            "fields": {
                f.name: canonical_value(getattr(value, f.name), knob=knob)
                for f in dataclasses.fields(value)
            },
        }
    # Arbitrary object: a value-bearing repr (backend sources, profile
    # objects, ModelConfig-likes) is a stable identity; the default
    # object.__repr__ embeds an address and is not.
    text = repr(value)
    if " at 0x" in text:
        raise SweepError(
            f"knob {knob!r} holds a {_qualname(value)} with no stable "
            "identity (its repr embeds a memory address); this scenario "
            "cannot be fingerprinted for the result cache"
        )
    return {"__repr__": _qualname(value), "repr": text}


def session_fingerprint(session: "Session") -> str:
    """The canonical-JSON SHA-256 identity of a built session.

    Deterministic across processes and runs: every component is either
    a plain value, a content hash, or a stable ``repr``.
    """
    s = session._scenario
    preimage: Dict[str, Any] = {
        "schema": FINGERPRINT_SCHEMA,
        "name": session.name,
        "explicit": sorted(s._explicit),
        "knobs": {
            knob: canonical_value(getattr(s, f"_{knob}"), knob=knob)
            for knob in _SCENARIO_KNOBS
        },
        "provenance": [
            [p.knob, p.value, p.source, p.backend] for p in session.provenance
        ],
    }
    return hashlib.sha256(canonical_json(preimage).encode("ascii")).hexdigest()


# --- per-section fingerprints ------------------------------------------------
#: The six pipeline sections, then the rollup, in ``ScenarioResult``
#: field order (the order ``Session.run`` computes them in).
RESULT_SECTIONS: Tuple[str, ...] = (
    "embodied",
    "audit",
    "training",
    "scheduling",
    "cluster",
    "upgrade",
    "carbon",
)

_SIX = frozenset(RESULT_SECTIONS[:-1])
#: Every section that charges operational carbon reads the intensity
#: trace (region/source/seed) and the facility overhead (pue).
_CHARGED = frozenset({"audit", "training", "scheduling", "cluster", "upgrade"})

#: The declarative dependency map: every Scenario builder knob, in
#: declaration order -> the sections whose serialized payload that
#: knob's value can reach.  Sound and minimal by reading of
#: ``Session._run_*``: a knob must appear for every section whose
#: ``to_dict`` payload it can change, and should appear for no other
#: (extra entries only cost cache hits, missing ones serve stale data —
#: the soundness property tests in tests/test_delta.py guard this).
#:
#: Notes on the non-obvious rows:
#: * ``name``/``renderer``/``executor``/``executor_opts`` shape no
#:   section payload (name lands on the result envelope, the renderer
#:   only formats, executors only schedule).
#: * ``regions`` feeds only scheduling: geographic policies draw their
#:   candidate set from it; audit/training/cluster/upgrade read the
#:   single home-region trace.
#: * ``forecast_error`` feeds only scheduling: simulators and auditors
#:   consume the raw trace, never forecasts.
#: * ``accounting``/``accounting_opts`` feed scheduling (the evaluation
#:   engine) and the carbon rollup (its ``backend`` label); the other
#:   charged sections meter through their own fixed engines.
#: * ``lifetime_years`` feeds audit (service-years) and upgrade
#:   (breakeven); the rollup's amortization reads it via the union.
KNOB_SECTIONS: Mapping[str, FrozenSet[str]] = {
    "name": frozenset(),
    "system": frozenset({"embodied", "audit"}),
    "node": frozenset({"embodied", "training", "scheduling", "cluster"}),
    "region": _CHARGED,
    "regions": frozenset({"scheduling"}),
    "intensity_source": _CHARGED,
    "constant_intensity": _CHARGED,
    "seed": _CHARGED,
    "forecast_error": frozenset({"scheduling"}),
    "policies": frozenset({"scheduling"}),
    "workload": frozenset({"scheduling", "cluster"}),
    "workload_opts": frozenset({"scheduling", "cluster"}),
    "workload_seed": frozenset({"scheduling", "cluster"}),
    "hourly_training_pue": frozenset({"training"}),
    "training": frozenset({"training"}),
    "upgrade": frozenset({"upgrade"}),
    "cluster_nodes": frozenset({"cluster"}),
    "simulator": frozenset({"cluster"}),
    "simulator_opts": frozenset({"cluster"}),
    "window_h": frozenset({"cluster"}),
    "lifetime_years": frozenset({"audit", "upgrade"}),
    "usage": frozenset({"audit", "upgrade"}),
    "pue": _CHARGED,
    "pue_opts": _CHARGED,
    "config": _SIX,
    "lifecycle": frozenset({"audit"}),
    "n_nodes": frozenset({"audit"}),
    "nics_per_node": frozenset({"audit"}),
    "renderer": frozenset(),
    "executor": frozenset(),
    "executor_opts": frozenset(),
    "accounting": frozenset({"scheduling"}),
    "accounting_opts": frozenset({"scheduling"}),
}

#: Every Scenario builder knob, in declaration order.  The fingerprint
#: hashes all of them (sorted JSON keys), so a knob the provenance
#: record skips still invalidates the cache when it changes.
_SCENARIO_KNOBS: Tuple[str, ...] = tuple(KNOB_SECTIONS)


def _invert_knob_map() -> Dict[str, Tuple[str, ...]]:
    by_section: Dict[str, set] = {name: set() for name in RESULT_SECTIONS}
    for knob, sections in KNOB_SECTIONS.items():
        for section in sections:
            by_section[section].add(knob)
        # The rollup re-reads every contributing section (plus
        # lifetime_years/accounting directly), so its preimage is the
        # union of all six.
        if sections:
            by_section["carbon"].add(knob)
    return {
        name: tuple(knob for knob in _SCENARIO_KNOBS if knob in knobs)
        for name, knobs in by_section.items()
    }


#: Derived view: section -> the knobs its fingerprint hashes, in
#: ``_SCENARIO_KNOBS`` declaration order.  ``carbon`` is the union of
#: the six sections' sets.
SECTION_KNOBS: Mapping[str, Tuple[str, ...]] = _invert_knob_map()


def section_fingerprints(session: "Session") -> Dict[str, str]:
    """One stable fingerprint per result section (plus ``carbon``).

    Each section's hash covers *only* the knobs that section actually
    reads (per :data:`KNOB_SECTIONS`), so a sweep cell that differs from
    a cached neighbour in a late-stage knob — renderer, accounting
    engine, upgrade horizon — shares most section fingerprints with it
    and can be assembled instead of recomputed.  Knob *values* are
    hashed unconditionally (not presence-gated): whether a section is
    present at all is itself a function of its knob set, so "section is
    absent" payloads cache under the same key discipline.

    Raises :class:`SweepError` for sessions whose knobs carry no stable
    identity, exactly like :func:`session_fingerprint`.
    """
    s = session._scenario
    canon = {
        knob: canonical_value(getattr(s, f"_{knob}"), knob=knob)
        for knob in _SCENARIO_KNOBS
    }
    out: Dict[str, str] = {}
    for name in RESULT_SECTIONS:
        preimage = {
            "schema": [FINGERPRINT_SCHEMA, SECTION_SCHEMA],
            "section": name,
            "knobs": {knob: canon[knob] for knob in SECTION_KNOBS[name]},
        }
        out[name] = hashlib.sha256(
            canonical_json(preimage).encode("ascii")
        ).hexdigest()
    return out


def section_fingerprint(session: "Session", section: str) -> str:
    """The fingerprint of one named section (see :func:`section_fingerprints`)."""
    if section not in SECTION_KNOBS:
        known = ", ".join(RESULT_SECTIONS)
        raise SweepError(
            f"unknown result section {section!r}; known sections: {known}"
        )
    return section_fingerprints(session)[section]
