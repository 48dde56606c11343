"""The provenance-keyed result cache.

Entries are keyed by :meth:`~repro.session.session.Session.fingerprint`
— the canonical-JSON hash of every knob and provenance row — and hold a
:meth:`~repro.session.result.ScenarioResult.to_dict` payload, so a
cache hit deserializes to exactly the bytes the original run would have
serialized to (the sweep service's byte-identity contract).

Two tiers, both optional:

* an in-memory LRU (``memory_slots`` entries, the hot tier for repeated
  grids inside one process);
* an on-disk store under ``cache_dir`` (default ``~/.cache/repro-hpc``)
  with one JSON file per fingerprint, written atomically
  (tmp + ``os.replace``) so concurrent sweep workers can race on the
  same entry without torn files.

Corrupted, truncated, or schema-mismatched disk entries *fail soft*:
they count in ``stats.errors`` and read as a miss, so a damaged cache
directory degrades to recomputation, never to a wrong result.

Since PR 10 the cache carries a third axis: a **section tier** keyed by
``(section_name, section_fingerprint)`` holding each section's
``to_dict`` payload (``sections/<name>/<shard>/<fingerprint>.json`` on
disk, the same LRU discipline in memory, per-section hit/miss/evict
stats).  The scheduling and upgrade payloads also carry, as plain JSON
columns, the ledgers the carbon rollup reads.
``Session.run(reuse=cache)`` assembles results from it, recomputing only
sections whose inputs changed — the sweep service's delta-evaluation
path.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro.core.errors import SweepError
from repro.session.fingerprint import RESULT_SECTIONS
from repro.session.result import ScenarioResult

__all__ = [
    "CacheClearance",
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
    "default_memory_slots",
]

#: On-disk entry layout version; bump on any payload change so stale
#: directories read as misses instead of mis-parsing.
CACHE_SCHEMA = 1

#: On-disk section-entry layout version (independent of the whole-result
#: schema: the two tiers evolve separately).  Schema 2 payloads of the
#: scheduling and upgrade sections carry the ledger the carbon rollup
#: reads (``repro.session.result.dump_section``).
SECTION_CACHE_SCHEMA = 2

#: Fallback in-memory LRU capacity (see :func:`default_memory_slots`).
DEFAULT_MEMORY_SLOTS = 256


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_HPC_CACHE_DIR`` or ``~/.cache/repro-hpc``."""
    override = os.environ.get("REPRO_HPC_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro-hpc"


def default_memory_slots() -> int:
    """``$REPRO_HPC_CACHE_MEM`` or :data:`DEFAULT_MEMORY_SLOTS`.

    The env var tunes the memory-tier LRU capacity fleet-wide (small
    boxes shrink it, sweep servers grow it) without touching call
    sites; a malformed value is a configuration error and raises.
    """
    override = os.environ.get("REPRO_HPC_CACHE_MEM")
    if not override:
        return DEFAULT_MEMORY_SLOTS
    try:
        slots = int(override)
    except ValueError:
        raise SweepError(
            f"REPRO_HPC_CACHE_MEM must be an integer, got {override!r}"
        ) from None
    if slots < 0:
        raise SweepError(
            f"REPRO_HPC_CACHE_MEM must be >= 0, got {override!r}"
        )
    return slots


@dataclass(frozen=True)
class CacheClearance:
    """What one :meth:`ResultCache.clear` call removed from disk.

    ``entries`` counts cached results, ``stale_tmp`` the orphaned
    ``*.tmp`` droppings left by writers killed mid-``put``, and
    ``pruned_dirs`` the shard directories the removals emptied.
    """

    entries: int = 0
    stale_tmp: int = 0
    pruned_dirs: int = 0
    sections: int = 0

    def summary(self) -> str:
        text = (
            f"{self.entries} cached result(s), "
            f"{self.stale_tmp} stale temp file(s), "
            f"{self.pruned_dirs} empty shard dir(s)"
        )
        if self.sections:
            text += f", {self.sections} cached section payload(s)"
        return text


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss/evict/error counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    errors: int = 0

    def summary(self) -> str:
        return (
            f"{self.hits} hit{'s' if self.hits != 1 else ''}, "
            f"{self.misses} miss{'es' if self.misses != 1 else ''}, "
            f"{self.evictions} evicted, {self.errors} errors"
        )


class ResultCache:
    """In-memory + on-disk store of serialized scenario results.

    ``cache_dir=None`` keeps the cache memory-only.  The directory is
    created lazily on the first write, so constructing a cache (e.g.
    for conformance checks or ``plan``-only calls) touches no disk.

    ``memory_slots`` bounds the memory-tier LRU, defaulting to
    ``$REPRO_HPC_CACHE_MEM`` (else :data:`DEFAULT_MEMORY_SLOTS`).
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, pathlib.Path]] = None,
        *,
        memory_slots: Optional[int] = None,
    ) -> None:
        slots = default_memory_slots() if memory_slots is None else memory_slots
        if slots < 0:
            raise SweepError(f"memory_slots must be >= 0, got {slots!r}")
        self._dir = pathlib.Path(cache_dir) if cache_dir is not None else None
        self._memory_slots = int(slots)
        self._memory: "OrderedDict[str, ScenarioResult]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._errors = 0
        # Section tier: (section, fingerprint) -> to_dict payload (None
        # for "the scenario did not request this section"), plus one
        # counter block per section name.
        self._section_memory: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._section_counts: Dict[str, Dict[str, int]] = {
            name: {"hits": 0, "misses": 0, "evictions": 0, "errors": 0}
            for name in RESULT_SECTIONS
        }

    # --- introspection ----------------------------------------------------
    @property
    def cache_dir(self) -> Optional[pathlib.Path]:
        return self._dir

    @property
    def memory_slots(self) -> int:
        return self._memory_slots

    @property
    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            errors=self._errors,
        )

    @property
    def section_stats(self) -> Dict[str, CacheStats]:
        """Per-section hit/miss/evict/error counters (section tier)."""
        return {
            name: CacheStats(**counts)
            for name, counts in self._section_counts.items()
        }

    def __len__(self) -> int:
        """Number of on-disk entries (memory-only caches count memory)."""
        if self._dir is None:
            return len(self._memory)
        return sum(1 for _ in self._entry_paths())

    def entries(self) -> Iterator[Tuple[str, pathlib.Path]]:
        """(fingerprint, path) for every on-disk entry."""
        for path in self._entry_paths():
            yield path.stem, path

    def _entry_paths(self):
        if self._dir is None or not self._dir.is_dir():
            return
        yield from sorted((self._dir / "results").glob("*/*.json"))

    # --- keys -------------------------------------------------------------
    def _path_for(self, fingerprint: str) -> pathlib.Path:
        assert self._dir is not None
        return self._dir / "results" / fingerprint[:2] / f"{fingerprint}.json"

    @staticmethod
    def _check_fingerprint(fingerprint: str) -> str:
        if not isinstance(fingerprint, str) or not fingerprint.strip():
            raise SweepError(f"cache fingerprint must be a hash, got {fingerprint!r}")
        return fingerprint

    # --- read -------------------------------------------------------------
    def get(self, fingerprint: str) -> Optional[ScenarioResult]:
        """The cached result for ``fingerprint``, or ``None`` on a miss.

        Returned results carry the fingerprint re-stamped (a
        ``from_dict`` rebuild alone would read back ``None``), so
        ``result.fingerprint()`` works the same for hits and recomputes.
        """
        fingerprint = self._check_fingerprint(fingerprint)
        cached = self._memory.get(fingerprint)
        if cached is not None:
            self._memory.move_to_end(fingerprint)
            self._hits += 1
            return cached
        if self._dir is not None:
            loaded = self._load_entry(fingerprint)
            if loaded is not None:
                self._remember(fingerprint, loaded)
                self._hits += 1
                return loaded
        self._misses += 1
        return None

    def _load_entry(self, fingerprint: str) -> Optional[ScenarioResult]:
        path = self._path_for(fingerprint)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError, ValueError):
            self._errors += 1  # torn/corrupted entry: fail soft to a miss
            return None
        try:
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError(f"schema {payload.get('schema')!r}")
            if payload.get("fingerprint") != fingerprint:
                raise ValueError("entry fingerprint mismatch")
            result = ScenarioResult.from_dict(payload["result"])
        except (AttributeError, KeyError, TypeError, ValueError):
            self._errors += 1  # partial/mismatched entry: fail soft
            return None
        return replace(result, provenance_hash=fingerprint)

    # --- write ------------------------------------------------------------
    def put(
        self, fingerprint: str, result: ScenarioResult, *, disk: bool = True
    ) -> None:
        """Store ``result`` under ``fingerprint`` in both tiers.

        ``disk=False`` stops at the memory tier: the sweep service passes
        it for a unit whose pool worker already wrote the disk entry.
        """
        self._remember(
            self._check_fingerprint(fingerprint), self._check_result(result)
        )
        if disk:
            self.write_entry(fingerprint, result)

    @staticmethod
    def _check_result(result: ScenarioResult) -> ScenarioResult:
        if not isinstance(result, ScenarioResult):
            raise SweepError(
                f"cache stores ScenarioResult, got {type(result).__name__}"
            )
        return result

    def write_entry(self, fingerprint: str, result: ScenarioResult) -> None:
        """Write ``result``'s disk entry alone, leaving the memory tier
        as it is (nothing happens for a memory-only cache): a pooled
        worker stores its units' results this way, since it never reads
        one back."""
        fingerprint = self._check_fingerprint(fingerprint)
        self._check_result(result)
        if self._dir is None:
            return
        payload: Dict[str, object] = {
            "schema": CACHE_SCHEMA,
            "fingerprint": fingerprint,
            "result": result.to_dict(),
        }
        self._write_atomic(self._path_for(fingerprint), payload)

    def _write_atomic(self, path: pathlib.Path, payload: Dict[str, object]) -> None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    # json.dump's pure-Python encoder is ~3x slower.
                    handle.write(json.dumps(payload, sort_keys=True))
                os.replace(tmp, path)  # atomic: readers never see torn JSON
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass  # best-effort cleanup must not mask the failure
                raise
        except OSError as exc:
            raise SweepError(
                f"cannot write cache entry under {self._dir}: {exc}"
            ) from exc

    # --- the section tier -------------------------------------------------
    @staticmethod
    def _check_section(section: str) -> str:
        if section not in RESULT_SECTIONS:
            known = ", ".join(RESULT_SECTIONS)
            raise SweepError(
                f"unknown result section {section!r}; known sections: {known}"
            )
        return section

    def _section_path(self, section: str, fingerprint: str) -> pathlib.Path:
        assert self._dir is not None
        return (
            self._dir / "sections" / section / fingerprint[:2]
            / f"{fingerprint}.json"
        )

    def get_section(
        self, section: str, fingerprint: str
    ) -> Tuple[bool, Optional[Dict[str, Any]]]:
        """``(hit, payload)`` for one section fingerprint.

        ``(True, None)`` is a *hit* recording "this section was absent"
        — distinct from ``(False, None)``, a miss.  Disk entries fail
        soft exactly like whole-result entries.
        """
        section = self._check_section(section)
        fingerprint = self._check_fingerprint(fingerprint)
        counts = self._section_counts[section]
        key = (section, fingerprint)
        if key in self._section_memory:
            self._section_memory.move_to_end(key)
            counts["hits"] += 1
            return True, self._section_memory[key]
        if self._dir is not None:
            found, payload = self._load_section_entry(section, fingerprint)
            if found:
                self._remember_section(key, payload)
                counts["hits"] += 1
                return True, payload
        counts["misses"] += 1
        return False, None

    def _load_section_entry(
        self, section: str, fingerprint: str
    ) -> Tuple[bool, Optional[Dict[str, Any]]]:
        path = self._section_path(section, fingerprint)
        counts = self._section_counts[section]
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return False, None
        except (OSError, UnicodeDecodeError, ValueError):
            counts["errors"] += 1  # torn/corrupted entry: fail soft
            return False, None
        try:
            if payload.get("schema") != SECTION_CACHE_SCHEMA:
                raise ValueError(f"schema {payload.get('schema')!r}")
            if payload.get("section") != section:
                raise ValueError("entry section mismatch")
            if payload.get("fingerprint") != fingerprint:
                raise ValueError("entry fingerprint mismatch")
            body = payload["payload"]
            if body is not None and not isinstance(body, dict):
                raise ValueError("section payload must be a mapping or null")
        except (AttributeError, KeyError, TypeError, ValueError):
            counts["errors"] += 1  # partial/mismatched entry: fail soft
            return False, None
        return True, body

    def has_section(self, section: str, fingerprint: str) -> bool:
        """A stat-free peek: would :meth:`get_section` hit?

        Used by ``SweepService.plan`` to *predict* per-cell section
        reuse without skewing the hit/miss counters.  Disk presence is
        judged by file existence alone (a corrupt entry predicts a hit
        but reads as a miss — predictions are advisory).
        """
        section = self._check_section(section)
        fingerprint = self._check_fingerprint(fingerprint)
        if (section, fingerprint) in self._section_memory:
            return True
        return (
            self._dir is not None
            and self._section_path(section, fingerprint).is_file()
        )

    def put_section(
        self,
        section: str,
        fingerprint: str,
        payload: Optional[Dict[str, Any]],
        *,
        disk: bool = True,
    ) -> None:
        """Store one section's ``to_dict`` payload (``None`` = absent);
        ``disk=False`` stops at the memory tier, as for :meth:`put`."""
        section = self._check_section(section)
        fingerprint = self._check_fingerprint(fingerprint)
        if payload is not None and not isinstance(payload, dict):
            raise SweepError(
                "section payloads are to_dict mappings (or None), got "
                f"{type(payload).__name__}"
            )
        self._remember_section((section, fingerprint), payload)
        if self._dir is None or not disk:
            return
        self._write_atomic(
            self._section_path(section, fingerprint),
            {
                "schema": SECTION_CACHE_SCHEMA,
                "section": section,
                "fingerprint": fingerprint,
                "payload": payload,
            },
        )

    def _remember_section(
        self, key: Tuple[str, str], payload: Optional[Dict[str, Any]]
    ) -> None:
        if self._memory_slots == 0:
            return
        self._section_memory[key] = payload
        self._section_memory.move_to_end(key)
        while len(self._section_memory) > self._memory_slots:
            evicted, _ = self._section_memory.popitem(last=False)
            self._section_counts[evicted[0]]["evictions"] += 1

    def section_entries(self) -> Iterator[Tuple[str, str, pathlib.Path]]:
        """(section, fingerprint, path) for every on-disk section entry."""
        if self._dir is None:
            return
        root = self._dir / "sections"
        if not root.is_dir():
            return
        for section in RESULT_SECTIONS:
            yield from (
                (section, path.stem, path)
                for path in sorted((root / section).glob("*/*.json"))
            )

    def _remember(self, fingerprint: str, result: ScenarioResult) -> None:
        if self._memory_slots == 0:
            return
        self._memory[fingerprint] = result
        self._memory.move_to_end(fingerprint)
        while len(self._memory) > self._memory_slots:
            self._memory.popitem(last=False)
            self._evictions += 1

    # --- maintenance ------------------------------------------------------
    def clear(self, *, disk: bool = True) -> CacheClearance:
        """Drop the memory tier and (optionally) every disk entry.

        Disk clearing also sweeps orphaned ``*.tmp`` droppings and
        prunes shard directories the removals left empty (see
        :meth:`sweep_stale`).  Returns a :class:`CacheClearance` with
        all three removal counts.
        """
        self._memory.clear()
        self._section_memory.clear()
        entries = 0
        sections = 0
        if not disk:
            return CacheClearance()
        for _fingerprint, path in list(self.entries()):
            try:
                path.unlink()
                entries += 1
            except OSError:
                self._errors += 1
        for section, _fingerprint, path in list(self.section_entries()):
            try:
                path.unlink()
                sections += 1
            except OSError:
                self._section_counts[section]["errors"] += 1
        stale, pruned = self.sweep_stale()
        return CacheClearance(
            entries=entries, stale_tmp=stale, pruned_dirs=pruned,
            sections=sections,
        )

    def sweep_stale(self) -> Tuple[int, int]:
        """Remove orphaned ``*.tmp`` files and empty shard directories.

        A writer killed between ``mkstemp`` and the atomic
        ``os.replace`` leaves a ``<fingerprint><random>.tmp`` dropping
        that the ``*.json`` globs behind ``entries()``/``__len__`` never
        see, so without this sweep they accumulate forever.  Returns
        ``(stale_tmp_removed, dirs_pruned)``; failures count in
        ``stats.errors`` and the sweep moves on (the fail-soft cache
        contract).
        """
        if self._dir is None:
            return 0, 0
        stale = 0
        pruned = 0
        results = self._dir / "results"
        roots = [results] if results.is_dir() else []
        sections_root = self._dir / "sections"
        if sections_root.is_dir():
            roots.extend(
                sorted(p for p in sections_root.iterdir() if p.is_dir())
            )
        for root in roots:
            for tmp in sorted(root.glob("*/*.tmp")):
                try:
                    tmp.unlink()
                    stale += 1
                except OSError:
                    self._errors += 1
            for shard in sorted(p for p in root.iterdir() if p.is_dir()):
                try:
                    shard.rmdir()  # only succeeds when actually empty
                    pruned += 1
                except OSError:
                    pass  # live entries remain (or a writer raced us): keep
        for root in roots[1:]:
            try:
                root.rmdir()  # drop emptied per-section dirs too
                pruned += 1
            except OSError:
                pass
        return stale, pruned
