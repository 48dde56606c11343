"""The shared trace store: mmap-backed memos for sweep workers.

PR 2's sweep benchmarks recorded the ``process`` executor at ~1x: every
worker re-warmed its own in-process memos — regenerating the Table 3
trace set and rebuilding the score/truth window tables from scratch.
:class:`SharedTraceStore` externalizes those memos to ``.npy`` files in
a shared directory:

* **traces** — one stacked ``(n_regions, n_hours)`` array plus a JSON
  sidecar (codes, timezone offsets) per ``(regions, n_hours, seed)``
  signature, plugged into
  :func:`repro.intensity.generator.set_trace_provider`;
* **truth tables** — one array per charging truth-table identity
  (trace content digest + region + window), attached read-only via
  ``numpy`` memory mapping through
  :func:`repro.intensity.api.set_table_provider`.  The store is the
  second tier: each process first asks its own process-wide table memo
  (same identity), and reaches the store only on a memo miss — at most
  once per identity per process while the memo holds the table.

Forecast score tables are not stored.  Each process builds only the
issue hours its placements read
(:meth:`repro.intensity.api.CarbonIntensityService.window_score_table`),
which costs less than writing and attaching whole-year tables.

Files are written atomically (tmp + ``os.replace``); builds are
deterministic per identity, so racing workers converge on identical
bytes and last-writer-wins is safe.  The store is a cache, never an
authority — every degradation fails *soft*, mirroring
:class:`~repro.sweep.cache.ResultCache`'s corrupt-entry behavior: a
truncated or corrupt ``.npy``, a missing or malformed JSON manifest,
and an unwritable store directory each log a warning and fall back to
local regeneration, so an attached worker can always make progress.
An absent ``.npy`` is a plain miss and logs nothing, even when another
worker's write lands a moment later.
Attach a store with :meth:`SharedTraceStore.attach` (or as a context
manager); detach restores whatever providers were installed before.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pathlib
import tempfile
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.sweep.cache import default_cache_dir

__all__ = ["SharedTraceStore"]

logger = logging.getLogger(__name__)

#: On-disk layout version (part of every filename digest).
STORE_SCHEMA = 1


def _digest(parts) -> str:
    payload = json.dumps(
        [STORE_SCHEMA, parts], sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:32]


def _atomic_save(path: pathlib.Path, array: np.ndarray) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.save(handle, np.ascontiguousarray(array))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _load_array(path: pathlib.Path) -> Optional[np.ndarray]:
    """mmap one stored array; ``None`` when it cannot be served.

    ``FileNotFoundError`` is a plain miss: the entry is absent, or
    another worker's ``os.replace`` has not landed yet (it may land
    before any follow-up check, so none is made).  Anything else on an
    existing file — ``EOFError`` for a truncated ``.npy``, ``ValueError``
    for a corrupt header — logs and falls back to a local rebuild.
    """
    try:
        return np.load(path, mmap_mode="r")
    except FileNotFoundError:
        return None
    except Exception as exc:
        if path.exists():
            logger.warning(
                "shared store entry %s is unreadable (%s: %s); "
                "rebuilding locally",
                path.name,
                type(exc).__name__,
                exc,
            )
        return None


def _atomic_write_text(path: pathlib.Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class SharedTraceStore:
    """A directory of mmap-attachable trace sets and truth tables.

    Construction touches no disk; files appear lazily as memo misses
    flow through the attached providers (or eagerly via
    :meth:`ensure_traces`, which the shared executor's parent process
    calls once before forking workers).
    """

    def __init__(
        self, directory: Optional[Union[str, pathlib.Path]] = None
    ) -> None:
        if directory is None:
            directory = default_cache_dir() / "store"
        self._dir = pathlib.Path(directory)
        self._trace_sets: Dict[Tuple, Tuple] = {}
        self._attached = False
        self._prev_trace = None
        self._prev_table = None

    @property
    def directory(self) -> pathlib.Path:
        return self._dir

    # --- provider registration --------------------------------------------
    def attach(self) -> "SharedTraceStore":
        """Install this store as the intensity layer's external memo."""
        if self._attached:
            return self
        from repro.intensity import api, generator

        self._prev_trace = generator.set_trace_provider(self.provide_traces)
        self._prev_table = api.set_table_provider(self.provide_table)
        self._attached = True
        return self

    def detach(self) -> None:
        """Restore the providers that were installed before :meth:`attach`."""
        if not self._attached:
            return
        from repro.intensity import api, generator

        generator.set_trace_provider(self._prev_trace)
        api.set_table_provider(self._prev_table)
        self._prev_trace = self._prev_table = None
        self._attached = False

    def __enter__(self) -> "SharedTraceStore":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # --- traces -----------------------------------------------------------
    def _trace_paths(
        self, codes: Tuple[str, ...], n_hours: int, seed: int
    ) -> Tuple[pathlib.Path, pathlib.Path]:
        stem = f"traces-{_digest([list(codes), n_hours, seed])}"
        return self._dir / f"{stem}.npy", self._dir / f"{stem}.json"

    def ensure_traces(
        self, codes=None, n_hours: Optional[int] = None, seed: Optional[int] = None
    ) -> pathlib.Path:
        """Materialize one trace-set file (parent-side pre-warm).

        Defaults mirror :func:`generate_all_traces`: all Table 3 regions
        for the study year with the library seed.  Returns the array path.
        """
        from repro.intensity.generator import DEFAULT_SEED
        from repro.intensity.regions import REGIONS
        from repro.intensity.trace import HOURS_PER_STUDY_YEAR

        codes = tuple(codes) if codes is not None else tuple(REGIONS)
        n_hours = int(n_hours) if n_hours is not None else HOURS_PER_STUDY_YEAR
        seed = int(seed) if seed is not None else int(DEFAULT_SEED)
        self.provide_traces(codes, n_hours, seed)
        return self._trace_paths(codes, n_hours, seed)[0]

    def provide_traces(
        self, codes: Tuple[str, ...], n_hours: int, seed: int
    ) -> Optional[Tuple]:
        """The :func:`set_trace_provider` hook: load-or-generate a set."""
        key = (tuple(codes), int(n_hours), int(seed))
        cached = self._trace_sets.get(key)
        if cached is not None:
            return cached
        traces = self._load_traces(*key)
        if traces is None:
            # Generate through the in-process memo (no recursion: the
            # provider hook sits in generate_all_traces, not here) and
            # persist for every later worker.
            from repro.intensity.generator import _cached_traces

            traces = _cached_traces(*key)
            self._save_traces(key, traces)
        self._trace_sets[key] = traces
        return traces

    def _load_traces(
        self, codes: Tuple[str, ...], n_hours: int, seed: int
    ) -> Optional[Tuple]:
        from repro.intensity.trace import IntensityTrace

        array_path, meta_path = self._trace_paths(codes, n_hours, seed)
        stacked = _load_array(array_path)
        if stacked is None:
            return None
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
            if tuple(meta["codes"]) != codes or stacked.shape != (
                len(codes),
                n_hours,
            ):
                return None  # foreign digest collision / stale layout
            offsets = meta["tz_offsets"]
            return tuple(
                IntensityTrace(
                    region_code=code,
                    tz_offset_hours=int(offsets[i]),
                    values=stacked[i],
                )
                for i, code in enumerate(codes)
            )
        except Exception as exc:
            # The array lands after its manifest (see _save_traces), so
            # a stored array without a readable manifest is a torn
            # entry, never a write in flight: JSON/KeyError for a bad
            # manifest, OSError (a missing one included) for anything
            # filesystem-level.  All fail soft to regeneration.
            logger.warning(
                "shared trace store entry %s is unreadable (%s: %s); "
                "regenerating locally",
                array_path.stem,
                type(exc).__name__,
                exc,
            )
            return None

    def _save_traces(self, key: Tuple, traces: Tuple) -> None:
        codes, n_hours, seed = key
        array_path, meta_path = self._trace_paths(codes, n_hours, seed)
        try:
            # Manifest first: readers load the array first and treat its
            # absence as a plain miss, so the array is the commit point.
            _atomic_write_text(
                meta_path,
                json.dumps(
                    {
                        "schema": STORE_SCHEMA,
                        "codes": list(codes),
                        "tz_offsets": [t.tz_offset_hours for t in traces],
                        "n_hours": n_hours,
                        "seed": seed,
                    },
                    sort_keys=True,
                ),
            )
            _atomic_save(array_path, np.vstack([t.values for t in traces]))
        except OSError as exc:
            # The store is advisory: workers that cannot persist still
            # hold the generated traces in memory and make progress.
            logger.warning(
                "cannot write shared trace store under %s (%s); "
                "continuing without persistence",
                self._dir,
                exc,
            )

    # --- truth tables -----------------------------------------------------
    def provide_table(
        self, kind: str, identity: Dict, region: str, window: int, build
    ) -> Optional[np.ndarray]:
        """The :func:`set_table_provider` hook: mmap-or-build a table.

        Files are named ``{kind}-{digest}.npy`` after
        :func:`repro.intensity.api.table_key`, the key of the
        process-wide memo in front of this store.  The intensity layer
        asks only for ``"truth"`` tables, which key off the trace
        content alone.
        """
        from repro.intensity.api import table_key

        key_parts = list(table_key(kind, identity, region, window))
        path = self._dir / "tables" / f"{kind}-{_digest(key_parts)}.npy"
        table = _load_array(path)
        if table is not None:
            return table
        table = build()
        try:
            _atomic_save(path, table)
        except OSError as exc:
            logger.warning(
                "cannot write shared table store under %s (%s); "
                "continuing without persistence",
                self._dir,
                exc,
            )
        return table
