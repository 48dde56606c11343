"""Carbon-intensity service facade (ESO Carbon Intensity API substitute).

The paper obtains UK data from National Grid ESO's public Carbon
Intensity API and other regions from Electricity Maps.  Schedulers need
the same two capabilities those services expose: *current/historical*
intensity and a *short-horizon forecast*.  :class:`CarbonIntensityService`
provides both, backed by the synthetic traces.

Forecasts are intentionally imperfect: forecast error grows with lead
time (a calibrated random walk around the true future value), so
carbon-aware scheduling policies are evaluated against realistic,
degradable information rather than an oracle.  Pass
``forecast_error=0.0`` to get oracle forecasts for upper-bound studies.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, namedtuple
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.errors import TraceError
from repro.intensity.generator import DEFAULT_SEED, generate_all_traces
from repro.intensity.trace import IntensityTrace

__all__ = [
    "CarbonIntensityService",
    "TableCacheInfo",
    "set_table_provider",
    "table_cache_info",
    "table_key",
    "table_provider",
]

#: Lead-time chunk width for noisy score-table construction: caps the
#: dense per-chunk work arrays at (trace length × this) elements.
_SCORE_CHUNK_HOURS = 512

#: Byte budget of the process-wide window-table memo: about 950
#: year-long (8760-hour float64) tables.  Past it, the least recently
#: used tables are dropped and rebuilt on their next request.
_TABLE_MEMO_BYTES = 64 * 1024 * 1024

#: Externalizable table memo hook, the second tier behind the
#: process-wide memo.  When set,
#: ``provider(kind, identity, region, window, build)`` is consulted on a
#: process-wide memo miss before building a score/truth window table:
#: ``kind`` is ``"score"`` or ``"truth"``, ``identity`` carries the
#: content digest of the region trace plus the noise inputs
#: (seed/forecast error), and ``build`` computes the table when the
#: provider has no copy.  :class:`repro.sweep.store.SharedTraceStore`
#: uses this to serialize tables once to memory-mapped ``.npy`` files
#: that every sweep worker attaches to.  Providers must be
#: byte-faithful; the builds are deterministic per identity, so a
#: last-writer-wins store converges on identical bytes.
_table_provider = None


def set_table_provider(provider):
    """Install (or with ``None`` clear) the external table provider.

    Returns the previously installed provider so callers can restore it.
    """
    global _table_provider
    previous = _table_provider
    _table_provider = provider
    return previous


def table_provider():
    """The currently installed external table provider (or ``None``)."""
    return _table_provider


def table_key(kind: str, identity: Mapping, region: str, window: int) -> tuple:
    """What one window table's bytes depend on: its memo and store key.

    Truth tables are pure functions of the trace content, so services
    that differ only in forecast error share them; score tables also
    fold in the noise inputs (seed, forecast error).
    """
    if kind == "truth":
        return (kind, identity["trace"], region, window)
    return (
        kind,
        identity["trace"],
        identity["seed"],
        identity["forecast_error"],
        region,
        window,
    )


TableCacheInfo = namedtuple("TableCacheInfo", "hits misses builds entries bytes")


class _TableMemo:
    """Least-recently-used window tables under :data:`_TABLE_MEMO_BYTES`.

    ``builds`` counts tables computed in this process; a miss the
    external provider serves is not a build.
    """

    def __init__(self) -> None:
        self._tables: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self.hits = self.misses = self.builds = 0

    def __contains__(self, key: tuple) -> bool:
        return key in self._tables

    def get(self, key: tuple) -> Optional[np.ndarray]:
        table = self._tables.get(key)
        if table is None:
            self.misses += 1
        else:
            self.hits += 1
            self._tables.move_to_end(key)
        return table

    def put(self, key: tuple, table: np.ndarray) -> None:
        self._tables[key] = table
        self._bytes += table.nbytes
        # A unit-deadline signal can land between a pop and its byte
        # update, leaving the count high: never pop an empty memo.
        while self._bytes > _TABLE_MEMO_BYTES and self._tables:
            _key, evicted = self._tables.popitem(last=False)
            self._bytes -= evicted.nbytes

    def clear(self) -> None:
        self._tables.clear()
        self._bytes = 0
        self.hits = self.misses = self.builds = 0

    def info(self) -> TableCacheInfo:
        return TableCacheInfo(
            self.hits, self.misses, self.builds, len(self._tables), self._bytes
        )


_TABLES = _TableMemo()


def table_cache_info() -> TableCacheInfo:
    """Counters of the process-wide window-table memo.

    ``hits``/``misses`` count memo lookups, ``builds`` the tables this
    process computed (misses minus those the external provider served),
    ``entries``/``bytes`` what the memo holds now.
    :func:`repro.intensity.generator.trace_cache_clear` empties the memo
    and resets the counters.
    """
    return _TABLES.info()


class CarbonIntensityService:
    """Query interface over a set of regional intensity traces.

    Parameters
    ----------
    traces:
        Mapping of region code to trace.  Defaults to generating the
        full Table 3 set with the library seed.
    forecast_error:
        Relative 1-hour-ahead forecast error; error std grows with the
        square root of lead time (random-walk model).  0.0 = oracle.
    seed:
        Seed for the forecast error stream (kept separate from the
        trace-generation seed so changing one does not change the other).
    """

    def __init__(
        self,
        traces: Optional[Mapping[str, IntensityTrace]] = None,
        *,
        forecast_error: float = 0.03,
        seed: int = DEFAULT_SEED,
    ) -> None:
        if forecast_error < 0.0:
            raise TraceError(
                f"forecast error must be non-negative, got {forecast_error!r}"
            )
        self._traces: Dict[str, IntensityTrace] = dict(
            traces if traces is not None else generate_all_traces(seed=seed)
        )
        if not self._traces:
            raise TraceError("service needs at least one region trace")
        self._forecast_error = forecast_error
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed + 777)
        self._score_matrices: Dict[Tuple[Tuple[str, ...], int], np.ndarray] = {}
        self._trace_digests: Dict[str, str] = {}

    def _table_identity(self, region: str) -> Dict[str, object]:
        """The inputs a window table's bytes depend on (see :func:`table_key`)."""
        digest = self._trace_digests.get(region)
        if digest is None:
            import hashlib

            values = np.ascontiguousarray(self.trace(region).values)
            digest = hashlib.sha256(values.tobytes()).hexdigest()
            self._trace_digests[region] = digest
        return {
            "trace": digest,
            "seed": self._seed,
            "forecast_error": repr(self._forecast_error),
        }

    # --- catalog ------------------------------------------------------------
    @property
    def regions(self) -> list[str]:
        return list(self._traces)

    def trace(self, region: str) -> IntensityTrace:
        try:
            return self._traces[region]
        except KeyError:
            known = ", ".join(sorted(self._traces))
            raise TraceError(
                f"unknown region {region!r}; known regions: {known}"
            ) from None

    def horizon_hours(self) -> int:
        return min(len(trace) for trace in self._traces.values())

    # --- queries ----------------------------------------------------------
    def intensity_at(self, region: str, hour: int) -> float:
        """True intensity (gCO2/kWh) at a UTC hour (wraps at year end)."""
        trace = self.trace(region)
        return float(trace.values[int(hour) % len(trace)])

    def history(self, region: str, start_hour: int, n_hours: int) -> np.ndarray:
        """True intensity over ``[start, start+n)`` UTC hours."""
        return self.trace(region).slice_hours(int(start_hour), int(n_hours))

    def forecast(self, region: str, start_hour: int, horizon_hours: int) -> np.ndarray:
        """Forecast intensity over ``[start, start+horizon)`` UTC hours.

        Lead-time ``k`` (1-based) carries multiplicative noise with std
        ``forecast_error * sqrt(k)``, floored at zero intensity.
        """
        if horizon_hours < 0:
            raise TraceError(f"horizon must be non-negative, got {horizon_hours}")
        truth = self.history(region, start_hour, horizon_hours)
        if self._forecast_error == 0.0 or horizon_hours == 0:
            return truth.copy()
        lead = np.arange(1, horizon_hours + 1, dtype=float)
        noise = self._rng.standard_normal(horizon_hours)
        factor = 1.0 + self._forecast_error * np.sqrt(lead) * noise
        return np.maximum(truth * factor, 0.0)

    def cleanest_region(self, hour: int, regions: Optional[Iterable[str]] = None) -> str:
        """The region with the lowest true intensity at a UTC hour."""
        codes = list(regions) if regions is not None else self.regions
        if not codes:
            raise TraceError("no regions to compare")
        return min(codes, key=lambda code: self.intensity_at(code, hour))

    # --- placement score tables -------------------------------------------
    def window_score_table(self, region: str, window_hours: int) -> np.ndarray:
        """Per-start-hour forecast window means: the placement score table.

        ``table[t]`` is the mean *forecast* intensity over ``[t, t+window)``
        for a forecast issued at hour ``t`` (lead times ``1..window``,
        wrapping at the year boundary).  Built once per table identity
        from cumulative sums over the trace (oracle) plus a deterministic
        per-``(seed, region, window)`` noise draw (imperfect forecasts),
        then memoized process-wide — any candidate placement grid scores
        as a single gather + ``argmin`` against this table instead of
        per-candidate forecast calls, and every service over the same
        traces, seed and forecast error shares the one build (an
        attached external provider is consulted only on a memo miss).
        Both the scalar policy ``place`` reference path
        (via :meth:`forecast_window_mean`) and the vectorized
        ``place_all`` kernels read the same table, which is what makes
        their placements byte-identical.

        The returned array is read-only and shared; copy before writing.
        """
        return self._memoized_table(
            "score", region, window_hours, self._build_score_table
        )

    def _memoized_table(self, kind: str, region: str, window_hours: int, build):
        """One window table from the process-wide memo, else the
        external provider, else ``build(region, window)``."""
        if window_hours < 1:
            raise TraceError(f"window must be >= 1 hour, got {window_hours}")
        window = int(window_hours)
        identity = self._table_identity(region)
        key = table_key(kind, identity, region, window)
        table = _TABLES.get(key)
        if table is not None:
            return table

        def counted_build() -> np.ndarray:
            _TABLES.builds += 1
            return build(region, window)

        if _table_provider is not None:
            table = _table_provider(kind, identity, region, window, counted_build)
        if table is None:
            table = counted_build()
        table.setflags(write=False)
        _TABLES.put(key, table)
        return table

    def _build_score_table(self, region: str, window: int) -> np.ndarray:
        trace = self.trace(region)
        if self._forecast_error == 0.0:
            return trace.forward_window_mean(window)
        n = len(trace)
        rng = np.random.default_rng(
            (self._seed, zlib.crc32(region.encode("utf-8")), window)
        )
        # Row t is hours t .. t+window-1, wrapping at the year boundary.
        tiled = np.resize(trace.values, n + window - 1)
        windows = sliding_window_view(tiled, window)
        acc = np.zeros(n)
        # Chunk the lead-time axis so the dense (n, chunk) intermediate
        # stays bounded for multi-week windows; the chunk width is a
        # fixed constant, so the noise stream (and therefore the table)
        # is deterministic.  The noise draw is the one work array: every
        # step runs in place on it, so it stays C-contiguous and each
        # row reduces in the same order whatever the view's strides.
        for k0 in range(0, window, _SCORE_CHUNK_HOURS):
            k1 = min(k0 + _SCORE_CHUNK_HOURS, window)
            lead = np.sqrt(np.arange(k0 + 1, k1 + 1, dtype=float))
            noisy = rng.standard_normal((n, k1 - k0))
            noisy *= self._forecast_error * lead
            noisy += 1.0
            noisy *= windows[:, k0:k1]
            np.maximum(noisy, 0.0, out=noisy)
            acc += noisy.sum(axis=1)
        return acc / window

    def window_score_matrix(
        self, regions: Sequence[str], window_hours: int
    ) -> np.ndarray:
        """Stacked score tables, shape ``(len(regions), horizon)``.

        Row ``i`` is ``window_score_table(regions[i], window_hours)``;
        the 2-D gather a joint (region, start) policy takes its
        ``unravel_index(argmin)`` over.  Memoized per (regions, window);
        requires every region's trace to share one length (the Table 3
        sets do).  Read-only.
        """
        key = (tuple(regions), int(window_hours))
        matrix = self._score_matrices.get(key)
        if matrix is not None:
            return matrix
        rows = [self.window_score_table(code, window_hours) for code in key[0]]
        lengths = {row.shape[0] for row in rows}
        if len(lengths) > 1:
            raise TraceError(
                f"regions {list(key[0])} have unequal trace lengths "
                f"{sorted(lengths)}; a joint score matrix needs one horizon"
            )
        matrix = np.vstack(rows)
        matrix.setflags(write=False)
        self._score_matrices[key] = matrix
        return matrix

    # --- accounting truth tables -------------------------------------------
    def truth_table_cached(self, region: str, window_hours: int) -> bool:
        """Whether the process-wide memo holds the :meth:`truth_window_table`
        of ``(region, window)`` — charging engines use this to prefer a
        free gather over a fresh table build for small job groups."""
        identity = self._table_identity(region)
        return table_key("truth", identity, region, int(window_hours)) in _TABLES

    def truth_window_table(self, region: str, window_hours: int) -> np.ndarray:
        """Per-start-hour *true* window means: the charging truth table.

        ``table[t]`` is the mean ground-truth intensity over
        ``[t, t+window)`` (wrapping at the year boundary) — exactly
        ``history(region, t, window).mean()`` for every start hour.  The
        accounting twin of :meth:`window_score_table`: policies decide
        against the forecast score tables, the carbon ledger charges
        realized placements against these.  Built once per trace content
        and window, and memoized process-wide (shared across seeds and
        forecast errors; an attached external provider is consulted only
        on a memo miss), so charging a batch of placed jobs is a single
        gather instead of a per-job slice-and-mean.

        Each row is reduced with the same pairwise summation ``numpy``
        applies to a 1-D slice, so table entries are *bit-identical* to
        the scalar ``float(history(...).mean())`` reference — a cumsum
        formulation would be O(n) cheaper to build but drifts in the
        last float bits, and the ledger's contract is byte-identical
        totals.  The build is chunked over start hours to bound the
        dense ``(chunk, window)`` intermediate.

        The returned array is read-only and shared; copy before writing.
        """
        return self._memoized_table(
            "truth", region, window_hours, self._build_truth_table
        )

    def _build_truth_table(self, region: str, window: int) -> np.ndarray:
        values = self.trace(region).values
        n = values.shape[0]
        table = np.empty(n)
        offsets = np.arange(window)[None, :]
        chunk = max(_SCORE_CHUNK_HOURS * 512 // max(window, 1), 1)
        for t0 in range(0, n, chunk):
            t1 = min(t0 + chunk, n)
            idx = (np.arange(t0, t1)[:, None] + offsets) % n
            table[t0:t1] = values[idx].mean(axis=1)
        return table

    def forecast_window_mean(
        self, region: str, start_hour: int, window_hours: int
    ) -> float:
        """Mean forecast intensity over a job-length window — the score a
        temporal-shifting scheduler minimizes.

        Served from :meth:`window_score_table`, so repeated queries for
        one ``(region, hour, window)`` are deterministic and O(1); the
        scalar and vectorized placement paths therefore score candidates
        identically.
        """
        table = self.window_score_table(region, window_hours)
        return float(table[int(start_hour) % table.shape[0]])
