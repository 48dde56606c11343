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

import math
import zlib
from collections import namedtuple
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro._memo import Memo
from repro.core.errors import TraceError
from repro.intensity.generator import DEFAULT_SEED, generate_all_traces
from repro.intensity.trace import HOURS_PER_STUDY_YEAR, IntensityTrace

__all__ = [
    "CarbonIntensityService",
    "constant_service",
    "oracle_service",
    "synthetic_service",
    "TableCacheInfo",
    "table_cache_info",
    "table_key",
]

#: Lead-time chunk width for noisy score-table construction: caps the
#: dense per-chunk work arrays at (rows × this) elements.  It also
#: decides which score tables can be built row by row.  A window up to
#: this width draws its noise as one row-major ``(rows, window)`` block,
#: so the first ``k`` rows consume exactly the first ``k * window``
#: normals of the table's ``(seed, region, window)`` stream: a ``k``-row
#: build is a byte-identical prefix of the whole table, and drawing on
#: from the stream position after row ``k`` yields the rows after it.
#: A longer window draws chunk by chunk across *all* rows (every row's
#: first 512 lead hours, then every row's next ones), so a row's noise
#: depends on how many rows are built and such tables are built whole.
_SCORE_CHUNK_HOURS = 512

#: Row granularity of a growing score table: requests round up to a
#: multiple of this, and a table that has to grow takes at least a
#: quarter more rows than it holds, so a caller scanning issue hours
#: one by one grows it O(log n) times.
_SCORE_ROW_BLOCK = 64


def table_key(kind: str, identity: Mapping, region: str, window: int) -> tuple:
    """What one window table's bytes depend on: its memo key.

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

#: Window tables by :func:`table_key`, least recently used first out past
#: a 64 MiB budget (about 950 year-long float64 tables).  An entry is
#: ``(table, stream)``: the rows built so far and, for a score table
#: that can still grow, the noise-stream position after its last row
#: (``None`` once the table is whole).  Growth replaces the entry in one
#: ``put``, so rows and stream position commit together, and eviction
#: drops both.
_TABLES = Memo(
    "intensity.tables", 64 * 1024 * 1024, weigh=lambda entry: entry[0].nbytes
)


def _window(window_hours: int) -> int:
    if window_hours < 1:
        raise TraceError(f"window must be >= 1 hour, got {window_hours}")
    return int(window_hours)


def _grown_rows(held: int, want: int, n: int) -> int:
    """The row count a score table holding ``held`` rows of ``n`` grows
    to when ``want`` are asked for: at least a quarter more than it
    holds, rounded up to :data:`_SCORE_ROW_BLOCK`, at most ``n``."""
    rows = max(want, held + held // 4)
    return min(-(-rows // _SCORE_ROW_BLOCK) * _SCORE_ROW_BLOCK, n)


def _resume_stream(state: dict) -> np.random.Generator:
    """A fresh generator at a stored noise-stream position; drawing from
    it leaves the stored position untouched."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def table_cache_info() -> TableCacheInfo:
    """Counters of the process-wide window-table memo.

    ``hits`` count lookups served from the rows already held,
    ``misses`` the others (no table yet, or a score table that had to
    grow).  ``builds`` counts the table identities this process
    computed; growing a score table is not a build.  Each computed
    identity enters the memo once and leaves it only by eviction, so
    that is the entries held plus the evictions.  ``entries``/``bytes``
    are what the memo holds now, partial score tables at the rows built
    so far.  :func:`repro.memo_clear` (and so
    :func:`repro.intensity.generator.trace_cache_clear`) empties the
    memo and resets the counters.
    """
    hits, misses, evictions, entries, size = _TABLES.info()
    return TableCacheInfo(hits, misses, entries + evictions, entries, size)


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
        if not 0.0 <= forecast_error < math.inf:
            raise TraceError(
                f"forecast error must be finite and non-negative, "
                f"got {forecast_error!r}"
            )
        self._traces: Dict[str, IntensityTrace] = dict(
            traces if traces is not None else generate_all_traces(seed=seed)
        )
        if not self._traces:
            raise TraceError("service needs at least one region trace")
        # The range generate_trace enforces (it reports first when the
        # service generates its traces): the noise streams take it too.
        if not 0 <= seed < 2**64:
            raise TraceError(f"forecast seed must be in [0, 2**64), got {seed!r}")
        self._forecast_error = forecast_error
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed + 777)
        self._trace_digests: Dict[str, str] = {}
        self._table_keys: Dict[Tuple[str, str, int], tuple] = {}

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

    def _table_key(self, kind: str, region: str, window: int) -> tuple:
        """The memo key of one of this service's window tables, built once
        per ``(kind, region, window)``, so a memo hit costs one lookup."""
        key = self._table_keys.get((kind, region, window))
        if key is None:
            key = table_key(kind, self._table_identity(region), region, window)
            self._table_keys[(kind, region, window)] = key
        return key

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
    def window_score_table(
        self, region: str, window_hours: int, rows: Optional[int] = None
    ) -> np.ndarray:
        """Per-issue-hour forecast window means: the placement score table.

        ``table[t]`` is the mean *forecast* intensity over ``[t, t+window)``
        for a forecast issued at hour ``t`` (lead times ``1..window``,
        wrapping at the year boundary): the trace's window mean times a
        deterministic per-``(seed, region, window)`` noise draw (imperfect
        forecasts), or the plain forward window mean for an oracle.  Any
        candidate placement grid scores as a single gather + ``argmin``
        against this table instead of per-candidate forecast calls.

        ``rows`` is how many issue hours the caller reads: it gets at
        least the first ``rows`` rows (all of them when ``None``; a count
        past the trace length means all).  Callers pass their largest
        issue hour plus one and wrap hours by the trace length, never by
        ``table.shape[0]``.  The table lives in the process-wide memo,
        one entry per identity (trace content, seed, forecast error,
        region, window), shared by every service over the same inputs.
        A request past the rows held grows the entry by drawing on from
        the stored noise-stream position, so the rows are byte-identical
        to the same rows of a whole-table build whatever order requests
        come in (see :data:`_SCORE_CHUNK_HOURS`); windows over that chunk
        width and oracle tables are built whole on first request.  Both
        the scalar policy ``place`` reference path (via
        :meth:`forecast_window_mean`) and the vectorized ``place_all``
        kernels read these rows, which is what makes their placements
        byte-identical.

        The returned array is read-only and shared; copy before writing.
        """
        window = _window(window_hours)
        n = len(self.trace(region))
        want = n if rows is None else min(int(rows), n)
        if want < 1:
            raise TraceError(f"rows must be >= 1, got {rows}")
        key = self._table_key("score", region, window)
        entry = _TABLES.get(key, lambda held: held[0].shape[0] >= want)
        if entry is None:
            held, stream = None, None
        elif entry[0].shape[0] >= want:
            return entry[0]
        else:
            held, stream = entry
        if self._forecast_error == 0.0 or window > _SCORE_CHUNK_HOURS:
            table = self._build_score_table(region, window)
        else:
            start = 0 if held is None else held.shape[0]
            stop = _grown_rows(start, want, n)
            rng = (
                self._score_stream(region, window)
                if stream is None
                else _resume_stream(stream)
            )
            table = self._build_score_table(
                region, window, stop, start=start, rng=rng
            )
            if held is not None:
                table = np.concatenate([held, table])
            stream = rng.bit_generator.state if stop < n else None
        table.setflags(write=False)
        # Rows and stream position commit together, only once the rows
        # exist: an interrupted growth leaves the entry as it was.
        _TABLES.put(key, (table, stream))
        return table

    def _score_stream(self, region: str, window: int) -> np.random.Generator:
        """A score table's noise stream, positioned at its first row."""
        return np.random.default_rng(
            (self._seed, zlib.crc32(region.encode("utf-8")), window)
        )

    def _build_score_table(
        self,
        region: str,
        window: int,
        rows: Optional[int] = None,
        *,
        start: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Score-table rows ``[start, rows)``; the whole table by default,
        and always for an oracle (``forecast_error == 0``).

        ``rng`` is the table's noise stream positioned at row ``start``
        (a fresh stream when omitted, for ``start == 0``) and is left at
        row ``rows``.  Only whole tables may chunk the lead-time axis:
        a partial build must keep ``window <= _SCORE_CHUNK_HOURS``.
        """
        trace = self.trace(region)
        if self._forecast_error == 0.0:
            return trace.forward_window_mean(window)
        stop = len(trace) if rows is None else rows
        if rng is None:
            rng = self._score_stream(region, window)
        # Row t reads hours t .. t+window-1, wrapping at the year boundary.
        hours = np.take(
            trace.values, np.arange(start, stop + window - 1), mode="wrap"
        )
        windows = sliding_window_view(hours, window)
        acc = np.zeros(stop - start)
        # Chunk the lead-time axis so the dense (rows, chunk) intermediate
        # stays bounded for multi-week windows; the chunk width is a
        # fixed constant, so the noise stream (and therefore the table)
        # is deterministic.  The noise draw is the one work array: every
        # step runs in place on it, so it stays C-contiguous and each
        # row reduces in the same order whatever the view's strides.
        for k0 in range(0, window, _SCORE_CHUNK_HOURS):
            k1 = min(k0 + _SCORE_CHUNK_HOURS, window)
            lead = np.sqrt(np.arange(k0 + 1, k1 + 1, dtype=float))
            noisy = rng.standard_normal((stop - start, k1 - k0))
            noisy *= self._forecast_error * lead
            noisy += 1.0
            noisy *= windows[:, k0:k1]
            np.maximum(noisy, 0.0, out=noisy)
            acc += noisy.sum(axis=1)
        return acc / window

    # --- accounting truth tables -------------------------------------------
    def truth_table_cached(self, region: str, window_hours: int) -> bool:
        """Whether the process-wide memo holds the :meth:`truth_window_table`
        of ``(region, window)`` — charging engines use this to prefer a
        free gather over a fresh table build for small job groups."""
        return self._table_key("truth", region, int(window_hours)) in _TABLES

    def truth_window_table(self, region: str, window_hours: int) -> np.ndarray:
        """Per-start-hour *true* window means: the charging truth table.

        ``table[t]`` is the mean ground-truth intensity over
        ``[t, t+window)`` (wrapping at the year boundary) — exactly
        ``history(region, t, window).mean()`` for every start hour.  The
        accounting twin of :meth:`window_score_table`: policies decide
        against the forecast score tables, the carbon ledger charges
        realized placements against these.  Built once per trace content
        and window, and memoized process-wide (shared across seeds and
        forecast errors), so charging a batch of placed jobs is a single
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
        window = _window(window_hours)
        key = self._table_key("truth", region, window)
        entry = _TABLES.get(key)
        if entry is not None:
            return entry[0]
        table = self._build_truth_table(region, window)
        table.setflags(write=False)
        _TABLES.put(key, (table, None))
        return table

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
        identically.  The hour wraps by the trace length, and only the
        table's rows up to it are asked for, so a scan over ascending
        hours grows the table O(log n) times.
        """
        hour = int(start_hour) % len(self.trace(region))
        return float(self.window_score_table(region, window_hours, hour + 1)[hour])


# --- session-facade backends (the ``intensity`` kind) -------------------------
def synthetic_service(*, seed=DEFAULT_SEED, forecast_error=0.03, **_):
    """``intensity:synthetic``: the calibrated 2021 trace set (memoized per seed)."""
    return CarbonIntensityService(forecast_error=forecast_error, seed=seed)


def oracle_service(*, seed=DEFAULT_SEED, forecast_error=0.0, **_):
    """``intensity:oracle``: the same traces with perfect forecasts."""
    del forecast_error  # an oracle never errs
    return CarbonIntensityService(forecast_error=0.0, seed=seed)


def constant_service(*, value, regions, seed=DEFAULT_SEED, forecast_error=0.0, **_):
    """``intensity:constant``: a flat grid of ``value`` over the ``regions`` codes."""
    traces = {
        code: IntensityTrace(
            region_code=code,
            tz_offset_hours=0,
            values=np.full(HOURS_PER_STUDY_YEAR, float(value)),
        )
        for code in regions
    }
    return CarbonIntensityService(traces, forecast_error=forecast_error, seed=seed)
