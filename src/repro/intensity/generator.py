"""Synthetic hourly carbon-intensity trace generation.

The generator composes the physically meaningful structure of a grid's
carbon intensity (see :class:`repro.intensity.regions.RegionProfile`):

* an annual (seasonal) cycle,
* a demand-driven diurnal cycle in *local* time,
* a midday solar depression, deeper in summer,
* a weekend demand reduction,
* persistent AR(1) "weather" noise (wind availability, imports),

multiplies them, clips at the region's floor, and rescales so the annual
median matches the region's calibrated target exactly.  The cycles are
vectorized numpy and the AR(1) noise is a scalar recursion
(:func:`ar1_noise`), so a 7-region year costs about 15 ms, once per
``(regions, n_hours, seed)``: :func:`generate_all_traces` memoizes it.

Determinism: each region's noise stream is seeded from a stable hash of
``(seed, region code)``, so traces are reproducible across runs and
independent across regions.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, Optional

import numpy as np

from repro._memo import Memo, memo_clear
from repro.core.errors import TraceError
from repro.core.units import HOURS_PER_DAY
from repro.intensity.regions import REGIONS, RegionSpec, get_region
from repro.intensity.trace import HOURS_PER_STUDY_YEAR, IntensityTrace

__all__ = [
    "generate_trace",
    "generate_all_traces",
    "ar1_noise",
    "DEFAULT_SEED",
    "trace_cache_info",
    "trace_cache_clear",
]

#: Library-wide default seed for the 2021 study traces.
DEFAULT_SEED = 2021

_DAYS_PER_YEAR = 365.0
#: Jan 1 2021 was a Friday; with Monday=0 its weekday index is 4.
_JAN1_WEEKDAY = 4


def _region_rng(seed: int, region_code: str) -> np.random.Generator:
    """A generator seeded stably from (seed, region)."""
    mix = zlib.crc32(region_code.encode("utf-8"))
    return np.random.default_rng(np.uint64(seed) * np.uint64(1_000_003) + mix)


def ar1_noise(
    n: int, sigma: float, rho: float, rng: np.random.Generator
) -> np.ndarray:
    """Stationary AR(1) noise with marginal std ``sigma``.

    ``x[t] = rho * x[t-1] + e[t]`` with ``e ~ N(0, sigma^2 (1-rho^2))``.
    The initial state is drawn from the stationary marginal (after the
    innovations), so the series has no warm-up transient.

    The recursion is a scalar loop performing exactly the arithmetic of
    the former ``scipy.signal.lfilter`` evaluation (transposed direct
    form seeded by ``lfiltic``): the state ``z = 0.0*e + rho*y`` feeds
    ``y = z + e``.  The ``0.0*e`` term only ever decides the sign of a
    zero state, but keeping it makes every series byte-identical to
    ``lfilter``, signed zeros included (``sigma == 0`` or underflow).
    It stays in Python because importing ``scipy.signal`` cost about
    1 s in every cold process, while the loop costs about 2 ms per
    region-year.
    """
    if n < 0:
        raise TraceError(f"noise length must be non-negative, got {n}")
    if not (0.0 <= sigma < np.inf):
        raise TraceError(
            f"noise sigma must be finite and non-negative, got {sigma!r}"
        )
    if not (0.0 <= rho < 1.0):
        raise TraceError(f"noise rho must be in [0, 1), got {rho!r}")
    if n == 0:
        return np.zeros(0)
    innovations = rng.standard_normal(n) * (sigma * np.sqrt(1.0 - rho * rho))
    if rho == 0.0:
        return innovations
    z = 0.0 + rho * (rng.standard_normal() * sigma)
    out = []
    for e in innovations.tolist():
        y = z + e
        z = e * 0.0 + rho * y
        out.append(y)
    return np.array(out)


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of a 1-D array, bit for bit.

    The same order statistics from one ``np.partition``, averaged the
    way ``np.mean`` averages one or two of them: summed onto the
    reduction's ``+0.0`` identity (which turns a ``-0.0`` sum into
    ``+0.0``), then divided by the count.  ``np.median`` itself imports
    ``numpy.ma`` (~11 ms) for its NaN check on first use in a process.
    """
    n = values.shape[0]
    h = n // 2
    part = np.partition(values, [h - 1, h, n - 1] if n % 2 == 0 else [h, n - 1])
    if np.isnan(part[-1]):
        return float("nan")
    if n % 2:
        return float(part[h] + 0.0)
    return float((part[h - 1] + part[h] + 0.0) / 2.0)


def generate_trace(
    region: RegionSpec | str,
    *,
    n_hours: int = HOURS_PER_STUDY_YEAR,
    seed: int = DEFAULT_SEED,
) -> IntensityTrace:
    """Generate the synthetic hourly trace for one region.

    The returned trace is UTC-indexed (see
    :class:`~repro.intensity.trace.IntensityTrace`) with the region's
    timezone attached; its annual median equals the profile's calibrated
    target exactly.
    """
    spec = get_region(region) if isinstance(region, str) else region
    # _region_rng mixes the seed as a uint64.
    if not (0 <= seed < 2**64):
        raise TraceError(f"trace seed must be in [0, 2**64), got {seed!r}")
    if n_hours < int(HOURS_PER_DAY):
        raise TraceError(f"need at least one day of hours, got {n_hours}")
    profile = spec.profile
    rng = _region_rng(seed, spec.code)

    t_utc = np.arange(n_hours, dtype=float)
    local = t_utc + spec.tz_offset_hours
    day_of_year = (local / HOURS_PER_DAY) % _DAYS_PER_YEAR
    hour_local = local % HOURS_PER_DAY
    weekday = (np.floor(local / HOURS_PER_DAY).astype(int) + _JAN1_WEEKDAY) % 7

    seasonal = 1.0 + profile.seasonal_amp * np.cos(
        2.0 * np.pi * (day_of_year - profile.seasonal_peak_day) / _DAYS_PER_YEAR
    )
    diurnal = 1.0 + profile.diurnal_amp * np.cos(
        2.0 * np.pi * (hour_local - profile.diurnal_peak_hour) / HOURS_PER_DAY
    )
    # Solar output peaks in summer (northern hemisphere, day ~172).
    solar_season = 1.0 + 0.5 * np.cos(
        2.0 * np.pi * (day_of_year - 172.0) / _DAYS_PER_YEAR
    )
    solar_dip = profile.solar_dip_amp * solar_season * np.exp(
        -((hour_local - profile.solar_noon_hour) ** 2)
        / (2.0 * profile.solar_width_h**2)
    )
    weekend = np.where(weekday >= 5, 1.0 - profile.weekly_amp, 1.0)
    noise = 1.0 + ar1_noise(n_hours, profile.noise_sigma, profile.noise_rho, rng)

    raw = seasonal * diurnal * (1.0 - solar_dip) * weekend * np.clip(noise, 0.05, None)
    raw = np.maximum(raw, 1e-6)
    # Rescale so the annual median hits the calibrated target exactly,
    # then clip at the physical floor (the clip moves the median by <1%
    # for every calibrated profile; tests assert the 5% envelope).
    scale = profile.median_g_per_kwh / _median(raw)
    values = np.maximum(raw * scale, profile.floor_g_per_kwh)
    return IntensityTrace(
        region_code=spec.code,
        tz_offset_hours=spec.tz_offset_hours,
        values=values,
    )


#: Trace sets by ``(regions, n_hours, seed)``: 64 of them.
_TRACE_SETS = Memo("intensity.traces", 64)


def generate_all_traces(
    *,
    regions: Optional[Iterable[str]] = None,
    n_hours: int = HOURS_PER_STUDY_YEAR,
    seed: int = DEFAULT_SEED,
) -> Dict[str, IntensityTrace]:
    """Generate traces for several regions (default: all of Table 3).

    Results are memoized process-wide on ``(regions, n_hours, seed)``;
    the returned dict is a fresh copy each call, the traces themselves
    (immutable records sharing one ndarray) are shared.
    :func:`trace_cache_info` reads the memo's counters and
    :func:`trace_cache_clear` empties it, with every other process-wide
    memo (benchmarks and tests do).
    """
    codes = tuple(regions) if regions is not None else tuple(REGIONS)
    n_hours, seed = int(n_hours), int(seed)
    key = (codes, n_hours, seed)
    traces = _TRACE_SETS.get(key)
    if traces is None:
        traces = tuple(
            generate_trace(code, n_hours=n_hours, seed=seed) for code in codes
        )
        _TRACE_SETS.put(key, traces)
    return dict(zip(codes, traces))


def trace_cache_info():
    """Counters of the trace-set memo (a :class:`repro._memo.MemoInfo`)."""
    return _TRACE_SETS.info()


def trace_cache_clear() -> None:
    """Empty every process-wide memo (:func:`repro.memo_clear`): the
    trace sets, the window tables built on them, the workload batches
    and the pooled workers' caches, so the next run starts cold (tests,
    benchmarks and ablations)."""
    memo_clear()
