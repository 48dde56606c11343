"""Regional carbon-intensity substrate (paper Sec. 4, Table 3, Figs. 6-7)."""

from repro.intensity.analysis import (
    JST_OFFSET_HOURS,
    WinnerCounts,
    daily_winner_share,
    hourly_winner_counts,
    pairwise_advantage,
)
from repro.intensity.api import CarbonIntensityService, table_cache_info
from repro.intensity.forecast import (
    BlendedForecaster,
    ClimatologyForecaster,
    PersistenceForecaster,
    evaluate_forecaster,
)
from repro.intensity.generator import (
    DEFAULT_SEED,
    ar1_noise,
    generate_all_traces,
    generate_trace,
    trace_cache_clear,
    trace_cache_info,
)
from repro.intensity.mix import (
    SOURCE_INTENSITY_G_PER_KWH,
    DecarbonizationScenario,
    GridMix,
    upgrade_breakeven_with_decarbonization,
)
from repro.intensity.regions import (
    REGIONS,
    RegionProfile,
    RegionSpec,
    get_region,
    list_regions,
)
from repro.intensity.stats import (
    RegionStats,
    annual_summary,
    rank_by_cov,
    rank_by_median,
)
from repro.intensity.trace import HOURS_PER_STUDY_YEAR, IntensityTrace

__all__ = [
    "IntensityTrace",
    "HOURS_PER_STUDY_YEAR",
    "RegionProfile",
    "RegionSpec",
    "REGIONS",
    "get_region",
    "list_regions",
    "generate_trace",
    "generate_all_traces",
    "ar1_noise",
    "DEFAULT_SEED",
    "trace_cache_info",
    "trace_cache_clear",
    "table_cache_info",
    "RegionStats",
    "annual_summary",
    "rank_by_median",
    "rank_by_cov",
    "WinnerCounts",
    "hourly_winner_counts",
    "daily_winner_share",
    "pairwise_advantage",
    "JST_OFFSET_HOURS",
    "CarbonIntensityService",
    "PersistenceForecaster",
    "ClimatologyForecaster",
    "BlendedForecaster",
    "evaluate_forecaster",
    "GridMix",
    "SOURCE_INTENSITY_G_PER_KWH",
    "DecarbonizationScenario",
    "upgrade_breakeven_with_decarbonization",
]


# --- session-facade backends ------------------------------------------------
def register_backends(registry) -> None:
    """Self-register intensity sources for the Scenario/Session facade.

    * ``synthetic`` (alias ``table3``) — the calibrated 2021 trace set
      behind a :class:`CarbonIntensityService` (memoized per seed).
    * ``oracle`` — the same traces with perfect forecasts.
    * ``constant`` — a flat grid for exactness studies; takes ``value``
      and the ``regions`` codes to serve.
    """

    def synthetic(*, seed=DEFAULT_SEED, forecast_error=0.03, **_):
        return CarbonIntensityService(forecast_error=forecast_error, seed=seed)

    def oracle(*, seed=DEFAULT_SEED, forecast_error=0.0, **_):
        del forecast_error  # an oracle never errs
        return CarbonIntensityService(forecast_error=0.0, seed=seed)

    def constant(*, value, regions, seed=DEFAULT_SEED, forecast_error=0.0, **_):
        import numpy as _np

        traces = {
            code: IntensityTrace(
                region_code=code,
                tz_offset_hours=0,
                values=_np.full(HOURS_PER_STUDY_YEAR, float(value)),
            )
            for code in regions
        }
        return CarbonIntensityService(
            traces, forecast_error=forecast_error, seed=seed
        )

    registry.add("intensity", "synthetic", synthetic, aliases=("table3",))
    registry.add("intensity", "oracle", oracle)
    registry.add("intensity", "constant", constant)


__all__.append("register_backends")
