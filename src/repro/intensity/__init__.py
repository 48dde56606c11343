"""Regional carbon-intensity substrate (paper Sec. 4, Table 3, Figs. 6-7)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.intensity.trace": ("IntensityTrace", "HOURS_PER_STUDY_YEAR"),
    "repro.intensity.regions": (
        "RegionProfile", "RegionSpec", "REGIONS", "get_region", "list_regions",
    ),
    "repro.intensity.generator": (
        "generate_trace", "generate_all_traces", "ar1_noise", "DEFAULT_SEED",
        "trace_cache_info", "trace_cache_clear",
    ),
    "repro.intensity.stats": (
        "RegionStats", "annual_summary", "rank_by_median", "rank_by_cov",
    ),
    "repro.intensity.analysis": (
        "WinnerCounts", "hourly_winner_counts", "daily_winner_share",
        "pairwise_advantage", "JST_OFFSET_HOURS",
    ),
    "repro.intensity.api": ("CarbonIntensityService", "table_cache_info"),
})
