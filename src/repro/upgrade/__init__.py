"""Hardware-upgrade carbon analysis (paper Sec. 5, Figs. 8-9)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.upgrade.scenario": ("UpgradeScenario", "USAGE_LEVELS", "INTENSITY_LEVELS"),
    "repro.upgrade.amortization": (
        "SavingsGrid", "sweep_intensities", "sweep_usages", "breakeven_table",
        "intensity_scaling_check", "attribution_sweep",
    ),
    "repro.upgrade.advisor": ("UpgradeAdvisor", "UpgradeDecision", "Verdict"),
})
