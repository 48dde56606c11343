"""Core carbon-accounting primitives (paper Sec. 2, Eq. 1-6).

This subpackage implements the paper's primary modeling contribution:

* :mod:`repro.core.units` — typed physical quantities,
* :mod:`repro.core.config` — model-wide constants (yield, per-IC
  packaging, PUE),
* :mod:`repro.core.embodied` — the embodied carbon model (Eq. 2-5),
* :mod:`repro.core.operational` — the operational carbon model (Eq. 6),
* :mod:`repro.core.model` — the total-footprint split (Eq. 1),
  :class:`~repro.core.model.FootprintReport`.

The itemized charges behind Eq. 1 are recorded in one ledger,
:class:`repro.accounting.CarbonLedger`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.units": (
        "CarbonMass", "Energy", "Power", "Duration", "CarbonIntensity",
        "format_co2", "format_energy",
    ),
    "repro.core.config": (
        "ModelConfig", "default_config", "get_config", "set_config", "use_config",
    ),
    "repro.core.embodied": (
        "EmbodiedBreakdown", "manufacturing_carbon_processor",
        "manufacturing_carbon_capacity", "packaging_carbon_from_ic_count",
        "packaging_carbon_from_ratio", "combine_breakdowns",
    ),
    "repro.core.operational": (
        "apply_pue", "operational_carbon", "operational_carbon_trace",
        "energy_from_power_profile",
    ),
    "repro.core.lifecycle": (
        "TransportMode", "TRANSPORT_G_PER_TONNE_KM", "LifecyclePhases",
        "LifecycleAssessment", "assess_lifecycle",
    ),
    "repro.core.model": ("FootprintReport",),
    "repro.core.errors": (
        "ReproError", "UnitError", "ConfigurationError", "CatalogError",
        "CalibrationError", "TraceError", "PowerModelError", "WorkloadError",
        "SimulationError", "SchedulingError", "BudgetError",
        "UpgradeAnalysisError", "ExperimentError",
    ),
})
