"""Power and energy measurement substrate (NVML/RAPL/carbontracker
equivalents used for the paper's operational characterization)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.power.devices": ("DevicePowerModel", "power_model_for"),
    "repro.power.node": ("NodePowerModel",),
    "repro.power.meters": ("PowerSample", "MeterLog", "NvmlGpuMeter", "RaplCpuMeter"),
    "repro.power.tracker": ("CarbonTracker", "RunReport"),
    "repro.power.pue": (
        "ConstantPUE", "HourlyPUE", "SeasonalPUE", "operational_carbon_seasonal",
    ),
})
