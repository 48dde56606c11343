"""Power and energy substrate for the paper's operational
characterization: device and node power models, the carbontracker
equivalent, and facility PUE profiles."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.power.devices": ("DevicePowerModel", "power_model_for"),
    "repro.power.node": ("NodePowerModel",),
    "repro.power.tracker": ("CarbonTracker", "RunReport"),
    "repro.power.pue": (
        "ConstantPUE", "HourlyPUE", "SeasonalPUE", "operational_carbon_seasonal",
    ),
})
