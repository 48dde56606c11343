"""Benchmark workload models, performance calibration (Tables 4-6,
Fig. 4), and the ``workload`` backend kind (job sources).

:mod:`repro.workloads.sources` owns workload *generation*: the
:class:`~repro.workloads.sources.JobSource` protocol and the built-in
``synthetic`` / ``diurnal`` / ``bursty`` / ``trace`` backends the
session facade resolves by key.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.workloads.models": ("Suite", "ModelSpec", "ALL_MODELS", "get_model"),
    "repro.workloads.suites": (
        "SUITES", "suite_models", "suite_of", "list_suites", "table4_rows",
    ),
    "repro.workloads.performance": (
        "GENERATIONS", "GENERATION_SPEEDUPS", "generation_speedup",
        "model_speedup", "model_throughput_sps", "suite_time_reduction",
        "average_time_reduction", "upgrade_options",
    ),
    "repro.workloads.scaling": (
        "ScalingParams", "SCALING_PARAMS", "scaled_performance",
        "scaling_efficiency", "communication_overhead_fraction",
    ),
    "repro.workloads.runner": (
        "TrainingResult", "simulate_training_run", "simulate_suite",
    ),
    "repro.workloads.energy": ("ModelCard", "model_card", "model_card_table"),
    "repro.workloads.sources": (
        "WorkloadParams", "generate_workload", "JobSource", "SyntheticSource",
        "DiurnalSource", "BurstySource", "TraceReplaySource",
    ),
})
