"""Cluster simulation substrate: jobs, columnar job batches, and a
discrete-event simulator with energy/carbon accounting — FCFS
earliest-fit (:func:`simulate_cluster`) plus the backfill, carbon-aware
and power-cap disciplines.

(Workload *generation* lives in :mod:`repro.workloads.sources` behind
the ``workload`` registry kind; ``WorkloadParams``/``generate_workload``
stay re-exported here for compatibility.)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.cluster.job": ("Job", "JobBatch", "Placement", "PlacementBatch"),
    "repro.workloads.sources": ("WorkloadParams", "generate_workload"),
    "repro.cluster.simulator": (
        "Cluster", "ScheduledJob", "SimulationResult", "simulate_cluster",
    ),
    "repro.cluster.engine": (
        "simulate_cluster_backfill", "simulate_cluster_carbon_aware",
        "simulate_cluster_power_cap",
    ),
    "repro.cluster.traceio": (
        "SCHEMA_VERSION", "SWF_COLUMNS", "jobs_to_json", "jobs_from_json",
        "save_jobs", "load_jobs", "load_swf", "read_workload",
    ),
})
