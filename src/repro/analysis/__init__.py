"""Experiment regeneration: one function per paper table and figure."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.analysis.figures": (
        "ProcessorEmbodiedRow", "DeviceEmbodiedRow", "BreakdownRow",
        "ScalingPoint", "figure1", "figure2", "figure3", "figure4", "figure5",
        "figure6", "figure7", "figure8", "figure9",
    ),
    "repro.analysis.tables": (
        "table1", "table2", "table3", "table4", "table5", "table6", "Table6Row",
    ),
    "repro.analysis.render": (
        "format_table", "share_table", "sparkline", "series_panel",
    ),
    "repro.analysis.artifacts": ("Artifact", "ARTIFACTS"),
    "repro.analysis.report": (
        "ExperimentCheck", "run_all_checks", "check_table", "generate_report",
    ),
    "repro.analysis.export": (
        "experiment_data", "write_csv", "write_json", "export_all",
    ),
    "repro.analysis.sensitivity": (
        "SensitivityResult", "PARAMETER_RANGES", "HEADLINE_OUTPUTS",
        "sweep_parameter", "tornado",
    ),
    "repro.analysis.audit": ("CenterAudit", "CenterAuditor"),
    "repro.analysis.ranking": (
        "Deployment", "DeploymentMetrics", "evaluate_deployment",
        "rank_deployments",
    ),
    "repro.analysis.insights": ("InsightResult", "check_all_insights"),
})
