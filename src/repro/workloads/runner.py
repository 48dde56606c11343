"""Simulated training-run execution.

Brings the pieces together the way the paper's benchmarking campaign
does: pick a model (Table 4), a node generation (Table 5) and a GPU
count; derive the training time from the calibrated performance model;
meter the run with the carbontracker substitute; and return time,
energy, and operational carbon.

This is the library's "run a benchmark" entry point — the quickstart
example and the characterization benchmarks drive it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.accounting.pue import PUELike
from repro.core.config import ModelConfig
from repro.core.errors import WorkloadError
from repro.core.units import CarbonMass, Energy
from repro.hardware.node import NodeSpec, get_node_generation
from repro.intensity.trace import IntensityTrace
from repro.power.tracker import CarbonTracker, RunReport
from repro.workloads.models import ModelSpec, get_model
from repro.workloads.performance import model_throughput_sps
from repro.workloads.suites import suite_models

__all__ = ["TrainingResult", "simulate_training_run", "simulate_suite"]


@dataclass(frozen=True)
class TrainingResult:
    """Outcome of one simulated training run."""

    model_name: str
    node_name: str
    n_gpus: int
    epochs: int
    duration_h: float
    throughput_sps: float
    report: RunReport

    @property
    def energy(self) -> Energy:
        return self.report.ic_energy

    @property
    def carbon(self) -> CarbonMass:
        return self.report.carbon

    @property
    def samples_processed(self) -> float:
        return self.throughput_sps * self.duration_h * 3600.0


def simulate_training_run(
    model: Union[ModelSpec, str],
    node: Union[NodeSpec, str],
    *,
    n_gpus: Optional[int] = None,
    epochs: int = 1,
    intensity: Union[float, IntensityTrace] = 200.0,
    start_hour: float = 0.0,
    pue: "PUELike" = None,
    config: Optional[ModelConfig] = None,
) -> TrainingResult:
    """Simulate training ``model`` for ``epochs`` on ``node``.

    ``node`` may be a Table 5 generation name ("P100"/"V100"/"A100") or
    any :class:`~repro.hardware.node.NodeSpec` whose GPU model is one of
    the studied generations.  ``n_gpus`` defaults to all GPUs in the
    node.  ``intensity`` is a constant gCO2/kWh or an hourly trace.
    ``pue`` is a float (the exact legacy path) or an hourly profile /
    profile model, charged hour-resolved by the tracker.  ``config``
    supplies the default PUE (default: the active configuration).
    """
    spec = get_model(model) if isinstance(model, str) else model
    node_spec = get_node_generation(node) if isinstance(node, str) else node
    if epochs < 1:
        raise WorkloadError(f"epochs must be >= 1, got {epochs}")
    gpus = node_spec.gpu_count if n_gpus is None else int(n_gpus)
    if gpus < 1 or gpus > node_spec.gpu_count:
        raise WorkloadError(
            f"n_gpus must be in [1, {node_spec.gpu_count}], got {gpus}"
        )

    generation = node_spec.name.split()[0]
    throughput = model_throughput_sps(spec, generation, n_gpus=gpus)
    total_samples = float(spec.samples_per_epoch) * epochs
    duration_h = total_samples / throughput / 3600.0

    run_node = node_spec.with_gpu_count(gpus) if gpus != node_spec.gpu_count else node_spec
    gpu_spec = run_node.gpu_spec()
    cpu_specs = run_node.cpus()
    cpu_utilization = max(
        (cpu.busy_utilization for cpu, _count in cpu_specs), default=0.0
    )
    tracker = CarbonTracker(run_node, intensity, pue=pue, config=config)
    report = tracker.track_run(
        duration_h,
        gpu_utilization=gpu_spec.busy_utilization,
        cpu_utilization=cpu_utilization,
        start_hour=start_hour,
    )
    return TrainingResult(
        model_name=spec.name,
        node_name=node_spec.name,
        n_gpus=gpus,
        epochs=epochs,
        duration_h=duration_h,
        throughput_sps=throughput,
        report=report,
    )


def simulate_suite(
    suite,
    node: Union[NodeSpec, str],
    *,
    n_gpus: Optional[int] = None,
    epochs: int = 1,
    intensity: Union[float, IntensityTrace] = 200.0,
    pue: "PUELike" = None,
) -> list[TrainingResult]:
    """Run every model of a suite (paper-style benchmarking campaign)."""
    return [
        simulate_training_run(
            model,
            node,
            n_gpus=n_gpus,
            epochs=epochs,
            intensity=intensity,
            pue=pue,
        )
        for model in suite_models(suite)
    ]
