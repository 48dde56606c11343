"""Per-generation workload performance model (paper Tables 5-6).

The paper benchmarks the Table 4 suites on three node generations (P100,
V100, A100) and reports suite-level *performance improvement* — the
reduction in training time — for each upgrade option (Table 6)::

    Upgrade        NLP     Vision   CANDLE   Average
    P100 -> V100   44.4%   41.2%    45.5%    43.4%
    P100 -> A100   59.0%   60.2%    68.3%    62.5%
    V100 -> A100   25.6%   35.8%    44.4%    35.9%

We calibrate one speedup factor per (suite, generation), chosen as the
least-squares-consistent solution to the paper's three (slightly
inconsistent, as independently measured numbers are) upgrade rows:

* NLP:    V100 = 1.800x, A100 = 2.430x over P100
* Vision: V100 = 1.700x, A100 = 2.580x
* CANDLE: V100 = 1.835x, A100 = 3.220x

Individual models inside a suite get deterministic multiplicative
jitter (hash-seeded, geometric-mean-normalized to 1 within each suite x
generation), so per-model results vary realistically while suite-level
geometric means reproduce the calibrated factors exactly.
"""

from __future__ import annotations

import zlib
from typing import Dict, Tuple

import numpy as np

from repro.core.errors import CalibrationError, WorkloadError
from repro.workloads.models import ModelSpec, Suite, get_model
from repro.workloads.scaling import scaled_performance
from repro.workloads.suites import suite_models

__all__ = [
    "GENERATIONS",
    "GENERATION_SPEEDUPS",
    "generation_speedup",
    "model_speedup",
    "model_throughput_sps",
    "suite_time_reduction",
    "average_time_reduction",
    "upgrade_options",
]

#: GPU generations in release order (node names of paper Table 5).
GENERATIONS: Tuple[str, ...] = ("P100", "V100", "A100")

#: Calibrated suite-level speedups over the P100 generation.
GENERATION_SPEEDUPS: Dict[Suite, Dict[str, float]] = {
    Suite.NLP: {"P100": 1.0, "V100": 1.800, "A100": 2.430},
    Suite.VISION: {"P100": 1.0, "V100": 1.700, "A100": 2.580},
    Suite.CANDLE: {"P100": 1.0, "V100": 1.835, "A100": 3.220},
}

#: Per-model jitter half-width (relative).
_JITTER = 0.07


def _check_generation(generation: str) -> str:
    if generation not in GENERATIONS:
        raise CalibrationError(
            f"unknown GPU generation {generation!r}; known: {GENERATIONS}"
        )
    return generation


def generation_speedup(suite: Suite | str, generation: str) -> float:
    """Suite-level speedup of ``generation`` over P100."""
    key = Suite(suite) if isinstance(suite, str) else suite
    _check_generation(generation)
    table = GENERATION_SPEEDUPS[key]
    speedup = table[generation]
    if speedup <= 0.0:
        raise CalibrationError(f"non-positive speedup for {key} on {generation}")
    return speedup


def _raw_jitter(model_name: str, generation: str) -> float:
    """Deterministic per-(model, generation) jitter in [1-J, 1+J]."""
    digest = zlib.crc32(f"{model_name}|{generation}".encode("utf-8"))
    unit = (digest % 10_000) / 10_000.0  # [0, 1)
    return 1.0 + _JITTER * (2.0 * unit - 1.0)


def _normalized_jitter(model: ModelSpec, generation: str) -> float:
    """Jitter normalized so the geometric mean over the model's suite is
    exactly 1 — suite-level speedups then match the calibration exactly."""
    peers = suite_models(model.suite)
    raw = np.array([_raw_jitter(peer.name, generation) for peer in peers])
    geo_mean = float(np.exp(np.log(raw).mean()))
    return _raw_jitter(model.name, generation) / geo_mean


def model_speedup(model: ModelSpec | str, generation: str) -> float:
    """Speedup of one model on ``generation`` relative to P100.

    P100 is the jitter-free reference (speedup exactly 1.0).
    """
    spec = get_model(model) if isinstance(model, str) else model
    _check_generation(generation)
    if generation == "P100":
        return 1.0
    return generation_speedup(spec.suite, generation) * _normalized_jitter(
        spec, generation
    )


def model_throughput_sps(
    model: ModelSpec | str, generation: str, *, n_gpus: int = 1
) -> float:
    """Single-node training throughput (samples/s).

    Multi-GPU scaling is handled by :mod:`repro.workloads.scaling`; this
    function covers the single-GPU case and delegates for ``n_gpus > 1``.
    """
    spec = get_model(model) if isinstance(model, str) else model
    if n_gpus < 1:
        raise WorkloadError(f"GPU count must be >= 1, got {n_gpus}")
    single = spec.base_throughput_sps * model_speedup(spec, generation)
    if n_gpus == 1:
        return single
    return single * scaled_performance(spec.suite, n_gpus)


def suite_time_reduction(
    suite: Suite | str, old_generation: str, new_generation: str
) -> float:
    """Table 6 cell: fractional training-time reduction for an upgrade.

    Computed over the suite's geometric-mean speedup, so the calibrated
    factors reproduce the paper's rows to within the least-squares
    consistency residual (<2 points)."""
    key = Suite(suite) if isinstance(suite, str) else suite
    old = generation_speedup(key, old_generation)
    new = generation_speedup(key, new_generation)
    if new < old:
        raise CalibrationError(
            f"{key}: upgrade {old_generation}->{new_generation} would slow down"
        )
    return 1.0 - old / new


def average_time_reduction(old_generation: str, new_generation: str) -> float:
    """Table 6 'Average Improv.' column: mean over the three suites."""
    reductions = [
        suite_time_reduction(suite, old_generation, new_generation)
        for suite in Suite
    ]
    return float(np.mean(reductions))


def upgrade_options() -> Tuple[Tuple[str, str], ...]:
    """The three upgrade options of Tables 6 / Figs. 8-9, in paper order."""
    return (("P100", "V100"), ("P100", "A100"), ("V100", "A100"))
