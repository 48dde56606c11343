"""Charging engines: turn placed jobs into ledger charges.

The scheduler evaluator used to account carbon in a per-job Python loop
(slice the truth trace, mean it, multiply).  An engine does the same
charging for a whole batch of ``(job, placement)`` pairs at once and
returns columnar :class:`JobCharges`; the evaluator, the session layer
and the benchmarks all consume those arrays.

Two engines:

* :class:`VectorizedChargingEngine` — the one built-in of the
  ``accounting`` backend kind (key ``vectorized``).  It groups jobs by
  ``(region, window)`` and charges each group with one gather (from the
  service's memoized
  :meth:`~repro.intensity.api.CarbonIntensityService.truth_window_table`
  when the group is large enough to amortize the build, a direct 2-D
  window gather otherwise — both reduce rows with the same pairwise
  summation, so the choice never changes a bit).
* :class:`ScalarReferenceChargingEngine` — the seed per-job loop, kept
  verbatim as the test oracle the vectorized engine is pinned against
  (and the baseline the accounting benchmark measures speedup over).
  No registry key selects it; tests and benchmarks pass an instance.

Both engines produce **bit-identical** per-job energies and carbon: the
vectorized kernel performs the exact scalar expressions elementwise, in
the same operation order (see the hypothesis pin in
``tests/test_accounting.py``).

Energy model (one code path, both engines)
------------------------------------------
``compute_kwh = n_gpus * per_gpu_busy_w * duration_h / 1000`` is the
job's compute draw.  A migrated job (placed away from its home region)
pays the paper's Insight 7 transfer cost as a flat overhead: its
charged energy is ``compute_kwh * (1 + transfer_overhead_fraction)``,
and its carbon prices the whole charged energy at the destination
grid.  That is the one migration cost model; a job that stays home is
charged ``compute_kwh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import ModelConfig
from repro.core.errors import AccountingError
from repro.accounting.ledger import CarbonLedger
from repro.accounting.pue import PUELike, pue_window_means, resolve_pue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.job import Job, Placement, PlacementBatch
    from repro.hardware.node import NodeSpec
    from repro.intensity.api import CarbonIntensityService

__all__ = [
    "JobCharges",
    "VectorizedChargingEngine",
    "ScalarReferenceChargingEngine",
    "check_transfer_overhead",
]


def check_transfer_overhead(value: float, *, error: type = AccountingError) -> None:
    """Raise unless a migration overhead fraction is finite and non-negative.

    ``error`` is the caller's layer error type (the scheduler evaluator
    raises :class:`~repro.core.errors.SchedulingError`, the engines
    :class:`~repro.core.errors.AccountingError`).
    """
    if not math.isfinite(value):
        raise error(f"transfer overhead must be finite, got {value!r}")
    if value < 0.0:
        raise error(f"transfer overhead must be non-negative, got {value!r}")


@dataclass(frozen=True)
class JobCharges:
    """Columnar charging result, aligned with the input job order."""

    job_ids: np.ndarray
    regions: Tuple[str, ...]
    energy_kwh: np.ndarray      #: charged energy incl. the migration overhead
    carbon_g: np.ndarray        #: realized carbon at the placement's grid

    def __len__(self) -> int:
        return int(self.job_ids.shape[0])

    def record(
        self, ledger: CarbonLedger, *, policy: Optional[str] = None
    ) -> None:
        """Append these charges to a ledger as one operational batch,
        with per-job attribution.

        The ledger gets its own copies of the columns, so a caller that
        edits a :class:`JobCharges` array (or an evaluation column built
        from one) never rewrites the ledger behind it.
        """
        ledger.add_batch(
            "operational",
            carbon_g=self.carbon_g.copy(),
            energy_kwh=self.energy_kwh.copy(),
            regions=list(self.regions),
            policy=policy,
            job_ids=self.job_ids,
        )


def _per_gpu_busy_w(node: "NodeSpec") -> float:
    from repro.power.node import NodePowerModel

    return NodePowerModel(node).gpu_power_w(busy=True) / node.gpu_count


def _empty_charges() -> JobCharges:
    return JobCharges(
        job_ids=np.zeros(0, dtype=np.int64),
        regions=(),
        energy_kwh=np.zeros(0),
        carbon_g=np.zeros(0),
    )


class VectorizedChargingEngine:
    """Batched truth-table charging (the default accounting backend).

    Reads a :class:`~repro.cluster.job.PlacementBatch`'s columns; a
    plain placement sequence is columnized once on entry.
    """

    name = "vectorized"

    def charge(
        self,
        jobs: Sequence["Job"],
        placements: Union["PlacementBatch", Sequence["Placement"]],
        *,
        service: "CarbonIntensityService",
        node: "NodeSpec",
        pue: PUELike = None,
        config: Optional[ModelConfig] = None,
        transfer_overhead_fraction: float = 0.02,
    ) -> JobCharges:
        from repro.cluster.job import JobBatch, PlacementBatch, charge_windows

        check_transfer_overhead(transfer_overhead_fraction)
        placements = PlacementBatch.coerce(placements)
        if len(jobs) != len(placements):
            raise AccountingError(
                f"{len(placements)} placements for {len(jobs)} jobs"
            )
        if not len(jobs):
            return _empty_charges()
        eff_pue, pue_profile = resolve_pue(pue, config=config)
        per_gpu_busy_w = _per_gpu_busy_w(node)

        # Columnar fast path: a JobBatch hands its arrays straight to
        # the kernel (no per-job objects); sequences columnize here.
        if isinstance(jobs, JobBatch):
            gpus = jobs.n_gpus.astype(float)
            durations = jobs.duration_h
            job_ids = jobs.job_ids
        else:
            gpus = np.array([j.n_gpus for j in jobs], dtype=float)
            durations = np.array([j.duration_h for j in jobs], dtype=float)
            job_ids = np.array([j.job_id for j in jobs], dtype=np.int64)
        start_hours = np.floor(placements.start_h).astype(np.int64)
        windows = charge_windows(durations)

        # One energy code path (see module docstring): compute draw,
        # plus the flat overhead on migrated jobs.
        compute_kwh = gpus * per_gpu_busy_w * durations / 1000.0
        energy_kwh = np.where(
            placements.migrated,
            compute_kwh * (1.0 + transfer_overhead_fraction),
            compute_kwh,
        )

        groups = self._group_by_region_window(
            placements.region_codes, placements.regions, windows
        )
        truth_means = self._truth_means(service, groups, start_hours)
        if pue_profile is None:
            carbon_g = energy_kwh * truth_means * eff_pue
        else:
            job_pue = self._pue_means(pue_profile, groups, start_hours)
            carbon_g = energy_kwh * truth_means * job_pue

        return JobCharges(
            job_ids=job_ids,
            regions=tuple(placements.region_names()),
            energy_kwh=energy_kwh,
            carbon_g=carbon_g,
        )

    # --- gathers ---------------------------------------------------------
    @staticmethod
    def _group_by_region_window(
        region_codes: np.ndarray, regions: Sequence[str], windows: np.ndarray
    ) -> List[Tuple[str, int, np.ndarray]]:
        """``(region, window, job_indices)`` groups, one per unique pair.

        Jobs sharing a placement region and a charging window charge
        together with a single gather.
        """
        from repro.cluster.job import row_groups

        combo = region_codes * (int(windows.max()) + 1) + windows
        return [
            (regions[int(region_codes[idxs[0]])], int(windows[idxs[0]]), idxs)
            for idxs in row_groups(combo)
        ]

    def _truth_means(
        self,
        service: "CarbonIntensityService",
        groups: Sequence[Tuple[str, int, np.ndarray]],
        start_hours: np.ndarray,
    ) -> np.ndarray:
        """Per-job mean true intensity over each charging window.

        One gather per ``(region, window)`` group.  The memoized service
        truth table is used once a group is big enough to amortize the
        build (or when an earlier call already built it); small groups
        gather their windows directly.  Both paths reduce identical
        value rows, so they are bit-equal.
        """
        means = np.empty(start_hours.shape[0])
        for region, window, idxs in groups:
            trace = service.trace(region)
            m = len(trace)
            starts = start_hours[idxs]
            probe = getattr(service, "truth_table_cached", None)
            cached = probe is not None and probe(region, window)
            if cached or starts.size * window >= m:
                table = service.truth_window_table(region, window)
                means[idxs] = table[starts % m]
            else:
                idx2 = (starts[:, None] + np.arange(window)[None, :]) % m
                # add.reduce + divide is np.mean's own reduction without
                # the wrapper overhead; bit-identical per row.
                means[idxs] = np.add.reduce(trace.values[idx2], axis=1) / window
        return means

    @staticmethod
    def _pue_means(
        profile: np.ndarray,
        groups: Sequence[Tuple[str, int, np.ndarray]],
        start_hours: np.ndarray,
    ) -> np.ndarray:
        """Per-job mean PUE over each charging window (hourly profile)."""
        result = np.empty(start_hours.shape[0])
        for _region, window, idxs in groups:
            result[idxs] = pue_window_means(profile, start_hours[idxs], window)
        return result


class ScalarReferenceChargingEngine:
    """The seed per-job charging loop, preserved as the oracle."""

    name = "scalar-reference"

    def charge(
        self,
        jobs: Sequence["Job"],
        placements: Sequence["Placement"],
        *,
        service: "CarbonIntensityService",
        node: "NodeSpec",
        pue: PUELike = None,
        config: Optional[ModelConfig] = None,
        transfer_overhead_fraction: float = 0.02,
    ) -> JobCharges:
        check_transfer_overhead(transfer_overhead_fraction)
        if len(jobs) != len(placements):
            raise AccountingError(
                f"{len(placements)} placements for {len(jobs)} jobs"
            )
        if not len(jobs):
            return _empty_charges()
        eff_pue, pue_profile = resolve_pue(pue, config=config)
        per_gpu_busy_w = _per_gpu_busy_w(node)

        n = len(jobs)
        energy = np.empty(n)
        carbon = np.empty(n)
        for i, (job, placement) in enumerate(zip(jobs, placements)):
            energy_kwh = job.n_gpus * per_gpu_busy_w * job.duration_h / 1000.0
            if placement.migrated:
                energy_kwh *= 1.0 + transfer_overhead_fraction
            window = max(int(np.ceil(job.duration_h)), 1)
            start_hour = int(np.floor(placement.start_h))
            truth = service.history(placement.region, start_hour, window)
            if pue_profile is None:
                job_pue = eff_pue
            else:
                m = pue_profile.shape[0]
                idx = np.arange(start_hour, start_hour + window) % m
                job_pue = float(pue_profile[idx].mean())
            energy[i] = energy_kwh
            carbon[i] = energy_kwh * float(truth.mean()) * job_pue

        return JobCharges(
            job_ids=np.array([job.job_id for job in jobs], dtype=np.int64),
            regions=tuple(p.region for p in placements),
            energy_kwh=energy,
            carbon_g=carbon,
        )
