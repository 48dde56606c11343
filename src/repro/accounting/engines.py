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
job's compute draw.  Migration costs are charged on top:

* flat model — the charged energy is ``compute * (1 + overhead)``; the
  realized carbon prices the *whole* charged energy at the destination
  grid (the seed behaviour).
* physical :class:`~repro.scheduler.transfer.TransferModel` — the
  transfer's energy and carbon are itemized separately (``transfer``
  ledger kind, split between both endpoint grids); the destination grid
  prices only the compute energy.

The seed code computed the compute expression twice with the two
branches quietly disagreeing about what the truth-mean multiplies; the
single ``charged_kwh``/``transfer_*`` split above is the consolidation
(byte-identical to both old branches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import ModelConfig
from repro.core.errors import AccountingError
from repro.accounting.ledger import CarbonLedger
from repro.accounting.pue import PUELike, pue_window_means, resolve_pue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.job import Job, Placement, PlacementBatch
    from repro.hardware.node import NodeSpec
    from repro.intensity.api import CarbonIntensityService
    from repro.scheduler.transfer import TransferModel

__all__ = [
    "JobCharges",
    "VectorizedChargingEngine",
    "ScalarReferenceChargingEngine",
]


@dataclass(frozen=True)
class JobCharges:
    """Columnar charging result, aligned with the input job order."""

    job_ids: np.ndarray
    regions: Tuple[str, ...]
    energy_kwh: np.ndarray      #: metered energy incl. overhead/transfer
    carbon_g: np.ndarray        #: realized carbon incl. the transfer share
    operational_g: np.ndarray   #: destination-grid compute charge only
    transfer_kwh: np.ndarray
    transfer_g: np.ndarray

    def __len__(self) -> int:
        return int(self.job_ids.shape[0])

    def record(
        self, ledger: CarbonLedger, *, policy: Optional[str] = None
    ) -> None:
        """Append these charges to a ledger with per-job attribution.

        Operational charges land as one batch; migrated jobs with a
        physical transfer cost contribute a second ``transfer`` batch,
        so ``ledger.by_job()`` reproduces each job's realized carbon
        exactly (``operational + transfer`` in the seed's addition
        order).
        """
        ledger.add_batch(
            "operational",
            carbon_g=self.operational_g,
            energy_kwh=self.energy_kwh - self.transfer_kwh,
            regions=list(self.regions),
            policy=policy,
            job_ids=self.job_ids,
        )
        moved = np.flatnonzero((self.transfer_g != 0.0) | (self.transfer_kwh != 0.0))
        if moved.size:
            ledger.add_batch(
                "transfer",
                carbon_g=self.transfer_g[moved],
                energy_kwh=self.transfer_kwh[moved],
                labels=[f"transfer:{int(j)}" for j in self.job_ids[moved]],
                regions=[self.regions[i] for i in moved],
                policy=policy,
                job_ids=self.job_ids[moved],
            )


def _per_gpu_busy_w(node: "NodeSpec") -> float:
    from repro.power.node import NodePowerModel

    return NodePowerModel(node).gpu_power_w(busy=True) / node.gpu_count


def _empty_charges() -> JobCharges:
    zero = np.zeros(0)
    return JobCharges(
        job_ids=np.zeros(0, dtype=np.int64),
        regions=(),
        energy_kwh=zero,
        carbon_g=zero.copy(),
        operational_g=zero.copy(),
        transfer_kwh=zero.copy(),
        transfer_g=zero.copy(),
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
        transfer_model: Optional["TransferModel"] = None,
    ) -> JobCharges:
        from repro.cluster.job import JobBatch, PlacementBatch, charge_windows

        placements = PlacementBatch.coerce(placements)
        if len(jobs) != len(placements):
            raise AccountingError(
                f"{len(placements)} placements for {len(jobs)} jobs"
            )
        if not len(jobs):
            return _empty_charges()
        eff_pue, pue_profile = resolve_pue(pue, config=config)
        per_gpu_busy_w = _per_gpu_busy_w(node)
        n = len(jobs)

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
        migrated = placements.migrated
        start_hours = np.floor(placements.start_h).astype(np.int64)
        regions = tuple(placements.region_names())
        windows = charge_windows(durations)

        # One energy code path (see module docstring): compute draw,
        # then the migration cost model on top.
        compute_kwh = gpus * per_gpu_busy_w * durations / 1000.0
        transfer_kwh = np.zeros(n)
        transfer_g = np.zeros(n)
        if transfer_model is None:
            charged_kwh = np.where(
                migrated, compute_kwh * (1.0 + transfer_overhead_fraction), compute_kwh
            )
            energy_kwh = charged_kwh
        else:
            charged_kwh = compute_kwh
            moved = np.flatnonzero(migrated)
            if moved.size:
                from repro.scheduler.transfer import dataset_size_gb

                # (model, home, dest) combinations repeat heavily across
                # a workload: one pass encodes each migrated job to a
                # combo id, then dataset sizes and hop counts are
                # computed once per combo and gathered.
                combos: Dict[Tuple[str, str, str], int] = {}
                homes: List[str] = []
                dests: List[str] = []
                combo_of: List[int] = []
                for i in moved:
                    job = jobs[i]
                    dest = regions[i]
                    home = job.home_region if job.home_region is not None else dest
                    homes.append(home)
                    dests.append(dest)
                    combo_of.append(
                        combos.setdefault(
                            (job.model.name, home, dest), len(combos)
                        )
                    )
                gb = np.empty(len(combos))
                hops = np.empty(len(combos))
                for (name, home, dest), idx in combos.items():
                    gb[idx] = dataset_size_gb(name)
                    hops[idx] = transfer_model.hop_count(home, dest)
                combo_idx = np.asarray(combo_of, dtype=np.int64)
                src_int = self._intensities_at(service, homes, start_hours[moved])
                dst_int = self._intensities_at(service, dests, start_hours[moved])
                t_kwh = gb[combo_idx] * transfer_model.kwh_per_gb_per_hop * hops[combo_idx]
                transfer_kwh[moved] = t_kwh
                transfer_g[moved] = t_kwh * 0.5 * (src_int + dst_int)
            energy_kwh = compute_kwh + transfer_kwh

        groups = self._group_by_region_window(
            placements.region_codes, placements.regions, windows
        )
        truth_means = self._truth_means(service, groups, start_hours)
        if pue_profile is None:
            operational_g = charged_kwh * truth_means * eff_pue
        else:
            job_pue = self._pue_means(pue_profile, groups, start_hours)
            operational_g = charged_kwh * truth_means * job_pue
        carbon_g = operational_g + transfer_g

        return JobCharges(
            job_ids=job_ids,
            regions=regions,
            energy_kwh=energy_kwh,
            carbon_g=carbon_g,
            operational_g=operational_g,
            transfer_kwh=transfer_kwh,
            transfer_g=transfer_g,
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

    @staticmethod
    def _intensities_at(
        service: "CarbonIntensityService",
        regions: Sequence[str],
        hours: np.ndarray,
    ) -> np.ndarray:
        """True intensities per (region, hour) pair, gathered per region."""
        codes = np.asarray(regions, dtype=object)
        values = np.empty(len(regions))
        for code in dict.fromkeys(regions):
            mask = codes == code
            trace = service.trace(code)
            values[mask] = trace.values[hours[mask] % len(trace)]
        return values


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
        transfer_model: Optional["TransferModel"] = None,
    ) -> JobCharges:
        if len(jobs) != len(placements):
            raise AccountingError(
                f"{len(placements)} placements for {len(jobs)} jobs"
            )
        if not len(jobs):
            return _empty_charges()
        eff_pue, pue_profile = resolve_pue(pue, config=config)
        per_gpu_busy_w = _per_gpu_busy_w(node)
        if transfer_model is not None:
            from repro.scheduler.transfer import (
                transfer_carbon_g,
                transfer_energy_kwh,
            )

        n = len(jobs)
        energy = np.empty(n)
        carbon = np.empty(n)
        operational = np.empty(n)
        t_kwh_arr = np.zeros(n)
        t_g_arr = np.zeros(n)
        for i, (job, placement) in enumerate(zip(jobs, placements)):
            energy_kwh = job.n_gpus * per_gpu_busy_w * job.duration_h / 1000.0
            transfer_g = 0.0
            transfer_kwh = 0.0
            if placement.migrated:
                if transfer_model is not None:
                    home = (
                        job.home_region
                        if job.home_region is not None
                        else placement.region
                    )
                    hour = int(np.floor(placement.start_h))
                    transfer_g = transfer_carbon_g(
                        job.model,
                        home,
                        placement.region,
                        service.intensity_at(home, hour),
                        service.intensity_at(placement.region, hour),
                        transfer=transfer_model,
                    )
                    transfer_kwh = transfer_energy_kwh(
                        job.model, home, placement.region, transfer=transfer_model
                    )
                    energy_kwh += transfer_kwh
                else:
                    energy_kwh *= 1.0 + transfer_overhead_fraction
            window = max(int(np.ceil(job.duration_h)), 1)
            start_hour = int(np.floor(placement.start_h))
            truth = service.history(placement.region, start_hour, window)
            compute_energy = (
                job.n_gpus * per_gpu_busy_w * job.duration_h / 1000.0
                if transfer_model is not None
                else energy_kwh
            )
            if pue_profile is None:
                job_pue = eff_pue
            else:
                m = pue_profile.shape[0]
                idx = np.arange(start_hour, start_hour + window) % m
                job_pue = float(pue_profile[idx].mean())
            op_g = compute_energy * float(truth.mean()) * job_pue
            energy[i] = energy_kwh
            operational[i] = op_g
            carbon[i] = op_g + transfer_g
            t_kwh_arr[i] = transfer_kwh
            t_g_arr[i] = transfer_g

        return JobCharges(
            job_ids=np.array([job.job_id for job in jobs], dtype=np.int64),
            regions=tuple(p.region for p in placements),
            energy_kwh=energy,
            carbon_g=carbon,
            operational_g=operational,
            transfer_kwh=t_kwh_arr,
            transfer_g=t_g_arr,
        )
