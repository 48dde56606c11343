"""The carbon ledger: one accounting currency for the whole library.

The paper's bottom line (Eq. 1) is a single number, ``C_total = C_em +
C_op``, yet the quantities feeding it come from very different layers:
per-job operational charges from the scheduler evaluator (Eq. 6),
whole-horizon power integrals from the cluster simulator, embodied
build/replacement totals from the audit (Eq. 2-5), and amortized
embodied shares from the upgrade and model-card analyses.
:class:`CarbonLedger` is the meeting point: every layer records typed
:class:`LedgerEntry` charges into it, and attribution (per job, per
region, per policy, per source kind) falls out of one structure instead
of four bespoke sums.

Storage is columnar: charges arrive in *batches* (numpy arrays of
carbon/energy plus shared or per-entry attribution), so charging a
month-long workload appends a handful of array references rather than
building tens of thousands of Python objects.  Typed
:class:`LedgerEntry` records are materialized lazily by
:meth:`CarbonLedger.entries` for callers that want the itemized view.

Exactness contract
------------------
The charge helpers reproduce the historical call-site arithmetic
*bit for bit* (same operations, same order), so routing a subsystem
through the ledger never changes its totals: the scheduler evaluator,
the cluster simulator and the audit all produce byte-identical numbers
before and after the consolidation (pinned by tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.errors import AccountingError
from repro.core.model import FootprintReport
from repro.core.units import HOURS_PER_YEAR, format_co2

__all__ = ["LedgerEntry", "CarbonLedger", "amortized_embodied_g"]

#: Entry kinds the attribution tables group by: Eq. 1's two terms.
KINDS = ("operational", "embodied")


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    """One itemized carbon charge.

    ``kind`` is ``"operational"`` (Eq. 6 grid carbon, including the
    flat transfer overhead of migrated jobs) or ``"embodied"`` (Eq. 2-5
    manufacturing, possibly amortized).
    ``label`` identifies the charged object (``"job:17"``, ``"GPU"``,
    ``"cluster"``); ``region``/``policy``/``job_id`` carry the
    attribution axes when they apply.
    """

    kind: str
    label: str
    carbon_g: float
    energy_kwh: float = 0.0
    region: Optional[str] = None
    policy: Optional[str] = None
    job_id: Optional[int] = None


class _Batch:
    """One columnar append: shared attribution + per-entry arrays.

    ``labels`` is ``None`` when the caller gave none; :meth:`label`
    derives the default (``job:<id>``, else the kind) on demand.
    """

    __slots__ = ("kind", "policy", "labels", "regions", "job_ids", "energy_kwh", "carbon_g")

    def __init__(
        self,
        kind: str,
        carbon_g: np.ndarray,
        energy_kwh: np.ndarray,
        labels: Optional[Sequence[str]],
        regions: Sequence[Optional[str]],
        policy: Optional[str],
        job_ids: Optional[np.ndarray],
    ) -> None:
        self.kind = kind
        self.carbon_g = carbon_g
        self.energy_kwh = energy_kwh
        self.labels = labels
        self.regions = regions
        self.policy = policy
        self.job_ids = job_ids

    def __len__(self) -> int:
        return int(self.carbon_g.shape[0])

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        if self.job_ids is not None:
            return f"job:{int(self.job_ids[i])}"
        return self.kind


def _require(name: str, value: float, *, positive: bool = False) -> None:
    """Raise :class:`AccountingError` naming ``name`` unless ``value`` is
    finite and non-negative (``positive``: finite and above zero)."""
    if not math.isfinite(value) or value < 0.0 or (positive and value == 0.0):
        bound = "positive" if positive else "non-negative"
        raise AccountingError(f"{name} must be finite and {bound}, got {value!r}")


def _require_all(name: str, values: np.ndarray) -> None:
    """:func:`_require` for every entry of ``values`` (two reductions)."""
    if values.size and not (values.min() >= 0.0 and values.max() < math.inf):
        bad = values[~((values >= 0.0) & (values < math.inf))][0]
        raise AccountingError(
            f"{name} entries must be finite and non-negative, got {float(bad)!r}"
        )


def amortized_embodied_g(
    total_embodied_g: float, duration_h: float, lifetime_years: float
) -> float:
    """Embodied share attributable to ``duration_h`` of service.

    The standard LCA attribution for shared infrastructure (the model
    cards' formula): ``embodied * duration / (lifetime * 8760 h)``.
    """
    _require("lifetime_years", lifetime_years, positive=True)
    _require("duration_h", duration_h)
    _require("total_embodied_g", total_embodied_g)
    return total_embodied_g * duration_h / (lifetime_years * HOURS_PER_YEAR)


class CarbonLedger:
    """Typed, batched carbon accounting with multi-axis attribution."""

    def __init__(self) -> None:
        self._batches: List[_Batch] = []

    # --- recording ------------------------------------------------------
    def add(
        self,
        kind: str,
        label: str,
        carbon_g: float,
        *,
        energy_kwh: float = 0.0,
        region: Optional[str] = None,
        policy: Optional[str] = None,
        job_id: Optional[int] = None,
    ) -> None:
        """Record one charge (a singleton batch)."""
        self.add_batch(
            kind,
            carbon_g=np.asarray([float(carbon_g)]),
            energy_kwh=np.asarray([float(energy_kwh)]),
            labels=[label],
            regions=[region],
            policy=policy,
            job_ids=None if job_id is None else np.asarray([int(job_id)]),
        )

    def add_batch(
        self,
        kind: str,
        *,
        carbon_g: np.ndarray,
        energy_kwh: Optional[np.ndarray] = None,
        labels: Optional[Sequence[str]] = None,
        regions: Union[None, str, Sequence[Optional[str]]] = None,
        policy: Optional[str] = None,
        job_ids: Optional[np.ndarray] = None,
    ) -> None:
        """Record a batch of charges sharing ``kind`` (and optionally
        ``policy``); per-entry arrays must agree in length, and every
        carbon and energy entry must be finite and non-negative."""
        if kind not in KINDS:
            raise AccountingError(
                f"unknown ledger entry kind {kind!r}; kinds: {', '.join(KINDS)}"
            )
        carbon = np.asarray(carbon_g, dtype=float)
        if carbon.ndim != 1:
            raise AccountingError(f"carbon batch must be 1-D, got shape {carbon.shape}")
        n = carbon.shape[0]
        energy = (
            np.zeros(n) if energy_kwh is None else np.asarray(energy_kwh, dtype=float)
        )
        if isinstance(regions, str) or regions is None:
            region_seq: Sequence[Optional[str]] = [regions] * n
        else:
            region_seq = list(regions)
        if job_ids is not None:
            job_ids = np.asarray(job_ids)
        # Default labels are derived by entries(), their only reader.
        label_seq = list(labels) if labels is not None else None
        for name, length in (
            ("energy", energy.shape[0]),
            ("labels", n if label_seq is None else len(label_seq)),
            ("regions", len(region_seq)),
            ("job_ids", n if job_ids is None else job_ids.shape[0]),
        ):
            if length != n:
                raise AccountingError(
                    f"{name} batch length {length} does not match {n} charges"
                )
        _require_all("carbon_g", carbon)
        _require_all("energy_kwh", energy)
        if n == 0:
            return
        self._batches.append(
            _Batch(kind, carbon, energy, label_seq, region_seq, policy, job_ids)
        )

    # --- charge helpers (exactness-preserving) ---------------------------
    def charge_energy(
        self,
        label: str,
        energy_kwh: float,
        intensity_g_per_kwh: float,
        *,
        pue: float = 1.0,
        region: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> float:
        """Eq. 6 for a lump of energy: ``energy * intensity * pue``.

        Returns the grams charged (the exact audit-style product, in
        that operation order).
        """
        _require("energy_kwh", energy_kwh)
        _require("intensity_g_per_kwh", intensity_g_per_kwh)
        _require("pue", pue)
        grams = energy_kwh * intensity_g_per_kwh * pue
        self.add(
            "operational",
            label,
            grams,
            energy_kwh=energy_kwh,
            region=region,
            policy=policy,
        )
        return grams

    def charge_power_profile(
        self,
        label: str,
        power_w: np.ndarray,
        intensity_g_per_kwh: np.ndarray,
        *,
        pue: Union[float, np.ndarray] = 1.0,
        step_hours: float = 1.0,
        region: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> float:
        """Eq. 6 against a sampled power profile: the simulator's charge.

        With a scalar ``pue`` this is exactly the historical
        ``dot(power, intensity) * step / 1000 * pue``; an hourly PUE
        *profile* (same length as the power profile) weights each
        interval instead — ``dot(power * pue, intensity) * step / 1000``
        — which a constant profile reduces to the scalar path (profiles
        with no variation are collapsed before reaching here, see
        :func:`~repro.accounting.pue.resolve_pue`).  Returns grams.
        """
        power = np.asarray(power_w, dtype=float)
        intensity = np.asarray(intensity_g_per_kwh, dtype=float)
        if power.shape != intensity.shape or power.ndim != 1:
            raise AccountingError(
                "power and intensity must be 1-D arrays of equal length, got "
                f"{power.shape} and {intensity.shape}"
            )
        _require("step_hours", step_hours, positive=True)
        _require_all("power_w", power)
        _require_all("intensity_g_per_kwh", intensity)
        if np.ndim(pue) == 0:
            _require("pue", pue)
            grams = float(np.dot(power, intensity)) * step_hours / 1000.0 * float(pue)
        else:
            profile = np.asarray(pue, dtype=float)
            if profile.shape != power.shape:
                raise AccountingError(
                    f"hourly PUE profile length {profile.shape} does not match "
                    f"the power profile {power.shape}"
                )
            _require_all("pue", profile)
            grams = float(np.dot(power * profile, intensity)) * step_hours / 1000.0
        energy_kwh = float(power.sum()) * step_hours / 1000.0
        self.add(
            "operational",
            label,
            grams,
            energy_kwh=energy_kwh,
            region=region,
            policy=policy,
        )
        return grams

    def charge_embodied(
        self,
        label: str,
        carbon_g: float,
        *,
        region: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> float:
        """Record an embodied (Eq. 2-5) charge; returns the grams."""
        _require("carbon_g", carbon_g)
        self.add("embodied", label, carbon_g, region=region, policy=policy)
        return carbon_g

    def charge_amortized_embodied(
        self,
        label: str,
        total_embodied_g: float,
        *,
        duration_h: float,
        lifetime_years: float,
        share: float = 1.0,
        region: Optional[str] = None,
        policy: Optional[str] = None,
    ) -> float:
        """Amortized embodied share for ``duration_h`` of service.

        ``share`` prorates the subject (e.g. ``n_gpus / gpus_per_node``
        for a job occupying part of a node).  Returns the grams charged.
        """
        if not (0.0 <= share <= 1.0):
            raise AccountingError(f"share must be in [0, 1], got {share!r}")
        grams = amortized_embodied_g(
            total_embodied_g * share, duration_h, lifetime_years
        )
        self.add("embodied", label, grams, region=region, policy=policy)
        return grams

    def merge(self, other: "CarbonLedger") -> None:
        """Fold another ledger's batches into this one (shared arrays)."""
        self._batches.extend(other._batches)

    # --- plain columns ----------------------------------------------------
    def to_columns(self) -> List[Dict[str, Any]]:
        """The ledger as plain JSON-able columns, one mapping per batch.

        :meth:`from_columns` rebuilds it bit for bit, through JSON too
        (``json`` writes each float as its shortest round-trip repr).
        The lists are new objects: nothing aliases this ledger's arrays.
        """
        return [
            {
                "kind": batch.kind,
                "policy": batch.policy,
                "labels": None if batch.labels is None else list(batch.labels),
                "regions": list(batch.regions),
                "job_ids": (
                    None if batch.job_ids is None else batch.job_ids.tolist()
                ),
                "carbon_g": batch.carbon_g.tolist(),
                "energy_kwh": batch.energy_kwh.tolist(),
            }
            for batch in self._batches
        ]

    @classmethod
    def from_columns(cls, columns: Sequence[Dict[str, Any]]) -> "CarbonLedger":
        """Rebuild a ledger from :meth:`to_columns` output, with fresh
        arrays, through the validating :meth:`add_batch`."""
        ledger = cls()
        for batch in columns:
            job_ids = batch["job_ids"]
            ledger.add_batch(
                batch["kind"],
                carbon_g=np.asarray(batch["carbon_g"], dtype=float),
                energy_kwh=np.asarray(batch["energy_kwh"], dtype=float),
                labels=batch["labels"],
                regions=batch["regions"],
                policy=batch["policy"],
                job_ids=(
                    None if job_ids is None
                    else np.asarray(job_ids, dtype=np.int64)
                ),
            )
        return ledger

    def regions(self) -> List[Optional[str]]:
        """Every entry's region, in insertion order."""
        return [region for batch in self._batches for region in batch.regions]

    # --- totals ----------------------------------------------------------
    def _kind_total(self, kind: str) -> float:
        return float(
            sum(b.carbon_g.sum() for b in self._batches if b.kind == kind)
        )

    @property
    def operational_g(self) -> float:
        return self._kind_total("operational")

    @property
    def embodied_g(self) -> float:
        return self._kind_total("embodied")

    @property
    def total_carbon_g(self) -> float:
        return float(sum(b.carbon_g.sum() for b in self._batches))

    @property
    def total_energy_kwh(self) -> float:
        return float(sum(b.energy_kwh.sum() for b in self._batches))

    def report(self) -> FootprintReport:
        """Collapse into the Eq. 1 split."""
        return FootprintReport(
            embodied_g=self.embodied_g, operational_g=self.operational_g
        )

    # --- attribution -----------------------------------------------------
    def by_kind(self) -> Dict[str, float]:
        """Grams per entry kind (insertion-ordered, zero kinds omitted)."""
        totals: Dict[str, float] = {}
        for batch in self._batches:
            totals[batch.kind] = totals.get(batch.kind, 0.0) + float(
                batch.carbon_g.sum()
            )
        return totals

    def by_region(self) -> Dict[str, float]:
        """Grams per region; entries without a region fall under ``"-"``."""
        totals: Dict[str, float] = {}
        for batch in self._batches:
            regions = batch.regions
            if len(set(regions)) == 1:
                key = regions[0] if regions[0] is not None else "-"
                totals[key] = totals.get(key, 0.0) + float(batch.carbon_g.sum())
                continue
            codes = np.asarray(
                [r if r is not None else "-" for r in regions], dtype=object
            )
            for code in dict.fromkeys(codes):
                mask = codes == code
                totals[code] = totals.get(code, 0.0) + float(
                    batch.carbon_g[mask].sum()
                )
        return totals

    def by_policy(self) -> Dict[str, float]:
        """Grams per policy; unattributed entries fall under ``"-"``."""
        totals: Dict[str, float] = {}
        for batch in self._batches:
            key = batch.policy if batch.policy is not None else "-"
            totals[key] = totals.get(key, 0.0) + float(batch.carbon_g.sum())
        return totals

    def by_job(self) -> Dict[int, float]:
        """Grams per job id (entries carrying one)."""
        totals: Dict[int, float] = {}
        for batch in self._batches:
            if batch.job_ids is None:
                continue
            for job_id, grams in zip(batch.job_ids, batch.carbon_g):
                key = int(job_id)
                totals[key] = totals.get(key, 0.0) + float(grams)
        return totals

    def attribution_rows(
        self, axis: str = "region"
    ) -> List[Tuple[str, float, float]]:
        """Render-ready ``(key, carbon_g, share)`` rows for one axis."""
        tables = {
            "region": self.by_region,
            "policy": self.by_policy,
            "kind": self.by_kind,
        }
        try:
            table = tables[axis]()
        except KeyError:
            raise AccountingError(
                f"unknown attribution axis {axis!r}; axes: "
                f"{', '.join(tables)}"
            ) from None
        total = self.total_carbon_g
        return [
            (key, grams, 0.0 if total == 0.0 else grams / total)
            for key, grams in table.items()
        ]

    # --- itemized view ----------------------------------------------------
    def entries(self) -> Iterator[LedgerEntry]:
        """Materialize the typed per-entry records, in insertion order."""
        for batch in self._batches:
            job_ids = batch.job_ids
            for i in range(len(batch)):
                yield LedgerEntry(
                    kind=batch.kind,
                    label=batch.label(i),
                    carbon_g=float(batch.carbon_g[i]),
                    energy_kwh=float(batch.energy_kwh[i]),
                    region=batch.regions[i],
                    policy=batch.policy,
                    job_id=None if job_ids is None else int(job_ids[i]),
                )

    def __iter__(self) -> Iterator[LedgerEntry]:
        return self.entries()

    def __len__(self) -> int:
        return sum(len(batch) for batch in self._batches)

    def __str__(self) -> str:
        return (
            f"CarbonLedger({len(self)} entries, "
            f"total {format_co2(self.total_carbon_g)})"
        )
