"""The grid planner: scenarios → deduplicated work units.

A sweep grid routinely contains cells that resolve to the *same*
session — a spec axis that only varies the renderer, two scenario lists
that overlap, a re-run of yesterday's grid.  The planner fingerprints
every cell (:meth:`Session.fingerprint`) and groups cells sharing a
fingerprint into one :class:`WorkUnit`: the unit's representative runs
once and its result fans back out to every member cell.  Cells that
cannot be fingerprinted (knobs with no stable identity) each get their
own unit with ``fingerprint=None`` — always recomputed, never cached.

Sub-computation dedup rides on the library's memo layers: cells sharing
a (seed, region-set) signature draw one trace set from the module memo,
and cells sharing (workload knobs, seed) reuse
the same generated :class:`~repro.cluster.job.JobBatch` via the
workload-source batch memo — the planner does not need to model either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.errors import SweepError
from repro.session.scenario import Scenario
from repro.session.session import Session

__all__ = ["WorkUnit", "SweepPlan", "plan_sweep"]


@dataclass(frozen=True)
class WorkUnit:
    """One unique session to run, and the grid cells it serves."""

    name: str
    fingerprint: Optional[str]
    indices: Tuple[int, ...]
    #: The representative item handed to the executor (the first cell's
    #: original Scenario/Session, so process executors pickle builders).
    item: Union[Scenario, Session]
    #: The built session for the representative cell, which runs the
    #: unit and gives its section fingerprints.  Excluded from equality:
    #: two plans over the same grid compare equal even though sessions
    #: are fresh objects each time.
    session: Optional[Session] = field(default=None, compare=False, repr=False)
    #: ``((section, cached?), ...)`` predictions stamped by
    #: ``SweepService.plan`` when a cache is attached; ``None`` until then.
    section_hits: Optional[Tuple[Tuple[str, bool], ...]] = None

    @property
    def cacheable(self) -> bool:
        return self.fingerprint is not None


@dataclass(frozen=True)
class SweepPlan:
    """The deduplicated execution plan for one grid."""

    units: Tuple[WorkUnit, ...]
    n_cells: int

    @property
    def n_unique(self) -> int:
        return len(self.units)

    @property
    def n_deduplicated(self) -> int:
        return self.n_cells - self.n_unique

    def summary_lines(self) -> List[str]:
        lines = [
            f"sweep plan: {self.n_cells} cell"
            f"{'s' if self.n_cells != 1 else ''} -> {self.n_unique} unique "
            f"work unit{'s' if self.n_unique != 1 else ''}"
            + (
                f" ({self.n_deduplicated} deduplicated)"
                if self.n_deduplicated
                else ""
            )
        ]
        for unit in self.units:
            key = unit.fingerprint[:12] if unit.fingerprint else "uncacheable"
            cells = ",".join(str(i) for i in unit.indices)
            line = f"  {key:>12s}  {unit.name}  [cell {cells}]"
            if unit.section_hits is not None:
                cached = sum(1 for _, hit in unit.section_hits if hit)
                total = len(unit.section_hits)
                stale = ", ".join(
                    name for name, hit in unit.section_hits if not hit
                )
                line += f"  sections: {cached}/{total} cached"
                if stale:
                    line += f" (stale: {stale})"
            lines.append(line)
        return lines


def plan_sweep(items: Sequence[Union[Scenario, Session]]) -> SweepPlan:
    """Fingerprint every cell and group duplicates into work units."""
    items = list(items)
    units: List[Dict] = []
    by_fingerprint: Dict[str, Dict] = {}
    for index, item in enumerate(items):
        if isinstance(item, Scenario):
            session = item.build()
        elif isinstance(item, Session):
            session = item
        else:
            raise SweepError(
                f"sweep cells must be Scenario/Session, got "
                f"{type(item).__name__} at cell {index}"
            )
        try:
            fingerprint: Optional[str] = session.fingerprint()
        except SweepError:
            fingerprint = None  # uncacheable: its own unit, always runs
        if fingerprint is not None and fingerprint in by_fingerprint:
            by_fingerprint[fingerprint]["indices"].append(index)
            continue
        unit = {
            "name": session.name,
            "fingerprint": fingerprint,
            "indices": [index],
            "item": item,
            "session": session,
        }
        units.append(unit)
        if fingerprint is not None:
            by_fingerprint[fingerprint] = unit
    return SweepPlan(
        units=tuple(
            WorkUnit(
                name=u["name"],
                fingerprint=u["fingerprint"],
                indices=tuple(u["indices"]),
                item=u["item"],
                session=u["session"],
            )
            for u in units
        ),
        n_cells=len(items),
    )
