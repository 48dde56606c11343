"""The paper's 15 artifacts, Figs. 1-9 and Tables 1-6: one entry each.

An :class:`Artifact` is everything the repository says about one figure
or table: its id (the ``repro-hpc`` subcommand and the export file
name), its report title, its raw header and rows (what ``repro-hpc
export`` writes) and how EXPERIMENTS.md displays those rows.  The
display is computed from the raw rows, so ``repro-hpc report``,
``repro-hpc <id>`` and ``repro-hpc export`` read the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import figures, tables
from repro.analysis.render import format_table, series_panel, share_table

__all__ = ["Artifact", "ARTIFACTS", "SAVINGS_YEARS", "pct"]

Rows = List[List[object]]

#: The years the Fig. 8/9 savings curves are sampled at.
SAVINGS_YEARS = np.linspace(0.25, 5.0, 20)


@dataclass(frozen=True)
class Artifact:
    """One paper figure or table."""

    id: str
    title: str
    #: Column names of the raw rows.
    header: Tuple[str, ...]
    rows: Callable[[], Rows]
    #: Raw rows -> the displayed blocks, each ending in a newline.
    display: Callable[[Rows], List[str]]

    def data(self) -> Dict[str, object]:
        """The raw data as ``{"header": [...], "rows": [[...]]}``."""
        return {"header": list(self.header), "rows": self.rows()}

    def section(self) -> str:
        """The artifact's EXPERIMENTS.md section."""
        return "\n".join([f"### {self.title}\n", *self.display(self.rows())])


def pct(x: float) -> str:
    """A fraction as a percentage with one decimal: 0.143 -> ``14.3%``."""
    return f"{x * 100:.1f}%"


def _fence(text: str) -> str:
    return f"```\n{text}\n```\n"


def _table(labels: Tuple[str, ...], cells: Callable[..., tuple]):
    """Display one table whose rows are ``cells(*raw_row)``."""
    return lambda rows: [_fence(format_table(labels, [cells(*row) for row in rows]))]


def _listing(table: Callable[[], list]) -> Callable[[], Rows]:
    return lambda: [list(row) for row in table()]


def _as_is(*cells) -> tuple:
    return cells


def _share_panels(rows: Rows) -> List[str]:
    systems: Dict[str, Dict[str, float]] = {}
    for system, component_class, share in rows:
        systems.setdefault(system, {})[component_class] = share
    return [
        f"**{system}**\n\n" + _fence(share_table(shares))
        for system, shares in systems.items()
    ]


def _savings_rows(grids) -> Rows:
    return [
        [f"{old}->{new}", level, suite.value, float(t), float(s)]
        for (old, new), grid in grids.items()
        for (level, suite), curve in grid.curves.items()
        for t, s in zip(grid.times_years, curve)
    ]


def _savings_panels(level_chars: Optional[int] = None):
    """One sparkline panel per upgrade; levels cut to ``level_chars``."""

    def display(rows: Rows) -> List[str]:
        panels: Dict[str, Dict[str, List[float]]] = {}
        for upgrade, level, suite, _years, savings in rows:
            series = panels.setdefault(upgrade, {})
            series.setdefault(f"{level[:level_chars]} {suite}", []).append(savings)
        span = f"({SAVINGS_YEARS[0]:g}-{SAVINGS_YEARS[-1]:g} yr)"
        return [
            f"**{upgrade.replace('->', ' -> ')}** {span}\n\n"
            + _fence(series_panel(series))
            for upgrade, series in panels.items()
        ]

    return display


_SAVINGS_HEADER = ("upgrade", "level", "suite", "years", "savings")

#: Every artifact by id, in ``repro-hpc list`` order.
ARTIFACTS: Dict[str, Artifact] = {
    artifact.id: artifact
    for artifact in (
        Artifact(
            "fig1",
            "Fig. 1 — processor embodied carbon",
            ("part", "kind", "embodied_kg", "embodied_per_tflop_kg"),
            lambda: [
                [r.name, r.kind, r.embodied_kg, r.embodied_per_tflop_kg]
                for r in figures.figure1()
            ],
            _table(
                ("Part", "Kind", "kgCO2", "kgCO2/TFLOPS (FP64)"),
                lambda name, kind, kg, per_tflop: (
                    name, kind, f"{kg:.2f}", f"{per_tflop:.2f}"
                ),
            ),
        ),
        Artifact(
            "fig2",
            "Fig. 2 — memory/storage embodied carbon",
            ("device", "kind", "embodied_kg", "embodied_per_gbps_kg"),
            lambda: [
                [r.name, r.kind, r.embodied_kg, r.embodied_per_bandwidth_kg]
                for r in figures.figure2()
            ],
            _table(
                ("Device", "kgCO2", "kgCO2 per GB/s"),
                lambda name, _kind, kg, per_gbps: (
                    name, f"{kg:.2f}", f"{per_gbps:.2f}"
                ),
            ),
        ),
        Artifact(
            "fig3",
            "Fig. 3 — manufacturing vs packaging split",
            ("component_class", "manufacturing_share", "packaging_share"),
            lambda: [
                [r.component_class, r.manufacturing_share, r.packaging_share]
                for r in figures.figure3()
            ],
            _table(
                ("Class", "Manufacturing", "Packaging"),
                lambda name, manufacturing, packaging: (
                    name, pct(manufacturing), pct(packaging)
                ),
            ),
        ),
        Artifact(
            "fig4",
            "Fig. 4 — embodied carbon and performance vs GPU count",
            ("suite", "n_gpus", "embodied_relative", "performance_relative"),
            lambda: [
                [p.suite, p.n_gpus, p.embodied_relative, p.performance_relative]
                for p in figures.figure4()
            ],
            _table(
                ("Suite", "GPUs", "Embodied (rel)", "Performance (rel)",
                 "Perf/Embodied"),
                lambda suite, n_gpus, embodied, performance: (
                    suite, n_gpus, f"{embodied:.3f}", f"{performance:.3f}",
                    f"{performance / embodied:.3f}",
                ),
            ),
        ),
        Artifact(
            "fig5",
            "Fig. 5 — per-system component breakdown",
            ("system", "component_class", "share"),
            lambda: [
                [system, component_class, share]
                for system, shares in figures.figure5().items()
                for component_class, share in shares.items()
            ],
            _share_panels,
        ),
        Artifact(
            "fig6",
            "Fig. 6 — regional carbon intensity (2021, synthetic)",
            ("region", "min", "q1", "median", "q3", "max", "mean", "cov_percent"),
            lambda: [
                [s.region_code, s.minimum, s.q1, s.median, s.q3, s.maximum,
                 s.mean, s.cov_percent]
                for s in figures.figure6().values()
            ],
            _table(
                ("Region", "Median", "Mean", "CoV", "Box (min, Q1, med, Q3, max)"),
                lambda region, low, q1, median, q3, high, mean, cov: (
                    region, f"{median:.0f}", f"{mean:.0f}", f"{cov:.1f}%",
                    f"({low:.0f}, {q1:.0f}, {median:.0f}, {q3:.0f}, {high:.0f})",
                ),
            ),
        ),
        Artifact(
            "fig7",
            "Fig. 7 — days each region is cleanest, per JST hour",
            ("region", *(f"jst_hour_{hour:02d}" for hour in range(24))),
            lambda: [
                [region, *(int(v) for v in counts)]
                for region, counts in figures.figure7().counts.items()
            ],
            _table(
                ("Region", "Days winning, hour 0-23 (JST)"),
                lambda region, *days: (
                    region, " ".join(f"{n:3d}" for n in days)
                ),
            ),
        ),
        Artifact(
            "fig8",
            "Fig. 8 — upgrade savings vs carbon intensity (medium usage)",
            _SAVINGS_HEADER,
            lambda: _savings_rows(figures.figure8(times_years=SAVINGS_YEARS)),
            _savings_panels(level_chars=6),
        ),
        Artifact(
            "fig9",
            "Fig. 9 — upgrade savings vs GPU usage (200 gCO2/kWh)",
            _SAVINGS_HEADER,
            lambda: _savings_rows(figures.figure9(times_years=SAVINGS_YEARS)),
            _savings_panels(),
        ),
        Artifact(
            "table1",
            "Table 1 — modeled components",
            ("type", "component", "part_name", "release"),
            _listing(tables.table1),
            _table(("Type", "Component", "Part Name", "Release"), _as_is),
        ),
        Artifact(
            "table2",
            "Table 2 — studied systems",
            ("system", "location", "processors", "cores", "year"),
            _listing(tables.table2),
            _table(("System", "Location", "CPU & GPU", "Cores", "Year"), _as_is),
        ),
        Artifact(
            "table3",
            "Table 3 — grid operators",
            ("operator", "country", "region"),
            _listing(tables.table3),
            _table(("Operator", "Country", "Region"), _as_is),
        ),
        Artifact(
            "table4",
            "Table 4 — benchmark suites",
            ("benchmark", "models"),
            _listing(tables.table4),
            _table(("Benchmark", "Models"), _as_is),
        ),
        Artifact(
            "table5",
            "Table 5 — node generations",
            ("name", "gpu", "cpu"),
            _listing(tables.table5),
            _table(("Name", "GPU", "CPU"), _as_is),
        ),
        Artifact(
            "table6",
            "Table 6 — upgrade performance improvement",
            ("upgrade", "nlp", "vision", "candle", "average"),
            lambda: [
                [r.upgrade, r.nlp_improvement, r.vision_improvement,
                 r.candle_improvement, r.average_improvement]
                for r in tables.table6()
            ],
            _table(
                ("Upgrade", "NLP", "Vision", "CANDLE", "Average"),
                lambda upgrade, *improvements: (
                    upgrade, *map(pct, improvements)
                ),
            ),
        ),
    )
}
