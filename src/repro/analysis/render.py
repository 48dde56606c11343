"""Plain-text rendering of experiment results.

The paper presents its results as bar charts, ring charts, box plots and
line plots; in a terminal-first reproduction those become aligned text:
tables, share tables and sparkline-style series.  The artifact entries
(:mod:`repro.analysis.artifacts`) display their rows through these
functions, and ``repro-hpc <id>``, the benchmarks and EXPERIMENTS.md all
print the entries' sections, so every artifact has one formatting path.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.errors import ExperimentError

__all__ = [
    "format_table",
    "share_table",
    "sparkline",
    "series_panel",
]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as an aligned monospace table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def share_table(shares: Mapping[str, float]) -> str:
    """Render fractional shares as a percentage table (ring-chart text)."""
    if not shares:
        raise ExperimentError("no shares to render")
    label_width = max(len(label) for label in shares)
    lines = []
    for label, share in shares.items():
        blocks = "#" * int(round(share * 50))
        lines.append(f"{label.ljust(label_width)}  {share * 100:5.1f}%  {blocks}")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of a series (for savings curves and profiles)."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ExperimentError("sparkline needs at least one value")
    lo, hi = float(arr.min()), float(arr.max())
    if hi == lo:
        return _SPARK_CHARS[0] * arr.size
    scaled = (arr - lo) / (hi - lo)
    idx = np.minimum((scaled * len(_SPARK_CHARS)).astype(int), len(_SPARK_CHARS) - 1)
    return "".join(_SPARK_CHARS[i] for i in idx)


def series_panel(
    series: Mapping[str, Sequence[float]], *, value_format: str = "{:+.1%}"
) -> str:
    """Sparkline panel: one labeled line per series with first/last values."""
    if not series:
        raise ExperimentError("no series to render")
    label_width = max(len(label) for label in series)
    lines = []
    for label, values in series.items():
        arr = list(values)
        first = value_format.format(arr[0])
        last = value_format.format(arr[-1])
        lines.append(
            f"{label.ljust(label_width)}  {sparkline(arr)}  {first} -> {last}"
        )
    return "\n".join(lines)


# --- Scenario/Session facade renderers -------------------------------------
def render_scenario_text(result) -> str:
    """Plain-text rendering of a :class:`~repro.session.ScenarioResult`."""
    return "\n".join(result.summary_lines())


def render_scenario_json(result) -> str:
    """JSON rendering of a :class:`~repro.session.ScenarioResult`."""
    import json

    return json.dumps(result.to_dict(), indent=2, sort_keys=True)


def render_scenario_markdown(result) -> str:
    """Markdown rendering of a :class:`~repro.session.ScenarioResult`."""
    lines = [f"## Scenario `{result.name}`", ""]
    if result.region:
        lines.append(f"*Region:* **{result.region}** · *seed:* {result.seed}")
        lines.append("")
    for line in result.summary_lines()[1:]:
        lines.append(f"- {line.strip()}")
    lines.append("")
    lines.append("<details><summary>Provenance</summary>")
    lines.append("")
    lines.append("| knob | value | source | backend |")
    lines.append("|---|---|---|---|")
    for p in result.provenance:
        lines.append(
            f"| {p.knob} | `{p.value}` | {p.source} | {p.backend or ''} |"
        )
    lines.append("")
    lines.append("</details>")
    return "\n".join(lines)


__all__ += [
    "render_scenario_text",
    "render_scenario_json",
    "render_scenario_markdown",
]
