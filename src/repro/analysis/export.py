"""Machine-readable export of every reproduced artifact.

Downstream users (plotting notebooks, dashboards, other accounting
tools) want the figure/table data as files, not printed text.  This
module serializes the raw rows of every artifact entry
(:data:`repro.analysis.artifacts.ARTIFACTS`) to JSON and CSV with only
the standard library, and a single :func:`export_all` drops the complete
set into a directory (also exposed as ``repro-hpc export``).
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Dict, List, Union

from repro.analysis.artifacts import ARTIFACTS
from repro.core.errors import ExperimentError

__all__ = [
    "experiment_data",
    "write_csv",
    "write_json",
    "export_all",
    "write_scenario",
    "read_scenario",
]

PathLike = Union[str, pathlib.Path]


def experiment_data(experiment: str) -> Dict[str, object]:
    """The experiment's data as ``{"header": [...], "rows": [[...]]}``."""
    try:
        artifact = ARTIFACTS[experiment]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment!r}; known: {sorted(ARTIFACTS)}"
        ) from None
    return artifact.data()


def write_csv(experiment: str, path: PathLike) -> pathlib.Path:
    """Write one experiment's rows as CSV; returns the path."""
    data = experiment_data(experiment)
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(data["header"])
        writer.writerows(data["rows"])
    return target


def write_json(experiment: str, path: PathLike) -> pathlib.Path:
    """Write one experiment's data as JSON; returns the path."""
    data = experiment_data(experiment)
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(data, indent=2), encoding="utf-8")
    return target


def write_scenario(result, path: PathLike) -> pathlib.Path:
    """Serialize a :class:`~repro.session.ScenarioResult` to a JSON file.

    Round-trips through :func:`read_scenario`: every section and the
    full provenance record survive; live objects (the raw training run,
    per-job evaluations) are intentionally dropped.
    """
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True), encoding="utf-8"
    )
    return target


def read_scenario(path: PathLike):
    """Load a :func:`write_scenario` file back into a ScenarioResult."""
    from repro.session.result import ScenarioResult

    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    return ScenarioResult.from_dict(data)


def export_all(directory: PathLike, *, fmt: str = "csv") -> List[pathlib.Path]:
    """Export every experiment into ``directory``; returns written paths."""
    if fmt not in ("csv", "json"):
        raise ExperimentError(f"format must be 'csv' or 'json', got {fmt!r}")
    base = pathlib.Path(directory)
    written: List[pathlib.Path] = []
    for experiment in ARTIFACTS:
        path = base / f"{experiment}.{fmt}"
        if fmt == "csv":
            written.append(write_csv(experiment, path))
        else:
            written.append(write_json(experiment, path))
    return written
