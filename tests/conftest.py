"""Shared fixtures for the test suite."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.intensity.generator import generate_all_traces, generate_trace
from repro.intensity.trace import IntensityTrace


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the committed tests/golden fixtures from the current "
        "outputs instead of asserting against them",
    )


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def update_golden(request) -> bool:
    return bool(request.config.getoption("--update-golden"))


@pytest.fixture()
def golden_file(update_golden):
    """``golden_file(name, text)``: assert that ``text`` equals the
    committed ``tests/golden/<name>`` byte for byte, or rewrite that file
    under ``--update-golden``."""

    def check(name: str, text: str) -> None:
        path = GOLDEN_DIR / name
        data = text.encode("utf-8")
        if update_golden:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        assert path.exists(), (
            f"missing golden file tests/golden/{name}; generate it with "
            "--update-golden"
        )
        assert data == path.read_bytes(), (
            f"output drifted from tests/golden/{name}; if the change is "
            "intentional, re-bless with --update-golden"
        )

    return check


@pytest.fixture()
def plugin_backend():
    """``register(kind, key, factory)`` for one test; the registry drops
    every key registered through it afterwards."""
    from repro.session import registry

    added = []

    def register(kind: str, key: str, factory) -> None:
        registry.add(kind, key, factory)
        added.append((kind, key))

    yield register
    for kind, key in added:
        del registry._factories[kind][key.lower()]


@pytest.fixture(scope="session")
def all_traces():
    """Full-year traces for every Table 3 region (expensive: session-scoped)."""
    return generate_all_traces()


@pytest.fixture(scope="session")
def eso_trace(all_traces):
    return all_traces["ESO"]


@pytest.fixture()
def flat_trace():
    """A constant 100 gCO2/kWh two-day trace for exactness tests."""
    return IntensityTrace(
        region_code="FLAT", tz_offset_hours=0, values=np.full(48, 100.0)
    )


@pytest.fixture()
def ramp_trace():
    """A 0..47 ramp trace (two days, hourly) for indexing tests."""
    return IntensityTrace(
        region_code="RAMP", tz_offset_hours=0, values=np.arange(48, dtype=float)
    )
