"""Golden-fixture regression pins for the serialized facade output.

A small canonical scenario matrix (2 systems x 2 policies, constant
PUE) is run through the facade and its ``ScenarioResult.to_dict()``
JSON is compared **byte for byte** against committed fixtures under
``tests/golden/``.  Facade refactors therefore cannot silently drift
any serialized number, name, or provenance entry: an intentional change
re-blesses the fixtures with

    pytest tests/test_golden_fixtures.py --update-golden

and the new bytes show up in review as a plain-text diff.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cluster import WorkloadParams
from repro.session import Scenario

import oracles

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: The canonical matrix: 2 systems x 2 policies, constant PUE.
_MATRIX = [
    ("frontier", "ESO", "carbon-oblivious"),
    ("frontier", "ESO", "temporal+geographic"),
    ("perlmutter", "CISO", "carbon-oblivious"),
    ("perlmutter", "CISO", "temporal+geographic"),
]

#: Pinned constant facility overhead (exercises the pue:constant path).
_GOLDEN_PUE = 1.25


def _fixture_id(system: str, policy: str) -> str:
    return f"{system}-{policy}".replace("+", "_")


def _build(system: str, region: str, policy: str) -> Scenario:
    return (
        Scenario()
        .system(system)
        .region(region)
        .node("V100")
        .policy(policy)
        .workload(
            WorkloadParams(horizon_h=48.0, total_gpus=8, home_region=region),
            seed=11,
        )
        .seed(7)
        .pue(_GOLDEN_PUE)
    )


def _serialize(result) -> str:
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "system,region,policy",
    _MATRIX,
    ids=[_fixture_id(s, p) for s, _r, p in _MATRIX],
)
def test_scenario_matches_golden(system, region, policy, update_golden):
    path = GOLDEN_DIR / f"scenario-{_fixture_id(system, policy)}.json"
    payload = _serialize(_build(system, region, policy).run())
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(payload, encoding="utf-8")
    assert path.exists(), (
        f"missing golden fixture {path.name}; generate it with "
        "pytest tests/test_golden_fixtures.py --update-golden"
    )
    assert payload == path.read_text(encoding="utf-8"), (
        f"serialized ScenarioResult drifted from {path.name}; if the change "
        "is intentional, re-bless with --update-golden"
    )


def _build_cluster() -> Scenario:
    """The cluster-section fixture scenario: the columnar engine's
    serialized output pinned alongside the scheduling matrix."""
    return (
        Scenario()
        .node("V100")
        .region("ESO")
        .workload(
            WorkloadParams(horizon_h=48.0, total_gpus=8, home_region="ESO"),
            seed=11,
        )
        .cluster(2, simulator="fcfs-columnar")
        .seed(7)
        .pue(_GOLDEN_PUE)
    )


def test_cluster_scenario_matches_golden(update_golden):
    path = GOLDEN_DIR / "scenario-cluster-fcfs_columnar.json"
    payload = _serialize(_build_cluster().run())
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(payload, encoding="utf-8")
    assert path.exists(), (
        f"missing golden fixture {path.name}; generate it with "
        "pytest tests/test_golden_fixtures.py --update-golden"
    )
    assert payload == path.read_text(encoding="utf-8"), (
        f"serialized ScenarioResult drifted from {path.name}; if the change "
        "is intentional, re-bless with --update-golden"
    )


def test_cluster_golden_is_simulator_invariant_for_fcfs(plugin_backend):
    """The engine pin doubles as a parity pin: the seed's scalar
    simulator, run on the golden scenario's jobs, must produce the
    committed cluster section, number for number."""
    path = GOLDEN_DIR / "scenario-cluster-fcfs_columnar.json"
    committed = json.loads(path.read_text(encoding="utf-8"))
    plugin_backend("simulator", "scalar-oracle", oracles.simulate_cluster)
    oracle = (
        _build_cluster().cluster(2, simulator="scalar-oracle").run().to_dict()
    )
    committed_cluster = dict(committed["cluster"])
    oracle_cluster = dict(oracle["cluster"])
    assert committed_cluster.pop("simulator") == "fcfs-columnar"
    assert oracle_cluster.pop("simulator") == "scalar-oracle"
    assert oracle_cluster == committed_cluster


def _build_cluster_carbon_aware() -> Scenario:
    """The carbon-aware discipline fixture: slack-bounded green admission
    on the same workload/cluster as the fcfs-columnar pin, with an
    explicit uniform slack budget (exercising the ``simulator_opts``
    provenance row)."""
    return (
        Scenario()
        .node("V100")
        .region("ESO")
        .workload(
            WorkloadParams(horizon_h=48.0, total_gpus=8, home_region="ESO"),
            seed=11,
        )
        .cluster(2, simulator="carbon-aware", slack_h=24.0)
        .seed(7)
        .pue(_GOLDEN_PUE)
    )


def test_cluster_carbon_aware_matches_golden(update_golden):
    """Byte-for-byte pin of the serialized carbon-aware cluster section."""
    path = GOLDEN_DIR / "scenario-cluster-carbon_aware.json"
    payload = _serialize(_build_cluster_carbon_aware().run())
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(payload, encoding="utf-8")
    assert path.exists(), (
        f"missing golden fixture {path.name}; generate it with "
        "pytest tests/test_golden_fixtures.py --update-golden"
    )
    assert payload == path.read_text(encoding="utf-8"), (
        f"serialized ScenarioResult drifted from {path.name}; if the change "
        "is intentional, re-bless with --update-golden"
    )


def test_constant_pue_backend_matches_float_golden(update_golden):
    """The acceptance pin: ``pue("constant", value=x)`` serializes to the
    *same bytes* as the float path the fixtures were blessed with."""
    if update_golden:
        pytest.skip("fixtures are blessed from the float path")
    system, region, policy = _MATRIX[0]
    path = GOLDEN_DIR / f"scenario-{_fixture_id(system, policy)}.json"
    scenario = _build(system, region, policy).pue("constant", value=_GOLDEN_PUE)
    assert _serialize(scenario.run()) == path.read_text(encoding="utf-8")


def test_golden_round_trip():
    """Fixtures must stay loadable through ScenarioResult.from_dict."""
    from repro.session.result import ScenarioResult

    fixtures = sorted(GOLDEN_DIR.glob("scenario-*.json"))
    # The scheduling matrix plus the two cluster-section fixtures
    # (fcfs-columnar and carbon-aware).
    assert len(fixtures) == len(_MATRIX) + 2
    for path in fixtures:
        data = json.loads(path.read_text(encoding="utf-8"))
        result = ScenarioResult.from_dict(data)
        assert result.name == data["name"]
        assert result.carbon is not None
        assert result.scheduling is not None


# --- provenance fingerprints -------------------------------------------------
FINGERPRINT_FIXTURE = GOLDEN_DIR / "fingerprints.json"


def _matrix_fingerprints() -> dict:
    return {
        _fixture_id(system, policy): _build(system, region, policy)
        .build()
        .fingerprint()
        for system, region, policy in _MATRIX
    }


def test_fingerprints_match_golden(update_golden):
    """Cross-run pin: the same spec hashes identically forever.

    The committed fixture was produced by a different process on a
    different day, so a pass here is cross-process *and* cross-run
    stability in one assertion.  A drift means the canonical preimage
    changed — bump ``FINGERPRINT_SCHEMA`` and re-bless deliberately.
    """
    payload = (
        json.dumps(_matrix_fingerprints(), indent=2, sort_keys=True) + "\n"
    )
    if update_golden:
        GOLDEN_DIR.mkdir(exist_ok=True)
        FINGERPRINT_FIXTURE.write_text(payload, encoding="utf-8")
    assert FINGERPRINT_FIXTURE.exists(), (
        "missing golden fingerprints; generate with --update-golden"
    )
    assert payload == FINGERPRINT_FIXTURE.read_text(encoding="utf-8"), (
        "Session.fingerprint() drifted from tests/golden/fingerprints.json; "
        "re-bless with --update-golden only for a deliberate schema change"
    )


def test_fingerprint_sensitivity():
    """Any knob change — value or explicitness — keys a new hash."""
    system, region, policy = _MATRIX[0]
    base = _build(system, region, policy).build().fingerprint()
    assert _build(system, region, policy).build().fingerprint() == base
    changed = _build(system, region, policy).seed(8).build().fingerprint()
    assert changed != base
    workload = (
        _build(system, region, policy)
        .workload(
            WorkloadParams(horizon_h=48.0, total_gpus=16, home_region=region),
            seed=11,
        )
        .build()
        .fingerprint()
    )
    assert workload not in (base, changed)


def test_result_carries_fingerprint():
    """run() stamps the session's hash; serialized bytes stay unchanged."""
    system, region, policy = _MATRIX[0]
    session = _build(system, region, policy).build()
    result = session.run()
    assert result.fingerprint() == session.fingerprint()
    assert "provenance_hash" not in result.to_dict()
