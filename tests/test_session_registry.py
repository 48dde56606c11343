"""Backend registry: registration, lookup, aliases, error reporting."""

from __future__ import annotations

import pytest

from repro.core.errors import SessionError, UnknownBackendError
from repro.session import (
    BACKEND_KINDS,
    BackendRegistry,
    available_backends,
    register_backend,
    registry,
    resolve_backend,
)


class TestBackendRegistry:
    def test_add_and_resolve(self):
        reg = BackendRegistry(kinds=("policy",))
        reg.add("policy", "mine", lambda: "made")
        assert reg._table("policy")["mine"]() == "made"

    def test_keys_case_insensitive(self):
        reg = BackendRegistry(kinds=("system",))
        reg.add("system", "Frontier", lambda: 1)
        assert ("system", "frontier") in reg
        assert ("system", "FRONTIER") in reg

    def test_aliases_resolve_to_same_factory(self):
        reg = BackendRegistry(kinds=("policy",))
        factory = lambda: "x"  # noqa: E731
        reg.add("policy", "temporal+geographic", factory, aliases=("carbon_aware",))
        table = reg._table("policy")
        assert table["temporal+geographic"] is table["carbon_aware"]

    def test_duplicate_registration_rejected(self):
        reg = BackendRegistry(kinds=("node",))
        reg.add("node", "a100", lambda: 1)
        with pytest.raises(SessionError, match="already registered"):
            reg.add("node", "A100", lambda: 2)

    def test_alias_collision_leaves_no_partial_registration(self):
        reg = BackendRegistry(kinds=("policy",))
        reg.add("policy", "geo", lambda: "builtin")
        with pytest.raises(SessionError, match="already registered"):
            reg.add("policy", "mine", lambda: "plugin", aliases=("geo",))
        # The failed call must not have claimed the primary key.
        assert "mine" not in reg._table("policy")
        reg.add("policy", "mine", lambda: "plugin")  # retry succeeds

    def test_replace_allows_override(self):
        reg = BackendRegistry(kinds=("node",))
        reg.add("node", "a100", lambda: 1)
        reg.add("node", "a100", lambda: 2, replace=True)
        assert reg._table("node")["a100"]() == 2

    def test_unknown_kind_rejected(self):
        reg = BackendRegistry(kinds=("node",))
        with pytest.raises(SessionError, match="unknown backend kind"):
            reg.add("nonsense", "x", lambda: 1)

    def test_non_callable_rejected(self):
        reg = BackendRegistry(kinds=("node",))
        with pytest.raises(SessionError, match="must be callable"):
            reg.add("node", "x", 42)

    def test_empty_key_rejected(self):
        reg = BackendRegistry(kinds=("node",))
        with pytest.raises(SessionError, match="non-empty"):
            reg.add("node", "   ", lambda: 1)

    def test_decorator_registration(self):
        reg = BackendRegistry(kinds=("renderer",))

        @reg.register("renderer", "upper")
        def render(result):
            return str(result).upper()

        assert reg._table("renderer")["upper"]("ab") == "AB"


class TestGlobalRegistry:
    def test_builtin_backends_registered(self):
        assert {"frontier", "lumi", "perlmutter"} <= set(available_backends("system"))
        assert {"p100", "v100", "a100"} <= set(available_backends("node"))
        assert {"synthetic", "constant", "oracle"} <= set(
            available_backends("intensity")
        )
        assert {
            "carbon-oblivious",
            "temporal-shifting",
            "geographic",
            "temporal+geographic",
            "carbon_aware",
        } <= set(available_backends("policy"))
        assert "fcfs" in available_backends("simulator")
        assert {"text", "json", "markdown"} <= set(available_backends("renderer"))
        assert "experiments" in available_backends("report")

    def test_every_kind_listed(self):
        assert set(BACKEND_KINDS) <= set(registry.kinds())

    def test_unknown_key_error_lists_choices(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            resolve_backend("system", "summit")
        err = excinfo.value
        assert err.kind == "system" and err.key == "summit"
        assert "frontier" in err.known
        assert "frontier" in str(err)

    def test_unknown_backend_error_is_session_error(self):
        with pytest.raises(SessionError):
            resolve_backend("policy", "does-not-exist")

    def test_third_party_backend_pluggable(self):
        @register_backend("policy", "test-registry-noop")
        def make_noop(service, default_region, regions=None):
            from repro.scheduler import CarbonObliviousPolicy

            return CarbonObliviousPolicy(service, default_region, name="noop")

        factory = resolve_backend("policy", "test-registry-noop")
        assert factory is make_noop

    def test_function_style_registration(self):
        register_backend("renderer", "test-registry-repr", repr)
        assert resolve_backend("renderer", "test-registry-repr") is repr

    def test_system_backend_contract(self):
        from repro.session import SystemDeployment

        deployment = resolve_backend("system", "frontier")()
        assert isinstance(deployment, SystemDeployment)
        assert deployment.spec.name == "Frontier"
        assert deployment.n_nodes == 9408
        assert deployment.nics_per_node == 4  # 4x Slingshot per node

    def test_report_backend_serves_experiments_md(self):
        content = resolve_backend("report", "experiments")()
        assert "Shape checks:" in content

    def test_plugin_preregistration_survives_default_load(self):
        # A plugin that registers before first facade use must neither
        # be clobbered by the built-in load nor poison the registry.
        # Simulate by re-running the default load against a registry
        # that already holds a key the built-ins also claim.
        from repro.session.backends import load_builtin_backends

        fresh = BackendRegistry()
        marker = lambda *a, **k: "plugin"  # noqa: E731
        fresh.add("policy", "geo", marker)
        staged = BackendRegistry(kinds=fresh.kinds())
        load_builtin_backends(staged)
        fresh._adopt_defaults(staged)
        # Plugin's claim wins; every built-in still arrived.
        assert fresh._table("policy")["geo"] is marker
        assert "temporal+geographic" in fresh._table("policy")
        assert "frontier" in fresh._table("system")

    def test_builtin_rows_resolve_lazily_and_memoize(self):
        # A fresh registry holds the rows unloaded; the first resolve
        # imports the named factory and every alias then serves it.
        import importlib

        from repro.session.backends import BUILTIN_BACKENDS, load_builtin_backends

        fresh = BackendRegistry()
        load_builtin_backends(fresh)
        for kind, key, aliases, target in BUILTIN_BACKENDS:
            module, attr = target.split(":")
            factory = fresh.resolve(kind, key)
            assert factory is getattr(importlib.import_module(module), attr)
            assert fresh.resolve(kind, key) is factory
            for alias in aliases:
                assert fresh._table(kind)[alias] is factory

    def test_rows_list_keys_and_aliases(self):
        from repro.session.backends import load_builtin_backends
        from repro.session.executors import process_executor

        fresh = BackendRegistry()
        load_builtin_backends(fresh)
        assert "fcfs-columnar" in fresh.available("simulator")
        assert ("simulator", "columnar") in fresh
        held = fresh._table("simulator")
        assert held["columnar"] is held["fcfs-columnar"]
        for alias in ("shared", "shared-store"):
            assert fresh.resolve("executor", alias) is process_executor

