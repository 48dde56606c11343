"""String-keyed backend registry behind the Scenario/Session facade.

Every swappable layer of the pipeline — hardware systems, node
generations, intensity sources, scheduling policies, cluster simulators,
report renderers — registers a *factory* under a ``(kind, key)`` pair.
The facade resolves keys at :meth:`~repro.session.Scenario.build` time,
so third-party and experimental backends plug in without touching core:

    from repro.session import registry

    @registry.register("policy", "my-policy")
    def _make(service, default_region, regions=None):
        return MyPolicy(service, default_region)

    Scenario().system("frontier").region("ESO").policy("my-policy")

Built-in backends are rows of one static table,
:data:`repro.session.backends.BUILTIN_BACKENDS`: ``(kind, key, aliases,
"module:attr")``.  :func:`ensure_default_backends` adds the rows once,
on first facade use, without importing any layer.  Listing keys reads
names only; :meth:`BackendRegistry.resolve` imports a row's module the
first time the key resolves and memoizes the factory in place, so later
lookups return the same object.  The calling conventions per kind are
unchanged (see :mod:`repro.session.backends`), and plugin factories
registered before first use win over a built-in row of the same name.

Keys are case-insensitive and may carry aliases (``"frontier"`` and
``"Frontier"`` resolve identically; ``"temporal+geographic"`` is also
reachable as ``"carbon_aware"``).
"""

from __future__ import annotations

import importlib
import threading
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.core.errors import SessionError, UnknownBackendError

__all__ = [
    "BackendRegistry",
    "registry",
    "register_backend",
    "resolve_backend",
    "available_backends",
    "ensure_default_backends",
    "BACKEND_KINDS",
]

#: The backend namespaces the facade consumes.
BACKEND_KINDS: Tuple[str, ...] = (
    "system",
    "node",
    "intensity",
    "workload",
    "policy",
    "simulator",
    "accounting",
    "pue",
    "renderer",
    "report",
    "executor",
    "sweep",
    "faults",
)


def _norm(key: str) -> str:
    return key.strip().lower()


class _Row:
    """A built-in factory not imported yet: ``"module:attr"``."""

    __slots__ = ("target",)

    def __init__(self, target: str) -> None:
        self.target = target

    def load(self) -> Callable[..., Any]:
        module, _, attr = self.target.partition(":")
        return getattr(importlib.import_module(module), attr)

    def __call__(self, *args, **kwargs):
        return self.load()(*args, **kwargs)


class BackendRegistry:
    """A namespaced mapping of backend keys to factories.

    A *factory* is any callable; its calling convention is fixed per
    kind (see :mod:`repro.session.backends` for the built-in contracts).
    Registration is idempotent only via ``replace=True``; accidental
    double registration raises, which catches plugin name collisions
    early.
    """

    def __init__(self, kinds: Iterable[str] = BACKEND_KINDS) -> None:
        self._factories: Dict[str, Dict[str, Callable[..., Any]]] = {
            kind: {} for kind in kinds
        }
        self._lock = threading.Lock()

    # --- registration -----------------------------------------------------
    def _table(self, kind: str) -> Dict[str, Callable[..., Any]]:
        try:
            return self._factories[kind]
        except KeyError:
            known = ", ".join(sorted(self._factories))
            raise SessionError(
                f"unknown backend kind {kind!r}; kinds: {known}"
            ) from None

    def add(
        self,
        kind: str,
        key: str,
        factory: Callable[..., Any],
        *,
        aliases: Iterable[str] = (),
        replace: bool = False,
    ) -> None:
        """Register ``factory`` under ``(kind, key)`` and any aliases."""
        if not callable(factory):
            raise SessionError(
                f"backend {kind}:{key} factory must be callable, got "
                f"{type(factory).__name__}"
            )
        table = self._table(kind)
        with self._lock:
            # Validate every name before inserting any, so a collision on
            # an alias cannot leave a partial registration behind.
            norms = []
            for name in (key, *aliases):
                norm = _norm(name)
                if not norm:
                    raise SessionError(f"backend {kind} key must be non-empty")
                if norm in table and not replace:
                    raise SessionError(
                        f"backend {kind}:{norm} already registered; pass "
                        "replace=True to override"
                    )
                norms.append(norm)
            for norm in norms:
                table[norm] = factory

    def add_row(
        self, kind: str, key: str, target: str, *, aliases: Iterable[str] = ()
    ) -> None:
        """Register the factory at ``"module:attr"`` without importing it."""
        self.add(kind, key, _Row(target), aliases=aliases)

    def _adopt_defaults(self, staged: "BackendRegistry") -> None:
        """Merge a fully-loaded staging registry into this one.

        Keys already present (a plugin registered before first facade
        use) are kept — the built-in never clobbers an explicit earlier
        registration, and a collision can no longer abort the load
        half-way through.
        """
        with self._lock:
            for kind, table in staged._factories.items():
                own = self._factories.setdefault(kind, {})
                for key, factory in table.items():
                    own.setdefault(key, factory)

    def register(
        self, kind: str, key: str, *, aliases: Iterable[str] = (), replace: bool = False
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator form of :meth:`add`; returns the factory unchanged."""

        def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(kind, key, factory, aliases=aliases, replace=replace)
            return factory

        return decorator

    # --- lookup ---------------------------------------------------------
    def resolve(self, kind: str, key: str) -> Callable[..., Any]:
        """The factory registered under ``(kind, key)``.

        Raises :class:`~repro.core.errors.UnknownBackendError` (which
        lists the registered keys) when the key is absent.
        """
        ensure_default_backends()
        table = self._table(kind)
        try:
            factory = table[_norm(key)]
        except KeyError:
            raise UnknownBackendError(
                kind, key, tuple(sorted(table))
            ) from None
        if type(factory) is _Row:
            loaded = factory.load()
            # Swap the factory in under the key and every alias that
            # holds the row, unless a registration replaced it meanwhile.
            with self._lock:
                for name, held in table.items():
                    if held is factory:
                        table[name] = loaded
            factory = loaded
        return factory

    def available(self, kind: str) -> Tuple[str, ...]:
        """Sorted keys registered for one kind (aliases included)."""
        ensure_default_backends()
        return tuple(sorted(self._table(kind)))

    def kinds(self) -> Tuple[str, ...]:
        return tuple(self._factories)

    def __contains__(self, kind_key: Tuple[str, str]) -> bool:
        kind, key = kind_key
        ensure_default_backends()
        return _norm(key) in self._table(kind)


#: The process-wide registry the facade consults.
registry = BackendRegistry()

#: "unloaded" -> "loading" -> "loaded"; only flips to "loaded" after the
#: built-ins are fully registered, so no thread can observe a partial
#: registry through the unlocked fast path.
_defaults_state = "unloaded"
_defaults_lock = threading.RLock()


def ensure_default_backends() -> None:
    """Load the built-in backends exactly once (idempotent, thread-safe).

    Deferred to first lookup.  The load adds the built-in rows and
    imports no layer; each row's module is imported when its key first
    resolves.  Concurrent callers block until the load completes; a
    re-entrant call (RLock) returns without re-loading.
    """
    global _defaults_state
    if _defaults_state == "loaded":
        return
    with _defaults_lock:
        if _defaults_state != "unloaded":
            return
        _defaults_state = "loading"
        try:
            from repro.session.backends import load_builtin_backends

            # Stage into a scratch registry and merge only on full
            # success, so the global registry is never half-populated;
            # pre-registered plugin keys survive the merge untouched.
            staged = BackendRegistry(kinds=registry.kinds())
            load_builtin_backends(staged)
            registry._adopt_defaults(staged)
        except BaseException:
            _defaults_state = "unloaded"
            raise
        _defaults_state = "loaded"


# --- module-level conveniences (the documented plugin surface) -------------
def register_backend(
    kind: str,
    key: str,
    factory: Optional[Callable[..., Any]] = None,
    *,
    aliases: Iterable[str] = (),
    replace: bool = False,
):
    """Register a backend on the global registry.

    Usable directly (``register_backend("policy", "mine", make)``) or as
    a decorator (``@register_backend("policy", "mine")``).
    """
    if factory is not None:
        registry.add(kind, key, factory, aliases=aliases, replace=replace)
        return factory
    return registry.register(kind, key, aliases=aliases, replace=replace)


def resolve_backend(kind: str, key: str) -> Callable[..., Any]:
    """Look up a factory on the global registry."""
    return registry.resolve(kind, key)


def available_backends(kind: str) -> Tuple[str, ...]:
    """Sorted registered keys for one kind on the global registry."""
    return registry.available(kind)
