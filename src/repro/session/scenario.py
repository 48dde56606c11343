"""The fluent :class:`Scenario` builder.

A scenario declares *what to study* — a system or node, a region, a
workload, policies, an upgrade — with string keys resolved through the
backend registry, then :meth:`Scenario.build` freezes it into an
immutable :class:`~repro.session.session.Session`:

    from repro.session import Scenario

    result = (
        Scenario()
        .system("frontier")
        .region("ESO")
        .policy("carbon_aware")
        .workload(WorkloadParams(horizon_h=24 * 28), seed=2021)
        .node("V100")
        .run()
    )
    print(result.scheduling.best().policy)

Every setter records provenance, so the resulting
:class:`~repro.session.result.ScenarioResult` can say for each knob
whether it was explicit or defaulted and which backend served it.
Validation happens at :meth:`build` time: missing requirements
(a system without a region, training without a node) and conflicting
knobs (a constant intensity *and* a synthetic source) raise
:class:`~repro.core.errors.SessionError` before any computation runs.
"""

from __future__ import annotations

import copy
import math
import pathlib
from numbers import Integral, Real
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.core.config import ModelConfig
from repro.core.errors import PUEError, SessionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.session.result import ScenarioResult
    from repro.session.session import Session

__all__ = ["Scenario"]

#: Registry key of the always-evaluated scheduling baseline.
BASELINE_POLICY = "carbon-oblivious"

_DEFAULT_SEED = 2021  # repro.intensity.generator.DEFAULT_SEED (kept literal
# here so importing the builder does not pull the intensity stack).
_DEFAULT_FORECAST_ERROR = 0.03
_DEFAULT_USAGE = 0.40
_DEFAULT_LIFETIME_YEARS = 5.0
_DEFAULT_WORKLOAD_SEED = 7


def _whole_number(
    knob: str, value: Any, *, minimum: Optional[int] = None, unit: str = ""
) -> int:
    """``value`` as an ``int``, or a :class:`SessionError` naming ``knob``.

    Only a whole real number passes: ``int()`` would truncate 2.5, read
    a bool as 0 or 1, parse a string and fail bare on NaN or infinity.
    """
    whole = isinstance(value, Integral) or (
        isinstance(value, Real) and math.isfinite(value) and value == int(value)
    )
    if isinstance(value, bool) or not whole or (
        minimum is not None and value < minimum
    ):
        of = f" of {unit}" if unit else ""
        bound = "" if minimum is None else f" >= {minimum}"
        raise SessionError(f"{knob} needs a whole number{of}{bound}, got {value!r}")
    return int(value)


def _real_number(knob: str, value: Any) -> float:
    """``value`` as a ``float``, or a :class:`SessionError` naming
    ``knob`` for a bool (which ``float()`` reads as 0.0 or 1.0) or a
    non-number."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise SessionError(f"{knob} must be a number, got {value!r}")
    return float(value)


class Scenario:
    """Mutable builder; every setter returns ``self`` for chaining."""

    def __init__(self) -> None:
        self._explicit: set[str] = set()
        self._name: Optional[str] = None
        self._system: Optional[Union[str, Any]] = None
        self._node: Optional[Union[str, Any]] = None
        self._region: Optional[str] = None
        self._regions: Optional[List[str]] = None
        self._intensity_source: str = "synthetic"
        self._constant_intensity: Optional[float] = None
        self._seed: int = _DEFAULT_SEED
        self._forecast_error: float = _DEFAULT_FORECAST_ERROR
        self._policies: List[Union[str, Any]] = []
        self._workload: Optional[Any] = None
        self._workload_opts: dict = {}
        self._workload_seed: int = _DEFAULT_WORKLOAD_SEED
        self._hourly_training_pue: bool = False
        self._training: Optional[dict] = None
        self._upgrade: Optional[dict] = None
        self._cluster_nodes: Optional[int] = None
        self._simulator: str = "fcfs"
        self._simulator_opts: dict = {}
        self._window_h: Optional[float] = None
        self._lifetime_years: float = _DEFAULT_LIFETIME_YEARS
        self._usage: float = _DEFAULT_USAGE
        self._pue: Optional[Union[float, str, Any]] = None
        self._pue_opts: dict = {}
        self._config: Optional[ModelConfig] = None
        self._lifecycle: Optional[Any] = None
        self._n_nodes: Optional[int] = None
        self._nics_per_node: Optional[int] = None
        self._renderer: str = "text"
        self._executor: str = "serial"
        self._executor_opts: dict = {}
        self._accounting: str = "vectorized"
        self._accounting_opts: dict = {}

    # --- declarative construction ----------------------------------------
    @classmethod
    def from_spec(
        cls, spec: Union[str, pathlib.Path, Mapping[str, Any]]
    ) -> "Scenario":
        """Build a scenario from a declarative knob mapping.

        ``spec`` is either a flat mapping of knob names to values
        (validated against the typed table in :mod:`repro.sweep.spec`)
        or a path to a YAML/TOML/JSON document holding one.  A document
        with a ``base`` section applies it; one declaring ``axes`` is a
        *grid*, which a single scenario cannot represent — expand it
        through :class:`repro.sweep.SweepSpec` instead.
        """
        from repro.sweep.spec import apply_knobs, load_spec_mapping

        if isinstance(spec, (str, pathlib.Path)):
            data: Mapping[str, Any] = load_spec_mapping(spec)
        elif isinstance(spec, Mapping):
            data = spec
        else:
            raise SessionError(
                f"from_spec takes a mapping or a spec path, got "
                f"{type(spec).__name__}"
            )
        if "axes" in data:
            raise SessionError(
                "spec declares a sweep grid ('axes'); one Scenario cannot "
                "hold a grid — expand it with repro.sweep.SweepSpec"
            )
        if "base" in data:
            merged = dict(data["base"] or {})
            if isinstance(data.get("name"), str):
                merged.setdefault("name", data["name"])
            data = merged
        return apply_knobs(cls(), data, where="from_spec")

    # --- internals --------------------------------------------------------
    def _set(self, knob: str, value) -> "Scenario":
        setattr(self, f"_{knob}", value)
        self._explicit.add(knob)
        return self

    # --- subject ---------------------------------------------------------
    def name(self, name: str) -> "Scenario":
        """Label carried into the result (default: derived from knobs)."""
        return self._set("name", str(name))

    def system(self, system: Union[str, Any]) -> "Scenario":
        """Study a whole system: a ``system`` registry key (``"frontier"``)
        or an explicit :class:`~repro.hardware.systems.SystemSpec`."""
        return self._set("system", system)

    def node(self, node: Union[str, Any]) -> "Scenario":
        """Node generation for workloads/training: a ``node`` registry key
        (``"A100"``) or an explicit :class:`~repro.hardware.node.NodeSpec`."""
        return self._set("node", node)

    # --- grid ------------------------------------------------------------
    def region(self, code: str) -> "Scenario":
        """Home grid region (Table 3 code, e.g. ``"ESO"`` for the UK)."""
        return self._set("region", str(code))

    def regions(self, codes: Iterable[str]) -> "Scenario":
        """Candidate regions for geographic policies (default: all served)."""
        return self._set("regions", [str(c) for c in codes])

    def intensity_source(self, key: str) -> "Scenario":
        """``intensity`` registry key (default ``"synthetic"``)."""
        return self._set("intensity_source", str(key))

    def constant_intensity(self, g_per_kwh: float) -> "Scenario":
        """Flat grid intensity instead of a generated trace."""
        value = _real_number("constant intensity", g_per_kwh)
        if not 0.0 <= value < math.inf:
            raise SessionError(
                f"constant intensity must be finite and non-negative, got {value!r}"
            )
        return self._set("constant_intensity", value)

    def seed(self, seed: int) -> "Scenario":
        """Trace-generation seed (default: the 2021 study seed)."""
        return self._set("seed", _whole_number("seed", seed))

    def forecast_error(self, fraction: float) -> "Scenario":
        """1-hour-ahead relative forecast error (0.0 = oracle)."""
        fraction = _real_number("forecast error", fraction)
        # NaN would make every score table NaN, and argmin would then
        # silently pick each job's first candidate.
        if not 0.0 <= fraction < math.inf:
            raise SessionError(
                f"forecast error must be finite and non-negative, got {fraction!r}"
            )
        return self._set("forecast_error", fraction)

    # --- work ------------------------------------------------------------
    def workload(
        self, workload: Any, *, seed: Optional[int] = None, **opts
    ) -> "Scenario":
        """Jobs to schedule.  Five spellings, one resolution:

        * a ``workload`` registry key with factory options —
          ``.workload("diurnal", target_usage=0.6)``,
          ``.workload("bursty", mean_on_h=4)`` — resolved at build time
          against the backend registry; provenance records
          ``workload:<key>``.
        * a :class:`~repro.workloads.sources.WorkloadParams` — the
          legacy exact path, resolved through ``workload:synthetic``
          and drawn with ``seed`` (byte-identical to historical runs,
          and serialized identically: no provenance row is added, so
          committed fixtures stay stable).
        * a workload trace path (``.json`` schema or ``.swf`` log, as a
          :class:`pathlib.Path` or a path-looking string) — replayed
          through ``workload:trace``; ``opts`` become replay options
          (``horizon_h=``, ``column_map=``, ...).
        * a :class:`~repro.workloads.sources.JobSource` object — used
          as-is (the plugin spelling).
        * an explicit job sequence or columnar
          :class:`~repro.cluster.job.JobBatch`.

        ``seed`` keys the generator draw (default: the facade's
        historical workload seed); trace replays ignore it.
        """
        if opts and not isinstance(workload, (str, pathlib.Path)):
            raise SessionError(
                "workload options only apply to a registry key or trace "
                f"path, got {type(workload).__name__} with options "
                f"{sorted(opts)}"
            )
        if isinstance(workload, str) and not workload.strip():
            raise SessionError("workload backend key must be non-empty")
        self._set("workload", workload)
        self._workload_opts = dict(opts)
        if seed is not None:
            self._set("workload_seed", _whole_number("workload seed", seed))
        return self

    def policy(self, policy: Union[str, Any]) -> "Scenario":
        """Add one scheduling policy (``policy`` registry key or object)."""
        self._policies = [*self._policies, policy]
        self._explicit.add("policies")
        return self

    def policies(self, policies: Sequence[Union[str, Any]]) -> "Scenario":
        """Replace the policy list (evaluated in order, baseline first)."""
        self._policies = list(policies)
        self._explicit.add("policies")
        return self

    def training(
        self,
        model: str,
        *,
        epochs: int = 1,
        n_gpus: Optional[int] = None,
    ) -> "Scenario":
        """Characterize one training run (Table 4 model on the node)."""
        epochs = _whole_number("epochs", epochs, minimum=1)
        if n_gpus is not None:
            n_gpus = _whole_number("n_gpus", n_gpus)
        return self._set(
            "training", {"model": str(model), "epochs": epochs, "n_gpus": n_gpus}
        )

    def upgrade(self, old: str, new: str, *, suite: str = "NLP") -> "Scenario":
        """Ask for a carbon-aware upgrade recommendation."""
        if str(old) == str(new):
            raise SessionError("upgrade endpoints must differ")
        return self._set(
            "upgrade", {"old": str(old), "new": str(new), "suite": str(suite)}
        )

    def cluster(
        self, n_nodes: int, *, simulator: str = "fcfs", **opts
    ) -> "Scenario":
        """Also run the workload through a capacity-constrained cluster
        simulator (``simulator`` registry key).

        Extra keyword options are handed to the simulator backend —
        e.g. ``.cluster(4, simulator="carbon-aware", slack_h=24)`` or
        ``.cluster(4, simulator="power-cap", cap_fraction=0.6)`` — and
        recorded in provenance when present; a backend that does not
        understand an option fails loudly at run time.
        """
        self._set(
            "cluster_nodes",
            _whole_number("cluster", n_nodes, minimum=1, unit="nodes"),
        )
        self._simulator_opts = dict(opts)
        return self._set("simulator", str(simulator))

    # --- horizons and knobs ----------------------------------------------
    def window(
        self, *, hours: Optional[float] = None, days: Optional[float] = None
    ) -> "Scenario":
        """Scheduling/simulation horizon (default: the workload's)."""
        if (hours is None) == (days is None):
            raise SessionError("window takes exactly one of hours= or days=")
        given = _real_number("window", hours if hours is not None else days)
        value = given if hours is not None else given * 24.0
        if not 0.0 < value < math.inf:
            raise SessionError(
                f"window must be positive and finite, got {value!r}"
            )
        return self._set("window_h", value)

    def lifetime(self, years: float) -> "Scenario":
        """Service life for audits and upgrade analyses (default 5)."""
        years = _real_number("lifetime", years)
        if not 0.0 < years < math.inf:
            raise SessionError(f"lifetime must be finite and positive, got {years!r}")
        return self._set("lifetime_years", years)

    def usage(self, fraction: float) -> "Scenario":
        """GPU duty cycle (paper medium: 0.40)."""
        fraction = _real_number("usage", fraction)
        if not 0.0 < fraction <= 1.0:
            raise SessionError(f"usage must be in (0, 1], got {fraction!r}")
        return self._set("usage", fraction)

    def pue(self, value: Union[float, str, Any], /, **opts) -> "Scenario":
        """Override the facility PUE: a number, a backend key, or a profile.

        Three spellings, all charged through the same resolution
        (:func:`repro.accounting.resolve_pue`):

        * a number — a flat PUE, resolved through the ``pue:constant``
          backend; bit-identical to the historical float path.
        * a ``pue`` registry key with factory options —
          ``.pue("seasonal", amplitude=0.1)``,
          ``.pue("profile", values=[...])``.
        * a profile object (:class:`~repro.power.pue.SeasonalPUE`, an
          :class:`~repro.power.pue.HourlyPUE`, or any object exposing
          ``profile(n_hours)``) or a 1-D hourly array.

        Numbers are validated here (finite, ``>= 1.0`` — the physical
        floor); keys and profile payloads validate at :meth:`build`.
        """
        if isinstance(value, bool):
            raise PUEError(f"PUE must be a number, key, or profile, got {value!r}")
        if opts and not isinstance(value, str):
            raise PUEError(
                f"PUE options only apply to a backend key, got "
                f"{type(value).__name__} with options {sorted(opts)}"
            )
        if isinstance(value, (int, float)):
            number = float(value)
            if not math.isfinite(number):
                raise PUEError(f"PUE must be finite, got {value!r}")
            if number < 1.0:
                raise PUEError(f"PUE must be >= 1.0, got {value!r}")
            self._pue_opts = {}
            return self._set("pue", number)
        if isinstance(value, str):
            if not value.strip():
                raise PUEError("PUE backend key must be non-empty")
            self._pue_opts = dict(opts)
            return self._set("pue", value)
        # A profile object or hourly array; validated by resolve_pue at
        # build time, with the payload shared by reference (snapshot
        # economics, like workloads and policies).
        self._pue_opts = {}
        return self._set("pue", value)

    def hourly_training_pue(self, enabled: bool = True) -> "Scenario":
        """Charge training runs through the hour-resolved PUE profile.

        Off by default: the training section historically charges the
        profile's annual-mean scalar (the number a facility reports),
        and the committed golden fixtures pin those bytes.  Opting in
        routes the resolved ``pue`` profile into
        :class:`~repro.power.tracker.CarbonTracker`, which weights every
        metering sample by that hour's facility overhead —
        :func:`~repro.power.pue.operational_carbon_seasonal`'s Eq. 6
        arithmetic at the tracker's resolution.  With a constant (or
        absent) PUE the two paths are bit-identical, so enabling the
        flag is safe to leave on.
        """
        return self._set("hourly_training_pue", bool(enabled))

    def config(self, config: ModelConfig) -> "Scenario":
        """Model constants for every layer this scenario touches.

        Unset, :meth:`build` pins the configuration active at that
        moment (see :func:`repro.core.config.use_config`).
        """
        if not isinstance(config, ModelConfig):
            raise SessionError(
                f"expected ModelConfig, got {type(config).__name__}"
            )
        return self._set("config", config)

    def lifecycle(self, phases: Any) -> "Scenario":
        """Shipment/installation/EOL phases for the audit."""
        return self._set("lifecycle", phases)

    def n_nodes(self, count: int) -> "Scenario":
        """Override the registered system's node count."""
        return self._set("n_nodes", _whole_number("n_nodes", count, minimum=0))

    def nics_per_node(self, count: int) -> "Scenario":
        """Fabric endpoints per node for the interconnect estimate."""
        return self._set(
            "nics_per_node", _whole_number("nics_per_node", count, minimum=1)
        )

    def renderer(self, key: str) -> "Scenario":
        """``renderer`` registry key for :meth:`Session.render`."""
        return self._set("renderer", str(key))

    def accounting(self, key: str, **opts) -> "Scenario":
        """``accounting`` registry key: the carbon-charging engine.

        ``"vectorized"`` (default; aliases ``"default"``, ``"ledger"``)
        charges placed jobs from the per-(region, window) truth tables
        in one gather; plugins register further engines.  Extra keyword
        options are passed to the backend factory.
        """
        self._accounting_opts = dict(opts)
        return self._set("accounting", str(key))

    def executor(
        self,
        key: str,
        *,
        max_workers: Optional[int] = None,
    ) -> "Scenario":
        """``executor`` registry key for :meth:`Session.run_many` sweeps.

        ``"serial"`` (default) runs scenarios in-process;
        ``"process"`` runs each scenario as its own future on a process
        pool of ``max_workers`` workers with warmed trace memos.  The
        first swept scenario carrying an explicit executor picks the
        engine for the whole sweep; an explicit ``executor=`` argument
        to ``run_many`` wins over any scenario knob.
        """
        opts: dict = {}
        if max_workers is not None:
            opts["max_workers"] = _whole_number("max_workers", max_workers, minimum=1)
        self._executor_opts = opts
        return self._set("executor", str(key))

    # --- finalization -----------------------------------------------------
    def _validate(self) -> None:
        if not any(
            (
                self._system is not None,
                self._node is not None,
                self._training is not None,
                self._workload is not None,
                self._upgrade is not None,
            )
        ):
            raise SessionError(
                "scenario requests nothing to compute; set at least one of "
                ".system(), .node(), .training(), .workload(), .upgrade()"
            )
        if (
            "intensity_source" in self._explicit
            and self._constant_intensity is not None
        ):
            raise SessionError(
                "conflicting knobs: .intensity_source() and "
                ".constant_intensity() are mutually exclusive"
            )
        if self._system is not None and self._region is None:
            raise SessionError(
                "a system study needs a grid: set .region(<Table 3 code>)"
            )
        if self._training is not None and self._node is None:
            raise SessionError(".training() requires .node(<generation>)")
        if self._workload is not None:
            if self._node is None:
                raise SessionError(".workload() requires .node(<generation>)")
            if self._region is None:
                raise SessionError(".workload() requires .region(<code>)")
        if self._policies and self._workload is None:
            raise SessionError("policies without a workload: set .workload(...)")
        if self._cluster_nodes is not None and self._workload is None:
            raise SessionError(".cluster() requires .workload(...)")
        if self._window_h is not None and self._workload is None:
            raise SessionError(".window() only applies to workload scenarios")
        if (
            self._training is not None
            and self._region is None
            and self._constant_intensity is None
        ):
            raise SessionError(
                ".training() needs a grid: set .region() or "
                ".constant_intensity()"
            )
        if (
            self._upgrade is not None
            and self._region is None
            and self._constant_intensity is None
        ):
            raise SessionError(
                ".upgrade() needs a grid: set .region() or "
                ".constant_intensity()"
            )

    def _derived_name(self) -> str:
        if self._name is not None:
            return self._name
        subject = None
        if self._system is not None:
            subject = self._system if isinstance(self._system, str) else getattr(
                self._system, "name", "system"
            )
        elif self._training is not None:
            subject = self._training["model"]
        elif self._upgrade is not None:
            subject = f"{self._upgrade['old']}->{self._upgrade['new']}"
        elif self._node is not None:
            subject = self._node if isinstance(self._node, str) else getattr(
                self._node, "name", "node"
            )
        grid = self._region if self._region is not None else (
            f"{self._constant_intensity:g}g" if self._constant_intensity is not None else None
        )
        parts = [p for p in (subject, grid) if p]
        return "@".join(parts) if parts else "scenario"

    def _snapshot(self) -> "Scenario":
        """A builder clone the Session can keep without aliasing risk.

        Containers the setters mutate are copied; payloads (workload
        params, job lists' elements, policy objects, configs) are
        immutable or caller-owned and shared by reference — deep-copying
        a month-scale job list or a policy's trace set per build would
        defeat the batch-sweep economics.
        """
        clone = copy.copy(self)
        clone._explicit = set(self._explicit)
        clone._policies = list(self._policies)
        clone._workload_opts = dict(self._workload_opts)
        clone._simulator_opts = dict(self._simulator_opts)
        clone._executor_opts = dict(self._executor_opts)
        clone._accounting_opts = dict(self._accounting_opts)
        clone._pue_opts = dict(self._pue_opts)
        if self._regions is not None:
            clone._regions = list(self._regions)
        if self._training is not None:
            clone._training = dict(self._training)
        if self._upgrade is not None:
            clone._upgrade = dict(self._upgrade)
        if isinstance(self._workload, (list, tuple)):
            clone._workload = list(self._workload)
        return clone

    def build(self) -> "Session":
        """Validate, resolve every registry key, and freeze a Session."""
        from repro.session.session import Session

        self._validate()
        return Session._from_scenario(self._snapshot())

    def run(self) -> "ScenarioResult":
        """Shorthand for ``.build().run()``."""
        return self.build().run()
