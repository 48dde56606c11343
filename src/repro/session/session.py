"""Immutable, resolved sessions: the execution half of the facade.

:meth:`Scenario.build` resolves every registry key against the backend
registry and freezes the outcome here.  A :class:`Session` then runs the
estimation/simulation pipeline — embodied inventory, whole-center audit,
training characterization, scheduling comparison, cluster simulation,
upgrade advice — and returns one typed
:class:`~repro.session.result.ScenarioResult`.

Batch evaluation (:meth:`Session.run_many`) sweeps N scenarios while
constructing the regional intensity traces **once per unique seed**: the
trace sets behind every
:class:`~repro.intensity.api.CarbonIntensityService` come from the
process-wide trace-set memo in :mod:`repro.intensity.generator`, so a
5-region × 3-policy sweep pays for one generation, not fifteen.  The
window tables built on those traces are shared the same way, through
the process-wide table memo in :mod:`repro.intensity.api`: each table
identity (trace content, seed, forecast error, region, window) is built
once per process, whichever session asks first.  Each of these, like
the workload layer's batch memos, is a bounded
:class:`repro._memo.Memo`: :func:`repro.memo_info` reports their
counters and :func:`repro.memo_clear` empties them all.

Delta runs (``run(reuse=cache)``) assemble the result from a section
cache and run only the stale sections.  The carbon rollup reads the
scheduling and upgrade sections' ledgers, which their section-tier
payloads carry (:func:`~repro.session.result.dump_section`), so a
cached copy serves the rollup as well as a live one.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.config import default_config, get_config
from repro.core.errors import SessionError, SweepError
from repro.session.fingerprint import (
    RESULT_SECTIONS,
    section_fingerprints,
    session_fingerprint,
)
from repro.session.registry import resolve_backend
from repro.session.result import (
    LEDGER_SECTIONS,
    CarbonSection,
    ClusterSection,
    EmbodiedSection,
    PolicyOutcome,
    Provenance,
    ScenarioResult,
    SchedulingSection,
    TrainingSection,
    UpgradeSection,
    dump_section,
    load_section,
)
from repro.session.scenario import BASELINE_POLICY, Scenario
from repro.session.types import SystemDeployment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.intensity.api import CarbonIntensityService

__all__ = ["Session", "create_workload_source", "run_scenario"]

#: The module each optional section's runner executes.  ``build`` imports
#: those of the sections a scenario enables, so ``run`` imports nothing.
_SECTION_MODULES = {
    "training": "repro.workloads.runner",
    "scheduling": "repro.scheduler.evaluation",
    "cluster": "repro.cluster.simulator",
    "upgrade": "repro.upgrade.advisor",
}


def create_workload_source(
    key_or_path,
    opts: Optional[dict] = None,
    *,
    region: Optional[str] = None,
    error: type = SessionError,
):
    """Construct a ``workload`` backend from a key-or-path spelling.

    The single resolution core behind :meth:`Scenario.workload` and the
    CLI's workload commands: trace paths map onto the ``trace`` backend
    (``path`` injected), the home ``region`` is defaulted in per the
    workload-kind contract (skipped when the caller passes a
    ``params=`` object, which carries its own), and factory signature
    mismatches surface as the caller's typed ``error``.
    """
    import pathlib

    from repro.workloads.sources import looks_like_trace_path

    opts = dict(opts or {})
    if isinstance(key_or_path, pathlib.Path) or (
        isinstance(key_or_path, str) and looks_like_trace_path(key_or_path)
    ):
        if "path" in opts:
            # A path spelling plus a path= option is ambiguous;
            # resolving it silently would hide which file actually ran.
            raise error(
                f"the workload is already a trace path ({key_or_path!r}); "
                "drop the path= option"
            )
        key = "trace"
        opts["path"] = key_or_path
    else:
        key = str(key_or_path).strip()
    if region is not None and "params" not in opts:
        opts.setdefault("home_region", region)
    factory = resolve_backend("workload", key)
    try:
        source = factory(**opts)
    except SessionError:
        raise
    except (TypeError, ValueError) as exc:
        raise error(
            f"workload backend {key!r} rejected its options: {exc}"
        ) from None
    if not callable(getattr(source, "generate", None)):
        raise error(
            f"workload backend {key!r} returned "
            f"{type(source).__name__}, which lacks generate(seed=...)"
        )
    return source


class Session:
    """A frozen, fully resolved scenario, ready to run.

    Construct via :meth:`Scenario.build` — the initializer is private.
    Attribute writes after construction raise, keeping the resolved
    state trustworthy as the provenance record claims it is.
    """

    _sealed = False

    def __init__(self) -> None:  # pragma: no cover - guarded constructor
        raise SessionError("Session is built via Scenario().build()")

    def __setattr__(self, name: str, value) -> None:
        if self._sealed:
            raise SessionError("Session is immutable; build a new Scenario")
        object.__setattr__(self, name, value)

    # --- construction -----------------------------------------------------
    @classmethod
    def _from_scenario(cls, scenario: Scenario) -> "Session":
        self = object.__new__(cls)
        s = scenario
        self._scenario = s
        # Pin the model constants: every section computes with the config
        # active at build time, wherever and whenever it runs.  A
        # non-default active config joins the snapshot's knobs, so it
        # reaches the provenance record and both fingerprints; the
        # default one stays unrecorded, as before the config was pinned.
        active = get_config()
        if s._config is None and active != default_config():
            s._config = active
        self._config = s._config if s._config is not None else active
        self._name = s._derived_name()
        self._provenance: List[Provenance] = []

        def note(knob: str, value, *, backend: Optional[str] = None) -> None:
            source = "explicit" if knob in s._explicit else "default"
            self._provenance.append(
                Provenance(knob=knob, value=repr(value), source=source, backend=backend)
            )

        # Subject hardware.
        self._deployment: Optional[SystemDeployment] = None
        if s._system is not None:
            if isinstance(s._system, str):
                self._deployment = resolve_backend("system", s._system)()
                if not isinstance(self._deployment, SystemDeployment):
                    raise SessionError(
                        f"system backend {s._system!r} returned "
                        f"{type(self._deployment).__name__}, expected "
                        "SystemDeployment"
                    )
                note("system", self._deployment.spec.name, backend=f"system:{s._system.lower()}")
            else:
                from repro.hardware.systems import SystemSpec

                if not isinstance(s._system, SystemSpec):
                    raise SessionError(
                        f"system must be a registry key or SystemSpec, got "
                        f"{type(s._system).__name__}"
                    )
                # An explicit spec whose name matches a registered system
                # inherits that backend's deployment facts (node count,
                # NICs), so spec-vs-key calls audit identically; unknown
                # specs get no fabric unless .n_nodes() is set.
                try:
                    registered = resolve_backend("system", s._system.name)()
                    facts = (registered.n_nodes, registered.nics_per_node)
                except SessionError:
                    facts = (0, 1)
                self._deployment = SystemDeployment(
                    spec=s._system, n_nodes=facts[0], nics_per_node=facts[1]
                )
                note("system", s._system.name)

        self._node = None
        if s._node is not None:
            if isinstance(s._node, str):
                self._node = resolve_backend("node", s._node)()
                note("node", self._node.name, backend=f"node:{s._node.lower()}")
            else:
                self._node = s._node
                note("node", getattr(s._node, "name", s._node))

        # Grid service.
        note("seed", s._seed)
        self._service: Optional["CarbonIntensityService"] = None
        if s._constant_intensity is not None:
            note("intensity", f"constant {s._constant_intensity:g} gCO2/kWh",
                 backend="intensity:constant")
            if s._region is not None:
                codes = {s._region, *(s._regions or ())}
                self._service = resolve_backend("intensity", "constant")(
                    value=s._constant_intensity,
                    regions=tuple(sorted(codes)),
                    seed=s._seed,
                    forecast_error=s._forecast_error,
                )
        elif s._region is not None or s._workload is not None:
            key = s._intensity_source
            self._service = resolve_backend("intensity", key)(
                seed=s._seed, forecast_error=s._forecast_error
            )
            note("intensity", key, backend=f"intensity:{key.lower()}")
        if self._service is not None and s._region is not None:
            if s._region not in self._service.regions:
                known = ", ".join(sorted(self._service.regions))
                raise SessionError(
                    f"region {s._region!r} not served by intensity backend; "
                    f"known regions: {known}"
                )
        note("region", s._region)
        if s._regions is not None:
            note("regions", s._regions)

        # Workload: registry keys, trace paths, WorkloadParams, and
        # JobSource objects all resolve to one JobSource here; explicit
        # job sequences stay as-is and are columnized at run time.
        # Provenance records workload:<key> for the key/path/source
        # spellings; the legacy WorkloadParams and explicit-jobs
        # spellings stay row-free so historical serialized results (and
        # the committed golden fixtures) keep their exact bytes.
        self._workload_source = self._resolve_workload(s, note)

        # Policies: the carbon-oblivious baseline is always present so
        # savings have a reference.  Detection is by the *constructed*
        # policy's name, so registry aliases of the baseline count too.
        self._policies: List[Tuple[str, Any]] = []
        if s._workload is not None:
            for key in s._policies:
                if isinstance(key, str):
                    factory = resolve_backend("policy", key)
                    policy = factory(
                        self._service, s._region, regions=s._regions
                    )
                    self._policies.append((policy.name, policy))
                    note("policy", policy.name, backend=f"policy:{key.lower()}")
                else:
                    self._policies.append((key.name, key))
                    note("policy", key.name)
            if not any(name == BASELINE_POLICY for name, _ in self._policies):
                baseline = resolve_backend("policy", BASELINE_POLICY)(
                    self._service, s._region, regions=s._regions
                )
                self._policies.insert(0, (baseline.name, baseline))
                note("policy", baseline.name, backend=f"policy:{BASELINE_POLICY}")

        self._simulate = None
        if s._cluster_nodes is not None:
            self._simulate = resolve_backend("simulator", s._simulator)
            note("simulator", s._simulator, backend=f"simulator:{s._simulator.lower()}")
            if s._simulator_opts:
                # Opt-in row only: default scenarios keep serializing
                # (and fingerprinting) exactly as before the knob
                # existed, so committed golden fixtures stay stable.
                note(
                    "simulator_opts",
                    {k: s._simulator_opts[k] for k in sorted(s._simulator_opts)},
                    backend=f"simulator:{s._simulator.lower()}",
                )

        self._render = resolve_backend("renderer", s._renderer)
        note("renderer", s._renderer, backend=f"renderer:{s._renderer.lower()}")

        # Carbon-charging engine: every section that accounts carbon does
        # so through this backend (the unified ledger subsystem).
        self._accounting_factory = resolve_backend("accounting", s._accounting)
        note(
            "accounting",
            s._accounting,
            backend=f"accounting:{s._accounting.lower()}",
        )

        # Facility overhead: a number resolves through the ``pue:constant``
        # backend, a key through its registry factory, a profile object
        # (SeasonalPUE / HourlyPUE / hourly array) is taken as-is.  The
        # resolved spec is normalized once here — a float when the
        # profile carries no variation (the exact legacy arithmetic), an
        # hourly ndarray otherwise — and every charged section receives
        # the same resolved value.
        self._pue_resolved: Optional[Any] = None
        self._pue_scalar: Optional[float] = None
        pue_backend: Optional[str] = None
        pue_note: Any = None
        if s._pue is not None:
            from repro.accounting.pue import resolve_pue
            from repro.core.errors import PUEError

            if isinstance(s._pue, str):
                factory = resolve_backend("pue", s._pue)
                try:
                    profile_obj = factory(**s._pue_opts)
                except SessionError:
                    raise
                except (TypeError, ValueError) as exc:
                    # Factory signature mismatches (missing/unknown
                    # options, non-numeric values) surface as the typed
                    # facade error, keeping the CLI's clean-exit
                    # contract and Scenario.pue's validate-at-build
                    # promise.
                    raise PUEError(
                        f"pue backend {s._pue!r} rejected its options: {exc}"
                    ) from None
                pue_backend = f"pue:{s._pue.strip().lower()}"
            elif isinstance(s._pue, (int, float)):
                profile_obj = resolve_backend("pue", "constant")(value=s._pue)
                pue_backend = "pue:constant"
            else:
                profile_obj = s._pue
            eff, prof = resolve_pue(
                profile_obj, config=self._config, error=PUEError
            )
            self._pue_scalar = eff
            self._pue_resolved = eff if prof is None else prof
            pue_note = eff if prof is None else profile_obj

        if "executor" in s._explicit:
            # Sweep engine (consumed by run_many, recorded per session).
            resolve_backend("executor", s._executor)  # validate the key early
            note("executor", s._executor, backend=f"executor:{s._executor.lower()}")

        for knob in ("forecast_error", "usage", "lifetime_years"):
            note(knob, getattr(s, f"_{knob}"))
        note("pue", pue_note, backend=pue_backend)
        if "hourly_training_pue" in s._explicit:
            # Opt-in knob: recorded only when set, so default scenarios
            # serialize identically to earlier releases.
            note("hourly_training_pue", s._hourly_training_pue)
        for knob in ("window_h", "workload_seed"):
            note(knob, getattr(s, f"_{knob}"))
        note("config", s._config if s._config is not None else "active ModelConfig")

        enabled = {
            "training": s._training is not None,
            "scheduling": bool(self._policies),
            "cluster": self._simulate is not None,
            "upgrade": s._upgrade is not None,
        }
        for section, module in _SECTION_MODULES.items():
            if enabled[section]:
                importlib.import_module(module)

        self._result: Optional[ScenarioResult] = None
        self._sealed = True
        return self

    @staticmethod
    def _resolve_workload(s: Scenario, note):
        """Resolve the scenario's workload spelling into a JobSource.

        Returns ``None`` for trace-free scenarios and for explicit job
        sequences (those are columnized lazily by :meth:`_jobs`).
        """
        if s._workload is None:
            return None
        import pathlib

        from repro.cluster.job import JobBatch
        from repro.workloads.sources import (
            WorkloadParams,
            canonical_key,
            looks_like_trace_path,
        )

        workload = s._workload

        if isinstance(workload, (str, pathlib.Path)):
            is_path = isinstance(workload, pathlib.Path) or looks_like_trace_path(
                workload
            )
            source = create_workload_source(
                workload, s._workload_opts, region=s._region
            )
            # Provenance records the constructed source (its repr
            # carries the factory options, like the pue kind's profile
            # note) under the canonical backend key, so alias spellings
            # (poisson/synthetic) serialize identically and option
            # sweeps stay distinguishable.
            key = "trace" if is_path else canonical_key(str(workload))
            note("workload", source, backend=f"workload:{key}")
            return source
        if isinstance(workload, WorkloadParams):
            # The legacy exact path: resolved through workload:synthetic,
            # byte-identical to historical runs; no provenance row (the
            # golden fixtures pin these bytes).
            return create_workload_source(
                "synthetic", {"params": workload}, region=s._region
            )
        if not isinstance(workload, JobBatch) and callable(
            getattr(workload, "generate", None)
        ):
            # A JobSource object (the plugin spelling).
            note("workload", workload)
            return workload
        return None  # explicit job sequence / JobBatch

    # --- introspection ----------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def provenance(self) -> Tuple[Provenance, ...]:
        return tuple(self._provenance)

    @property
    def service(self) -> Optional["CarbonIntensityService"]:
        """The resolved intensity service (None for trace-free scenarios)."""
        return self._service

    def fingerprint(self) -> str:
        """The provenance-keyed cache identity of this session.

        A SHA-256 over the canonical JSON of the derived name, the
        explicit-knob set, every builder knob's canonical value, and the
        recorded provenance rows — see
        :mod:`repro.session.fingerprint`.  Deterministic across
        processes and runs; any knob change yields a new hash.  Raises
        :class:`~repro.core.errors.SweepError` for scenarios whose knob
        values carry no stable identity (those are uncacheable).
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = session_fingerprint(self)
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def section_fingerprints(self) -> Dict[str, str]:
        """Per-section cache identities (see :func:`section_fingerprints`).

        One hash per result section plus the ``carbon`` rollup, each
        covering only the knobs that section reads — the keys of the
        sweep cache's section tier.  Raises
        :class:`~repro.core.errors.SweepError` for uncacheable knobs,
        exactly like :meth:`fingerprint`.
        """
        cached = getattr(self, "_section_fingerprints", None)
        if cached is None:
            cached = section_fingerprints(self)
            object.__setattr__(self, "_section_fingerprints", cached)
        return dict(cached)

    # --- execution --------------------------------------------------------
    def _region_intensity(self):
        """The home grid as the estimation layers expect it."""
        s = self._scenario
        if s._constant_intensity is not None and self._service is None:
            return s._constant_intensity
        assert self._service is not None and s._region is not None
        return self._service.trace(s._region)

    def _run_embodied(self) -> Optional[EmbodiedSection]:
        s = self._scenario
        subject = None
        if self._deployment is not None:
            subject = self._deployment.spec
        elif self._node is not None:
            subject = self._node
        if subject is None:
            return None
        by_class = subject.embodied_by_class(config=self._config)
        manufacturing = sum(b.manufacturing_g for b in by_class.values())
        packaging = sum(b.packaging_g for b in by_class.values())
        return EmbodiedSection(
            subject=subject.name,
            manufacturing_g=manufacturing,
            packaging_g=packaging,
            by_class_g={cls.value: b.total_g for cls, b in by_class.items()},
        )

    def _run_audit(self):
        s = self._scenario
        if self._deployment is None or s._region is None:
            return None
        from repro.analysis.audit import CenterAuditor

        n_nodes = (
            s._n_nodes if s._n_nodes is not None else self._deployment.n_nodes
        )
        nics = (
            s._nics_per_node
            if s._nics_per_node is not None
            else self._deployment.nics_per_node
        )
        auditor = CenterAuditor(
            intensity=self._service.trace(s._region),
            gpu_usage=s._usage,
            n_nodes=n_nodes,
            nics_per_node=nics,
            lifecycle=s._lifecycle,
            pue=self._pue_resolved,
            config=self._config,
        )
        return auditor.audit(
            self._deployment.spec, service_years=s._lifetime_years
        )

    def _run_training(self) -> Optional[TrainingSection]:
        s = self._scenario
        if s._training is None:
            return None
        from repro.workloads.runner import simulate_training_run

        run = simulate_training_run(
            s._training["model"],
            self._node,
            n_gpus=s._training["n_gpus"],
            epochs=s._training["epochs"],
            intensity=self._region_intensity(),
            # Default: the annual-mean scalar (the number a facility
            # reports; the golden fixtures pin these bytes).  The
            # opt-in .hourly_training_pue() flag routes the resolved
            # profile into CarbonTracker, which charges every metering
            # sample at that hour's facility overhead
            # (operational_carbon_seasonal's Eq. 6 weighting).
            pue=(
                self._pue_resolved
                if s._hourly_training_pue
                else self._pue_scalar
            ),
            config=self._config,
        )
        return TrainingSection(
            model=run.model_name,
            node=run.node_name,
            n_gpus=run.n_gpus,
            epochs=run.epochs,
            duration_h=run.duration_h,
            energy_kwh=run.energy.kwh,
            operational_g=run.carbon.grams,
            node_embodied_g=self._node.embodied(config=self._config).total_g,
            result=run,
        )

    def _jobs(self):
        """The scenario's workload as a columnar JobBatch.

        Generator scenarios draw through the resolved ``workload``
        backend (deterministic per seed); explicit job sequences are
        columnized once.  Everything downstream — placement kernels,
        charging engines, the embodied proration — reads the batch's
        columns, with scalar :class:`~repro.cluster.job.Job` views
        constructed lazily where objects are genuinely needed.
        """
        s = self._scenario
        from repro.cluster.job import JobBatch

        if self._workload_source is not None:
            batch = self._workload_source.generate(seed=s._workload_seed)
            if not isinstance(batch, JobBatch):
                # Third-party sources may return job sequences.
                batch = JobBatch.coerce(batch)
            return batch
        return JobBatch.coerce(s._workload)

    def _run_scheduling(self, jobs) -> Optional[SchedulingSection]:
        s = self._scenario
        if s._workload is None or not self._policies:
            return None
        from repro.scheduler.evaluation import evaluate_policy

        engine = self._accounting_factory(**s._accounting_opts)
        evaluations: Dict[str, Any] = {}
        for policy_name, policy in self._policies:
            if policy_name in evaluations:
                raise SessionError(f"duplicate policy {policy_name!r}")
            evaluations[policy_name] = evaluate_policy(
                jobs, policy, self._service, self._node,
                pue=self._pue_resolved, config=self._config, accounting=engine,
            )
        baseline_name = (
            BASELINE_POLICY
            if BASELINE_POLICY in evaluations
            else next(iter(evaluations))
        )
        base = evaluations[baseline_name].total_carbon.grams
        outcomes = tuple(
            PolicyOutcome(
                policy=name,
                carbon_g=ev.total_carbon.grams,
                energy_kwh=ev.total_energy.kwh,
                savings_fraction=(
                    0.0 if base == 0.0 else 1.0 - ev.total_carbon.grams / base
                ),
                mean_delay_h=ev.mean_delay_h(),
                migrations=ev.migration_count(),
            )
            for name, ev in evaluations.items()
        )
        section = SchedulingSection(
            baseline=baseline_name,
            n_jobs=len(jobs),
            gpu_hours=jobs.total_gpu_hours(),
            outcomes=outcomes,
            evaluations=evaluations,
        )
        # The ledger the carbon rollup merges rides on the section, so
        # the section tier can store it with the payload.
        return dataclasses.replace(
            section, ledger=evaluations[section.best().policy].ledger
        )

    def _run_cluster(self, jobs) -> Optional[ClusterSection]:
        s = self._scenario
        if self._simulate is None:
            return None
        from repro.cluster.simulator import Cluster

        horizon = s._window_h
        if horizon is None and self._workload_source is not None:
            horizon = getattr(self._workload_source, "horizon_h", None)
        if horizon is None:
            horizon = jobs.span_h() if len(jobs) else 1.0
        cluster = Cluster(self._node, s._cluster_nodes)
        try:
            sim = self._simulate(
                jobs,
                cluster,
                horizon_h=horizon,
                intensity=self._region_intensity(),
                pue=self._pue_resolved,
                config=self._config,
                **s._simulator_opts,
            )
        except TypeError as exc:
            if not s._simulator_opts:
                raise
            raise SessionError(
                f"simulator backend {s._simulator!r} rejected options "
                f"{sorted(s._simulator_opts)}: {exc}"
            ) from exc
        return ClusterSection(
            simulator=s._simulator,
            n_nodes=s._cluster_nodes,
            horizon_h=float(horizon),
            n_jobs=sim.n_jobs,
            ic_energy_kwh=sim.ic_energy_kwh,
            carbon_g=sim.carbon_g,
            average_usage=sim.average_usage(),
            mean_wait_h=sim.mean_wait_h(),
        )

    def _run_upgrade(self) -> Optional[UpgradeSection]:
        s = self._scenario
        if s._upgrade is None:
            return None
        from repro.upgrade.advisor import UpgradeAdvisor

        advisor = UpgradeAdvisor(
            self._region_intensity(),
            usage=s._usage,
            pue=self._pue_resolved,
            config=self._config,
        )
        decision = advisor.evaluate(
            s._upgrade["old"],
            s._upgrade["new"],
            s._upgrade["suite"],
            lifetime_years=s._lifetime_years,
        )
        return UpgradeSection(
            old=decision.old,
            new=decision.new,
            suite=decision.suite.value,
            performance_gain=decision.performance_gain,
            breakeven_years=decision.breakeven_years,
            savings_at_lifetime=decision.savings_at_lifetime,
            verdict=decision.verdict.value,
            rationale=decision.rationale,
            ledger=decision.ledger,
        )

    def _run_carbon(
        self,
        jobs,
        embodied: Optional[EmbodiedSection],
        audit,
        training: Optional[TrainingSection],
        scheduling: Optional[SchedulingSection],
        cluster: Optional[ClusterSection],
        upgrade: Optional[UpgradeSection],
    ) -> Optional[CarbonSection]:
        """Roll every charged section up into the unified carbon account.

        The primary account is the most complete model the scenario ran
        (scheduling best policy > training > audit > upgrade > embodied);
        alternatives stay side by side in ``by_source``.  A cluster
        simulation is never primary: ``.cluster()`` requires a workload,
        and a workload always brings the scheduling baseline.
        Workload-scale primaries add the amortized embodied share of
        the hardware they occupied (the model-card LCA attribution), so
        scheduling results and audits finally speak one Eq. 1 currency.

        Only sections are read, live or cache-assembled: the scheduling
        and upgrade ledgers ride on their sections.  ``jobs`` feed the
        scheduling primary's embodied proration.
        """
        from repro.accounting import CarbonLedger

        s = self._scenario
        by_source: Dict[str, float] = {}
        primary: Optional[CarbonLedger] = None
        source = ""
        operational = 0.0
        embodied_g = 0.0

        if scheduling is not None and scheduling.outcomes:
            best = scheduling.best()
            for outcome in scheduling.outcomes:
                by_source[f"scheduling:{outcome.policy}"] = outcome.carbon_g
            # The best policy's one operational batch, aligned with the
            # jobs: its regions are where each job ran.
            primary = CarbonLedger()
            primary.merge(scheduling.ledger)
            operational = primary.operational_g
            # The model-card LCA proration (amortized_embodied_g), applied
            # per job over its occupied GPU share, vectorized.
            from repro.accounting import amortized_embodied_g

            node_embodied = self._node.embodied(config=self._config).total_g
            gpu_count = self._node.gpu_count
            # Straight off the batch columns (no per-job objects).
            gpus = jobs.n_gpus.astype(float)
            durations = jobs.duration_h
            per_hour = amortized_embodied_g(
                node_embodied, 1.0, s._lifetime_years
            )
            amortized = per_hour * (gpus / gpu_count) * durations
            primary.add_batch(
                "embodied",
                carbon_g=amortized,
                regions=primary.regions(),
                policy=best.policy,
                job_ids=jobs.job_ids,
            )
            embodied_g = primary.embodied_g
            source = f"scheduling:{best.policy}"

        if cluster is not None:
            by_source["cluster"] = cluster.carbon_g

        if training is not None:
            by_source["training"] = training.operational_g
            if primary is None:
                primary = CarbonLedger()
                primary.add(
                    "operational",
                    f"training:{training.model}",
                    training.operational_g,
                    energy_kwh=training.energy_kwh,
                    region=s._region,
                )
                operational = training.operational_g
                primary.charge_amortized_embodied(
                    f"node:{training.node}",
                    training.node_embodied_g,
                    duration_h=training.duration_h,
                    lifetime_years=s._lifetime_years,
                    region=s._region,
                )
                embodied_g = primary.embodied_g
                source = "training"

        if audit is not None:
            by_source["audit"] = audit.total_g
            if primary is None:
                primary = audit.to_ledger()
                operational = audit.operational_g
                embodied_g = audit.embodied_total_g
                source = "audit"

        if upgrade is not None and upgrade.ledger is not None:
            for policy, grams in upgrade.ledger.by_policy().items():
                by_source[f"upgrade:{policy}"] = grams
            if primary is None:
                # The recommendation's own account: the upgrade
                # alternative (embodied tax + new-node operation),
                # merged into a fresh ledger like the other primaries,
                # so appending to the rollup's ledger never changes
                # the section's.
                primary = CarbonLedger()
                primary.merge(upgrade.ledger)
                operational = sum(
                    e.carbon_g
                    for e in primary
                    if e.policy == "upgrade" and e.kind == "operational"
                )
                embodied_g = sum(
                    e.carbon_g
                    for e in primary
                    if e.policy == "upgrade" and e.kind == "embodied"
                )
                source = "upgrade"

        if primary is None and embodied is not None:
            primary = CarbonLedger()
            for cls, grams in embodied.by_class_g.items():
                primary.charge_embodied(cls, grams, region=s._region)
            embodied_g = primary.embodied_g
            source = "embodied"

        if primary is None:
            return None
        return CarbonSection(
            backend=s._accounting,
            source=source,
            operational_g=operational,
            embodied_g=embodied_g,
            by_region=primary.by_region(),
            by_policy=primary.by_policy(),
            by_source=by_source,
            ledger=primary,
        )

    def run(self, *, reuse=None) -> ScenarioResult:
        """Execute every requested section and assemble the result.

        Idempotent: the first call computes and caches the result and
        every later call returns the same object.  (The forecast RNG
        inside the resolved intensity service is consumed by a run, so
        re-executing would yield different noisy-forecast numbers —
        caching is what keeps a frozen Session trustworthy.)

        ``reuse`` takes a section cache (anything exposing
        ``get_section(name, fingerprint) -> (hit, payload)``, i.e. a
        :class:`~repro.sweep.cache.ResultCache`): sections whose
        fingerprints hit are assembled from their cached payloads and
        only the stale ones execute — the *delta evaluation* path.  The
        assembled result serializes byte-identically to a full
        recompute; sections this run computed live ride back on
        ``result.fresh_sections`` for the caller to write through
        (``run(reuse=...)`` itself never writes to the cache).
        """
        if self._result is None:
            object.__setattr__(self, "_result", self._run_delta(reuse))
        return self._result

    def _run_delta(self, reuse) -> ScenarioResult:
        """Assemble the result from cached sections, running only stale ones.

        ``reuse=None`` is an empty section source: every section runs.
        Uncacheable scenarios (knobs with no stable identity) also run
        every section, with ``provenance_hash=None``.  Section
        fingerprints are computed only when ``reuse`` is given, and
        ``fresh_sections`` stays ``None`` when none were.

        The carbon rollup reads only sections, live or cached: the
        scheduling and upgrade payloads the section tier holds carry
        their ledgers (:func:`~repro.session.result.dump_section`), so
        a stale rollup recomputes neither.  A hit without its ledger
        (a ``reuse`` object that stores plain ``to_dict`` payloads) is
        recomputed.  The jobs are generated whenever scheduling, the
        cluster or the rollup runs (the rollup prorates embodied carbon
        over them).
        """
        try:
            fingerprint = self.fingerprint()
        except SweepError:
            fingerprint = None  # uncacheable knobs: run, but don't key
        fps = (
            self.section_fingerprints()
            if reuse is not None and fingerprint is not None
            else None
        )
        s = self._scenario
        cached: Dict[str, Any] = {}
        if fps is not None:
            for name in RESULT_SECTIONS:
                hit, payload = reuse.get_section(name, fps[name])
                if hit:
                    cached[name] = payload
        live = {name for name in RESULT_SECTIONS if name not in cached}
        if "carbon" in live:
            for name in LEDGER_SECTIONS:
                payload = cached.get(name)
                if payload is not None and payload.get("ledger") is None:
                    live.add(name)

        needs_jobs = s._workload is not None and bool(
            {"scheduling", "cluster", "carbon"} & live
        )
        jobs = self._jobs() if needs_jobs else []
        embodied = (
            self._run_embodied()
            if "embodied" in live
            else load_section("embodied", cached["embodied"])
        )
        audit = (
            self._run_audit()
            if "audit" in live
            else load_section("audit", cached["audit"])
        )
        training = (
            self._run_training()
            if "training" in live
            else load_section("training", cached["training"])
        )
        scheduling = (
            self._run_scheduling(jobs)
            if "scheduling" in live
            else load_section("scheduling", cached["scheduling"])
        )
        cluster = (
            self._run_cluster(jobs)
            if "cluster" in live
            else load_section("cluster", cached["cluster"])
        )
        upgrade = (
            self._run_upgrade()
            if "upgrade" in live
            else load_section("upgrade", cached["upgrade"])
        )
        if "carbon" in live:
            carbon = self._run_carbon(
                jobs, embodied, audit, training, scheduling, cluster, upgrade,
            )
        else:
            carbon = load_section("carbon", cached["carbon"])
        sections = {
            "embodied": embodied,
            "audit": audit,
            "training": training,
            "scheduling": scheduling,
            "cluster": cluster,
            "upgrade": upgrade,
            "carbon": carbon,
        }
        fresh = None
        if fps is not None:
            fresh = {
                name: (fps[name], dump_section(name, sections[name]))
                for name in live
                if name not in cached  # force-recomputed hits need no write
            }
        return ScenarioResult(
            name=self._name,
            region=s._region,
            seed=s._seed,
            embodied=embodied,
            audit=audit,
            training=training,
            scheduling=scheduling,
            cluster=cluster,
            upgrade=upgrade,
            carbon=carbon,
            provenance=self.provenance,
            provenance_hash=fingerprint,
            fresh_sections=fresh,
        )

    def render(self, result: Optional[ScenarioResult] = None) -> str:
        """Run (if needed) and render through the scenario's renderer."""
        if result is None:
            result = self.run()
        return self._render(result)

    # --- batch ------------------------------------------------------------
    @classmethod
    def run_many(
        cls,
        scenarios: Iterable[Union["Scenario", "Session"]],
        *,
        executor: Optional[str] = None,
        max_workers: Optional[int] = None,
    ) -> List[ScenarioResult]:
        """Evaluate many scenarios through a pluggable sweep executor.

        All sessions draw their trace sets from the process-wide memo in
        :mod:`repro.intensity.generator`, so sweeping N regions × M
        policies generates each unique seed's traces exactly once (the
        ``process`` executor warms the same memo once per worker).  Their
        window tables come from the process-wide table memo the same
        way, so each table identity is built once per process.
        Results come back in input order; each scenario still gets its
        own freshly seeded forecast stream, so a batch run of a scenario
        equals its standalone run — with any executor.

        The engine resolves from the ``executor`` registry kind:
        ``executor=`` here wins, else the first swept Scenario with an
        explicit :meth:`Scenario.executor` knob picks it, else
        ``serial``.  ``max_workers`` overrides the scenario knob's
        worker count for parallel executors.  A failing scenario raises
        its own exception under ``serial``; the pooled engines raise
        :class:`~repro.core.errors.ResilienceError` naming it.
        """
        from repro.session.executors import resolve_executor

        items: List[Union[Scenario, Session]] = []
        for item in scenarios:
            if not isinstance(item, (Scenario, Session)):
                raise SessionError(
                    f"run_many takes Scenario/Session items, got "
                    f"{type(item).__name__}"
                )
            items.append(item)
        key, opts = resolve_executor(items, executor, max_workers)
        sweep = resolve_backend("executor", key)(**opts)
        return list(sweep(items))


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Function-style entry point: ``run_scenario(Scenario().system(...))``."""
    if not isinstance(scenario, Scenario):
        raise SessionError(
            f"run_scenario takes a Scenario, got {type(scenario).__name__}"
        )
    return scenario.build().run()
