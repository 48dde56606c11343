"""Command-line interface: regenerate any paper experiment from a shell.

Usage::

    repro-hpc list                 # every experiment id
    repro-hpc fig1                 # print one figure's report section
    repro-hpc table6
    repro-hpc checks               # paper-vs-measured shape checks
    repro-hpc report [-o FILE]     # full EXPERIMENTS.md content
    repro-hpc scenario --system Frontier --region ESO   # facade studies

``python -m repro ...`` is equivalent.  The ``report``/``audit``/
``advise`` subcommands and the ``scenario`` study runner are thin
wrappers over :mod:`repro.session` — the same
:class:`~repro.session.Scenario` facade the library exposes in Python.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

__all__ = ["main"]

#: The paper's artifacts, one subcommand each.  Their entries live in
#: ``repro.analysis.artifacts``, which only the subcommands import, so
#: ``audit`` and ``scenario`` never load the analysis figures.
ARTIFACT_IDS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "table1", "table2", "table3", "table4", "table5", "table6",
)


def _print_checks() -> None:
    from repro.analysis.report import check_table, run_all_checks

    checks = run_all_checks()
    print(check_table(checks))
    n_ok = sum(1 for c in checks if c.ok)
    print(f"\n{n_ok}/{len(checks)} checks pass")


def _print_insights() -> None:
    from repro.analysis.insights import check_all_insights
    from repro.analysis.render import format_table

    results = check_all_insights()
    rows = [
        (r.number, r.title, "yes" if r.holds else "NO", r.evidence)
        for r in results
    ]
    print(format_table(["#", "Takeaway", "Holds", "Evidence"], rows))
    n_ok = sum(1 for r in results if r.holds)
    print(f"\n{n_ok}/{len(results)} observations/insights hold")


def _split_float_list(raw: str):
    """Parse a comma-separated value into floats, or None if any part
    is non-numeric (shared by the pue and workload arg coercers)."""
    try:
        return [float(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        return None


def _coerce_pue_arg(raw: str):
    """Best-effort typing of one ``--pue-arg`` value.

    Comma-separated numbers become a list (the ``profile`` backend's
    ``values``) and a non-numeric list is a hard error; single numbers
    become floats; anything else stays a string.  Scalars type more
    loosely than ``--workload-arg``'s on purpose: every numeric pue
    knob is a float (no int/bool options exist), so the stricter
    workload rules would only add surprise here.
    """
    raw = raw.strip()
    if "," in raw:
        values = _split_float_list(raw)
        if values is None:
            from repro.core.errors import PUEError

            raise PUEError(
                f"--pue-arg number list contains a non-number: {raw!r}"
            )
        return values
    try:
        return float(raw)
    except ValueError:
        return raw


def _apply_pue_flags(scenario, pue: Optional[str], pue_args) -> None:
    """Wire ``--pue KEY_OR_NUMBER`` / ``--pue-arg K=V`` into a Scenario."""
    from repro.core.errors import PUEError

    if pue is None:
        if pue_args:
            raise PUEError("--pue-arg requires --pue")
        return
    opts = {}
    for item in pue_args or ():
        key, sep, raw = item.partition("=")
        if not sep or not key.strip():
            raise PUEError(f"--pue-arg takes KEY=VALUE, got {item!r}")
        opts[key.strip()] = _coerce_pue_arg(raw)
    try:
        number = float(pue)
    except ValueError:
        scenario.pue(pue, **opts)
    else:
        if opts:
            raise PUEError("--pue-arg only applies to a pue backend key")
        scenario.pue(number)


def _add_pue_flags(parser) -> None:
    parser.add_argument(
        "--pue", default=None,
        help="facility PUE: a number or a pue backend key "
             "(constant/seasonal/profile)",
    )
    parser.add_argument(
        "--pue-arg", action="append", default=None, metavar="K=V",
        help="option for the pue backend (repeatable), e.g. "
             "amplitude=0.1 or values=1.2,1.3",
    )


def _coerce_scalar_arg(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _coerce_workload_arg(raw: str):
    """Best-effort typing of one ``--workload-arg`` value.

    Ints stay ints (GPU counts, column indices), numbers become floats,
    ``true``/``false`` become booleans, and a comma-separated run of
    *numbers* becomes a list.  Anything else — including comma-bearing
    strings such as file paths — stays a string for the backend factory
    (see ``_coerce_pue_arg`` for the float-only sibling).
    """
    raw = raw.strip()
    if "," in raw:
        values = _split_float_list(raw)
        if values is not None:
            # Preserve int-ness per element (column indices etc.).
            return [_coerce_scalar_arg(part.strip())
                    for part in raw.split(",") if part.strip()]
        return raw  # e.g. a path with a comma in it
    return _coerce_scalar_arg(raw)


def _parse_workload_args(items) -> tuple:
    """Split ``--workload-arg`` items into (common, per-backend) options.

    Plain ``K=V`` applies to every workload backend in the run;
    ``BACKEND:K=V`` applies only when that backend key is swept (how a
    ``--sweep-workloads`` run hands ``trace`` its ``path`` without the
    synthetic backends choking on it).
    """
    from repro.core.errors import WorkloadError

    common: dict = {}
    per_key: dict = {}
    for item in items or ():
        name, sep, raw = item.partition("=")
        if not sep or not name.strip():
            raise WorkloadError(f"--workload-arg takes K=V, got {item!r}")
        name = name.strip()
        if name.rpartition(":")[2].strip() == "seed":
            # The draw seed is a top-level flag, not a factory option;
            # letting it through would collide with the seed= keyword.
            raise WorkloadError(
                "--workload-arg seed=N is not a backend option; use --seed"
            )
        target = None
        if ":" in name:
            target, _, name = name.partition(":")
            target = target.strip().lower()
            name = name.strip()
            if not target or not name:
                raise WorkloadError(
                    f"--workload-arg backend prefix takes BACKEND:K=V, got {item!r}"
                )
            from repro.workloads.sources import looks_like_trace_path

            if looks_like_trace_path(target):
                # A path-like prefix would silently canonicalize onto
                # the trace bucket; scoping is by backend *key* only.
                raise WorkloadError(
                    f"--workload-arg prefix must be a backend key, got "
                    f"path-like {target!r}; scope trace options as trace:K=V"
                )
        value = _coerce_workload_arg(raw)
        if target is None:
            common[name] = value
        else:
            # Buckets are stored by canonical key, so alias and backend
            # prefixes land in the same bucket — and a typo'd prefix
            # fails loudly instead of silently parking its option in a
            # bucket nothing reads.
            canonical = _canonical_workload_key(target)
            from repro.session import available_backends

            if canonical not in available_backends("workload"):
                known = ", ".join(available_backends("workload"))
                raise WorkloadError(
                    f"--workload-arg backend prefix {target!r} is not a "
                    f"workload backend; registered: {known}"
                )
            per_key.setdefault(canonical, {})[name] = value
    return common, per_key


def _canonical_workload_key(key_or_path: str) -> str:
    """Canonical backend key for any CLI workload spelling.

    Aliases collapse onto their registered backend (``poisson`` ->
    ``synthetic``, ``replay`` -> ``trace``) and file paths onto
    ``trace``, so ``BACKEND:K=V`` option buckets and the generator-
    default injection rule can never be dodged by an alias spelling.
    """
    from repro.workloads.sources import canonical_key, looks_like_trace_path

    if looks_like_trace_path(key_or_path):
        return "trace"
    return canonical_key(key_or_path)


def _workload_opts_for(key: str, common: dict, per_key: dict) -> dict:
    """Merge common and ``BACKEND:``-scoped options for one backend.

    Scoped buckets are looked up by *canonical* key, so options scoped
    under either an alias or its backend reach the same factory instead
    of being silently dropped.
    """
    opts = dict(common)
    opts.update(per_key.get(_canonical_workload_key(key), {}))
    return opts


def _inject_generator_defaults(
    key_or_path: str,
    opts: dict,
    *,
    days: Optional[float] = None,
    gpus: Optional[int] = None,
) -> dict:
    """Default ``--days``/``--gpus`` into built-in generator options.

    The one copy of the rule: only the synthetic family takes these
    (trace replays its file's own span — forcing a horizon onto it
    would silently clip — and third-party backends owe no
    WorkloadParams-shaped factory signature).
    """
    from repro.workloads.sources import GENERATOR_KEYS

    if _canonical_workload_key(key_or_path) in GENERATOR_KEYS:
        if days is not None:
            opts.setdefault("horizon_h", 24.0 * days)
        if gpus is not None:
            opts.setdefault("total_gpus", gpus)
    return opts


def _parse_simulator_args(items) -> dict:
    """Parse repeatable ``--simulator-arg K=V`` into discipline options.

    Values get the same best-effort typing as ``--workload-arg`` (ints,
    floats, booleans, number lists), so ``slack=24`` reaches the
    carbon-aware backend as a number and ``cap_fraction=0.6`` the
    power-cap backend as a float.
    """
    from repro.core.errors import SessionError

    opts: dict = {}
    for item in items or ():
        key, sep, raw = item.partition("=")
        if not sep or not key.strip():
            raise SessionError(f"--simulator-arg takes K=V, got {item!r}")
        opts[key.strip()] = _coerce_workload_arg(raw)
    return opts


def _run_scenario_command(args) -> int:
    """The ``scenario`` subcommand: CLI surface of the session facade."""
    from repro.core.errors import SessionError
    from repro.session import BACKEND_KINDS, available_backends

    if args.list_backends:
        for kind in BACKEND_KINDS:
            print(f"{kind}: {', '.join(available_backends(kind))}")
        return 0

    from repro.session import Scenario, Session, resolve_backend

    if args.sweep_regions and args.region:
        print(
            "scenario error: --region and --sweep-regions are mutually "
            "exclusive; the sweep supplies the regions",
            file=sys.stderr,
        )
        return 2
    if args.sweep_workloads and args.sweep_regions:
        print(
            "scenario error: --sweep-regions and --sweep-workloads are "
            "mutually exclusive; sweep one axis per run",
            file=sys.stderr,
        )
        return 2
    if args.workload and args.sweep_workloads:
        print(
            "scenario error: --workload and --sweep-workloads are mutually "
            "exclusive; the sweep supplies the workload backends",
            file=sys.stderr,
        )
        return 2
    if args.simulator is not None and args.cluster is None:
        # Same loud-failure contract as --workload-arg without
        # --workload: a discipline choice with no cluster section to
        # apply it to is an operator mistake, not a no-op.
        print(
            "scenario error: --simulator requires --cluster (the discipline "
            "only applies to a cluster simulation section)",
            file=sys.stderr,
        )
        return 2
    if args.simulator_arg and args.simulator is None:
        print(
            "scenario error: --simulator-arg requires --simulator (the "
            "options belong to a discipline backend)",
            file=sys.stderr,
        )
        return 2
    try:
        simulator_opts = _parse_simulator_args(args.simulator_arg)
    except SessionError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    if not args.policies and args.cluster is None and (
        args.workload or args.workload_arg or args.sweep_workloads
    ):
        # The workload flags only take effect on a scheduling or cluster
        # scenario; silently dropping them would hide an operator mistake.
        print(
            "scenario error: --workload/--workload-arg/--sweep-workloads "
            "require --policies or --cluster (a workload is only consumed "
            "by a scheduling or cluster section)",
            file=sys.stderr,
        )
        return 2
    if args.workload_arg and not (args.workload or args.sweep_workloads):
        # The legacy default path ignores factory options; same
        # loud-failure contract as --pue-arg without --pue.
        print(
            "scenario error: --workload-arg requires --workload or "
            "--sweep-workloads",
            file=sys.stderr,
        )
        return 2

    candidates = (
        [code.strip() for code in args.regions.split(",")] if args.regions else None
    )
    renderer_key = args.renderer if args.renderer is not None else "text"

    def build(
        region: Optional[str], workload_key: Optional[str] = None
    ) -> Scenario:
        # Only call a setter when the operator passed the flag, so the
        # result's provenance keeps its explicit-vs-default distinction.
        scenario = Scenario()
        if args.seed is not None:
            scenario.seed(args.seed)
        if args.usage is not None:
            scenario.usage(args.usage)
        if args.years is not None:
            scenario.lifetime(years=args.years)
        if args.renderer is not None:
            scenario.renderer(args.renderer)
        if args.accounting is not None:
            scenario.accounting(args.accounting)
        _apply_pue_flags(scenario, args.pue, args.pue_arg)
        if args.system:
            scenario.system(args.system)
        if args.node:
            scenario.node(args.node)
        if region:
            scenario.region(region)
        if candidates:
            scenario.regions(candidates)
        if args.policies or args.cluster is not None:
            if args.policies:
                scenario.policies(args.policies.split(","))
            key = workload_key if workload_key is not None else args.workload
            if key is not None:
                # A workload backend key (or trace path): factory
                # options come from --workload-arg, with --days/--gpus
                # as generator defaults.
                common, per_key = _parse_workload_args(args.workload_arg)
                opts = _inject_generator_defaults(
                    key,
                    _workload_opts_for(key, common, per_key),
                    days=args.days,
                    gpus=args.gpus,
                )
                scenario.workload(key, seed=args.seed, **opts)
            else:
                from repro.cluster import WorkloadParams

                # seed=None keeps the facade's default workload seed, so
                # the CLI and the equivalent Python call draw the same
                # jobs (the legacy exact path through workload:synthetic).
                scenario.workload(
                    WorkloadParams(
                        horizon_h=24.0 * args.days,
                        total_gpus=args.gpus,
                        home_region=region,
                    ),
                    seed=args.seed,
                )
        if args.cluster is not None:
            scenario.cluster(
                args.cluster,
                simulator=args.simulator if args.simulator else "fcfs",
                **simulator_opts,
            )
        if args.upgrade:
            scenario.upgrade(args.upgrade[0], args.upgrade[1], suite=args.suite)
        return scenario

    from repro.core.errors import ReproError

    try:
        render = resolve_backend("renderer", renderer_key)
        if args.workload_arg and (args.workload or args.sweep_workloads):
            # A scoped bucket no backend in this run reads is a silent
            # no-op (e.g. trace:K=V without trace in the sweep): reject.
            _common, per_key = _parse_workload_args(args.workload_arg)
            _reject_unused_scoped_args(
                per_key,
                args.sweep_workloads.split(",")
                if args.sweep_workloads
                else [args.workload],
            )
        if args.sweep_regions or args.sweep_workloads:
            if args.sweep_regions:
                sweep = [code.strip() for code in args.sweep_regions.split(",")]
                scenarios = [build(code) for code in sweep]
            else:
                keys = [k.strip() for k in args.sweep_workloads.split(",")]
                scenarios = [
                    build(args.region, workload_key=key) for key in keys
                ]
            results = Session.run_many(
                scenarios,
                executor=args.executor,
                max_workers=args.max_workers,
            )
            for result in results:
                print(render(result))
                print()
            return 0
        print(render(build(args.region).run()))
        return 0
    except ReproError as error:
        print(f"scenario error: {error}", file=sys.stderr)
        return 2


def _make_workload_source(
    key_or_path: str,
    opts: dict,
    *,
    days: Optional[float] = None,
    gpus: Optional[int] = None,
    region: Optional[str] = None,
):
    """Resolve a CLI workload spec (backend key or trace path) to a source.

    Thin wrapper over the facade's shared resolution core
    (:func:`repro.session.session.create_workload_source`): the CLI
    only layers its --days/--gpus generator defaults on top.
    """
    from repro.core.errors import WorkloadError
    from repro.session.session import create_workload_source

    opts = _inject_generator_defaults(
        key_or_path, dict(opts), days=days, gpus=gpus
    )
    return create_workload_source(
        key_or_path, opts, region=region, error=WorkloadError
    )


def _reject_unused_scoped_args(per_key: dict, run_keys) -> None:
    """Fail loudly on scoped buckets no backend in this run reads.

    The scenario and workload subcommands share the contract: a
    ``BACKEND:K=V`` option scoped to a backend that is not part of the
    run is a silent no-op, so it must error instead.
    """
    canonical = {_canonical_workload_key(str(k).strip()) for k in run_keys}
    unused = sorted(set(per_key) - canonical)
    if unused:
        from repro.core.errors import WorkloadError

        raise WorkloadError(
            f"--workload-arg options scoped to {', '.join(unused)} apply "
            "to no workload backend in this run"
        )


def _require_json_dest(path: str, command: str) -> None:
    """``generate`` emits the JSON schema only; an ``.swf``-named output
    would later be mis-sniffed into the SWF parser.  (``convert`` routes
    by suffix instead: a ``.swf`` dest writes Standard Workload Format.)
    """
    if path.strip().lower().endswith(".swf"):
        from repro.core.errors import WorkloadError

        raise WorkloadError(
            f"workload {command} writes the JSON schema; name the "
            "output *.json"
        )


def _run_workload_command(args) -> int:
    """The ``workload`` subcommand: generate / describe / convert traces."""
    from repro.core.errors import ReproError

    try:
        common, per_key = _parse_workload_args(args.workload_arg)
        if per_key:
            source_spec = (
                "trace"
                if args.workload_command == "convert"
                else (args.backend if args.workload_command == "generate"
                      else args.source)
            )
            _reject_unused_scoped_args(per_key, [source_spec])
        if args.workload_command == "generate":
            from repro.cluster.traceio import save_jobs
            from repro.workloads.sources import DEFAULT_WORKLOAD_SEED

            _require_json_dest(args.out, "generate")
            source = _make_workload_source(
                args.backend,
                _workload_opts_for(args.backend, common, per_key),
                days=args.days,
                gpus=args.gpus,
                region=args.region,
            )
            seed = args.seed if args.seed is not None else DEFAULT_WORKLOAD_SEED
            batch = source.generate(seed=seed)
            path = save_jobs(batch.to_jobs(), args.out)
            print(
                f"wrote {path} ({len(batch)} jobs, "
                f"{batch.total_gpu_hours():,.1f} GPU-hours, "
                f"span {batch.span_h():.1f} h)"
            )
            return 0
        if args.workload_command == "describe":
            from repro.analysis.render import format_table
            from repro.workloads.sources import DEFAULT_WORKLOAD_SEED

            source = _make_workload_source(
                args.source,
                _workload_opts_for(args.source, common, per_key),
                days=args.days,
                gpus=args.gpus,
                region=args.region,
            )
            seed = args.seed if args.seed is not None else DEFAULT_WORKLOAD_SEED
            stats = source.generate(seed=seed).describe()
            rows = [
                (name, str(value))
                for name, value in stats.items()
                if not isinstance(value, tuple)
            ]
            print(f"Workload {args.source!r} (seed {seed}):")
            print(format_table(["Statistic", "Value"], rows))
            models = stats.get("models")
            if models:
                print(f"models : {', '.join(models)}")
            regions = stats.get("regions")
            if regions:
                print(f"regions: {', '.join(regions)}")
            return 0
        # convert: any readable trace -> the versioned JSON schema, or
        # SWF when the destination is named *.swf.
        from repro.cluster.traceio import save_jobs, save_swf
        from repro.core.errors import WorkloadError
        from repro.workloads.sources import looks_like_trace_path

        to_swf = args.dest.strip().lower().endswith(".swf")
        if not looks_like_trace_path(args.source):
            raise WorkloadError(
                "workload convert takes a trace file as its source, got "
                f"{args.source!r}; draw generator backends with "
                "'workload generate' instead"
            )
        # Route through the workload:trace backend (not the bare
        # reader), so every trace option a scenario accepts —
        # trace:-scoped or plain: model, column remaps
        # (column_map=run_s:8,...), horizon_h, slack_fraction,
        # home_region, max_jobs — converts identically.
        opts = _workload_opts_for("trace", common, per_key)
        if "path" in opts:
            raise WorkloadError(
                "workload convert takes its source positionally; drop the "
                "path= option"
            )
        source = _make_workload_source(args.source, opts)
        batch = source.generate()
        writer = save_swf if to_swf else save_jobs
        path = writer(batch.to_jobs(), args.dest)
        print(
            f"converted {args.source} -> {path} ({len(batch)} jobs, "
            f"{batch.total_gpu_hours():,.1f} GPU-hours)"
        )
        return 0
    except ReproError as error:
        print(f"workload error: {error}", file=sys.stderr)
        return 2


def _run_sweep_command(args) -> int:
    """The ``sweep`` subcommand: plan / run a spec, or inspect the cache."""
    import pathlib

    from repro.core.errors import ReproError

    try:
        if args.sweep_command == "cache":
            from repro.sweep.cache import ResultCache, default_cache_dir

            directory = (
                pathlib.Path(args.cache_dir)
                if args.cache_dir
                else default_cache_dir()
            )
            cache = ResultCache(directory)
            if args.clear:
                clearance = cache.clear(disk=True)
                print(f"cleared {clearance.summary()} under {directory}")
                return 0
            entries = list(cache.entries())
            print(f"cache {directory}: {len(entries)} result(s)")
            for fingerprint, path in entries:
                print(f"  {fingerprint[:16]}  {path.stat().st_size:>9,d} B")
            section_entries = list(cache.section_entries())
            n = len(section_entries)
            print(
                f"section tier: {n} payload{'s' if n != 1 else ''} "
                f"(memory tier: {cache.memory_slots} slots)"
            )
            by_section: dict = {}
            for section, _fingerprint, path in section_entries:
                by_section.setdefault(section, []).append(path)
            for section, paths in by_section.items():
                size = sum(p.stat().st_size for p in paths)
                print(
                    f"  {section:>10s}: {len(paths)} "
                    f"entr{'ies' if len(paths) != 1 else 'y'}, {size:,d} B"
                )
            return 0

        from repro.session import resolve_backend

        if args.sweep_command == "plan":
            if args.no_delta:
                service = resolve_backend("sweep", "direct")()
            else:
                plan_opts = {}
                if args.cache_dir:
                    plan_opts["cache_dir"] = args.cache_dir
                service = resolve_backend("sweep", "cached")(**plan_opts)
            for line in service.plan(args.spec).summary_lines():
                print(line)
            return 0

        # run
        from repro.core.errors import SweepError

        opts = {}
        if args.executor:
            opts["executor"] = args.executor
        if args.max_workers is not None:
            opts["max_workers"] = args.max_workers
        if args.delta is not None:
            opts["delta"] = args.delta
        if args.no_cache:
            if args.cache_dir:
                raise SweepError("--cache-dir is meaningless with --no-cache")
            service = resolve_backend("sweep", "direct")(**opts)
        else:
            if args.cache_dir:
                opts["cache_dir"] = args.cache_dir
            service = resolve_backend("sweep", "cached")(**opts)

        run_kwargs = {}
        if args.retries is not None or args.unit_timeout is not None:
            retry = {}
            if args.retries is not None:
                retry["retries"] = args.retries
            if args.unit_timeout is not None:
                retry["unit_timeout_s"] = args.unit_timeout
            run_kwargs["retry"] = retry
        if args.fault_arg and not args.faults:
            raise SweepError("--fault-arg requires --faults")
        if args.faults:
            fault_opts = {}
            for raw in args.fault_arg:
                key, sep, value = raw.partition("=")
                if not sep or not key.strip():
                    raise SweepError(
                        f"--fault-arg takes K=V, got {raw!r}"
                    )
                fault_opts[key.strip()] = _coerce_workload_arg(value.strip())
            run_kwargs["faults"] = {"kind": args.faults, **fault_opts}
        if args.journal:
            run_kwargs["journal"] = args.journal
        if args.resume:
            run_kwargs["resume"] = args.resume
        if args.max_rebuilds is not None:
            run_kwargs["max_rebuilds"] = args.max_rebuilds
        if args.no_cache_writeback:
            run_kwargs["cache_writeback"] = False

        outcome = service.run(args.spec, **run_kwargs)
        failed_cells = {
            index
            for failure in getattr(outcome, "failures", ())
            for index in failure.indices
        }
        for index, result in enumerate(outcome.results):
            if result is None:
                label = "FAILED" if index in failed_cells else "skipped (resume)"
                print(f"  cell {index}: {label}")
                continue
            fingerprint = result.fingerprint()
            key = fingerprint[:12] if fingerprint else "uncacheable"
            print(f"  cell {index}: {result.name}  [{key}]")
        for line in outcome.summary_lines():
            print(line)
        return 1 if getattr(outcome, "failures", ()) else 0
    except ReproError as error:
        print(f"sweep error: {error}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `repro-hpc list | head`).
        return 0


def _main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-hpc",
        description="Regenerate the SC'23 HPC carbon-footprint experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list experiment ids")
    report_parser = subparsers.add_parser(
        "report", help="print the full EXPERIMENTS.md content"
    )
    report_parser.add_argument(
        "-o", "--output", default=None, help="write the report to a file"
    )
    export_parser = subparsers.add_parser(
        "export", help="write every experiment's data to files"
    )
    export_parser.add_argument(
        "-d", "--directory", default="export", help="target directory"
    )
    export_parser.add_argument(
        "-f", "--format", choices=("csv", "json"), default="csv"
    )
    audit_parser = subparsers.add_parser(
        "audit", help="whole-center carbon audit of a studied system"
    )
    audit_parser.add_argument(
        "--system", choices=("Frontier", "LUMI", "Perlmutter"), default="Perlmutter"
    )
    audit_parser.add_argument("--region", default="CISO", help="Table 3 region code")
    audit_parser.add_argument("--years", type=float, default=5.0)
    _add_pue_flags(audit_parser)
    advise_parser = subparsers.add_parser(
        "advise", help="carbon-aware upgrade recommendation"
    )
    advise_parser.add_argument("--old", choices=("P100", "V100"), default="P100")
    advise_parser.add_argument("--new", choices=("V100", "A100"), default="A100")
    advise_parser.add_argument(
        "--suite", choices=("NLP", "Vision", "CANDLE"), default="NLP"
    )
    advise_parser.add_argument(
        "--intensity", type=float, default=None,
        help="constant gCO2/kWh (default: use --region's 2021 trace)",
    )
    advise_parser.add_argument("--region", default="CISO")
    advise_parser.add_argument("--usage", type=float, default=0.40)
    advise_parser.add_argument("--lifetime", type=float, default=5.0)
    _add_pue_flags(advise_parser)
    scenario_parser = subparsers.add_parser(
        "scenario", help="run a Scenario through the session facade"
    )
    scenario_parser.add_argument("--system", default=None, help="system backend key")
    scenario_parser.add_argument("--node", default=None, help="node backend key")
    scenario_parser.add_argument("--region", default=None, help="Table 3 region code")
    scenario_parser.add_argument(
        "--regions", default=None,
        help="comma-separated candidate regions for geographic policies",
    )
    scenario_parser.add_argument(
        "--policies", default=None,
        help="comma-separated policy backend keys (implies a workload)",
    )
    scenario_parser.add_argument(
        "--workload", default=None,
        help="workload backend key (synthetic/diurnal/bursty/trace) or a "
             "trace path (.json/.swf); default: the synthetic generator",
    )
    scenario_parser.add_argument(
        "--workload-arg", action="append", default=None, metavar="K=V",
        help="option for the workload backend (repeatable), e.g. "
             "target_usage=0.6 or trace:path=log.swf (BACKEND:K=V scopes "
             "an option to one backend in a --sweep-workloads run)",
    )
    scenario_parser.add_argument("--days", type=float, default=28.0)
    scenario_parser.add_argument("--gpus", type=int, default=64)
    scenario_parser.add_argument(
        "--upgrade", nargs=2, metavar=("OLD", "NEW"), default=None
    )
    scenario_parser.add_argument(
        "--suite", choices=("NLP", "Vision", "CANDLE"), default="NLP"
    )
    # Defaults are None sentinels so provenance can tell a flag the
    # operator passed from a facade default.
    scenario_parser.add_argument("--years", type=float, default=None)
    scenario_parser.add_argument("--usage", type=float, default=None)
    scenario_parser.add_argument("--seed", type=int, default=None)
    scenario_parser.add_argument(
        "--renderer", default=None, help="renderer backend key (text/json/markdown)"
    )
    scenario_parser.add_argument(
        "--accounting", default=None,
        help="carbon-charging backend key (vectorized, or a plugin's key)",
    )
    scenario_parser.add_argument(
        "--cluster", type=int, default=None, metavar="N",
        help="simulate the workload on an N-node cluster section",
    )
    scenario_parser.add_argument(
        "--simulator", default=None,
        help="cluster simulator backend key (fcfs/backfill/carbon-aware/"
             "power-cap); requires --cluster",
    )
    scenario_parser.add_argument(
        "--simulator-arg", action="append", default=None, metavar="K=V",
        help="option for the simulator backend (repeatable), e.g. "
             "slack=24 for carbon-aware or cap_fraction=0.6 for power-cap; "
             "requires --simulator",
    )
    _add_pue_flags(scenario_parser)
    scenario_parser.add_argument(
        "--sweep-regions", default=None,
        help="comma-separated regions: run one scenario per region (batch)",
    )
    scenario_parser.add_argument(
        "--sweep-workloads", default=None,
        help="comma-separated workload backend keys: run one scenario per "
             "workload through Session.run_many (batch)",
    )
    scenario_parser.add_argument(
        "--executor", default=None,
        help="executor backend key for --sweep-regions/--sweep-workloads "
             "batches (serial/process)",
    )
    scenario_parser.add_argument(
        "--max-workers", type=int, default=None,
        help="worker count for parallel sweep executors",
    )
    scenario_parser.add_argument(
        "--list-backends", action="store_true",
        help="print every registered backend and exit",
    )
    workload_parser = subparsers.add_parser(
        "workload", help="generate, describe, or convert workload traces"
    )
    workload_sub = workload_parser.add_subparsers(
        dest="workload_command", required=True
    )

    def _add_workload_source_flags(parser) -> None:
        parser.add_argument("--seed", type=int, default=None)
        parser.add_argument(
            "--days", type=float, default=28.0,
            help="generator horizon in days (ignored for trace paths)",
        )
        parser.add_argument("--gpus", type=int, default=64)
        parser.add_argument(
            "--region", default=None, help="home region stamped on the jobs"
        )
        parser.add_argument(
            "--workload-arg", action="append", default=None, metavar="K=V",
            help="option for the workload backend (repeatable)",
        )

    workload_generate = workload_sub.add_parser(
        "generate", help="draw a workload and write it as a JSON trace"
    )
    workload_generate.add_argument(
        "--backend", default="synthetic",
        help="workload backend key (synthetic/diurnal/bursty) or trace path",
    )
    workload_generate.add_argument(
        "--out", required=True, help="destination JSON trace path"
    )
    _add_workload_source_flags(workload_generate)
    workload_describe = workload_sub.add_parser(
        "describe", help="summary statistics of a backend draw or trace file"
    )
    workload_describe.add_argument(
        "source", help="workload backend key or trace path (.json/.swf)"
    )
    _add_workload_source_flags(workload_describe)
    workload_convert = workload_sub.add_parser(
        "convert", help="convert a trace (e.g. SWF) to the JSON schema"
    )
    workload_convert.add_argument("source", help="input trace (.json/.swf)")
    workload_convert.add_argument("dest", help="output JSON trace path")
    workload_convert.add_argument(
        "--workload-arg", action="append", default=None, metavar="K=V",
        help="trace reader option (repeatable), e.g. model=ResNet50, "
             "procs_per_gpu=8, or column_map=run_s:8,user_id:11",
    )
    sweep_parser = subparsers.add_parser(
        "sweep", help="plan/run declarative scenario grids with result caching"
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run", help="evaluate a sweep spec (YAML/TOML/JSON) through the cache"
    )
    sweep_run.add_argument("spec", help="sweep spec file (name/base/axes)")
    sweep_run.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default ~/.cache/repro-hpc or "
             "$REPRO_HPC_CACHE_DIR)",
    )
    sweep_run.add_argument(
        "--no-cache", action="store_true",
        help="recompute every unique cell (deduplication still applies)",
    )
    sweep_run.add_argument(
        "--executor", default=None,
        help="executor backend key (serial/process)",
    )
    sweep_run.add_argument(
        "--max-workers", type=int, default=None,
        help="worker count for parallel executors",
    )
    sweep_run.add_argument(
        "--retries", type=int, default=None,
        help="extra attempts per failing work unit (default 0: fail fast)",
    )
    sweep_run.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock deadline; timed-out attempts retry",
    )
    sweep_run.add_argument(
        "--faults", default=None, metavar="KEY",
        help="fault-injector backend key (none/random/scripted) for "
             "deterministic chaos runs",
    )
    sweep_run.add_argument(
        "--fault-arg", action="append", default=[], metavar="K=V",
        help="fault-injector factory option (repeatable), e.g. "
             "crash_at=1 or error_p=0.2,seed=7 spelled one per flag",
    )
    sweep_run.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append completed-unit fingerprints to this JSONL checkpoint",
    )
    sweep_run.add_argument(
        "--resume", default=None, metavar="PATH",
        help="skip units journaled done in PATH (new completions are "
             "journaled there too unless --journal points elsewhere)",
    )
    sweep_run.add_argument(
        "--max-rebuilds", type=int, default=None,
        help="process-pool rebuilds tolerated after worker crashes "
             "(default 3)",
    )
    sweep_run.add_argument(
        "--no-cache-writeback", action="store_true",
        help="serve cache hits but do not write fresh results back",
    )
    sweep_run.add_argument(
        "--delta", dest="delta", action="store_true", default=None,
        help="assemble results from cached section payloads, recomputing "
             "only stale sections (default when the cache is on)",
    )
    sweep_run.add_argument(
        "--no-delta", dest="delta", action="store_false",
        help="disable section-level delta evaluation",
    )
    sweep_plan = sweep_sub.add_parser(
        "plan", help="expand + deduplicate a spec without running anything"
    )
    sweep_plan.add_argument("spec", help="sweep spec file (name/base/axes)")
    sweep_plan.add_argument(
        "--cache-dir", default=None,
        help="section cache to predict per-cell reuse against "
             "(default ~/.cache/repro-hpc or $REPRO_HPC_CACHE_DIR)",
    )
    sweep_plan.add_argument(
        "--no-delta", action="store_true",
        help="skip the per-cell section-reuse prediction",
    )
    sweep_cache = sweep_sub.add_parser(
        "cache", help="list or clear the on-disk result cache"
    )
    sweep_cache.add_argument("--cache-dir", default=None)
    sweep_cache.add_argument(
        "--clear", action="store_true", help="delete every cached result"
    )
    models_parser = subparsers.add_parser(
        "models", help="training footprint cards for a benchmark suite"
    )
    models_parser.add_argument(
        "--suite", choices=("NLP", "Vision", "CANDLE"), default="NLP"
    )
    models_parser.add_argument(
        "--node", choices=("P100", "V100", "A100"), default="A100"
    )
    models_parser.add_argument("--region", default="ESO")
    models_parser.add_argument("--epochs", type=int, default=10)
    for name in (*ARTIFACT_IDS, "checks", "insights"):
        subparsers.add_parser(name, help=f"print {name}")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name in (
            *ARTIFACT_IDS, "checks", "insights", "report", "export", "audit",
            "advise", "models", "scenario", "workload", "sweep",
        ):
            print(name)
        return 0
    if args.command == "export":
        from repro.analysis.export import export_all

        written = export_all(args.directory, fmt=args.format)
        for path in written:
            print(f"wrote {path}")
        return 0
    if args.command == "audit":
        from repro.core.errors import ReproError
        from repro.session import Scenario

        try:
            scenario = (
                Scenario()
                .system(args.system)
                .region(args.region)
                .lifetime(years=args.years)
            )
            _apply_pue_flags(scenario, args.pue, args.pue_arg)
            result = scenario.run()
        except ReproError as error:
            print(f"audit error: {error}", file=sys.stderr)
            return 2
        for line in result.audit.summary_lines():
            print(line)
        return 0
    if args.command == "advise":
        from repro.core.errors import ReproError
        from repro.session import Scenario

        try:
            scenario = (
                Scenario()
                .upgrade(args.old, args.new, suite=args.suite)
                .usage(args.usage)
                .lifetime(years=args.lifetime)
            )
            if args.intensity is not None:
                scenario.constant_intensity(args.intensity)
            else:
                scenario.region(args.region)
            _apply_pue_flags(scenario, args.pue, args.pue_arg)
            decision = scenario.run().upgrade
        except ReproError as error:
            print(f"advise error: {error}", file=sys.stderr)
            return 2
        print(f"Upgrade {decision.old} -> {decision.new} ({decision.suite}):")
        print(f"  performance gain : {decision.performance_gain:.1%}")
        breakeven = (
            "never" if decision.breakeven_years is None
            else f"{decision.breakeven_years:.2f} years"
        )
        print(f"  carbon breakeven : {breakeven}")
        print(f"  savings at EOL   : {decision.savings_at_lifetime:+.1%}")
        print(f"  verdict          : {decision.verdict}")
        print(f"  rationale        : {decision.rationale}")
        return 0
    if args.command == "scenario":
        return _run_scenario_command(args)
    if args.command == "workload":
        return _run_workload_command(args)
    if args.command == "sweep":
        return _run_sweep_command(args)
    if args.command == "models":
        from repro.analysis.render import format_table
        from repro.intensity.generator import generate_trace
        from repro.workloads.energy import model_card_table
        from repro.workloads.suites import suite_models

        cards = model_card_table(
            [m.name for m in suite_models(args.suite)],
            args.node,
            generate_trace(args.region),
            epochs=args.epochs,
        )
        rows = [
            (
                c.model_name,
                f"{c.train_hours:.1f} h",
                f"{c.energy_kwh:.1f} kWh",
                f"{c.operational_g / 1000:.2f} kg",
                f"{c.amortized_embodied_g / 1000:.3f} kg",
                f"{c.kg_per_epoch:.3f} kg",
            )
            for c in cards
        ]
        print(
            f"Training footprint — {args.suite} suite on {args.node} "
            f"({args.region} grid, {args.epochs} epochs)"
        )
        print(
            format_table(
                ["Model", "Time", "Energy", "Operational", "Embodied (amort.)",
                 "kg/epoch"],
                rows,
            )
        )
        return 0
    if args.command == "report":
        from repro.session import resolve_backend

        content = resolve_backend("report", "experiments")()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(content)
            print(f"wrote {args.output}")
        else:
            print(content)
        return 0
    if args.command == "checks":
        _print_checks()
    elif args.command == "insights":
        _print_insights()
    else:
        from repro.analysis.artifacts import ARTIFACTS

        print(ARTIFACTS[args.command].section(), end="")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
