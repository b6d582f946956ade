"""Command-line interface for the Faro reproduction.

Ten subcommands cover the workflows a user reaches for first:

- ``run``      -- one policy on one paper scenario, or (with ``--spec``)
  a whole declarative experiment file; both run through ``repro.api.run``.
- ``sweep``    -- spec files on a sharded parallel worker pool
  (``repro.api.run_parallel``): bit-identical to ``run --spec``, resumable
  via a shard journal (``--resume``), failures isolated per shard.
- ``serve``    -- continuous online serving (``repro.api.serve``): the
  same experiment driven tick by tick through streaming trace cursors,
  sealed window reports as they close, crash-safe ``--journal`` +
  ``--resume``, and ``--realtime`` pacing for live demos.
- ``compare``  -- several policies on the same scenario side by side
  (the Fig. 10 / Table 3 workflow).
- ``policies`` -- list/inspect the policy registry (built-ins + plugins).
- ``backends`` -- list/inspect the simulation-backend registry
  (request / flow / hybrid fidelities + plugins) and their typed options.
- ``scenarios``-- list/inspect the registered scenario kinds, *lower*
  built-in kinds to the fully-composed ``custom`` form, or dry-run
  ``build`` a scenario (traces generated, nothing simulated).
- ``traces``   -- generate, describe, or export the synthetic Azure/Twitter
  workload mixes.
- ``forecast`` -- train a workload forecaster and report its rolling
  prediction quality (the §3.5 workflow).
- ``lint``     -- run the ``repro.analysis`` static passes (determinism,
  ordered iteration, frozen-spec mutation, registry contract, spawn
  safety, perf-gate drift) over the source tree; the pre-PR gate.

Installed as the ``repro-faro`` console script; also runnable via
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = ["build_parser", "main"]


# --------------------------------------------------------------------- run


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--size",
        default="SO",
        help="cluster size: RS (36), SO (32), HO (16), or an explicit replica count",
    )
    parser.add_argument("--jobs", type=int, default=10, help="number of inference jobs")
    parser.add_argument("--minutes", type=int, default=40, help="evaluation minutes")
    parser.add_argument("--trials", type=int, default=1, help="trial repetitions")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--simulator",
        default="flow",
        help="simulation backend: flow (fast analytic), request "
        "(request-level), hybrid, or any registered backend "
        "(see `repro-faro backends list`)",
    )


def _run_flags(args: argparse.Namespace, policies: list[str]):
    """Run the scenario flags and ``policies`` as one spec via ``api.run``.

    The flags become a ``paper`` scenario in an :class:`ExperimentSpec`, so
    bad flags fail like a bad spec file: ``api.run`` checks every policy
    name and builds the scenario before any trial starts.  Returns the
    scenario name and the stats per policy, or ``None`` after printing one
    ``error:`` line.
    """
    from repro import api

    try:
        size = int(args.size)
    except ValueError:
        size = args.size  # a cluster name; the paper scenario checks it
    try:
        spec = api.ExperimentSpec.compare(
            args.command,
            api.ScenarioSpec(
                kind="paper",
                params={
                    "size": size,
                    "num_jobs": args.jobs,
                    "duration_minutes": args.minutes,
                    "seed": args.seed,
                },
            ),
            policies,
            trials=args.trials,
            seed=args.seed,
            simulator=args.simulator,
        )
        report = api.run(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    [(scenario, stats)] = report.stats.items()
    return scenario, stats


def _progress_printer(verbose: bool):
    """Progress callback for spec-driven runs: one line per boundary event."""

    def on_event(event) -> None:
        if event.stage == "scenario-start":
            print(f"[scenario] {event.scenario}: {event.detail}")
        elif event.stage == "policy-end":
            print(f"  [policy] {event.policy}: {event.detail}")
        elif event.stage == "shard-end":
            print(f"  [shard] {event.detail}")
        elif event.stage == "shard-failed":
            print(f"  [shard] FAILED {event.detail}")
        elif verbose and event.stage == "trial-end":
            print(f"    [trial {event.trial + 1}/{event.trials}] {event.detail}")

    return on_event


def _cmd_run_spec(args: argparse.Namespace) -> int:
    import json

    from repro import api

    try:
        spec = api.ExperimentSpec.from_file(args.spec)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: cannot load spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        report = api.run(spec, progress=_progress_printer(args.verbose))
    except ValueError as exc:
        # Unknown policies/options/scenario parameters are caught by the
        # engine's pre-run validation before any simulation starts.
        print(f"error: invalid spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    print()
    print(report.describe())
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"\nwrote report JSON to {args.report}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.plotting import ascii_timeline
    from repro.experiments.report import format_table

    if args.spec:
        return _cmd_run_spec(args)
    ran = _run_flags(args, [args.policy])
    if ran is None:
        return 2
    scenario, per_policy = ran
    stats = per_policy[args.policy]
    rows = [
        ["lost cluster utility", f"{stats.lost_utility_mean:.3f}", f"{stats.lost_utility_sd:.3f}"],
        [
            "lost effective utility",
            f"{stats.lost_effective_mean:.3f}",
            f"{stats.lost_effective_sd:.3f}",
        ],
        [
            "SLO violation rate",
            f"{stats.violation_rate_mean:.4f}",
            f"{stats.violation_rate_sd:.4f}",
        ],
    ]
    print(
        format_table(
            ["metric", "mean", "sd"],
            rows,
            title=f"{args.policy} on {scenario} ({args.trials} trial(s))",
        )
    )
    if args.chart:
        result = stats.results[0]
        print()
        print(
            ascii_timeline(
                {"cluster utility": result.cluster_utility_timeline()},
                title="Cluster utility over time (trial 1)",
            )
        )
    return 0


# ------------------------------------------------------------------- sweep


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run spec files as sharded parallel sweeps (``repro.api.run_parallel``).

    Exit codes: 0 = all shards completed, 1 = some shards failed (their
    results are missing from the report; rerun with ``--resume`` to retry
    just those), 2 = bad invocation/spec.
    """
    import json

    from repro import api
    from repro.experiments.report import format_table

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if len(set(args.spec)) != len(args.spec):
        print("error: the same spec file is listed more than once", file=sys.stderr)
        return 2
    # Load every spec up front: a typo in the last file must fail in
    # milliseconds, not after the first sweeps burned hours.
    specs = []
    for spec_path in args.spec:
        try:
            specs.append(api.ExperimentSpec.from_file(spec_path))
        except (OSError, ValueError, RuntimeError) as exc:
            print(f"error: cannot load spec {spec_path}: {exc}", file=sys.stderr)
            return 2
    reports: dict[str, api.RunReport] = {}
    any_failures = False
    spent_journals: list[Path] = []

    def cleanup_spent_journals() -> None:
        # Default journals are crash-recovery artifacts; once their sweep
        # completed cleanly the checkpoints are spent, and removing them
        # keeps the command idempotent -- including when a *later* spec
        # aborts the invocation.  With failed shards anywhere, everything
        # is kept so the advised --resume rerun skips finished work.  An
        # explicit --journal is always kept for the user.
        if not any_failures:
            import shutil

            for spent in spent_journals:
                shutil.rmtree(spent, ignore_errors=True)

    if args.cache_write_back and not args.cache:
        print("error: --cache-write-back requires --cache", file=sys.stderr)
        return 2
    for index, (spec_path, spec) in enumerate(zip(args.spec, specs)):
        # Full-name suffix (exp.json.journal, exp.yaml.journal) so specs
        # sharing a stem never share a journal.
        journal = (
            args.journal
            if args.journal
            else spec_path.with_name(spec_path.name + ".journal")
        )
        if len(args.spec) > 1 and args.journal:
            # Positional prefix keeps same-named spec files in different
            # directories from sharing (and corrupting) one journal.
            journal = args.journal / f"{index:02d}-{spec_path.stem}"
        print(f"== sweep {spec.name!r} ({spec_path}) -> journal {journal} ==")
        try:
            report = api.run_parallel(
                spec,
                workers=args.workers,
                progress=_progress_printer(args.verbose),
                journal=journal,
                resume=args.resume,
                cache_path=args.cache,
                cache_write_back=args.cache_write_back,
                trials_per_shard=args.trials_per_shard,
            )
        except ValueError as exc:
            print(f"error: invalid sweep of {spec_path}: {exc}", file=sys.stderr)
            cleanup_spent_journals()
            return 2
        reports[str(spec_path)] = report
        print()
        print(report.describe())
        info = report.sweep
        print(
            format_table(
                ["workers", "shards", "run", "resumed", "failed"],
                [info.as_row()],
                title="Sweep execution",
            )
        )
        if report.failures:
            any_failures = True
            rows = [
                [f.shard_id, f.scenario or "-", f.policy or "-", f.error]
                for f in report.failures
            ]
            print()
            print(
                format_table(
                    ["shard", "scenario", "policy", "error"],
                    rows,
                    title=f"FAILED shards ({len(report.failures)})",
                )
            )
            print("rerun with --resume to retry only the failed shards")
        elif not args.journal:
            spent_journals.append(journal)
    cleanup_spent_journals()
    if args.report:
        if len(reports) == 1:
            payload = next(iter(reports.values())).to_dict()
        else:
            payload = {name: report.to_dict() for name, report in reports.items()}
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote report JSON to {args.report}")
    return 1 if any_failures else 0


# ------------------------------------------------------------------- serve


def _cmd_serve(args: argparse.Namespace) -> int:
    """Drive a spec through the continuous serving loop (``repro.api.serve``).

    Exit codes: 0 = served to completion, 1 = ``--check`` mismatch against
    the batch engine, 2 = bad invocation/spec.
    """
    import dataclasses
    import json

    from repro import api
    from repro.serve import JsonlSink, ServeSpec, TableSink, serve

    if args.resume and not args.journal:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    try:
        spec = ServeSpec.from_file(args.spec)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: cannot load spec {args.spec}: {exc}", file=sys.stderr)
        return 2
    overrides: dict = {}
    if args.window is not None:
        overrides["window_minutes"] = args.window
    if args.realtime or args.speedup is not None:
        overrides["realtime"] = True
    if args.speedup is not None:
        overrides["realtime_speedup"] = args.speedup
    if overrides:
        try:
            spec = ServeSpec(
                experiment=spec.experiment,
                serve=dataclasses.replace(spec.serve, **overrides),
            )
        except ValueError as exc:
            print(f"error: invalid serve options: {exc}", file=sys.stderr)
            return 2
    sinks = []
    if not args.quiet:
        sinks.append(TableSink())
    if args.jsonl:
        sinks.append(JsonlSink(args.jsonl))
    try:
        result = serve(
            spec,
            sinks=sinks,
            progress=_progress_printer(args.verbose),
            journal=args.journal,
            resume=args.resume,
        )
    except ValueError as exc:
        print(f"error: invalid serve of {args.spec}: {exc}", file=sys.stderr)
        return 2
    print()
    print(result.describe())
    if args.report:
        Path(args.report).write_text(
            json.dumps(result.report.to_dict(), indent=2) + "\n"
        )
        print(f"\nwrote report JSON to {args.report}")
    if args.check:
        if spec.serve.stream is not None:
            print(
                "error: --check needs a finite replay (remove the 'stream' "
                "block); a live stream has no batch equivalent",
                file=sys.stderr,
            )
            return 2
        batch = api.run(spec.experiment)
        served_json = json.dumps(result.report.to_dict(), sort_keys=True)
        batch_json = json.dumps(batch.to_dict(), sort_keys=True)
        if served_json != batch_json:
            print(
                "CHECK FAILED: serve report differs from batch api.run",
                file=sys.stderr,
            )
            return 1
        print("check passed: serve report is byte-identical to batch api.run")
    return 0


# ----------------------------------------------------------------- compare


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.plotting import ascii_bars
    from repro.experiments.report import format_table

    # A repeated name keeps showing one row: an ExperimentSpec rejects
    # repeated labels.
    policies = list(dict.fromkeys(p.strip() for p in args.policies.split(",") if p.strip()))
    if not policies:
        print("error: --policies must name at least one policy", file=sys.stderr)
        return 2
    ran = _run_flags(args, policies)
    if ran is None:
        return 2
    scenario, stats = ran
    ordered = sorted(stats.values(), key=lambda s: s.lost_utility_mean)
    rows = [
        [
            s.policy,
            f"{s.lost_utility_mean:.3f}",
            f"{s.lost_utility_sd:.3f}",
            f"{s.violation_rate_mean:.4f}",
        ]
        for s in ordered
    ]
    print(
        format_table(
            ["policy", "lost utility", "sd", "violation rate"],
            rows,
            title=f"Policy comparison on {scenario}",
        )
    )
    if args.chart:
        print()
        print(
            ascii_bars(
                [s.policy for s in ordered],
                [s.lost_utility_mean for s in ordered],
                title="Lost cluster utility (lower is better)",
            )
        )
    return 0


# -------------------------------------------------- policies / scenarios


def _cmd_catalog(
    args: argparse.Namespace,
    registry,
    noun: str,
    plural: str,
    column: str,
    options_key: str,
) -> int:
    """``list``/``show`` over one registry, its entries' ``column`` field
    shown beside each name (``--kind`` filters on it where given)."""
    from repro.experiments.report import format_table

    if args.action == "list":
        value = getattr(args, "kind", None) or None
        infos = registry.infos(**{column: value})
        if not infos:
            print(f"no {plural} registered for {column} {value!r}", file=sys.stderr)
            return 2
        rows = [
            [
                info.name,
                getattr(info, column) or "-",
                ",".join(info.aliases) or "-",
                info.description,
            ]
            for info in infos
        ]
        print(
            format_table(
                [noun, column, "aliases", "description"],
                rows,
                title=f"Registered {plural} ({len(infos)})",
            )
        )
        return 0
    # action == "show"
    if not args.name:
        print(f"error: show requires a {noun} name", file=sys.stderr)
        return 2
    try:
        info = registry.get(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{info.name} ({column}={getattr(info, column) or '-'})")
    print(f"  {info.description}")
    if info.aliases:
        print(f"  aliases: {', '.join(info.aliases)}")
    options = info.option_fields()
    if options:
        print(f"  options (spec-file {options_key!r} keys):")
        for field_name, default in options:
            print(f"    {field_name} = {default!r}")
    else:
        print("  options: none")
    return 0


def _cmd_policies(args: argparse.Namespace) -> int:
    from repro import api

    return _cmd_catalog(args, api.get_registry(), "policy", "policies", "kind", "options")


def _cmd_backends(args: argparse.Namespace) -> int:
    from repro.sim import get_backend_registry

    return _cmd_catalog(
        args,
        get_backend_registry(),
        "backend",
        "simulation backends",
        "fidelity",
        "backend_options",
    )


def _scenario_cli_params(args: argparse.Namespace) -> dict:
    """Parse ``--params`` (a JSON object) for scenarios lower/build."""
    import json

    if not args.params:
        return {}
    params = json.loads(args.params)
    if not isinstance(params, dict):
        raise ValueError("--params must be a JSON object")
    return params


def _cmd_scenarios_lower(args: argparse.Namespace) -> int:
    import json

    from repro import api

    if args.spec:
        spec = api.ExperimentSpec.from_file(args.spec)
        payload = spec.lower().to_dict()
    elif args.name:
        scenario_spec = api.ScenarioSpec(
            kind=args.name, params=_scenario_cli_params(args)
        )
        payload = scenario_spec.lower().to_dict()
    else:
        print("error: lower requires a scenario kind or --spec FILE", file=sys.stderr)
        return 2
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote lowered spec to {args.out}")
    else:
        print(text, end="")
    return 0


def _slug(name: str) -> str:
    """Filesystem-safe scenario label for export file names."""
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in name)


def _export_scenario_csv(scenario, directory: Path) -> list[Path]:
    """Dump a composed scenario (job table + traces) as CSV files."""
    import csv

    directory.mkdir(parents=True, exist_ok=True)
    slug = _slug(scenario.name)
    written: list[Path] = []

    jobs_path = directory / f"{slug}_jobs.csv"
    with jobs_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "job",
                "model",
                "slo_target_s",
                "slo_percentile",
                "priority",
                "min_replicas",
                "proc_time_s",
                "eval_minutes",
                "train_minutes",
            ]
        )
        for job in scenario.jobs:
            writer.writerow(
                [
                    job.name,
                    job.model.name,
                    job.slo.target,
                    job.slo.percentile,
                    job.priority,
                    job.min_replicas,
                    job.model.proc_time,
                    len(scenario.eval_traces[job.name]),
                    len(scenario.train_traces[job.name]),
                ]
            )
    written.append(jobs_path)

    for split, traces in (
        ("eval", scenario.eval_traces),
        ("train", scenario.train_traces),
    ):
        names = [job.name for job in scenario.jobs]
        length = max((len(traces[name]) for name in names), default=0)
        trace_path = directory / f"{slug}_{split}_traces.csv"
        with trace_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["minute"] + names)
            for minute in range(length):
                writer.writerow(
                    [minute]
                    + [
                        float(traces[name][minute])
                        if minute < len(traces[name])
                        else ""
                        for name in names
                    ]
                )
        written.append(trace_path)

    if scenario.devices is not None:
        devices_path = directory / f"{slug}_devices.csv"
        with devices_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["device_class", "count", "speedup", "cpus", "mem", "accels"]
                + [f"speedup[{model}]" for model in sorted(scenario.devices.speedups)]
            )
            for cls in scenario.devices.classes:
                writer.writerow(
                    [cls.name, cls.count, cls.speedup, cls.cpus, cls.mem, cls.accels]
                    + [
                        scenario.devices.speedup_for(model, cls.name)
                        for model in sorted(scenario.devices.speedups)
                    ]
                )
        written.append(devices_path)
    return written


def _cmd_scenarios_build(args: argparse.Namespace) -> int:
    from repro import api
    from repro.experiments.report import format_table
    from repro.traces.generators import trace_search_path

    search_dir = None
    if args.spec:
        spec = api.ExperimentSpec.from_file(args.spec)
        scenario_specs = list(spec.scenarios)
        search_dir = spec.spec_dir
    elif args.name:
        scenario_specs = [
            api.ScenarioSpec(kind=args.name, params=_scenario_cli_params(args))
        ]
    else:
        print("error: build requires a scenario kind or --spec FILE", file=sys.stderr)
        return 2
    for scenario_spec in scenario_specs:
        with trace_search_path(search_dir):
            scenario = scenario_spec.build()
        print(
            f"{scenario.name}: {len(scenario.jobs)} job(s), "
            f"{scenario.total_replicas} replicas, "
            f"{scenario.duration_minutes} evaluation minute(s)"
        )
        rows = [
            [
                job.name,
                job.model.name,
                f"{job.slo.target * 1000:.0f}ms p{job.slo.percentile:.0f}",
                f"{float(scenario.eval_traces[job.name].mean()):.1f}",
                f"{float(scenario.eval_traces[job.name].max()):.1f}",
                len(scenario.train_traces[job.name]),
            ]
            for job in scenario.jobs
        ]
        print(
            format_table(
                ["job", "model", "SLO", "eval mean rpm", "eval peak rpm", "train min"],
                rows,
                title=f"Scenario {scenario.name!r}",
            )
        )
        if scenario.devices is not None:
            device_rows = [
                [
                    cls.name,
                    cls.count,
                    f"{cls.speedup:g}x",
                    f"{cls.cpus:g}",
                    f"{cls.mem:g}",
                    f"{cls.accels:g}",
                ]
                for cls in scenario.devices.classes
            ]
            print(
                format_table(
                    ["device class", "count", "speedup", "cpus", "mem", "accels"],
                    device_rows,
                    title="Device classes",
                )
            )
        if args.export:
            written = _export_scenario_csv(scenario, args.export)
            for path in written:
                print(f"wrote {path}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro import api
    from repro.experiments.report import format_table

    registry = api.get_scenario_registry()
    if args.action == "lower":
        try:
            return _cmd_scenarios_lower(args)
        except (OSError, ValueError, TypeError, RuntimeError) as exc:
            print(f"error: cannot lower: {exc}", file=sys.stderr)
            return 2
    if args.action == "build":
        try:
            return _cmd_scenarios_build(args)
        except (OSError, ValueError, TypeError, RuntimeError) as exc:
            print(f"error: cannot build: {exc}", file=sys.stderr)
            return 2
    if args.action == "show":
        if not args.name:
            print("error: show requires a scenario kind", file=sys.stderr)
            return 2
        try:
            info = registry.get(args.name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"{info.name}")
        print(f"  {info.description}")
        print(f"  lowers to 'custom': {'yes' if info.lower is not None else 'no'}")
        defaults = info.param_defaults()
        names = info.param_names()
        if names:
            print("  parameters (spec-file 'params' keys):")
            for name in names:
                if name in defaults:
                    print(f"    {name} = {defaults[name]!r}")
                else:
                    print(f"    {name} (required)")
        else:
            print("  parameters: none")
        return 0
    # action == "list"
    rows = []
    for info in registry:
        defaults = info.param_defaults()
        params = ", ".join(
            f"{name}={defaults[name]!r}" if name in defaults else name
            for name in info.param_names()
        )
        rows.append([info.name, info.description, params])
    print(
        format_table(
            ["kind", "description", "parameters"],
            rows,
            title=f"Registered scenario kinds ({len(rows)})",
        )
    )
    return 0


# ------------------------------------------------------------------ traces


def _cmd_traces(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.traces import (
        describe_trace,
        load_job_mix_json,
        save_job_mix_json,
        save_trace_csv,
        standard_job_mix,
    )

    if args.mix:
        jobs, _ = load_job_mix_json(args.mix)
    else:
        jobs = standard_job_mix(num_jobs=args.jobs, days=args.days, seed=args.seed)
    if args.action == "generate":
        if not args.out:
            print("error: generate requires --out", file=sys.stderr)
            return 2
        save_job_mix_json(args.out, jobs, metadata={"seed": args.seed, "days": args.days})
        print(f"wrote {len(jobs)} traces to {args.out}")
        return 0
    if args.action == "describe":
        rows = [[job.name] + describe_trace(job.rates_per_min).as_row() for job in jobs]
        print(
            format_table(
                ["job", "minutes", "mean", "sd", "peak/mean", "burstiness", "lag1", "diurnal"],
                rows,
                title="Trace statistics (requests/minute)",
            )
        )
        return 0
    # action == "export"
    if not args.job or not args.out:
        print("error: export requires --job and --out", file=sys.stderr)
        return 2
    by_name = {job.name: job for job in jobs}
    if args.job not in by_name:
        print(
            f"error: unknown job {args.job!r}; available: {sorted(by_name)}",
            file=sys.stderr,
        )
        return 2
    save_trace_csv(args.out, by_name[args.job].rates_per_min)
    print(f"wrote {by_name[args.job].minutes} minutes to {args.out}")
    return 0


# ---------------------------------------------------------------- forecast


def _make_forecaster(name: str, epochs: int):
    from repro.forecast.baselines import (
        ARForecaster,
        ARMAForecaster,
        EWMAForecaster,
        NaiveForecaster,
        SeasonalNaiveForecaster,
    )
    from repro.forecast.lstm import DeepARLiteForecaster, LSTMConfig, LSTMForecaster
    from repro.forecast.nhits import NHiTSConfig, NHiTSForecaster
    from repro.forecast.prophet_lite import ProphetLiteForecaster

    name = name.lower()
    if name == "nhits":
        return NHiTSForecaster(NHiTSConfig(epochs=epochs))
    if name == "prophet":
        return ProphetLiteForecaster()
    if name == "lstm":
        return LSTMForecaster(LSTMConfig(epochs=epochs))
    if name == "deepar":
        return DeepARLiteForecaster(LSTMConfig(epochs=epochs))
    if name == "ar":
        return ARForecaster()
    if name == "arma":
        return ARMAForecaster()
    if name == "ewma":
        return EWMAForecaster()
    if name == "naive":
        return NaiveForecaster()
    if name == "seasonal":
        return SeasonalNaiveForecaster(period=1440)
    raise ValueError(f"unknown forecaster {name!r}")


def _cmd_forecast(args: argparse.Namespace) -> int:
    from repro.forecast.metrics import coverage, rmse
    from repro.traces import standard_job_mix

    try:
        forecaster = _make_forecaster(args.model, args.epochs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    job = standard_job_mix(num_jobs=1, days=args.days, seed=args.seed)[0]
    train, evaluation = job.train, job.eval
    forecaster.fit(train)
    input_size = getattr(getattr(forecaster, "config", None), "input_size", 16)
    horizon = args.horizon
    predictions, truths, covered = [], [], []
    rng = np.random.default_rng(args.seed)
    position = input_size
    while position + horizon <= evaluation.size:
        history = evaluation[position - input_size : position]
        truth = evaluation[position : position + horizon]
        predictions.append(forecaster.predict(history, horizon))
        truths.append(truth)
        samples = forecaster.sample_paths(history, horizon, 50, rng=rng)
        covered.append(coverage(samples, truth))
        position += horizon
    prediction = np.concatenate(predictions)
    truth = np.concatenate(truths)
    print(f"model={args.model} train_minutes={train.size} eval_minutes={truth.size}")
    print(f"rolling RMSE           : {rmse(prediction, truth):.2f} req/min")
    print(f"10-90% sample coverage : {float(np.mean(covered)):.2%}")
    return 0


# -------------------------------------------------------------------- lint


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import (
        Baseline,
        find_project_root,
        get_pass_registry,
        run_analysis,
    )

    registry = get_pass_registry()
    if args.list:
        width = max((len(info.name) for info in registry), default=0)
        for info in registry:
            print(f"{info.name:<{width}}  [{info.scope:<7}] {info.description}")
        return 0

    paths = list(args.paths)
    root = find_project_root(paths or [Path.cwd()])
    if not paths:
        paths = [root / "src" if root and (root / "src").is_dir() else Path("src")]

    select = None
    if args.select:
        select = [name.strip() for name in args.select.split(",") if name.strip()]
        unknown = [name for name in select if name not in registry]
        if unknown:
            print(f"error: unknown pass(es): {', '.join(unknown)}", file=sys.stderr)
            return 2

    baseline_path = args.baseline
    if baseline_path is None and root is not None:
        candidate = root / "tools" / "lint_baseline.json"
        if candidate.exists():
            baseline_path = candidate
    baseline = None
    if (
        baseline_path is not None
        and Path(baseline_path).exists()
        and not args.write_baseline
    ):
        try:
            baseline = Baseline.load(Path(baseline_path))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    try:
        report = run_analysis(
            paths,
            root=root,
            select=select,
            baseline=baseline,
            changed_base=args.base if args.changed else None,
        )
    except (FileNotFoundError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        target = Path(baseline_path) if baseline_path else Path("tools/lint_baseline.json")
        Baseline.from_findings(
            report.findings,
            justification=(
                "grandfathered by --write-baseline; replace with a real reason"
            ),
        ).save(target)
        print(f"wrote {len(report.findings)} baseline entr(y|ies) to {target}")
        return 0

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_text())
    return 0 if report.ok else 1


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-faro",
        description="Faro (EuroSys '25) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one policy on a paper scenario, or a whole spec file"
    )
    run.add_argument("--policy", default="faro-fairsum", help="policy name (see compare)")
    _add_scenario_args(run)
    run.add_argument("--chart", action="store_true", help="print a utility timeline chart")
    run.add_argument(
        "--spec",
        type=Path,
        help="experiment spec file (JSON/YAML); runs it via repro.api.run "
        "and ignores the scenario/policy flags",
    )
    run.add_argument(
        "--report", type=Path, help="with --spec: write the report JSON here"
    )
    run.add_argument(
        "--verbose", action="store_true", help="with --spec: print per-trial progress"
    )
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser(
        "sweep",
        help="run spec files as sharded parallel sweeps (resumable)",
    )
    sweep.add_argument(
        "--spec",
        type=Path,
        nargs="+",
        required=True,
        help="experiment spec file(s) (JSON/YAML)",
    )
    sweep.add_argument(
        "--workers", type=int, default=4, help="worker processes (default 4)"
    )
    sweep.add_argument(
        "--journal",
        type=Path,
        help="shard checkpoint directory (default: <spec>.journal)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="skip shards already completed in the journal",
    )
    sweep.add_argument(
        "--cache",
        type=Path,
        help="persisted UtilityTableCache file to warm each worker from",
    )
    sweep.add_argument(
        "--trials-per-shard",
        type=int,
        help="override shard granularity (default: auto from --workers)",
    )
    sweep.add_argument(
        "--cache-write-back",
        action="store_true",
        help="with --cache: merge each shard's learned utility tables back "
        "into the cache file after it finishes",
    )
    sweep.add_argument("--report", type=Path, help="write the report JSON here")
    sweep.add_argument(
        "--verbose", action="store_true", help="print per-trial progress"
    )
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="serve a spec continuously with windowed streaming reports",
    )
    serve.add_argument(
        "--spec",
        type=Path,
        required=True,
        help="experiment spec file (JSON/YAML), optionally with a 'serve' block",
    )
    serve.add_argument(
        "--window",
        type=int,
        help="override serve.window_minutes (report window length)",
    )
    serve.add_argument(
        "--realtime",
        action="store_true",
        help="pace the loop against the wall clock instead of running "
        "accelerated",
    )
    serve.add_argument(
        "--speedup",
        type=float,
        help="wall-clock speedup factor (implies --realtime; 60 = one "
        "simulated minute per wall second)",
    )
    serve.add_argument(
        "--journal",
        type=Path,
        help="checkpoint directory for crash-safe serving",
    )
    serve.add_argument(
        "--resume",
        action="store_true",
        help="resume from --journal, reproducing the uninterrupted digest",
    )
    serve.add_argument(
        "--jsonl",
        type=Path,
        help="append each sealed window report to this JSONL file",
    )
    serve.add_argument(
        "--report", type=Path, help="write the merged report JSON here"
    )
    serve.add_argument(
        "--check",
        action="store_true",
        help="after serving, rerun through batch api.run and fail unless "
        "the reports are byte-identical",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the live per-window table",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="print per-trial progress"
    )
    serve.set_defaults(func=_cmd_serve)

    compare = sub.add_parser("compare", help="compare policies on one scenario")
    compare.add_argument(
        "--policies",
        default="fairshare,oneshot,aiad,mark,faro-fairsum",
        help="comma-separated policy names (faro-<objective> for Faro variants)",
    )
    _add_scenario_args(compare)
    compare.add_argument("--chart", action="store_true", help="print a bar chart")
    compare.set_defaults(func=_cmd_compare)

    policies = sub.add_parser("policies", help="list / inspect registered policies")
    policies.add_argument("action", choices=("list", "show"))
    policies.add_argument("name", nargs="?", help="policy name (show)")
    policies.add_argument(
        "--kind", help="filter by kind (faro/baseline/controller/hetero/plugin)"
    )
    policies.set_defaults(func=_cmd_policies)

    backends = sub.add_parser(
        "backends", help="list / inspect registered simulation backends"
    )
    backends.add_argument("action", choices=("list", "show"))
    backends.add_argument("name", nargs="?", help="backend name (show)")
    backends.set_defaults(func=_cmd_backends)

    scenarios = sub.add_parser(
        "scenarios",
        help="list / inspect / lower / build registered scenario kinds",
    )
    scenarios.add_argument("action", choices=("list", "show", "lower", "build"))
    scenarios.add_argument("name", nargs="?", help="scenario kind (show/lower/build)")
    scenarios.add_argument(
        "--params",
        help="factory parameters as a JSON object (lower/build), "
        'e.g. \'{"size": "SO", "num_jobs": 4}\'',
    )
    scenarios.add_argument(
        "--spec",
        type=Path,
        help="experiment spec file: lower/build every scenario in it "
        "instead of naming a kind",
    )
    scenarios.add_argument(
        "--out", type=Path, help="with lower: write the lowered spec JSON here"
    )
    scenarios.add_argument(
        "--export",
        type=Path,
        help="with build: dump composed traces, job tables, and device "
        "classes as CSV files into this directory",
    )
    scenarios.set_defaults(func=_cmd_scenarios)

    traces = sub.add_parser("traces", help="generate / describe / export traces")
    traces.add_argument("action", choices=("generate", "describe", "export"))
    traces.add_argument("--jobs", type=int, default=10, help="jobs to generate")
    traces.add_argument("--days", type=int, default=2, help="days per trace")
    traces.add_argument("--seed", type=int, default=0)
    traces.add_argument("--mix", type=Path, help="existing job-mix JSON to read")
    traces.add_argument("--job", help="job name (export)")
    traces.add_argument("--out", type=Path, help="output path")
    traces.set_defaults(func=_cmd_traces)

    forecast = sub.add_parser("forecast", help="train + evaluate a workload forecaster")
    forecast.add_argument(
        "--model",
        default="nhits",
        help="nhits | prophet | lstm | deepar | ar | arma | ewma | naive | seasonal",
    )
    forecast.add_argument("--days", type=int, default=3, help="days of synthetic trace")
    forecast.add_argument("--epochs", type=int, default=4, help="training epochs (NN models)")
    forecast.add_argument("--horizon", type=int, default=8, help="prediction horizon (minutes)")
    forecast.add_argument("--seed", type=int, default=0)
    forecast.set_defaults(func=_cmd_forecast)

    lint = sub.add_parser(
        "lint",
        help="statically check determinism + registry contracts (repro.analysis)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repo's src/)",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    lint.add_argument(
        "--baseline",
        type=Path,
        help="grandfather-list JSON (default: tools/lint_baseline.json when present)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit",
    )
    lint.add_argument(
        "--changed",
        action="store_true",
        help="lint only files changed since the merge-base with --base",
    )
    lint.add_argument(
        "--base", default="main", help="git ref for --changed (default: main)"
    )
    lint.add_argument(
        "--select", help="comma-separated pass ids to run (default: all)"
    )
    lint.add_argument(
        "--list", action="store_true", help="list registered passes and exit"
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
