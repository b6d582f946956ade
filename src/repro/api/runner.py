"""The unified run engine: one code path from spec to results.

:func:`run` drives the whole pipeline -- scenario construction (trace
generation), policy construction through the registry (including predictor
training), and multi-trial simulation -- and returns a :class:`RunReport`.
Every trial runs through :func:`execute_trials`: :func:`run_policy` feeds it
a registered policy on a built scenario, and callers with a hand-written
``(scenario, seed) -> policy`` factory (the Fig. 16 ablation) call it
directly.  Equal settings give bit-identical results on every route.

Telemetry: pass ``progress=callback`` to receive :class:`RunEvent` values
at scenario/policy/trial boundaries (the CLI uses this for live output).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from repro.api.registry import get_registry
from repro.api.spec import ExperimentSpec, PolicySpec
from repro.cluster.kubernetes import ResourceQuota
from repro.experiments.scenarios import Scenario
from repro.sim.backends import get_backend_registry
from repro.sim.recorder import SimulationResult
from repro.sim.simulation import SimulationConfig

__all__ = [
    "RunEvent",
    "ProgressCallback",
    "TrialStats",
    "ShardFailure",
    "RunReport",
    "derive_trial_seed",
    "make_policy_factory",
    "build_trial_simulation",
    "execute_trials",
    "run_policy",
    "start_scenario",
    "run",
]

#: Sentinel for "caller did not override" (None is a meaningful value for
#: ``duration_minutes``: run the whole trace).
_UNSET = object()


def derive_trial_seed(base_seed: int, trial_index: int) -> int:
    """Seed for global trial ``trial_index`` of a run with ``base_seed``.

    This is the single seed-derivation rule for the whole engine: a trial's
    seed depends only on the experiment's base seed and the trial's *global*
    index -- never on which policy or scenario it belongs to, how trials are
    sharded across workers, or how many workers run.  That invariance is
    what makes the sharded executor (:mod:`repro.api.parallel`)
    bit-identical to the serial loop: a shard covering trials ``[a, b)``
    derives exactly the seeds the serial loop would.

    The affine form ``base + 1000 * trial`` is the scheme the serial engine
    has always used (pinned by ``tests/test_api_run.py``), so it must not
    change; treat it like a file-format constant.
    """
    return int(base_seed) + 1000 * int(trial_index)


@dataclass(frozen=True)
class RunEvent:
    """One progress/telemetry event emitted by the run engine.

    ``stage`` is one of ``scenario-start``, ``policy-start``,
    ``trial-start``, ``trial-end``, ``policy-end``, ``scenario-end``,
    ``run-end``, plus -- from the sharded executor
    (:mod:`repro.api.parallel`) -- ``shard-end`` and ``shard-failed``.
    Sharded runs emit trial and shard events (with *global* trial indices)
    but no scenario/policy boundary events, since cells run interleaved
    across workers.
    """

    stage: str
    scenario: str | None = None
    policy: str | None = None
    trial: int | None = None
    trials: int | None = None
    detail: str = ""


ProgressCallback = Callable[[RunEvent], None]


def _emit(progress: ProgressCallback | None, event: RunEvent) -> None:
    if progress is not None:
        progress(event)


@dataclass
class TrialStats:
    """Mean/SD of the headline metrics over trials for one policy.

    ``trial_indices`` records which *global* trial indices ``results``
    covers, in order.  The serial engine always produces the full
    ``[0, trials)`` range; partial stats coming out of a sharded run carry
    their sub-range so :meth:`merged` can reassemble the serial ordering.
    ``None`` means "indices unknown" (summary-only stats cannot merge).
    """

    policy: str
    lost_utility_mean: float
    lost_utility_sd: float
    lost_effective_mean: float
    lost_effective_sd: float
    violation_rate_mean: float
    violation_rate_sd: float
    results: list[SimulationResult] = field(default_factory=list)
    trial_indices: list[int] | None = None

    @classmethod
    def from_results(
        cls,
        policy: str,
        results: list[SimulationResult],
        trial_indices: list[int] | None = None,
    ) -> "TrialStats":
        lost = np.array([r.avg_lost_cluster_utility for r in results])
        lost_eff = np.array([r.avg_lost_effective_utility for r in results])
        viol = np.array([r.cluster_slo_violation_rate for r in results])
        return cls(
            policy=policy,
            lost_utility_mean=float(lost.mean()),
            lost_utility_sd=float(lost.std()),
            lost_effective_mean=float(lost_eff.mean()),
            lost_effective_sd=float(lost_eff.std()),
            violation_rate_mean=float(viol.mean()),
            violation_rate_sd=float(viol.std()),
            results=results,
            trial_indices=trial_indices,
        )

    @classmethod
    def merged(cls, parts: "list[TrialStats]") -> "TrialStats":
        """Combine partial per-trial stats into one, in global trial order.

        Every part must carry ``trial_indices`` (one per result) and the
        indices must not overlap.  The summary statistics are recomputed
        from the union of results sorted by trial index -- exactly the
        array the serial loop would have built -- so a merge of any
        partition of a cell's trials is bit-identical to running the cell
        serially.  The operation is associative and order-invariant.
        """
        if not parts:
            raise ValueError("cannot merge zero TrialStats")
        policies = {part.policy for part in parts}
        if len(policies) != 1:
            raise ValueError(f"cannot merge stats of different policies: {sorted(policies)}")
        pairs: list[tuple[int, SimulationResult]] = []
        for part in parts:
            if part.trial_indices is None:
                raise ValueError(
                    "cannot merge TrialStats without trial_indices "
                    "(summary-only stats)"
                )
            if len(part.trial_indices) != len(part.results):
                raise ValueError(
                    f"trial_indices/results length mismatch: "
                    f"{len(part.trial_indices)} != {len(part.results)}"
                )
            pairs.extend(zip(part.trial_indices, part.results))
        indices = [index for index, _ in pairs]
        if len(set(indices)) != len(indices):
            raise ValueError(f"overlapping trial indices in merge: {sorted(indices)}")
        pairs.sort(key=lambda pair: pair[0])
        return cls.from_results(
            parts[0].policy,
            [result for _, result in pairs],
            trial_indices=[index for index, _ in pairs],
        )

    def to_summary_dict(self) -> dict[str, float]:
        """Headline metrics only (JSON-safe; drops the raw results)."""
        return {
            "policy": self.policy,
            "lost_utility_mean": self.lost_utility_mean,
            "lost_utility_sd": self.lost_utility_sd,
            "lost_effective_mean": self.lost_effective_mean,
            "lost_effective_sd": self.lost_effective_sd,
            "violation_rate_mean": self.violation_rate_mean,
            "violation_rate_sd": self.violation_rate_sd,
        }


def make_policy_factory(
    policy: PolicySpec | str,
    *,
    predictor_profile: Any = None,
) -> tuple[str, Callable[[Scenario, int], Any]]:
    """Resolve a policy spec into ``(display_label, factory)``.

    The factory maps ``(scenario, trial_seed) -> policy instance`` through
    the registry, with options parsed once up front.  This is the policy
    half of :func:`run_policy`, shared with the serving engine
    (:mod:`repro.serve`) so both construct policies identically.

    ``predictor_profile`` is the experiment-level default: injected only
    when the policy's config type has a ``predictor_profile`` field and
    the spec does not already set one.
    """
    if isinstance(policy, str):
        policy = PolicySpec(name=policy)
    registry = get_registry()
    info = registry.get(policy.name)
    options = dict(policy.options)
    if (
        predictor_profile is not None
        and info.config_type is not None
        and "predictor_profile" in {f_name for f_name, _ in info.option_fields()}
        and options.get("predictor_profile") is None
    ):
        options["predictor_profile"] = predictor_profile
    config = registry.parse_options(policy.name, options)

    def factory(sc: Scenario, trial_seed: int):
        return info.builder(sc, trial_seed, config)

    return policy.display_label, factory


def build_trial_simulation(
    scenario: Scenario,
    policy: Any,
    *,
    simulator: str = "request",
    trial_seed: int = 0,
    sim_overrides: Mapping[str, Any] | None = None,
    backend_options: Mapping[str, Any] | Any = None,
    eval_traces: Mapping[str, Any] | None = None,
    duration_minutes: Any = _UNSET,
) -> Any:
    """Construct one trial's simulation harness, exactly as the trial loop
    does -- argument for argument, so a harness built here and run to
    completion is bit-identical to the corresponding
    :func:`execute_trials` trial.

    ``eval_traces``/``duration_minutes`` let the serving engine substitute
    a trace prefix (grown later via ``SimHarness.extend_traces``) and a
    streaming horizon; left at their defaults, the scenario's own traces
    and duration apply.
    """
    if duration_minutes is _UNSET:
        duration_minutes = scenario.duration_minutes
    config = SimulationConfig(
        duration_minutes=duration_minutes,
        rate_scale=scenario.rate_scale,
        seed=trial_seed,
        **dict(sim_overrides or {}),
    )
    quota = ResourceQuota.of_replicas(scenario.total_replicas)
    # `devices` is passed only for heterogeneous scenarios, so backend
    # construction (and everything downstream) is untouched -- argument
    # for argument -- on homogeneous runs.
    backend_kwargs: dict[str, Any] = {}
    if scenario.devices is not None:
        backend_kwargs["devices"] = scenario.devices
    return get_backend_registry().create(
        simulator,
        scenario.jobs,
        eval_traces if eval_traces is not None else scenario.eval_traces,
        policy,
        quota,
        config=config,
        history_prefix=scenario.history_prefix or None,
        options=backend_options,
        **backend_kwargs,
    )


def execute_trials(
    scenario: Scenario,
    policy_label: str,
    policy_factory: Callable[[Scenario, int], Any],
    *,
    trials: int = 1,
    simulator: str = "request",
    seed: int = 0,
    sim_overrides: Mapping[str, Any] | None = None,
    backend_options: Mapping[str, Any] | Any = None,
    progress: ProgressCallback | None = None,
    trial_offset: int = 0,
    total_trials: int | None = None,
) -> TrialStats:
    """Run one policy for several trials and aggregate its metrics.

    This is the single trial loop every entry point shares.  Global trial
    ``t`` uses :func:`derive_trial_seed` (``seed + 1000 * t``) for both
    policy construction and the simulator, so any two routes into this
    function with equal arguments produce identical results.

    ``simulator`` names a registered simulation backend
    (:mod:`repro.sim.backends`); ``backend_options`` carries that
    backend's typed options (mapping or config instance), validated by the
    registry before any trial runs.

    ``trial_offset`` runs trials ``[offset, offset + trials)`` of a larger
    sweep: seeds derive from the *global* index and progress events report
    it, so a shard of a sweep is indistinguishable from the corresponding
    slice of the serial loop.  ``total_trials`` only labels progress events
    (defaults to ``trial_offset + trials``).
    """
    backend_registry = get_backend_registry()
    backend_registry.get(simulator)  # unknown names raise here, not mid-loop
    backend_registry.parse_options(simulator, backend_options)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trial_offset < 0:
        raise ValueError(f"trial_offset must be >= 0, got {trial_offset}")
    shown_trials = total_trials if total_trials is not None else trial_offset + trials
    results = []
    for local in range(trials):
        trial = trial_offset + local
        trial_seed = derive_trial_seed(seed, trial)
        _emit(
            progress,
            RunEvent(
                stage="trial-start",
                scenario=scenario.name,
                policy=policy_label,
                trial=trial,
                trials=shown_trials,
            ),
        )
        policy = policy_factory(scenario, trial_seed)
        simulation = build_trial_simulation(
            scenario,
            policy,
            simulator=simulator,
            trial_seed=trial_seed,
            sim_overrides=sim_overrides,
            backend_options=backend_options,
        )
        result = simulation.run()
        result.policy_name = getattr(policy, "name", policy_label)
        results.append(result)
        _emit(
            progress,
            RunEvent(
                stage="trial-end",
                scenario=scenario.name,
                policy=policy_label,
                trial=trial,
                trials=shown_trials,
                detail=f"lost_utility={result.avg_lost_cluster_utility:.3f}",
            ),
        )
    return TrialStats.from_results(
        policy_label,
        results,
        trial_indices=list(range(trial_offset, trial_offset + trials)),
    )


def run_policy(
    scenario: Scenario,
    policy: PolicySpec | str,
    *,
    trials: int = 1,
    simulator: str = "request",
    seed: int = 0,
    predictor_profile: Any = None,
    sim_overrides: Mapping[str, Any] | None = None,
    backend_options: Mapping[str, Any] | Any = None,
    progress: ProgressCallback | None = None,
    trial_offset: int = 0,
    total_trials: int | None = None,
) -> TrialStats:
    """Run one registered policy (by spec or name) on a built scenario.

    ``predictor_profile`` is an experiment-level default: it is injected
    into the policy's options only when the policy's config type has a
    ``predictor_profile`` field and the spec does not already set one.
    """
    label, factory = make_policy_factory(policy, predictor_profile=predictor_profile)
    return execute_trials(
        scenario,
        label,
        factory,
        trials=trials,
        simulator=simulator,
        seed=seed,
        sim_overrides=sim_overrides,
        backend_options=backend_options,
        progress=progress,
        trial_offset=trial_offset,
        total_trials=total_trials,
    )


def _validate_spec(spec: ExperimentSpec) -> None:
    """Resolve every name/option in ``spec`` before any simulation runs.

    A typo'd policy name or option must fail in milliseconds, not after
    earlier scenarios have burned hours of simulation.  (Duplicate built
    scenario *names* can only be detected at build time and stay checked
    in the run loop.)
    """
    from repro.api.scenarios import get_scenario_registry

    registry = get_registry()
    for policy in spec.policies:
        registry.parse_options(policy.name, policy.options)
    # Backend name + options resolve through the backend registry, so a
    # typo'd backend option dies here too.
    get_backend_registry().parse_options(spec.simulator, spec.backend_options)
    scenario_registry = get_scenario_registry()
    seen_specs: set[str] = set()
    explicit_names: set[str] = set()
    for scenario_spec in spec.scenarios:
        info = scenario_registry.get(scenario_spec.kind)
        # Name-level check (honouring **kwargs factories) plus the kind's
        # deep-validation hook -- the custom kind resolves its entire
        # job/trace-pipeline graph here, before anything simulates.
        info.check_params(scenario_spec.params)
        # Guaranteed name collisions fail here, in milliseconds, on both
        # the serial and sharded paths (the sharded executor has no build
        # step in the parent, so waiting for build-time detection would
        # waste the whole sweep).  Distinct unnamed specs that *build* to
        # the same name still fail later, at build/merge time.
        if scenario_spec.name is not None:
            if scenario_spec.name in explicit_names:
                raise ValueError(
                    f"duplicate scenario name {scenario_spec.name!r}; "
                    "ScenarioSpec names must be unique"
                )
            explicit_names.add(scenario_spec.name)
        try:
            digest = json.dumps(scenario_spec.to_dict(), sort_keys=True)
        except TypeError:  # non-JSON params; skip the identical-spec check
            digest = None
        if digest is not None:
            if digest in seen_specs:
                raise ValueError(
                    f"scenario spec {scenario_spec.kind!r} appears twice with "
                    "identical parameters; set ScenarioSpec.name to "
                    "disambiguate repeated kinds"
                )
            seen_specs.add(digest)


def start_scenario(
    spec: ExperimentSpec,
    index: int,
    built: Mapping[str, Any],
    progress: ProgressCallback | None,
) -> Scenario:
    """Build ``spec.scenarios[index]`` and emit its ``scenario-start`` event.

    The scenario step of every serial engine (:func:`run` and
    :func:`repro.serve.serve`): the build resolves replay files against
    the spec's directory, and a name already in ``built`` (the names of the
    scenarios this run has built so far) is an error.
    """
    from repro.traces.generators import trace_search_path

    with trace_search_path(spec.spec_dir):
        scenario = spec.scenarios[index].build()
    if scenario.name in built:
        raise ValueError(
            f"duplicate scenario name {scenario.name!r}; set ScenarioSpec.name "
            "to disambiguate repeated kinds"
        )
    _emit(
        progress,
        RunEvent(
            stage="scenario-start",
            scenario=scenario.name,
            detail=f"{len(scenario.jobs)} jobs, "
            f"{scenario.total_replicas} replicas, "
            f"{scenario.duration_minutes} minutes",
        ),
    )
    return scenario


@dataclass(frozen=True)
class ShardFailure:
    """One failed shard of a sharded sweep, surfaced in the report.

    ``trials`` lists the global trial indices the shard covered; those
    cells' stats are missing (or partial) in ``RunReport.stats``.
    """

    shard_id: str
    scenario: str | None
    policy: str | None
    trials: tuple[int, ...]
    error: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "shard_id": self.shard_id,
            "scenario": self.scenario,
            "policy": self.policy,
            "trials": list(self.trials),
            "error": self.error,
        }


@dataclass
class RunReport:
    """All results of one :func:`run`: per-scenario, per-policy stats.

    ``stats`` maps scenario name -> policy label -> :class:`TrialStats`,
    in spec order.

    ``scenario_index`` maps built scenario names to their position in
    ``spec.scenarios``; partial reports coming out of the sharded executor
    carry it so :meth:`merge` can restore spec ordering no matter which
    shard finished first.  ``failures`` lists shards that crashed in a
    sharded run (always empty for serial runs).  Neither affects equality
    of ``to_dict`` for clean runs: ``scenario_index`` is never serialized
    and ``failures`` only appears when non-empty.
    """

    spec: ExperimentSpec
    stats: dict[str, dict[str, TrialStats]] = field(default_factory=dict)
    scenario_index: dict[str, int] = field(default_factory=dict, compare=False)
    failures: list[ShardFailure] = field(default_factory=list)
    #: Execution accounting of a sharded run (:class:`repro.api.parallel.
    #: SweepInfo`); ``None`` for serial runs.  Never serialized.
    sweep: Any = field(default=None, compare=False)

    def get(self, scenario: str, policy: str) -> TrialStats:
        try:
            return self.stats[scenario][policy]
        except KeyError:
            raise KeyError(
                f"no stats for scenario {scenario!r} / policy {policy!r}; "
                f"have scenarios {list(self.stats)}"
            ) from None

    def scenario_names(self) -> tuple[str, ...]:
        return tuple(self.stats)

    def policy_labels(self) -> tuple[str, ...]:
        return tuple(p.display_label for p in self.spec.policies)

    def best_policy(self, scenario: str) -> str:
        """Policy label with the lowest mean lost cluster utility."""
        per_policy = self.stats[scenario]
        return min(per_policy, key=lambda p: per_policy[p].lost_utility_mean)

    def single_result(self) -> SimulationResult:
        """The lone SimulationResult of a 1-scenario/1-policy/1-trial run."""
        if (
            len(self.stats) != 1
            or len(next(iter(self.stats.values()))) != 1
            or self.spec.trials != 1
        ):
            raise ValueError(
                "single_result() needs exactly one scenario, policy, and trial"
            )
        return next(iter(next(iter(self.stats.values())).values())).results[0]

    def summary_rows(self) -> list[list]:
        """Table rows: scenario, policy, lost utility (mean/sd), violations."""
        rows = []
        for scenario, per_policy in self.stats.items():
            for label, st in per_policy.items():
                rows.append(
                    [
                        scenario,
                        label,
                        f"{st.lost_utility_mean:.3f}",
                        f"{st.lost_utility_sd:.3f}",
                        f"{st.violation_rate_mean:.4f}",
                    ]
                )
        return rows

    def describe(self) -> str:
        """Human-readable summary table of the whole run."""
        from repro.experiments.report import format_table

        return format_table(
            ["scenario", "policy", "lost utility", "sd", "violation rate"],
            self.summary_rows(),
            title=f"Experiment {self.spec.name!r} "
            f"({self.spec.trials} trial(s), {self.spec.simulator} simulator)",
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe report: the spec plus summary statistics per cell.

        For a clean (no-failure) run the output is bit-identical between
        the serial engine and any sharded execution of the same spec --
        that contract is pinned by ``tests/test_parallel_sweep.py``.
        """
        data: dict[str, Any] = {
            "spec": self.spec.to_dict(),
            "stats": {
                scenario: {
                    label: st.to_summary_dict() for label, st in per_policy.items()
                }
                for scenario, per_policy in self.stats.items()
            },
        }
        if self.failures:
            data["failures"] = [failure.to_dict() for failure in self.failures]
        return data

    # ------------------------------------------------------------ merging

    def merge(self, other: "RunReport") -> "RunReport":
        """Combine two (partial) reports of the same spec into one.

        The operation is **associative and order-invariant**: folding any
        partition of a run's cells/trials together in any order yields the
        same report, with scenarios restored to spec order (via the union
        of ``scenario_index``) and policies to spec order.  Cells present
        in both reports are merged trial-wise with
        :meth:`TrialStats.merged`, which recomputes the summary statistics
        from the union of per-trial results in global trial order -- so the
        fully-merged report is bit-identical to a serial run.
        """
        if self.spec != other.spec:
            raise ValueError(
                f"cannot merge reports of different specs: "
                f"{self.spec.name!r} vs {other.spec.name!r}"
            )
        scenario_index = dict(self.scenario_index)
        for name, index in other.scenario_index.items():
            if scenario_index.setdefault(name, index) != index:
                raise ValueError(
                    f"conflicting spec positions for scenario {name!r}: "
                    f"{scenario_index[name]} vs {index}"
                )
        cells: dict[tuple[str, str], list[TrialStats]] = {}
        for report in (self, other):
            for scenario, per_policy in report.stats.items():
                for label, stats in per_policy.items():
                    cells.setdefault((scenario, label), []).append(stats)
        label_order = {label: i for i, label in enumerate(self.policy_labels())}
        unknown = len(scenario_index) + len(self.spec.scenarios)

        def scenario_sort_key(name: str):
            return (scenario_index.get(name, unknown), name)

        def label_sort_key(label: str):
            return (label_order.get(label, len(label_order)), label)

        merged: dict[str, dict[str, TrialStats]] = {}
        for scenario in sorted({s for s, _ in cells}, key=scenario_sort_key):
            labels = sorted({l for s, l in cells if s == scenario}, key=label_sort_key)
            merged[scenario] = {
                label: (
                    parts[0]
                    if len(parts := cells[(scenario, label)]) == 1
                    else TrialStats.merged(parts)
                )
                for label in labels
            }
        failures = sorted(
            [*self.failures, *other.failures], key=lambda failure: failure.shard_id
        )
        return RunReport(
            spec=self.spec,
            stats=merged,
            scenario_index=scenario_index,
            failures=failures,
        )


def run(
    spec: ExperimentSpec | str | Path,
    progress: ProgressCallback | None = None,
    *,
    workers: int = 1,
    journal: str | Path | None = None,
    resume: bool = False,
    cache_path: str | Path | None = None,
    cache_write_back: bool = False,
) -> RunReport:
    """Run a whole experiment spec and return its :class:`RunReport`.

    ``spec`` may be an :class:`ExperimentSpec` or a path to a JSON/YAML
    spec file.  Scenarios run in spec order; within a scenario, policies
    run in spec order, each for ``spec.trials`` trials.

    ``workers > 1`` fans the run out over a process pool via
    :func:`repro.api.parallel.run_parallel`; results are bit-identical to
    the serial path (same :func:`derive_trial_seed` seeds, order-invariant
    :meth:`RunReport.merge`).  ``journal`` checkpoints completed shards so
    ``resume=True`` skips them after a crash; ``cache_path`` warms each
    worker from a persisted
    :class:`~repro.core.optimizer.UtilityTableCache`;
    ``cache_write_back=True`` additionally persists tables the workers
    build back into that file (merge-on-save under an exclusive lock).
    These options require the sharded executor
    (``journal``/``resume``/``cache_path``/``cache_write_back`` imply it
    even with ``workers=1``).
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if (
        workers > 1
        or journal is not None
        or resume
        or cache_path is not None
        or cache_write_back
    ):
        from repro.api.parallel import run_parallel

        return run_parallel(
            spec,
            workers=workers,
            progress=progress,
            journal=journal,
            resume=resume,
            cache_path=cache_path,
            cache_write_back=cache_write_back,
        )
    if isinstance(spec, (str, Path)):
        spec = ExperimentSpec.from_file(spec)
    from repro.traces.generators import trace_search_path

    with trace_search_path(spec.spec_dir):
        _validate_spec(spec)
    report = RunReport(spec=spec)
    for scenario_index in range(len(spec.scenarios)):
        scenario = start_scenario(spec, scenario_index, report.scenario_index, progress)
        report.scenario_index[scenario.name] = scenario_index
        per_policy: dict[str, TrialStats] = {}
        for policy_spec in spec.policies:
            label = policy_spec.display_label
            _emit(
                progress,
                RunEvent(stage="policy-start", scenario=scenario.name, policy=label),
            )
            stats = run_policy(
                scenario,
                policy_spec,
                trials=spec.trials,
                simulator=spec.simulator,
                seed=spec.seed,
                predictor_profile=spec.predictor_profile,
                sim_overrides=spec.sim_overrides,
                backend_options=spec.backend_options,
                progress=progress,
            )
            per_policy[label] = stats
            _emit(
                progress,
                RunEvent(
                    stage="policy-end",
                    scenario=scenario.name,
                    policy=label,
                    detail=f"lost_utility={stats.lost_utility_mean:.3f} "
                    f"violations={stats.violation_rate_mean:.4f}",
                ),
            )
        report.stats[scenario.name] = per_policy
        _emit(progress, RunEvent(stage="scenario-end", scenario=scenario.name))
    _emit(progress, RunEvent(stage="run-end", detail=f"{len(report.stats)} scenario(s)"))
    return report
