"""The continuous serving loop and its engine (`repro.api.serve`).

:class:`ServeLoop` drives one trial through the same tick as
:meth:`repro.sim.harness.SimHarness.run` -- both call
:meth:`SimHarness.step` -- but owns the loop around it so each tick can be
cursor-gated, paced, checkpointed, and degraded:

- **cursor gating** -- a tick only runs once the
  :class:`~repro.serve.cursor.TraceCursor` has a full tick of trace
  minutes; newly available minutes are appended to the live harness
  through :meth:`SimHarness.extend_traces` (legal because the Poisson
  workload draws arrivals lazily, per minute in order).  With a finite
  replay cursor the gate never engages and the tick sequence -- hence the
  result -- is byte-identical to batch ``api.run``;
- **graceful degradation** -- a policy solve that raises, or overruns
  ``tick_deadline_s`` on the injected clock, holds the previous
  allocation (no ``apply``), counts the event, and backs off
  exponentially before retrying.  The loop never dies on a solver bug;
- **crash-safe checkpoints** -- loop state (harness, window accumulator,
  counters) pickles into a :class:`ServeJournal` (a
  :class:`repro.api.journal.Journal`, like the sweep's); ``resume=True``
  restores mid-trial and re-ticks deterministically to the same digest.

:func:`serve` is the engine: it walks the spec's scenario x policy x
trial grid in batch order, runs each trial through a ServeLoop, attaches
each completed trial's partial :class:`~repro.api.runner.RunReport` to
the window it completed in, and folds all partials through the
order-invariant ``RunReport.merge`` -- the identity claim pinned by
``tests/test_serve_loop.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.api.journal import Journal
from repro.api.runner import (
    ProgressCallback,
    RunEvent,
    RunReport,
    TrialStats,
    _emit,
    _validate_spec,
    build_trial_simulation,
    derive_trial_seed,
    make_policy_factory,
    start_scenario,
)
from repro.api.spec import ExperimentSpec
from repro.serve.clock import Clock, VirtualClock, WallClock
from repro.serve.cursor import ReplayCursor, TailingFileCursor, TraceCursor
from repro.serve.sinks import WindowSink
from repro.serve.spec import ServeOptions, ServeSpec
from repro.serve.windows import WindowAccumulator, WindowReport, WindowStats
from repro.sim.harness import END_EPS

__all__ = [
    "ServeAborted",
    "TrialOutcome",
    "ServeJournal",
    "ServeLoop",
    "ServeResult",
    "serve",
]

#: Consecutive dry polls before an accelerated (non-realtime) run declares
#: the cursor stalled -- a virtual clock cannot wait wall time out, so a
#: source that neither grows nor finishes would otherwise spin forever.
_MAX_DRY_POLLS = 10_000


class ServeAborted(RuntimeError):
    """Injected mid-run abort (the crash/kill test hook)."""


@dataclass
class _TickFlags:
    overrun: bool = False
    error: bool = False
    backoff: bool = False
    held: bool = False


@dataclass
class TrialOutcome:
    """One completed trial, as journaled and merged by the engine."""

    scenario_index: int
    policy_index: int
    trial: int
    scenario_name: str
    policy_label: str
    stats: TrialStats
    windows: list[WindowReport]
    totals: WindowStats


class ServeJournal(Journal):
    """Crash-safe checkpoint directory for a serve run.

    Each completed trial is one ``cell-s<si>-p<pi>-t<t>.pkl`` entry; the
    in-flight trial's loop state lives in ``checkpoint.pkl``, rewritten at
    each checkpoint cadence and cleared when its trial completes.
    Validation and atomic writes are :class:`~repro.api.journal.Journal`'s.
    """

    entry_glob = "cell-*.pkl"
    _CHECKPOINT = "checkpoint.pkl"

    def record_trial(self, outcome: TrialOutcome) -> None:
        self.write_entry(
            f"cell-s{outcome.scenario_index:03d}-p{outcome.policy_index:03d}"
            f"-t{outcome.trial:04d}.pkl",
            outcome=outcome,
        )

    def load_trials(self) -> dict[tuple[int, int, int], TrialOutcome]:
        outcomes = [payload["outcome"] for payload in self.read_entries()]
        return {(o.scenario_index, o.policy_index, o.trial): o for o in outcomes}

    def save_checkpoint(self, cell: tuple[int, int, int], state: dict) -> None:
        self.write_entry(self._CHECKPOINT, cell=cell, state=state)

    def load_checkpoint(self) -> tuple[tuple[int, int, int], dict] | None:
        payload = self.read_entry(self._CHECKPOINT)
        if payload is None:
            return None
        return tuple(payload["cell"]), payload["state"]

    def clear_checkpoint(self) -> None:
        (self.path / self._CHECKPOINT).unlink(missing_ok=True)


class ServeLoop:
    """The continuous control loop for one trial.

    Each tick is :meth:`SimHarness.step` -- the batch loop's own tick, with
    the same chunk arithmetic and end-of-run epsilon -- which is what makes
    a gated, windowed, checkpointed serve run byte-identical to the batch
    loop on a finite replay.  ``cell`` is the trial's ``(scenario, policy,
    trial)`` position, the key its checkpoints are saved under.
    """

    def __init__(
        self,
        harness,
        cursor: TraceCursor,
        options: ServeOptions,
        clock: Clock,
        acc: WindowAccumulator,
        *,
        cell: tuple[int, int, int] | None = None,
        on_window: Callable[[WindowReport], None] | None = None,
        on_tick: Callable[["ServeLoop", list[WindowReport]], None] | None = None,
    ) -> None:
        self.harness = harness
        self.cursor = cursor
        self.options = options
        self.clock = clock
        self.acc = acc
        self.cell = cell
        self.on_window = on_window
        self.on_tick = on_tick
        self.now = 0.0
        self.tick_count = 0
        self._backoff_remaining = 0
        self._backoff_next = options.backoff_ticks
        self._dry_polls = 0
        #: Degradation flags of the latest tick, set by :meth:`_solve`.
        self._flags = _TickFlags()
        self._resumed = False
        #: Whether the cursor could gate this run at construction time --
        #: replay cursors with every minute on hand never gate, and their
        #: windows report zero cursor lag.
        self._streaming = not (
            cursor.finished()
            and cursor.available_minutes() >= self.harness.duration_minutes
        )

    # ---------------------------------------------------- checkpoint state

    def state(self) -> dict:
        """Picklable resume state: the harness carries policy + RNG state."""
        return {
            "harness": self.harness,
            "acc": self.acc,
            "now": self.now,
            "tick_count": self.tick_count,
            "backoff_remaining": self._backoff_remaining,
            "backoff_next": self._backoff_next,
        }

    @classmethod
    def from_state(
        cls,
        state: dict,
        cursor: TraceCursor,
        options: ServeOptions,
        clock: Clock,
        *,
        cell=None,
        on_window=None,
        on_tick=None,
    ) -> "ServeLoop":
        loop = cls(
            state["harness"],
            cursor,
            options,
            clock,
            state["acc"],
            cell=cell,
            on_window=on_window,
            on_tick=on_tick,
        )
        loop.now = state["now"]
        loop.tick_count = state["tick_count"]
        loop._backoff_remaining = state["backoff_remaining"]
        loop._backoff_next = state["backoff_next"]
        loop._resumed = True
        return loop

    # -------------------------------------------------------------- gating

    def _stream_complete(self) -> bool:
        """True once no further trace minutes can ever arrive."""
        if not self._streaming:
            return True
        limit = self.harness.config.duration_minutes
        if limit is not None and self.harness.duration_minutes >= limit:
            return True
        return (
            self.cursor.finished()
            and self.cursor.available_minutes() <= self.harness.duration_minutes
        )

    def _await_growth(self) -> None:
        """Poll the cursor; append new minutes to the harness or wait."""
        available = self.cursor.poll()
        consumed = self.harness.duration_minutes
        if available > consumed:
            self.harness.extend_traces(
                self.cursor.read(consumed, available), limit_to_jobs=True
            )
            self._dry_polls = 0
            return
        self.acc.current.cursor_wait_polls += 1
        self._dry_polls += 1
        if not self.clock.realtime and self._dry_polls > _MAX_DRY_POLLS:
            raise RuntimeError(
                f"trace cursor stalled: {self._dry_polls} polls produced no "
                "data and the stream is not finished (accelerated runs "
                "cannot wait out wall time; use --realtime for live sources)"
            )
        self.clock.sleep(self.options.poll_seconds)

    # ---------------------------------------------------------- degradation

    def _solve(self, now: float, observations) -> Any:
        """The tick's ``decide``: the policy's decision, or ``None`` to hold.

        Records the tick's degradation flags in ``self._flags``.  The clock
        is only read when a deadline is armed.
        """
        if self._backoff_remaining > 0:
            self._backoff_remaining -= 1
            self._flags = _TickFlags(backoff=True, held=True)
            return None
        deadline = self.options.tick_deadline_s
        solve_start = self.clock.perf() if deadline is not None else 0.0
        try:
            decision = self.harness.policy.tick(now, observations)
        except Exception:
            self._enter_backoff()
            self._flags = _TickFlags(error=True, held=True)
            return None
        if deadline is not None and self.clock.perf() - solve_start > deadline:
            # The solve finished but blew its budget: applying it would act
            # on stale observations, so hold the previous allocation.
            self._enter_backoff()
            self._flags = _TickFlags(overrun=True, held=True)
            return None
        self._backoff_next = self.options.backoff_ticks
        self._flags = _TickFlags()
        return decision

    def _enter_backoff(self) -> None:
        self._backoff_remaining = self._backoff_next
        self._backoff_next = min(
            self._backoff_next * 2, self.options.max_backoff_ticks
        )

    # ----------------------------------------------------------------- run

    def run(self):
        """Drive the trial to completion.

        Returns ``(result, windows, unemitted_tail)``: the trial's
        :class:`SimulationResult`, every sealed window in order, and the
        trailing windows :meth:`WindowAccumulator.finish` sealed after the
        last tick (not yet pushed through ``on_window`` -- the engine
        attaches the trial's partial report to the last one first).
        """
        harness = self.harness
        if not self._resumed:
            harness.policy.reset()
            harness._reset()
        tick = harness.tick_seconds()
        clock = self.clock
        while True:
            end_time = harness.duration_minutes * 60.0
            complete = self._stream_complete()
            if self.now >= end_time - END_EPS:
                if complete:
                    break
                self._await_growth()
                continue
            if not complete and self.now + tick > end_time + END_EPS:
                # Only part of the next tick's trace minutes have arrived;
                # ticking now would cut the chunk short of the batch loop's
                # boundary.  Wait for the rest.
                self._await_growth()
                continue
            if clock.realtime:
                clock.pace(min(self.now + tick, end_time))
            tick_start = clock.perf() if clock.measures else 0.0
            now, observations = harness.step(
                self.now, tick, end_time, decide=self._solve
            )
            elapsed = clock.perf() - tick_start if clock.measures else 0.0
            self.now = now
            self.tick_count += 1
            lag = 0.0
            if self._streaming:
                lag = max(0.0, self.cursor.available_minutes() * 60.0 - now)
            flags = self._flags
            sealed = self.acc.on_tick(
                now,
                elapsed,
                sum([obs.queue_length for obs in observations.values()]),
                flags.overrun,
                flags.error,
                flags.backoff,
                flags.held,
                lag,
            )
            if self.on_window is not None:
                for window in sealed:
                    self.on_window(window)
            if self.on_tick is not None:
                self.on_tick(self, sealed)
        result = harness.collect()
        tail = self.acc.finish(self.now)
        return result, list(self.acc.sealed), tail


@dataclass
class ServeResult:
    """Everything one :func:`serve` run produced.

    ``report`` is the merged :class:`RunReport` -- byte-identical to
    batch ``api.run`` on the same experiment for finite replays.
    ``windows`` are every sealed window in emission order; ``totals`` is
    the run-level observability rollup.
    """

    report: RunReport
    windows: list[WindowReport] = field(default_factory=list)
    totals: WindowStats = field(default_factory=WindowStats)
    trials_run: int = 0
    trials_resumed: int = 0

    def describe(self) -> str:
        from repro.experiments.report import format_table

        serving = format_table(
            ["ticks", "windows", "held", "overruns", "errors", "resumed"],
            [
                [
                    self.totals.ticks,
                    len(self.windows),
                    self.totals.held_ticks,
                    self.totals.solver_overruns,
                    self.totals.solver_errors,
                    self.trials_resumed,
                ]
            ],
            title="Serving",
        )
        return self.report.describe() + "\n\n" + serving


def _normalize_spec(spec) -> ServeSpec:
    if isinstance(spec, ServeSpec):
        return spec
    if isinstance(spec, ExperimentSpec):
        return ServeSpec(experiment=spec)
    return ServeSpec.from_file(spec)


def _make_cursor(
    scenario,
    options: ServeOptions,
    spec_dir: str | None,
    cursor_factory,
    clock: Clock,
) -> TraceCursor:
    if cursor_factory is not None:
        return cursor_factory(scenario)
    if options.stream is not None:
        from repro.traces.generators import resolve_trace_path, trace_search_path

        stream = options.stream
        with trace_search_path(spec_dir):
            path = resolve_trace_path(stream["path"])
        return TailingFileCursor(
            path,
            job=stream.get("job"),
            horizon_minutes=stream.get("horizon_minutes"),
        )
    return ReplayCursor.for_scenario(scenario)


def serve(
    spec: ServeSpec | ExperimentSpec | str | Path,
    *,
    sinks: Sequence[WindowSink] = (),
    progress: ProgressCallback | None = None,
    journal: str | Path | None = None,
    resume: bool = False,
    clock: Clock | None = None,
    cursor_factory: Callable[[Any], TraceCursor] | None = None,
    cache_path: str | Path | None = None,
    abort_after_ticks: int | None = None,
) -> ServeResult:
    """Serve an experiment continuously; return the merged report + windows.

    Walks the scenario x policy x trial grid in the batch engine's order;
    each trial runs through a :class:`ServeLoop` against a trace cursor
    (a replay of the scenario's traces by default, a tailing live file
    with ``spec.serve.stream``, or whatever ``cursor_factory(scenario)``
    returns).  Sealed windows stream to ``sinks`` as they close.

    ``journal`` enables crash-safe checkpoints; ``resume=True`` reloads
    completed trials and the mid-trial checkpoint, reproducing the
    uninterrupted run's digest.  ``cache_path`` warms the process-wide
    utility-table cache before serving and merge-saves it back after
    (see :meth:`UtilityTableCache.merge_save`).  ``abort_after_ticks``
    raises :class:`ServeAborted` after that many ticks of *this* call --
    the deterministic stand-in for a crash in the resume tests.
    """
    sspec = _normalize_spec(spec)
    exp = sspec.experiment
    options = sspec.serve
    if resume and journal is None:
        raise ValueError("resume=True requires a journal directory")
    if clock is None:
        clock = (
            WallClock(options.realtime_speedup) if options.realtime else VirtualClock()
        )
    from repro.sim.backends import get_backend_registry
    from repro.traces.generators import trace_search_path

    with trace_search_path(exp.spec_dir):
        _validate_spec(exp)
    backend = get_backend_registry().get(exp.simulator)
    if options.stream is not None:
        if not getattr(backend.cls, "supports_streaming", False):
            raise ValueError(
                f"backend {exp.simulator!r} does not support streaming trace "
                "extension; use the request backend for live serving, or a "
                "finite replay (no 'stream' block)"
            )
        if exp.sim_overrides.get("faults"):
            raise ValueError(
                "fault injection needs a fixed duration and cannot be "
                "combined with a streaming trace source"
            )

    if cache_path is not None:
        _warm_cache(cache_path)

    serve_journal = None
    completed: dict[tuple[int, int, int], TrialOutcome] = {}
    checkpoint: tuple[tuple[int, int, int], dict] | None = None
    if journal is not None:
        serve_journal = ServeJournal(journal, sspec)
        serve_journal.open(resume)
        if resume:
            completed = serve_journal.load_trials()
            checkpoint = serve_journal.load_checkpoint()

    def emit_window(window: WindowReport) -> None:
        for sink in sinks:
            sink.on_window(window)

    ticks_this_run = [0]

    def on_tick(loop: ServeLoop, sealed: list[WindowReport]) -> None:
        ticks_this_run[0] += 1
        if serve_journal is not None and (
            sealed
            or (
                options.checkpoint_ticks is not None
                and loop.tick_count % options.checkpoint_ticks == 0
            )
        ):
            serve_journal.save_checkpoint(loop.cell, loop.state())
        if (
            abort_after_ticks is not None
            and ticks_this_run[0] >= abort_after_ticks
        ):
            raise ServeAborted(
                f"injected abort after {ticks_this_run[0]} ticks"
            )

    # Without a journal or an injected abort the callback would only count
    # ticks nobody reads; keep it off the hot loop entirely.
    if serve_journal is None and abort_after_ticks is None:
        on_tick = None

    merged = RunReport(spec=exp)
    result = ServeResult(report=merged)
    built_names: dict[str, int] = {}

    try:
        for si in range(len(exp.scenarios)):
            # Built on first use: a scenario whose trials all resume from
            # the journal is never built.
            scenario = None
            for pi, policy_spec in enumerate(exp.policies):
                label = policy_spec.display_label
                for trial in range(exp.trials):
                    key = (si, pi, trial)
                    if key in completed:
                        outcome = completed[key]
                        result.trials_resumed += 1
                        _absorb_outcome(result, outcome, exp)
                        continue
                    if scenario is None:
                        scenario = start_scenario(exp, si, built_names, progress)
                        built_names[scenario.name] = si
                    loop = _build_or_restore_loop(
                        key,
                        scenario,
                        policy_spec,
                        exp,
                        options,
                        clock,
                        checkpoint,
                        cursor_factory,
                        emit_window,
                        on_tick,
                    )
                    trial_result, windows, tail = loop.run()
                    trial_result.policy_name = getattr(
                        loop.harness.policy, "name", label
                    )
                    stats = TrialStats.from_results(
                        label, [trial_result], trial_indices=[trial]
                    )
                    partial = RunReport(
                        spec=exp,
                        stats={scenario.name: {label: stats}},
                        scenario_index={scenario.name: si},
                    )
                    windows[-1].report = partial
                    for window in tail:
                        emit_window(window)
                    totals = WindowStats()
                    for window in windows:
                        totals.merge(window.stats)
                    outcome = TrialOutcome(
                        scenario_index=si,
                        policy_index=pi,
                        trial=trial,
                        scenario_name=scenario.name,
                        policy_label=label,
                        stats=stats,
                        windows=windows,
                        totals=totals,
                    )
                    if serve_journal is not None:
                        serve_journal.record_trial(outcome)
                        serve_journal.clear_checkpoint()
                    result.trials_run += 1
                    _absorb_outcome(result, outcome, exp)
                    _emit(
                        progress,
                        RunEvent(
                            stage="trial-end",
                            scenario=scenario.name,
                            policy=label,
                            trial=trial,
                            trials=exp.trials,
                            detail=(
                                f"lost_utility="
                                f"{trial_result.avg_lost_cluster_utility:.3f}"
                            ),
                        ),
                    )
    finally:
        for sink in sinks:
            sink.close()
    if cache_path is not None:
        from repro.core.optimizer import DEFAULT_TABLE_CACHE

        DEFAULT_TABLE_CACHE.merge_save(cache_path)
    _emit(
        progress,
        RunEvent(
            stage="run-end",
            detail=(
                f"{result.totals.ticks} tick(s), {len(result.windows)} "
                f"window(s), {result.trials_resumed} trial(s) resumed"
            ),
        ),
    )
    return result


def _absorb_outcome(result: ServeResult, outcome: TrialOutcome, exp) -> None:
    """Fold one trial's windows + partial report into the running result."""
    result.windows.extend(outcome.windows)
    result.totals.merge(outcome.totals)
    partial = RunReport(
        spec=exp,
        stats={outcome.scenario_name: {outcome.policy_label: outcome.stats}},
        scenario_index={outcome.scenario_name: outcome.scenario_index},
    )
    result.report = result.report.merge(partial)


def _build_or_restore_loop(
    key: tuple[int, int, int],
    scenario,
    policy_spec,
    exp: ExperimentSpec,
    options: ServeOptions,
    clock: Clock,
    checkpoint,
    cursor_factory,
    emit_window,
    on_tick,
) -> ServeLoop:
    si, pi, trial = key
    cursor = _make_cursor(scenario, options, exp.spec_dir, cursor_factory, clock)
    if checkpoint is not None and tuple(checkpoint[0]) == key:
        return ServeLoop.from_state(
            checkpoint[1],
            cursor,
            options,
            clock,
            cell=key,
            on_window=emit_window,
            on_tick=on_tick,
        )
    missing = [job.name for job in scenario.jobs if job.name not in cursor.jobs]
    if missing:
        raise ValueError(
            f"trace cursor covers jobs {list(cursor.jobs)} but scenario "
            f"{scenario.name!r} needs {missing} too"
        )
    dry = 0
    while cursor.available_minutes() < 1:
        if cursor.finished():
            raise ValueError("trace cursor finished with no data")
        dry += 1
        if not clock.realtime and dry > _MAX_DRY_POLLS:
            raise RuntimeError("trace cursor produced no data")
        clock.sleep(options.poll_seconds)
        cursor.poll()
    available = cursor.available_minutes()
    prefix = {
        name: series
        for name, series in cursor.read(0, available).items()
        if any(job.name == name for job in scenario.jobs)
    }
    if options.stream is not None:
        duration_limit = options.stream.get("horizon_minutes")
        if duration_limit is None:
            horizon = cursor.horizon_minutes()
            duration_limit = int(horizon) if horizon is not None else None
    else:
        duration_limit = scenario.duration_minutes
    trial_seed = derive_trial_seed(exp.seed, trial)
    _, policy_factory = make_policy_factory(
        policy_spec, predictor_profile=exp.predictor_profile
    )
    policy = policy_factory(scenario, trial_seed)
    harness = build_trial_simulation(
        scenario,
        policy,
        simulator=exp.simulator,
        trial_seed=trial_seed,
        sim_overrides=exp.sim_overrides,
        backend_options=exp.backend_options,
        eval_traces=prefix,
        duration_minutes=duration_limit,
    )
    acc = WindowAccumulator(
        scenario=scenario.name,
        policy=policy_spec.display_label,
        trial=trial,
        window_minutes=options.window_minutes,
    )
    return ServeLoop(
        harness,
        cursor,
        options,
        clock,
        acc,
        cell=key,
        on_window=emit_window,
        on_tick=on_tick,
    )


def _warm_cache(cache_path: str | Path) -> None:
    """Warm the process-wide table cache, best-effort (``_warm_worker``
    semantics: content problems degrade to cold tables; a missing file is
    fine here because serve merge-saves it back into existence)."""
    try:
        from repro.core.optimizer import DEFAULT_TABLE_CACHE, UtilityTableCache

        DEFAULT_TABLE_CACHE.absorb(UtilityTableCache.load(cache_path))
    except Exception:
        pass
