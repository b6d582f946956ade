"""Sharded parallel sweep execution: fan an experiment out over processes.

The policy x scenario x trial grid of an :class:`ExperimentSpec` is
embarrassingly parallel: every trial derives its seed from the experiment's
base seed and the trial's *global* index alone
(:func:`repro.api.runner.derive_trial_seed`), so any partition of the grid
into :class:`TrialShard`\\ s produces exactly the per-trial results of the
serial loop.  This module supplies the partitioner (:func:`plan_shards`),
the worker entry point, and the driver (:func:`run_parallel`) that merges
worker outputs back into one :class:`~repro.api.runner.RunReport` via the
associative, order-invariant :meth:`RunReport.merge`.

Guarantees (pinned by ``tests/test_parallel_sweep.py`` and
``tests/test_parallel_faults.py``):

- **Bit-identical to serial**: for any worker count, shard granularity,
  and shard completion order, ``run_parallel(spec, ...).to_dict()`` equals
  ``run(spec).to_dict()``.
- **Fault isolation**: a shard that raises is reported in
  ``RunReport.failures``; every other shard still completes.
- **Resumability**: with a ``journal`` directory, completed shards are
  checkpointed (write-to-temp + atomic rename); ``resume=True`` loads them
  instead of recomputing, and the merged report matches an uninterrupted
  run.

Workers are ``spawn`` processes (fresh interpreters -- no inherited module
state, which is itself a determinism check) and may be warmed from a
persisted :class:`~repro.core.optimizer.UtilityTableCache` file; cache hits
are bit-for-bit identical to rebuilds, so warm-up never changes results.
"""

from __future__ import annotations

import multiprocessing
import threading
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.api.journal import Journal
from repro.api.runner import (
    ProgressCallback,
    RunEvent,
    RunReport,
    ShardFailure,
    TrialStats,
    _emit,
    _validate_spec,
    run_policy,
)
from repro.api.spec import ExperimentSpec

__all__ = [
    "TrialShard",
    "ShardOutcome",
    "SweepInfo",
    "SweepJournal",
    "plan_shards",
    "run_parallel",
]


# ------------------------------------------------------------------ shards


@dataclass(frozen=True)
class TrialShard:
    """One unit of parallel work: a trial range of one scenario/policy cell.

    Shards are identified by spec positions (not names) so they can be
    planned, journaled, and dispatched without building any scenario in the
    parent process.
    """

    scenario_index: int
    policy_index: int
    trial_start: int
    trial_stop: int

    def __post_init__(self) -> None:
        if self.scenario_index < 0 or self.policy_index < 0:
            raise ValueError("shard indices must be >= 0")
        if not 0 <= self.trial_start < self.trial_stop:
            raise ValueError(
                f"need 0 <= trial_start < trial_stop, got "
                f"[{self.trial_start}, {self.trial_stop})"
            )

    @property
    def trials(self) -> int:
        return self.trial_stop - self.trial_start

    @property
    def shard_id(self) -> str:
        """Stable identifier used for journaling and failure reports."""
        return (
            f"s{self.scenario_index:03d}-p{self.policy_index:03d}"
            f"-t{self.trial_start:04d}-{self.trial_stop:04d}"
        )

    def trial_indices(self) -> tuple[int, ...]:
        return tuple(range(self.trial_start, self.trial_stop))


def _auto_trials_per_shard(trials: int, cells: int, workers: int) -> int:
    """Default shard granularity: split cells only when the grid is small.

    With at least one cell per worker, whole cells are the shard unit;
    otherwise each cell's trials split into enough ranges to occupy the
    pool.  (Pure load balancing -- granularity can never change results.)
    """
    shards_per_cell = min(trials, -(-workers // cells))  # ceil div
    return -(-trials // shards_per_cell)


def plan_shards(
    spec: ExperimentSpec,
    workers: int,
    trials_per_shard: int | None = None,
) -> list[TrialShard]:
    """Partition ``spec``'s scenario x policy x trial grid into shards.

    Every (scenario, policy) cell becomes at least one shard; when the
    grid has fewer cells than ``workers``, cells are split into trial
    ranges so the pool stays busy.  ``trials_per_shard`` overrides the
    automatic granularity.  Shard boundaries can never change results --
    trial seeds depend only on the global trial index -- so this is purely
    a load-balancing decision.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if trials_per_shard is not None and trials_per_shard < 1:
        raise ValueError(f"trials_per_shard must be >= 1, got {trials_per_shard}")
    if trials_per_shard is None:
        trials_per_shard = _auto_trials_per_shard(
            spec.trials, len(spec.scenarios) * len(spec.policies), workers
        )
    shards = []
    for scenario_index in range(len(spec.scenarios)):
        for policy_index in range(len(spec.policies)):
            for start in range(0, spec.trials, trials_per_shard):
                shards.append(
                    TrialShard(
                        scenario_index=scenario_index,
                        policy_index=policy_index,
                        trial_start=start,
                        trial_stop=min(start + trials_per_shard, spec.trials),
                    )
                )
    return shards


# ----------------------------------------------------------------- outcomes


@dataclass(frozen=True)
class ShardOutcome:
    """What a worker returns for one completed shard."""

    shard: TrialShard
    scenario_name: str
    policy_label: str
    stats: TrialStats


@dataclass
class SweepInfo:
    """Execution accounting for one sharded run (not part of ``to_dict``)."""

    workers: int
    shards_total: int = 0
    shards_run: int = 0
    shards_resumed: int = 0
    shards_failed: int = 0

    def as_row(self) -> list:
        return [
            self.workers,
            self.shards_total,
            self.shards_run,
            self.shards_resumed,
            self.shards_failed,
        ]


# ------------------------------------------------------------------ journal


class SweepJournal(Journal):
    """Crash-safe checkpoint directory for completed shards.

    Each completed shard is one ``shard-<id>.pkl`` entry holding its
    :class:`ShardOutcome`; validation and atomic writes are
    :class:`~repro.api.journal.Journal`'s.
    """

    entry_glob = "shard-*.pkl"

    @staticmethod
    def _entry_name(shard: TrialShard) -> str:
        return f"shard-{shard.shard_id}.pkl"

    def open(
        self,
        resume: bool,
        trials_per_shard: int,
        trials_per_shard_explicit: bool = False,
    ) -> int:
        """Create or validate the journal; return the granularity to plan with.

        The journal records its ``trials_per_shard`` in ``meta.json``
        because shard ids embed trial ranges: resuming with a different
        granularity would match no checkpoint and silently recompute
        everything.  On resume the recorded value wins (so ``--resume
        --workers 4`` after a ``--workers 8`` crash still reuses every
        checkpoint); an *explicitly* requested mismatch is an error.
        """
        meta = super().open(resume, trials_per_shard=trials_per_shard)
        recorded = meta.get("trials_per_shard", trials_per_shard)
        if trials_per_shard_explicit and recorded != trials_per_shard:
            raise ValueError(
                f"journal {self.path} was written with "
                f"trials_per_shard={recorded}, cannot resume with "
                f"{trials_per_shard}; drop --trials-per-shard or use a "
                "fresh journal directory"
            )
        return int(recorded)

    def load_completed(self, shards: Sequence[TrialShard]) -> dict[str, ShardOutcome]:
        """Outcomes of ``shards`` already checkpointed, by shard id."""
        completed = {}
        for shard in shards:
            payload = self.read_entry(self._entry_name(shard))
            if payload is not None:
                completed[shard.shard_id] = payload["outcome"]
        return completed

    def record(self, outcome: ShardOutcome) -> None:
        self.write_entry(self._entry_name(outcome.shard), outcome=outcome)


# ------------------------------------------------------------------ worker


@dataclass(frozen=True)
class _ShardJob:
    """Everything a spawn worker needs, in one picklable payload."""

    spec: ExperimentSpec
    shard: TrialShard
    event_queue: object | None = None
    inject_fail: bool = False
    #: When set, the worker merge-saves its table cache back to this file
    #: after the shard completes (exclusive-locked, merge-on-save -- see
    #: :meth:`UtilityTableCache.merge_save`).
    cache_write_back: str | None = None


def _warm_worker(cache_path: str | None) -> None:
    """Pool initializer: warm the process-wide table cache once per worker.

    Content problems are best-effort by design: a truncated/stale/corrupt
    cache file (EOFError, UnpicklingError, AttributeError, ...) degrades to
    cold tables, never to failed shards -- and cache hits are bit-identical
    to rebuilds, so results cannot differ either way.  (A *missing* file is
    caught earlier, in the driver, where it can fail fast and loudly.)
    """
    if cache_path is None:
        return
    try:
        from repro.core.optimizer import DEFAULT_TABLE_CACHE, UtilityTableCache

        DEFAULT_TABLE_CACHE.absorb(UtilityTableCache.load(cache_path))
    except Exception:
        pass


def _queue_progress(queue) -> ProgressCallback:
    def on_event(event: RunEvent) -> None:
        queue.put(event)

    return on_event


def _run_shard(job: _ShardJob) -> ShardOutcome:
    """Worker entry point: run one shard's trials and return its outcome.

    Runs in a ``spawn`` interpreter whose table cache :func:`_warm_worker`
    already primed (once per process, not per shard).
    """
    shard = job.shard
    if job.inject_fail:
        raise RuntimeError(f"injected fault in shard {shard.shard_id}")
    spec = job.spec
    from repro.traces.generators import trace_search_path

    # Pickling carries the `spec_dir` provenance field to the worker, so
    # spec-relative replay files resolve here too.
    with trace_search_path(spec.spec_dir):
        scenario = spec.scenarios[shard.scenario_index].build()
    policy_spec = spec.policies[shard.policy_index]
    progress = (
        _queue_progress(job.event_queue) if job.event_queue is not None else None
    )
    stats = run_policy(
        scenario,
        policy_spec,
        trials=shard.trials,
        simulator=spec.simulator,
        seed=spec.seed,
        predictor_profile=spec.predictor_profile,
        sim_overrides=spec.sim_overrides,
        backend_options=spec.backend_options,
        progress=progress,
        trial_offset=shard.trial_start,
        total_trials=spec.trials,
    )
    if job.cache_write_back is not None:
        from repro.core.optimizer import DEFAULT_TABLE_CACHE

        # Persist tables this shard built (merge-on-save under an exclusive
        # lock, so concurrent workers interleave instead of clobbering).
        DEFAULT_TABLE_CACHE.merge_save(job.cache_write_back)
    return ShardOutcome(
        shard=shard,
        scenario_name=scenario.name,
        policy_label=policy_spec.display_label,
        stats=stats,
    )


# ------------------------------------------------------------------ driver


_QUEUE_SENTINEL = None


def _drain_events(
    queue, progress: ProgressCallback, error_holder: list
) -> None:
    """Deliver queued events to the callback until the sentinel arrives.

    A raising callback must not kill the drainer silently: the error is
    parked in ``error_holder`` (later events are drained but not
    delivered) and re-raised on the main thread, so a faulty callback
    fails the run just like it would on the serial path.
    """
    while True:
        event = queue.get()
        if event is _QUEUE_SENTINEL:
            return
        if error_holder:
            continue
        try:
            progress(event)
        except BaseException as exc:  # re-raised by run_parallel
            error_holder.append(exc)


def run_parallel(
    spec: ExperimentSpec | str | Path,
    *,
    workers: int = 1,
    progress: ProgressCallback | None = None,
    journal: str | Path | None = None,
    resume: bool = False,
    cache_path: str | Path | None = None,
    cache_write_back: bool = False,
    trials_per_shard: int | None = None,
    shard_order: Sequence[int] | None = None,
    inject_fail: Sequence[str] = (),
) -> RunReport:
    """Run a spec as independent shards on a ``spawn`` process pool.

    Returns a :class:`RunReport` whose ``to_dict()`` is bit-identical to
    the serial :func:`repro.api.run` for clean runs.  Shard failures are
    collected in ``report.failures`` (the corresponding trials are simply
    missing from ``report.stats``) instead of aborting the sweep; execution
    accounting lands in ``report.sweep``.

    ``journal`` names a checkpoint directory; with ``resume=True``,
    already-completed shards load from it instead of re-running.
    ``shard_order`` permutes submission order and ``inject_fail`` makes the
    named shards raise -- both exist for the differential/fault test
    suites (results must be invariant to the former; the latter exercises
    fault isolation deterministically across spawn boundaries).

    ``cache_write_back=True`` makes each worker persist the utility tables
    it built back into ``cache_path`` after every shard (merge-on-save
    under an exclusive lock, so concurrent workers never clobber each
    other); the file is created if missing.  Warm-up stays best-effort and
    results can never differ -- cache hits are bit-identical to rebuilds.
    """
    if isinstance(spec, (str, Path)):
        spec = ExperimentSpec.from_file(spec)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if trials_per_shard is not None and trials_per_shard < 1:
        raise ValueError(f"trials_per_shard must be >= 1, got {trials_per_shard}")
    if resume and journal is None:
        raise ValueError("resume=True requires a journal directory")
    if cache_write_back and cache_path is None:
        raise ValueError("cache_write_back requires a cache_path")
    if (
        cache_path is not None
        and not cache_write_back
        and not Path(cache_path).is_file()
    ):
        # A typo'd --cache must not silently run the whole sweep cold;
        # only *content* problems are best-effort (see _warm_worker).
        # With write-back the file may legitimately not exist yet -- the
        # first completed shard creates it.
        raise ValueError(f"cache file {cache_path} does not exist")
    from repro.traces.generators import trace_search_path

    with trace_search_path(spec.spec_dir):
        _validate_spec(spec)

    effective_tps = (
        trials_per_shard
        if trials_per_shard is not None
        else _auto_trials_per_shard(
            spec.trials, len(spec.scenarios) * len(spec.policies), workers
        )
    )
    sweep_journal = None
    if journal is not None:
        sweep_journal = SweepJournal(journal, spec)
        effective_tps = sweep_journal.open(
            resume,
            effective_tps,
            trials_per_shard_explicit=trials_per_shard is not None,
        )

    shards = plan_shards(spec, workers, trials_per_shard=effective_tps)
    if shard_order is not None:
        if sorted(shard_order) != list(range(len(shards))):
            raise ValueError(
                f"shard_order must be a permutation of range({len(shards)})"
            )
        shards = [shards[index] for index in shard_order]
    info = SweepInfo(workers=workers, shards_total=len(shards))

    completed: dict[str, ShardOutcome] = {}
    if sweep_journal is not None and resume:
        completed = sweep_journal.load_completed(shards)
        info.shards_resumed = len(completed)
    pending = [shard for shard in shards if shard.shard_id not in completed]

    inject = set(inject_fail)
    unknown_inject = inject - {shard.shard_id for shard in shards}
    if unknown_inject:
        raise ValueError(f"inject_fail names unknown shards: {sorted(unknown_inject)}")

    manager = None
    event_queue = None
    drainer = None
    callback_errors: list = []
    if progress is not None and pending:
        manager = multiprocessing.Manager()
        event_queue = manager.Queue()
        drainer = threading.Thread(
            target=_drain_events,
            args=(event_queue, progress, callback_errors),
            daemon=True,
        )
        drainer.start()

    def emit(event: RunEvent) -> None:
        # While the drainer lives, the main thread's shard events go
        # through the same queue as the workers' trial events, so the
        # user's callback is only ever invoked from one thread.
        if event_queue is not None:
            event_queue.put(event)
        else:
            _emit(progress, event)

    failures: list[ShardFailure] = []
    outcomes: list[ShardOutcome] = list(completed.values())
    try:
        if pending:
            context = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(
                max_workers=min(workers, len(pending)),
                mp_context=context,
                initializer=_warm_worker,
                initargs=(str(cache_path) if cache_path is not None else None,),
            ) as pool:
                futures = {
                    pool.submit(
                        _run_shard,
                        _ShardJob(
                            spec=spec,
                            shard=shard,
                            event_queue=event_queue,
                            inject_fail=shard.shard_id in inject,
                            cache_write_back=(
                                str(cache_path) if cache_write_back else None
                            ),
                        ),
                    ): shard
                    for shard in pending
                }
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(not_done, return_when=FIRST_COMPLETED)
                    for future in done:
                        shard = futures[future]
                        try:
                            outcome = future.result()
                        except Exception as exc:
                            info.shards_failed += 1
                            failures.append(
                                ShardFailure(
                                    shard_id=shard.shard_id,
                                    scenario=_scenario_label(spec, shard),
                                    policy=spec.policies[
                                        shard.policy_index
                                    ].display_label,
                                    trials=shard.trial_indices(),
                                    error=_format_error(exc),
                                )
                            )
                            emit(
                                RunEvent(
                                    stage="shard-failed",
                                    policy=spec.policies[
                                        shard.policy_index
                                    ].display_label,
                                    detail=f"{shard.shard_id}: {exc}",
                                )
                            )
                            continue
                        info.shards_run += 1
                        outcomes.append(outcome)
                        if sweep_journal is not None:
                            sweep_journal.record(outcome)
                        emit(
                            RunEvent(
                                stage="shard-end",
                                scenario=outcome.scenario_name,
                                policy=outcome.policy_label,
                                detail=(
                                    f"{outcome.shard.shard_id}: lost_utility="
                                    f"{outcome.stats.lost_utility_mean:.3f}"
                                ),
                            )
                        )
    finally:
        if event_queue is not None:
            # The sentinel is already enqueued, so the drainer is
            # guaranteed to terminate once it works through the backlog;
            # an unbounded join (rather than a timeout) means no queued
            # event is ever dropped and the callback is never invoked
            # concurrently with the main thread's final run-end emit.
            event_queue.put(_QUEUE_SENTINEL)
            drainer.join()
        if manager is not None:
            manager.shutdown()
    if callback_errors:
        # Completed shards are already journaled, so a resume can pick up
        # from here; the faulty callback fails the run exactly as it
        # would have on the serial path.
        raise callback_errors[0]

    # Group shard outcomes per cell and merge each cell once (linear in
    # shards), then let RunReport.merge restore canonical spec ordering.
    cells: dict[tuple[str, str], list[TrialStats]] = {}
    scenario_index: dict[str, int] = {}
    for outcome in sorted(outcomes, key=lambda o: o.shard.shard_id):
        name = outcome.scenario_name
        if scenario_index.setdefault(name, outcome.shard.scenario_index) != (
            outcome.shard.scenario_index
        ):
            raise ValueError(
                f"two scenario specs built the same name {name!r}; set "
                "ScenarioSpec.name to disambiguate repeated kinds"
            )
        cells.setdefault((name, outcome.policy_label), []).append(outcome.stats)
    partial = RunReport(spec=spec, scenario_index=scenario_index)
    for (name, label), parts in cells.items():
        partial.stats.setdefault(name, {})[label] = (
            parts[0] if len(parts) == 1 else TrialStats.merged(parts)
        )
    report = RunReport(spec=spec, failures=failures).merge(partial)
    report.sweep = info
    _emit(
        progress,
        RunEvent(
            stage="run-end",
            detail=(
                f"{len(report.stats)} scenario(s), {info.shards_run} shard(s) run, "
                f"{info.shards_resumed} resumed, {info.shards_failed} failed"
            ),
        ),
    )
    return report


def _scenario_label(spec: ExperimentSpec, shard: TrialShard) -> str:
    """Best scenario name available without building it (failure reports)."""
    scenario_spec = spec.scenarios[shard.scenario_index]
    return scenario_spec.name or f"{scenario_spec.kind}[{shard.scenario_index}]"


def _format_error(exc: BaseException) -> str:
    """Exception text plus the worker-side traceback, when available.

    ``ProcessPoolExecutor`` chains the remote traceback text onto the
    re-raised exception as ``__cause__``; without it a shard failure would
    name the exception but not the file/line it crashed at.
    """
    text = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    if exc.__cause__ is not None:
        text = f"{text}\n{str(exc.__cause__).strip()}"
    return text
