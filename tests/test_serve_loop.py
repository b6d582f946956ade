"""Serve-loop tests: replay identity, kill+resume, graceful degradation.

The three acceptance claims of the serving subsystem, pinned:

- **identity** -- serving a finite replay produces a merged report
  byte-identical (canonical JSON) to batch ``api.run``, for the flow and
  request backends, whole traces or chunk-dripped;
- **crash safety** -- killing a journaled run mid-window and resuming
  reproduces the uninterrupted run's report *and* window sequence;
- **degradation** -- a solver that throws or overruns its deadline holds
  the previous allocation, backs off exponentially, and never kills the
  loop; every event lands in the window counters.
"""

import json

import numpy as np
import pytest

from repro import api
from repro.api.journal import content_digest
from repro.api.runner import (
    build_trial_simulation,
    derive_trial_seed,
    make_policy_factory,
)
from repro.experiments.policies import PredictorProfile
from repro.serve import (
    CallbackSink,
    ChunkedReplayCursor,
    JsonlSink,
    ReplayCursor,
    ServeAborted,
    ServeLoop,
    ServeOptions,
    ServeSpec,
    TailingFileCursor,
    VirtualClock,
    WindowAccumulator,
    serve,
)

PROFILE = PredictorProfile(epochs=1, max_windows=64)


def _scenario_spec() -> api.ScenarioSpec:
    return api.ScenarioSpec(
        kind="paper",
        params={
            "size": 8,
            "num_jobs": 2,
            "duration_minutes": 8,
            "days": 2,
            "rate_hi": 300.0,
        },
        name="tiny-serve",
    )


def _tiny_spec(**overrides) -> api.ExperimentSpec:
    settings = dict(
        trials=2,
        seed=0,
        simulator="flow",
        predictor_profile={"epochs": 1, "max_windows": 64},
    )
    settings.update(overrides)
    return api.ExperimentSpec.compare(
        "tiny-serve-exp",
        [_scenario_spec()],
        ["fairshare", "aiad"],
        **settings,
    )


def _serve_spec(window_minutes=2, serve_kwargs=None, **overrides) -> ServeSpec:
    return ServeSpec(
        experiment=_tiny_spec(**overrides),
        serve=ServeOptions(window_minutes=window_minutes, **(serve_kwargs or {})),
    )


def _canon(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


# ------------------------------------------------------------------ identity


class TestReplayIdentity:
    @pytest.fixture(scope="class")
    def flow_run(self, tmp_path_factory):
        """One flow serve run shared by the identity/window/sink asserts."""
        jsonl = tmp_path_factory.mktemp("sink") / "windows.jsonl"
        seen = []
        sspec = _serve_spec()
        result = serve(
            sspec, sinks=[CallbackSink(seen.append), JsonlSink(jsonl)]
        )
        return sspec, result, seen, jsonl

    def test_flow_byte_identical_to_batch(self, flow_run):
        sspec, result, _, _ = flow_run
        assert _canon(result.report) == _canon(api.run(sspec.experiment))

    def test_windows_partition_the_run(self, flow_run):
        _, result, _, _ = flow_run
        # 8 minutes / 2-minute windows x (2 policies x 2 trials).
        assert len(result.windows) == 16
        assert result.totals.ticks == sum(w.stats.ticks for w in result.windows)
        assert result.totals.held_ticks == 0
        # Exactly one window per trial carries the trial's partial report.
        partials = [w for w in result.windows if w.report is not None]
        assert len(partials) == 4
        assert all(w.index == 3 for w in partials)
        # A full replay never waits on its cursor and reports zero lag.
        assert result.totals.cursor_wait_polls == 0
        assert result.totals.cursor_lag_s_max == 0.0

    def test_sinks_see_every_window_in_order(self, flow_run):
        _, result, seen, jsonl = flow_run
        assert [w.to_dict() for w in seen] == [
            w.to_dict() for w in result.windows
        ]
        lines = jsonl.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [
            json.loads(json.dumps(w.to_dict(), sort_keys=True))
            for w in result.windows
        ]

    def test_accepts_experiment_spec_and_file(self, tmp_path):
        """serve() normalizes ExperimentSpec and spec-file inputs."""
        sspec = _serve_spec(trials=1)
        path = sspec.to_file(tmp_path / "serve.json")
        via_file = serve(path)
        via_exp = serve(sspec.experiment)  # defaults: window_minutes=15
        assert _canon(via_file.report) == _canon(via_exp.report)

    def test_request_backend_chunk_dripped_identity(self):
        """Dripping trace minutes through a chunked cursor cannot move a
        single chunk boundary: the request backend ends byte-identical to
        batch, while the gating shows up as nonzero cursor lag/waits."""
        sspec = _serve_spec(trials=1, simulator="request")
        result = serve(
            sspec,
            cursor_factory=lambda scenario: ChunkedReplayCursor(
                scenario.eval_traces, schedule=(1, 2, 3), initial_minutes=1
            ),
        )
        assert _canon(result.report) == _canon(api.run(sspec.experiment))
        # Gating really engaged: ticks ran behind the drip-fed horizon.
        assert result.totals.cursor_lag_s_max > 0.0

    @pytest.mark.parametrize(
        "backend_options",
        [
            {"auto_request_jobs": 1},
            {"promote_headroom": 0.2, "demote_headroom": 0.7, "min_dwell_ticks": 2},
        ],
        ids=["static-split", "promotion"],
    )
    def test_hybrid_backend_identity(self, backend_options):
        """The hybrid backend's mixed-fidelity state (static split or
        mid-run promotion) serves byte-identically to batch too."""
        sspec = _serve_spec(
            trials=1, simulator="hybrid", backend_options=backend_options
        )
        result = serve(sspec)
        assert _canon(result.report) == _canon(api.run(sspec.experiment))


# --------------------------------------------------------------- kill+resume


class TestKillResume:
    def test_kill_mid_run_then_resume_is_bit_identical(self, tmp_path):
        sspec = _serve_spec(serve_kwargs={"checkpoint_ticks": 7})
        baseline = serve(sspec)
        journal = tmp_path / "journal"
        # 48 ticks per trial: aborting at 105 kills the run 9 ticks into
        # the third trial, past its tick-7 checkpoint.
        with pytest.raises(ServeAborted):
            serve(sspec, journal=journal, abort_after_ticks=105)
        assert (journal / "checkpoint.pkl").exists()
        resumed = serve(sspec, journal=journal, resume=True)
        assert resumed.trials_resumed == 2
        assert resumed.trials_run == 2
        assert _canon(resumed.report) == _canon(baseline.report)
        # The full window sequence -- indices, spans, stats -- matches the
        # uninterrupted run, not just the merged report.
        assert [w.to_dict() for w in resumed.windows] == [
            w.to_dict() for w in baseline.windows
        ]

    def test_resume_requires_journal(self):
        with pytest.raises(ValueError, match="journal"):
            serve(_serve_spec(), resume=True)

    def test_journal_of_other_spec_rejected(self, tmp_path):
        journal = tmp_path / "journal"
        sspec = _serve_spec(trials=1)
        serve(sspec, journal=journal)
        other = _serve_spec(trials=1, seed=1)
        assert content_digest(other) != content_digest(sspec)
        with pytest.raises(ValueError, match="different spec"):
            serve(other, journal=journal, resume=True)

    def test_dirty_journal_without_resume_rejected(self, tmp_path):
        journal = tmp_path / "journal"
        sspec = _serve_spec(trials=1)
        serve(sspec, journal=journal)
        with pytest.raises(ValueError, match="resume"):
            serve(sspec, journal=journal)

    def test_foreign_nonempty_directory_not_adopted(self, tmp_path):
        journal = tmp_path / "precious"
        journal.mkdir()
        (journal / "data.txt").write_text("not a journal")
        with pytest.raises(ValueError, match="refusing"):
            serve(_serve_spec(trials=1), journal=journal)

    def test_serve_options_change_the_digest(self):
        exp = _tiny_spec()
        a = ServeSpec(experiment=exp, serve=ServeOptions(window_minutes=2))
        b = ServeSpec(experiment=exp, serve=ServeOptions(window_minutes=5))
        assert content_digest(a) != content_digest(b)


# -------------------------------------------------------------- degradation


class _FailingPolicy:
    """Delegating wrapper whose ``tick`` raises on scripted call numbers."""

    def __init__(self, inner, fail_calls):
        self._inner = inner
        self._fail_calls = frozenset(fail_calls)
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def tick(self, now, observations):
        self.calls += 1
        if self.calls in self._fail_calls or None in self._fail_calls:
            raise RuntimeError("injected solver failure")
        return self._inner.tick(now, observations)


class _SteppingClock(VirtualClock):
    """Virtual clock whose perf() advances a fixed step per read, so a
    deadline check sees every solve as taking ``step`` seconds.  Unlike
    its base, its intervals carry information, so it opts back into the
    loop's latency measurement."""

    measures = True

    def __init__(self, step: float) -> None:
        super().__init__()
        self._step = step
        self._t = 0.0

    def perf(self) -> float:
        self._t += self._step
        return self._t


def _build_loop(options, clock, fail_calls=()):
    scenario = _scenario_spec().build()
    seed = derive_trial_seed(0, 0)
    _, factory = make_policy_factory(
        api.PolicySpec(name="fairshare"), predictor_profile=PROFILE
    )
    policy = factory(scenario, seed)
    harness = build_trial_simulation(
        scenario, policy, simulator="flow", trial_seed=seed
    )
    if fail_calls:
        harness.policy = _FailingPolicy(harness.policy, fail_calls)
    acc = WindowAccumulator(
        scenario=scenario.name, policy="fairshare", trial=0, window_minutes=2
    )
    cursor = ReplayCursor.for_scenario(scenario)
    return ServeLoop(harness, cursor, options, clock, acc)


def _totals(windows):
    # ``ServeLoop.run`` returns the accumulator's full sealed list, tail
    # included -- fold it once.
    from repro.serve import WindowStats

    totals = WindowStats()
    for window in windows:
        totals.merge(window.stats)
    return totals


class TestDegradation:
    def test_solver_error_holds_once_and_recovers(self):
        loop = _build_loop(
            ServeOptions(window_minutes=2), VirtualClock(), fail_calls={3}
        )
        result, windows, _tail = loop.run()
        totals = _totals(windows)
        assert result is not None
        assert totals.solver_errors == 1
        assert totals.backoff_skips == 1  # backoff_ticks=1 after one failure
        assert totals.held_ticks == 2  # the failed tick + its backoff skip
        assert totals.ticks == loop.tick_count
        # A healthy solve resets the backoff schedule to its base.
        assert loop._backoff_next == loop.options.backoff_ticks

    def test_persistent_failure_never_kills_the_loop(self):
        loop = _build_loop(
            ServeOptions(window_minutes=2), VirtualClock(), fail_calls={None}
        )
        result, windows, _tail = loop.run()
        totals = _totals(windows)
        assert result is not None  # the trial still ran to completion
        assert totals.held_ticks == totals.ticks
        assert totals.solver_errors + totals.backoff_skips == totals.ticks
        assert totals.solver_errors > 1
        # Exponential backoff: skips dominate errors once doubling kicks in,
        # and the schedule saturates at the cap.
        assert totals.backoff_skips > totals.solver_errors
        assert loop._backoff_next == loop.options.max_backoff_ticks

    def test_deadline_overrun_holds_and_backs_off(self):
        loop = _build_loop(
            ServeOptions(window_minutes=2, tick_deadline_s=0.5),
            _SteppingClock(step=1.0),  # every solve "takes" >= 1s
        )
        result, windows, _tail = loop.run()
        totals = _totals(windows)
        assert result is not None
        assert totals.solver_errors == 0
        assert totals.solver_overruns > 0
        assert totals.backoff_skips > 0
        assert totals.held_ticks == totals.ticks
        assert totals.solver_overruns + totals.backoff_skips == totals.ticks

    def test_measuring_clock_read_twice_per_healthy_tick(self):
        """Without a deadline a measuring clock is read exactly at the start
        and end of each tick -- consecutive readings pair into latencies."""
        clock = _SteppingClock(step=1.0)
        loop = _build_loop(ServeOptions(window_minutes=2), clock)
        loop.run()
        assert loop.tick_count > 0
        assert clock._t == 2 * loop.tick_count  # one step per perf() read

    def test_no_deadline_means_no_overruns(self):
        loop = _build_loop(
            ServeOptions(window_minutes=2), _SteppingClock(step=1.0)
        )
        _, windows, _tail = loop.run()
        totals = _totals(windows)
        assert totals.solver_overruns == 0
        assert totals.held_ticks == 0
        # The stepping clock's fake latencies still land in the histogram.
        assert totals.tick_latency_s_max > 0.0

    def test_counters_surface_in_window_metadata(self):
        loop = _build_loop(
            ServeOptions(window_minutes=2), VirtualClock(), fail_calls={1}
        )
        _, windows, _ = loop.run()
        first = windows[0].to_dict()
        assert first["stats"]["solver_errors"] == 1
        assert first["stats"]["held_ticks"] == 2
        assert sum(first["stats"]["tick_latency_hist"].values()) == (
            first["stats"]["ticks"]
        )


# ------------------------------------------------------------------ cursors


class TestTailingFileCursor:
    def test_follows_appends_and_end_marker(self, tmp_path):
        path = tmp_path / "live.csv"
        path.write_text("minute,requests\n0,10\n1,20\n")
        cursor = TailingFileCursor(path, job="live-job")
        assert cursor.jobs == ("live-job",)
        assert cursor.poll() == 2
        assert not cursor.finished()
        np.testing.assert_allclose(
            cursor.read(0, 2)["live-job"], [10.0, 20.0]
        )
        # A partial trailing line is not consumed until its newline lands.
        with open(path, "a") as fh:
            fh.write("2,30\n3,4")
        assert cursor.poll() == 3
        with open(path, "a") as fh:
            fh.write("0\nend\n")
        assert cursor.poll() == 4
        assert cursor.finished()
        np.testing.assert_allclose(
            cursor.read(2, 4)["live-job"], [30.0, 40.0]
        )

    def test_multi_job_header(self, tmp_path):
        path = tmp_path / "live.csv"
        path.write_text("minute,alpha,beta\n0,1,2\n1,3,4\nend\n")
        cursor = TailingFileCursor(path)
        assert cursor.jobs == ("alpha", "beta")
        assert cursor.poll() == 2
        data = cursor.read(0, 2)
        np.testing.assert_allclose(data["alpha"], [1.0, 3.0])
        np.testing.assert_allclose(data["beta"], [2.0, 4.0])

    def test_gap_in_minutes_rejected(self, tmp_path):
        path = tmp_path / "live.csv"
        path.write_text("minute,requests\n0,10\n2,30\n")
        # The constructor's first poll already sees the bad row.
        with pytest.raises(ValueError, match="contiguous"):
            TailingFileCursor(path, job="live-job")

    def test_negative_rate_rejected(self, tmp_path):
        path = tmp_path / "live.csv"
        path.write_text("minute,requests\n0,-5\n")
        with pytest.raises(ValueError, match="negative"):
            TailingFileCursor(path, job="live-job")


# --------------------------------------------------------------------- spec


class TestServeSpec:
    def test_roundtrip_through_file(self, tmp_path):
        sspec = _serve_spec(
            window_minutes=3, serve_kwargs={"checkpoint_ticks": 5}
        )
        loaded = ServeSpec.from_file(sspec.to_file(tmp_path / "s.json"))
        assert loaded.serve == sspec.serve
        assert loaded.experiment.to_dict() == sspec.experiment.to_dict()

    def test_plain_experiment_file_gets_default_options(self, tmp_path):
        path = _tiny_spec().to_file(tmp_path / "plain.json")
        loaded = ServeSpec.from_file(path)
        assert loaded.serve == ServeOptions()

    def test_option_validation(self):
        with pytest.raises(ValueError, match="window_minutes"):
            ServeOptions(window_minutes=0)
        with pytest.raises(ValueError, match="tick_deadline_s"):
            ServeOptions(tick_deadline_s=-1.0)
        with pytest.raises(ValueError, match="realtime_speedup"):
            ServeOptions(realtime_speedup=0.0)
