"""The compiled flow kernel against its scalar reference, tick by tick.

:meth:`repro.sim.flow.FlowTable.step` advances every analytic job of a
run with one call of ``flow.c``; :meth:`FlowJob.step` and
:func:`accumulate_flow_tick` are the reference it must repeat bit for
bit.  The suite drives two copies of one simulation in lockstep, one on
the kernel and one with :func:`repro.sim.flow.kernel` forced to ``None``,
over drawn runs (cold starts landing on a tick, scale-ups and
scale-downs, tick and event faults, drop rates, heterogeneous processing
times, promotions and demotions, partial final chunks, short history
prefixes) and compares after every tick: the table's state and buckets,
each observation's values and types, and the collected series.  The
pinned flow and hybrid specs must hold on the reference alone, the
load-time check must refuse kernels that round unlike the reference, and
a table must pickle without its kernel's cffi objects.
"""

import contextlib
import functools
import math
import pickle
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import api, native
from repro.cluster.job import InferenceJobSpec
from repro.cluster.kubernetes import ResourceQuota
from repro.cluster.models import RESNET34, ModelProfile
from repro.core.utility import SLO
from repro.hetero.types import DeviceClass, DeviceFleet
from repro.policy import AutoscalePolicy, ScalingDecision
from repro.sim import (
    FlowSimulation,
    HybridBackendOptions,
    HybridSimulation,
    Simulation,
    SimulationConfig,
    flow,
)
from repro.sim.faults import FaultConfig
from repro.sim.harness import END_EPS
from tests.test_backend_differential import (
    HYBRID_DIGEST,
    HYBRID_PROMOTION_DIGEST,
    PINNED_FAULTS,
    PRE_MERGE_DIGESTS,
    PRE_REFACTOR_DIGESTS,
    digest,
    hybrid_spec,
    promotion_spec,
    report_digest,
    tiny_spec,
)


@pytest.fixture
def compiled():
    if flow.kernel() is None:
        pytest.skip("the flow kernel cannot be built on this host")


@contextlib.contextmanager
def reference():
    """Every table steps through the scalar reference while open."""
    loaded = flow.kernel
    flow.kernel = lambda: None
    try:
        yield
    finally:
        flow.kernel = loaded


class RandomPolicy(AutoscalePolicy):
    """Random replica targets and drop rates from its own seeded RNG."""

    name = "random"

    def __init__(self, names, seed, tick_interval, drops, devices=None):
        self.names = list(names)
        self.seed = seed
        self.tick_interval = tick_interval
        self.drops = drops
        self.devices = devices
        self.reset()

    def reset(self):
        self._rng = np.random.default_rng(self.seed)

    def tick(self, now, observations):
        rng = self._rng
        if rng.random() < 0.3:
            return None
        replicas = {
            name: int(rng.integers(0, 7)) for name in self.names if rng.random() < 0.6
        }
        drop_rates = {}
        if self.drops:
            drop_rates = {
                name: float(rng.choice([0.0, 0.1, 0.5, 1.0]))
                for name in self.names
                if rng.random() < 0.3
            }
        device_replicas = {}
        if self.devices:
            for name, count in replicas.items():
                gpus = int(rng.integers(0, min(count, 2) + 1))
                device_replicas[name] = {"cpu": count - gpus, "gpu": gpus}
        return ScalingDecision(
            replicas=replicas, drop_rates=drop_rates, device_replicas=device_replicas
        )


@st.composite
def runs(draw, max_jobs=12):
    """One drawn run: its jobs, traces, prefixes, settings and backend."""
    count = draw(st.integers(1, max_jobs))
    minutes = draw(st.integers(2, 6))
    jobs, traces, prefixes = [], {}, {}
    for i in range(count):
        proc = draw(st.sampled_from([0.05, 0.1, 0.18, 0.36]))
        slo = SLO(
            proc * draw(st.sampled_from([0.8, 2.0, 4.0])),
            draw(st.sampled_from([50.0, 95.0, 99.0])),
        )
        jobs.append(
            InferenceJobSpec(
                f"j{i}", ModelProfile(f"m{i}", proc, proc_jitter=0.0), slo,
                min_replicas=draw(st.integers(1, 2)),
            )
        )
        traces[f"j{i}"] = np.array(
            draw(st.lists(st.sampled_from([0.0, 30.0, 240.0, 700.0, 1500.0, 2500.0]),
                          min_size=minutes, max_size=minutes))
        )
        length = draw(st.sampled_from([None, 0, 1, 4, 20]))
        if length is not None:
            prefixes[f"j{i}"] = np.arange(1.0, length + 1.0) * 37.0
    faults = draw(st.sampled_from([None, "tick", "event"]))
    backend = draw(st.sampled_from(["flow", "hybrid", "promote"]))
    return {
        "jobs": jobs,
        "traces": traces,
        "prefixes": prefixes,
        "minutes": minutes,
        "tick": draw(st.sampled_from([5.0, 10.0, 25.0, 35.0])),
        "cold": draw(st.sampled_from([(0.0, 0.0), (10.0, 10.0), (5.0, 25.0), (30.0, 40.0)])),
        "threshold": draw(st.sampled_from([5, 50])),
        "history": draw(st.sampled_from([1, 3, 15])),
        "faults": None if faults is None else FaultConfig(
            mttf_seconds=120.0, seed=draw(st.integers(0, 3)), process=faults
        ),
        "backend": backend,
        "drops": draw(st.booleans()),
        "hetero": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


def build(run):
    """A fresh simulation of ``run``, its policy reset."""
    names = [job.name for job in run["jobs"]]
    devices = None
    if run["hetero"]:
        devices = DeviceFleet(
            (DeviceClass(name="cpu", count=100),
             DeviceClass(name="gpu", count=12, speedup=3.0)),
        )
    config = SimulationConfig(
        duration_minutes=run["minutes"],
        seed=run["seed"],
        queue_threshold=run["threshold"],
        cold_start_range=run["cold"],
        history_minutes=run["history"],
        faults=run["faults"],
    )
    cls, options = FlowSimulation, None
    if run["backend"] == "hybrid":
        cls, options = HybridSimulation, HybridBackendOptions(request_jobs=(names[0],))
    elif run["backend"] == "promote":
        cls = HybridSimulation
        options = HybridBackendOptions(
            promote_headroom=0.3, demote_headroom=0.6, min_dwell_ticks=1
        )
    policy = RandomPolicy(names, run["seed"], run["tick"], run["drops"], run["hetero"])
    sim = cls(
        run["jobs"], run["traces"], policy, ResourceQuota.of_replicas(6 * len(names)),
        config=config,
        initial_replicas={name: i % 3 for i, name in enumerate(names)},
        history_prefix=run["prefixes"],
        options=options,
        devices=devices,
    )
    sim.policy.reset()
    sim._reset()
    return sim


def bits(value):
    """A value's type and exact bits (a tuple's, element by element)."""
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, float):
        return type(value), value.hex()
    return type(value), value


TABLE_ARRAYS = (
    "listed", "queue", "drop_rate", "proc_time", "ready", "target", "due",
    *flow.FlowTable.BUCKETS, "last_arrivals", "last_violations", "last_latency",
)


def assert_same_tables(table, other):
    assert (table is None) == (other is None)
    for name in TABLE_ARRAYS if table is not None else ():
        assert getattr(table, name).tobytes() == getattr(other, name).tobytes(), name


def expected_window(sim, name, minute):
    """The analytic rate history the observation must carry: the minutes
    up to ``minute``, reaching into the history prefix before minute 0."""
    scale = sim.config.rate_scale
    trace = sim.traces[name] * scale
    start = minute - (sim.config.history_minutes - 1)
    if start >= 0:
        window = trace[start : minute + 1]
    else:
        prefix = sim.history_prefix.get(name, np.zeros(0)) * scale
        pad = prefix[len(prefix) + start :] if len(prefix) + start >= 0 else prefix
        window = np.concatenate([pad, trace[: minute + 1]])
    return tuple(window / 60.0)


def job_state(sim):
    """Each analytic job's replicas, target, queue, processing time and
    drop rate, as its observation must read them."""
    return {
        name: (job.running, job.target, int(job.queue), job.proc_time, job.drop_rate)
        for name, job in sim.analytic_jobs().items()
    }


def assert_analytic_observation(sim, obs, now, state):
    """Types and values of one analytic job's observation at ``now``,
    taken when the job's state was ``state``."""
    name = obs.job_name
    minute = min(int(now // 60.0), sim.duration_minutes - 1)
    assert type(obs.arrival_rate) is np.float64
    assert all(type(rate) is np.float64 for rate in obs.rate_history)
    assert type(obs.latency) is np.float64
    assert type(obs.slo_violation_rate) is np.float64
    assert type(obs.mean_proc_time) is float and type(obs.drop_rate) is float
    for count in (obs.current_replicas, obs.target_replicas, obs.queue_length):
        assert type(count) is int
    trace = sim.traces[name] * sim.config.rate_scale
    assert bits(obs.arrival_rate) == bits(trace[minute] / 60.0)
    assert bits(obs.rate_history) == bits(expected_window(sim, name, minute))
    assert (
        obs.current_replicas, obs.target_replicas, obs.queue_length,
        obs.mean_proc_time, obs.drop_rate,
    ) == state


def run_lockstep(run):
    """Step the kernel's and the reference's copy of ``run`` together,
    comparing them after every tick; return both results."""
    compiled_sim = build(run)
    with reference():
        reference_sim = build(run)
    tick = compiled_sim.tick_seconds()
    end = compiled_sim.duration_minutes * 60.0
    now = 0.0
    ticks = 0
    states = {}

    def decide(at, observations):
        states.update(job_state(compiled_sim))
        return compiled_sim.policy.tick(at, observations)

    while now < end - END_EPS:
        after, observations = compiled_sim.step(now, tick, end, decide)
        with reference():
            expected_after, expected = reference_sim.step(now, tick, end)
        assert after == expected_after
        now = after
        ticks += 1
        assert_same_tables(compiled_sim._flow, reference_sim._flow)
        # Each job runs at exactly one fidelity: a listed row or a router.
        analytic = set(compiled_sim.analytic_jobs())
        routed = set(compiled_sim.cluster.routers) if compiled_sim.cluster else set()
        assert not analytic & routed
        assert analytic | routed == {job.name for job in compiled_sim.jobs}
        assert list(observations) == list(expected)
        for name, obs in observations.items():
            assert [bits(getattr(obs, f.name)) for f in fields(obs)] == [
                bits(getattr(expected[name], f.name)) for f in fields(obs)
            ], name
            if name in states:
                assert_analytic_observation(compiled_sim, obs, now, states.pop(name))
    result = compiled_sim.collect()
    with reference():
        expected_result = reference_sim.collect()
    for name, series in result.jobs.items():
        other = expected_result.jobs[name]
        for field in ("arrivals", "drops", "violations", "latency_p",
                      "utility", "effective_utility", "replicas"):
            assert getattr(series, field).tobytes() == getattr(other, field).tobytes()
    return result, expected_result, ticks


@pytest.mark.usefixtures("compiled")
class TestKernelAgainstReference:
    @given(run=runs())
    @settings(
        max_examples=30, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_drawn_runs_match_tick_by_tick(self, run):
        run_lockstep(run)

    def test_hundred_jobs(self):
        """Table 8's job count, with faults and drop directives."""
        rng = np.random.default_rng(100)
        jobs = [
            InferenceJobSpec.with_default_slo(
                f"j{i}",
                ModelProfile(f"m{i}", float(rng.choice([0.1, 0.18])), proc_jitter=0.0),
            )
            for i in range(100)
        ]
        run = {
            "jobs": jobs,
            "traces": {job.name: rng.uniform(0.0, 900.0, 3) for job in jobs},
            "prefixes": {job.name: rng.uniform(0.0, 900.0, 20) for job in jobs[::3]},
            "minutes": 3, "tick": 10.0, "cold": (10.0, 30.0), "threshold": 50,
            "history": 15, "faults": FaultConfig(mttf_seconds=200.0, seed=2),
            "backend": "flow", "drops": True, "hetero": False, "seed": 5,
        }
        result, _, ticks = run_lockstep(run)
        assert ticks == 18
        assert result.metadata["kernels"]["flow"] == "c"
        assert result.metadata["total_failures"] > 0

    def test_rows_the_kernel_cannot_vouch_for_go_to_the_reference(self):
        """A negative rate could make the reference raise: the kernel
        leaves that row, and every listed row after it, to the reference."""
        names = ["a", "b", "c"]
        table = flow.FlowTable(names, 2, 15)
        for row in range(3):
            table.add(
                row, InferenceJobSpec.with_default_slo(names[row], RESNET34),
                np.full(2, 600.0), None, 50, (0.0, 0.0), np.random.default_rng(row),
            ).running = 2
        table.history[1, table.pad:] = -1.0
        table.queue[1] = 5.0
        table.flows[1].running = 0
        assert flow.kernel().step(table, 0, 10.0) == 1
        assert table.last_arrivals[0] == 100.0
        assert table.last_arrivals[1] == table.last_arrivals[2] == 0.0
        table._step_reference(0, 10.0, 1)
        assert table.last_arrivals.tolist() == [100.0, -10.0, 100.0]


class TestReferenceHoldsThePins:
    """With the kernel forced off, every flow and hybrid pin holds."""

    @pytest.fixture(autouse=True)
    def reference_only(self):
        with reference():
            yield

    def test_tiny_flow(self):
        assert report_digest(tiny_spec("tiny-flow", "flow")) == PRE_REFACTOR_DIGESTS["tiny-flow"]

    @pytest.mark.parametrize("process", ["tick", "event"])
    def test_tiny_flow_faults(self, process):
        name = f"tiny-flow-{process}-faults"
        spec = tiny_spec(
            name, "flow", trials=1, sim_overrides={"faults": PINNED_FAULTS[process]}
        )
        report = api.run(spec)
        result = report.get("tiny-SO", "fairshare").results[0]
        assert result.metadata["kernels"]["flow"] == "python"
        assert digest(report) == PRE_MERGE_DIGESTS[name]

    def test_hybrid(self):
        assert report_digest(hybrid_spec()) == HYBRID_DIGEST

    def test_hybrid_promotion(self):
        assert report_digest(promotion_spec()) == HYBRID_PROMOTION_DIGEST

    @pytest.mark.slow
    @pytest.mark.parametrize("path", ["specs/quickstart.yaml", "specs/mixed_sweep.json"])
    def test_shipped_flow_spec(self, path):
        spec = api.ExperimentSpec.from_file(path)
        assert report_digest(spec) == PRE_REFACTOR_DIGESTS[path]


class TestLoadTimeCheck:
    """Kernels that round unlike the reference are refused when they load,
    with one warning, and runs fall back to the reference."""

    MUTANTS = {
        "swapped min operands": (
            "py_min(queue_start + inflow, capacity)",
            "py_min(capacity, queue_start + inflow)",
        ),
        "a single Erlang-C evaluation": (
            "erlang_c(servers, lam / mu)",
            "erlang_c(servers, lam * p)",
        ),
    }

    def refused(self, source, monkeypatch, tmp_path):
        path = tmp_path / "flow.c"
        path.write_text(source)
        monkeypatch.setattr(flow, "SOURCE", path)
        flow.kernel.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                loaded = flow.kernel()
        finally:
            flow.kernel.cache_clear()
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        return loaded is None, messages

    @pytest.mark.usefixtures("compiled")
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_is_refused(self, mutant, monkeypatch, tmp_path):
        old, new = self.MUTANTS[mutant]
        source = flow.SOURCE.read_text()
        assert source.count(old) == 1
        refused, messages = self.refused(source.replace(old, new), monkeypatch, tmp_path)
        assert refused
        assert len(messages) == 1
        assert "the load-time check disagrees with FlowJob.step" in messages[0]

    @pytest.mark.usefixtures("compiled")
    def test_contracted_build_is_refused(self, monkeypatch, tmp_path):
        from numpy._core._multiarray_umath import __cpu_features__

        if not __cpu_features__.get("FMA3"):
            pytest.skip("this CPU has no fused multiply-add to contract into")
        flags = tuple(flag for flag in native.CFLAGS if not flag.startswith("-ffp-contract"))
        monkeypatch.setattr(native, "CFLAGS", (*flags, "-ffp-contract=fast", "-mfma"))
        refused, messages = self.refused(flow.SOURCE.read_text(), monkeypatch, tmp_path)
        assert refused and len(messages) == 1

    def test_compile_failure_falls_back(self, monkeypatch, tmp_path):
        refused, messages = self.refused("this is not C\n", monkeypatch, tmp_path)
        assert refused
        assert len(messages) == 1 and "cc failed to compile flow.c" in messages[0]


class TestTable:
    def test_runs_without_analytic_jobs_build_no_table(self, monkeypatch):
        monkeypatch.setattr(flow, "kernel", functools.cache(flow.kernel.__wrapped__))
        job = InferenceJobSpec.with_default_slo("svc", RESNET34)
        sim = Simulation(
            [job], {"svc": np.full(2, 120.0)}, RandomPolicy(["svc"], 0, 10.0, False),
            ResourceQuota.of_replicas(8),
            config=SimulationConfig(duration_minutes=2, cold_start_range=(0.0, 0.0)),
        )
        result = sim.run()
        assert sim._flow is None
        assert result.metadata["kernels"]["flow"] is None
        assert flow.kernel.cache_info().currsize == 0

    @pytest.mark.usefixtures("compiled")
    def test_simulation_pickles_mid_run_and_carries_on(self):
        """Serve checkpoints pickle live harnesses: the kernel's structs
        stay in the kernel, and a restored table steps exactly as the
        original does."""
        run = {
            "jobs": [InferenceJobSpec.with_default_slo(f"j{i}", RESNET34) for i in range(3)],
            "traces": {f"j{i}": np.full(4, 300.0 * (i + 1)) for i in range(3)},
            "prefixes": {}, "minutes": 4, "tick": 10.0, "cold": (5.0, 25.0),
            "threshold": 50, "history": 15, "faults": None, "backend": "flow",
            "drops": True, "hetero": False, "seed": 3,
        }
        sim = build(run)
        now = 0.0
        for _ in range(7):
            now, _ = sim.step(now, 10.0, 240.0)
        restored = pickle.loads(pickle.dumps(sim))
        assert restored._flow is not sim._flow
        while now < 240.0 - END_EPS:
            after, observations = sim.step(now, 10.0, 240.0)
            restored_after, restored_obs = restored.step(now, 10.0, 240.0)
            assert after == restored_after and observations == restored_obs
            now = after
        assert_same_tables(sim._flow, restored._flow)

    def test_reset_refills_in_place_and_results_keep_their_replicas(self):
        job = InferenceJobSpec.with_default_slo("svc", RESNET34)
        sim = FlowSimulation(
            [job], {"svc": np.full(2, 120.0)}, RandomPolicy(["svc"], 1, 10.0, False),
            ResourceQuota.of_replicas(8),
            config=SimulationConfig(duration_minutes=2, cold_start_range=(0.0, 0.0)),
        )
        arrays = [getattr(sim._flow, name) for name in TABLE_ARRAYS]
        result = sim.run()
        sim._reset()
        assert all(getattr(sim._flow, name) is array
                   for name, array in zip(TABLE_ARRAYS, arrays))
        assert not sim._flow.replicas.any()
        assert result.jobs["svc"].replicas.all()


class _HistoryRecorder(AutoscalePolicy):
    name = "history-recorder"
    tick_interval = 10.0

    def __init__(self):
        self.lengths = []

    def reset(self):
        self.lengths = []

    def tick(self, now, observations):
        self.lengths.append(len(observations["svc"].rate_history))
        return None


@pytest.mark.parametrize("history", [5, 15, 30])
def test_every_fidelity_reads_history_minutes(history):
    """``history_minutes`` sets the rate history's length at request
    fidelity, at flow fidelity and across a hybrid promotion."""
    job = InferenceJobSpec.with_default_slo("svc", RESNET34)
    rng = np.random.default_rng(9)
    traces = {"svc": rng.uniform(900.0, 1500.0, 40)}
    prefix = {"svc": rng.uniform(300.0, 900.0, 60)}
    lengths = {}
    for label, cls, options in (
        ("request", Simulation, None),
        ("flow", FlowSimulation, None),
        ("hybrid", HybridSimulation, HybridBackendOptions(promote_headroom=0.9)),
    ):
        policy = _HistoryRecorder()
        sim = cls(
            [job], traces, policy, ResourceQuota.of_replicas(4),
            config=SimulationConfig(duration_minutes=40, history_minutes=history),
            initial_replicas={"svc": 1},
            history_prefix=prefix,
            options=options,
        )
        result = sim.run()
        if label == "hybrid":
            assert result.metadata["fidelity_events"]
        lengths[label] = set(policy.lengths)
    assert lengths == {"request": {history}, "flow": {history}, "hybrid": {history}}


def test_history_minutes_must_be_positive():
    with pytest.raises(ValueError, match="history_minutes must be >= 1"):
        SimulationConfig(history_minutes=0)


def test_default_window_reads_fifteen_minutes_of_prefix():
    """At the default ``history_minutes`` the table's window is the old
    fifteen minutes, prefix first."""
    table = flow.FlowTable(["svc"], 3, 15)
    table.add(
        0, InferenceJobSpec.with_default_slo("svc", RESNET34), np.array([60.0, 120.0, 180.0]),
        np.arange(1.0, 21.0) * 60.0, 50, (0.0, 0.0), np.random.default_rng(0),
    )
    (obs,) = table.observations(1)
    assert obs.rate_history == tuple([float(v) for v in range(8, 21)] + [1.0, 2.0])
    assert math.isclose(obs.arrival_rate, 2.0)
