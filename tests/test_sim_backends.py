"""Backend-architecture tests: registry, typed options, lifecycle, batching.

Covers the pluggable-simulation seam: the :class:`SimBackendRegistry`
behaves like the policy registry (case-insensitive names, aliases, loud
unknown-option failures), the request and flow backends are presets of the
hybrid harness with no dynamics of their own, batch offers are
bit-identical to per-request offers, the event-driven replica lifecycle
reproduces the list-based bookkeeping it replaced, and the flow simulator
now honours ``SimulationConfig.faults`` (which it previously ignored
silently).
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from repro.cluster import dispatch
from repro.cluster.job import InferenceJobSpec
from repro.cluster.kubernetes import ResourceQuota
from repro.cluster.metrics import MetricsCollector
from repro.cluster.models import RESNET34, ModelProfile
from repro.cluster.router import JobRouter
from repro.core.utility import SLO
from repro.sim import (
    FlowSimulation,
    HybridBackendOptions,
    HybridSimulation,
    PoissonArrivals,
    ReplicaLifecycle,
    SimBackendInfo,
    SimBackendRegistry,
    Simulation,
    SimulationConfig,
    get_backend_registry,
)
from repro.sim.faults import FaultConfig, make_fault_injector
from repro.sim.harness import SimHarness
from repro.sim.lifecycle import EventFaultProcess
from tests.test_simulation import StaticPolicy


# ---------------------------------------------------------------- registry


class TestBackendRegistry:
    def test_builtins_registered(self):
        registry = get_backend_registry()
        assert registry.names() == ("request", "flow", "hybrid")
        assert registry.get("request").cls is Simulation
        assert registry.get("flow").cls is FlowSimulation
        assert registry.get("hybrid").cls is HybridSimulation

    def test_presets_define_no_dynamics(self):
        """``request`` and ``flow`` are the hybrid harness with every job, or
        no job, flagged: they may not carry dynamics of their own."""
        hooks = {"_setup", "advance", "observations", "apply", "collect"}
        for preset in (Simulation, FlowSimulation):
            assert issubclass(preset, HybridSimulation)
            assert not hooks & set(vars(preset)), preset
            assert preset.options_type is None
        assert Simulation.supports_streaming
        assert not FlowSimulation.supports_streaming
        assert not HybridSimulation.supports_streaming

    def test_aliases_and_case_insensitivity(self):
        registry = get_backend_registry()
        assert registry.get("analytic-flow").name == "flow"
        assert registry.get("Request-Level").name == "request"
        assert "ANALYTIC" in registry

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator"):
            get_backend_registry().get("hardware")

    def test_unknown_options_fail_loudly(self):
        registry = get_backend_registry()
        with pytest.raises(ValueError, match="unknown option"):
            registry.parse_options("hybrid", {"request_job": ["a"]})  # typo
        with pytest.raises(ValueError, match="accepts no options"):
            registry.parse_options("flow", {"anything": 1})

    def test_parse_options_typed(self):
        registry = get_backend_registry()
        options = registry.parse_options("hybrid", {"request_jobs": ["a", "b"]})
        assert isinstance(options, HybridBackendOptions)
        assert options.request_jobs == ("a", "b")
        # An already-typed instance passes through unchanged.
        assert registry.parse_options("hybrid", options) is options
        assert registry.parse_options("request", None) is None
        with pytest.raises(ValueError, match="accepts no options"):
            registry.parse_options("request", {"vectorize": False})

    def test_register_unregister_roundtrip(self):
        registry = SimBackendRegistry()

        @dataclass(frozen=True)
        class Options:
            knob: int = 1

        @registry.register("toy", description="toy", config_type=Options,
                           fidelity="test", aliases=("plaything",))
        class ToyBackend(SimHarness):
            options_type = Options

        assert registry.get("plaything").cls is ToyBackend
        assert registry.parse_options("toy", {"knob": 3}).knob == 3
        with pytest.raises(ValueError, match="already registered"):
            registry.register("TOY")(ToyBackend)
        registry.unregister("toy")
        assert "toy" not in registry and "plaything" not in registry

    def test_option_fields_for_docs(self):
        info = get_backend_registry().get("hybrid")
        assert dict(info.option_fields()) == {
            "request_jobs": (),
            "auto_request_jobs": 0,
            "promote_headroom": None,
            "demote_headroom": None,
            "min_dwell_ticks": 3,
        }

    def test_config_type_must_be_dataclass(self):
        registry = SimBackendRegistry()
        with pytest.raises(TypeError, match="dataclass"):
            registry.add(
                SimBackendInfo(name="x", description="", cls=SimHarness,
                               config_type=int)
            )


# ------------------------------------------------------- config validation


class TestSimulationConfigValidation:
    def test_cold_start_range_ordering(self):
        with pytest.raises(ValueError, match="cold_start_range"):
            SimulationConfig(cold_start_range=(70.0, 50.0))

    def test_cold_start_range_negative(self):
        with pytest.raises(ValueError, match="cold_start_range"):
            SimulationConfig(cold_start_range=(-1.0, 5.0))

    def test_cold_start_range_wrong_arity(self):
        with pytest.raises(ValueError, match="pair"):
            SimulationConfig(cold_start_range=(1.0, 2.0, 3.0))

    def test_cold_start_range_list_canonicalized(self):
        config = SimulationConfig(cold_start_range=[5, 9])
        assert config.cold_start_range == (5.0, 9.0)

    def test_faults_require_explicit_duration(self):
        with pytest.raises(ValueError, match="duration_minutes"):
            SimulationConfig(faults=FaultConfig())

    def test_faults_mapping_coerced(self):
        config = SimulationConfig(
            duration_minutes=10,
            faults={"mttf_seconds": 120.0, "seed": 3, "process": "event"},
        )
        assert isinstance(config.faults, FaultConfig)
        assert config.faults.process == "event"

    def test_unknown_fault_process_rejected(self):
        with pytest.raises(ValueError, match="fault process"):
            FaultConfig(process="psychic")


# ------------------------------------------------------ vectorized routing


def _mk_router(jitter, replicas=4, seed=0, drop_rate=0.0, threshold=50):
    router = JobRouter(
        job_name="svc",
        model=ModelProfile(name="m", proc_time=0.18, proc_jitter=jitter),
        initial_replicas=replicas,
        queue_threshold=threshold,
        cold_start_range=(0.0, 0.0),
        seed=seed,
    )
    router.drop_rate = drop_rate
    return router

def _router_state(router, now):
    return {
        "replicas": {
            rid: (r.ready_at, r.free_at, r.served, r.active)
            for rid, r in router._replicas.items()
        },
        "queue": router.queue_length(now),
        "totals": (
            router.totals.arrivals,
            router.totals.served,
            router.totals.tail_dropped,
            router.totals.explicit_dropped,
        ),
        "rng": router._rng.bit_generator.state,
    }


def _chunked_arrivals(rpm, minutes, seed, tick=10.0):
    stream = PoissonArrivals(np.full(minutes, float(rpm)), seed=seed)
    chunks, now, end = [], 0.0, minutes * 60.0
    while now < end - 1e-9:
        now = min(now + tick, end)
        chunks.append(np.asarray(stream.take_until(now), dtype=float))
    return chunks


#: Hand-built chunk sequences for edge cases a Poisson stream rarely hits,
#: each with the queue threshold it needs.
_EDGE_CHUNKS = {
    # Spaced arrivals: nothing ever waits.
    "spaced": ([np.arange(1.0, 17.0)], 50),
    # A burst after spaced arrivals queues behind the pool but never drops.
    "burst-waits": ([np.concatenate([np.arange(1.0, 17.0), [17.0, 17.01]])], 50),
    # A dense burst overflows the threshold mid-chunk: tail drops follow.
    "burst-overflows": (
        [np.concatenate([np.arange(1.0, 17.0), 17.0 + np.arange(8) * 0.001])],
        4,
    ),
    # The second chunk starts with requests still waiting in the queue.
    "backlogged-start": ([np.array([1.0, 1.01]), np.array([1.05, 1.06, 1.3])], 50),
    # A chunk of three whose third arrival meets a full one-slot queue.
    "short-full-queue": ([np.array([1.0, 1.001, 1.002])], 1),
    # Requests arrive at the exact instant a waiting request starts: it
    # leaves the queue first, so they find the one slot free.
    "arrival-meets-start": ([np.array([1.0, 1.0, 1.0 + 0.18, 1.0 + 0.18])], 1),
}


class TestOfferManyBitIdentity:
    """offer_many == sequential offer, state and all, on every regime."""

    @pytest.mark.parametrize(
        "load,replicas,jitter,drop_rate",
        [
            (120, 4, 0.0, 0.0),    # underloaded: nothing waits
            (900, 3, 0.0, 0.0),    # saturating: requests wait
            (2400, 1, 0.0, 0.0),   # overload: tail drops at the threshold
            (300, 4, 0.05, 0.0),   # jittered service: RNG per request
            (300, 4, 0.0, 0.25),   # explicit drop directive: RNG per request
            (600, 2, 0.05, 0.1),   # everything at once
            ("spaced", 4, 0.0, 0.0),
            ("burst-waits", 1, 0.0, 0.0),
            ("burst-overflows", 1, 0.0, 0.0),
            ("backlogged-start", 1, 0.0, 0.0),
            ("backlogged-start", 1, 0.05, 0.5),
            ("short-full-queue", 1, 0.0, 0.0),
            ("arrival-meets-start", 1, 0.0, 0.0),
        ],
    )
    def test_differential(self, load, replicas, jitter, drop_rate):
        """``load`` is a Poisson rate (requests/minute) or an edge case."""
        if isinstance(load, str):
            chunks, threshold = _EDGE_CHUNKS[load]
        else:
            chunks, threshold = _chunked_arrivals(load, minutes=4, seed=11), 50
        scalar = _mk_router(jitter, replicas, seed=7, drop_rate=drop_rate,
                            threshold=threshold)
        batch = _mk_router(jitter, replicas, seed=7, drop_rate=drop_rate,
                           threshold=threshold)
        now = 0.0
        for chunk in chunks:
            now += 10.0
            expected = np.array([scalar.offer(t) for t in chunk.tolist()])
            got = batch.offer_many(chunk)
            np.testing.assert_array_equal(expected, got)
            assert _router_state(scalar, now) == _router_state(batch, now)

    def test_empty_chunk(self):
        router = _mk_router(jitter=0.0)
        assert router.offer_many(np.empty(0)).shape == (0,)

    def test_mid_run_scale_down_keeps_identity(self):
        scalar = _mk_router(jitter=0.0, replicas=4, seed=3)
        batch = _mk_router(jitter=0.0, replicas=4, seed=3)
        chunks = _chunked_arrivals(400, minutes=3, seed=5)
        for index, chunk in enumerate(chunks):
            if index == 6:
                scalar.scale_to(2, now=60.0)
                batch.scale_to(2, now=60.0)
            for t in chunk.tolist():
                scalar.offer(t)
            batch.offer_many(chunk)
        assert _router_state(scalar, 180.0) == _router_state(batch, 180.0)


class TestRecordManyBitIdentity:
    def _collector(self):
        return MetricsCollector(
            job_name="svc", slo=SLO(target=0.72, percentile=99.0), proc_time=0.18
        )

    def test_matches_sequential_record(self):
        rng = np.random.default_rng(0)
        arrivals = np.sort(rng.uniform(0.0, 240.0, 500))
        latencies = rng.uniform(0.1, 1.5, 500)
        latencies[rng.random(500) < 0.1] = math.inf  # drops
        scalar, batch = self._collector(), self._collector()
        for arrival, latency in zip(arrivals.tolist(), latencies.tolist()):
            scalar.record(arrival, latency)
        batch.record_many(arrivals, latencies)
        assert scalar._bins.keys() == batch._bins.keys()
        for index in scalar._bins:
            a, b = scalar._bins[index], batch._bins[index]
            assert (a.arrivals, a.drops, a.violations) == (
                b.arrivals, b.drops, b.violations,
            )
            assert a.latencies == b.latencies
            assert a.proc_time_sum == b.proc_time_sum  # bit-exact, not approx
        for minute in range(4):
            assert scalar.minute_stats(minute) == batch.minute_stats(minute)

    def test_empty_batch_is_noop(self):
        collector = self._collector()
        collector.record_many(np.empty(0), np.empty(0))
        assert collector._bins == {}


class TestTakeUntilArray:
    def test_matches_list_variant(self):
        a = PoissonArrivals(np.full(3, 200.0), seed=9)
        b = PoissonArrivals(np.full(3, 200.0), seed=9)
        now = 0.0
        for _ in range(18):
            now += 10.0
            taken = a.take_until(now)
            array = b.take_until_array(now)
            assert array.dtype == float
            np.testing.assert_array_equal(np.asarray(taken), array)
        assert a.generated == b.generated


# ----------------------------------------------------- event-driven lifecycle


class TestReplicaLifecycle:
    def _lifecycle(self, ready=2, cold=(30.0, 30.0), seed=0):
        return ReplicaLifecycle(cold, np.random.default_rng(seed), initial_ready=ready)

    def test_cold_start_promotes_on_advance(self):
        lifecycle = self._lifecycle()
        lifecycle.scale_to(4, now=0.0)
        assert (lifecycle.ready, lifecycle.starting) == (2, 2)
        lifecycle.advance(29.0)
        assert lifecycle.ready == 2
        lifecycle.advance(30.0)
        assert (lifecycle.ready, lifecycle.starting) == (4, 0)
        assert lifecycle.cold_starts_completed == 2

    def test_scale_down_cancels_latest_cold_start_first(self):
        lifecycle = self._lifecycle(ready=1, cold=(10.0, 50.0), seed=4)
        lifecycle.scale_to(4, now=0.0)
        times = sorted(lifecycle.pending_ready_times())
        lifecycle.scale_to(3, now=1.0)  # cancels the latest ready time
        assert sorted(lifecycle.pending_ready_times()) == times[:-1]
        assert lifecycle.cold_starts_cancelled == 1
        # Tombstoned events firing later must not resurrect the replica.
        lifecycle.advance(100.0)
        assert lifecycle.ready == 1 + 2

    def test_scale_down_past_pending_retires_ready(self):
        lifecycle = self._lifecycle(ready=3)
        lifecycle.scale_to(1, now=0.0)
        assert (lifecycle.ready, lifecycle.starting) == (1, 0)

    def test_fail_kills_ready_first_then_cold_starting(self):
        lifecycle = self._lifecycle(ready=2)
        lifecycle.scale_to(3, now=0.0)
        # Demand beyond the ready pool spills into cold-starting replicas
        # (the request-level fail_replica kills those too), so a sampled
        # failure count over the existing pool is always fully applied.
        assert lifecycle.fail(5) == 3
        assert (lifecycle.ready, lifecycle.starting) == (0, 0)
        assert lifecycle.failures == 3
        # A killed cold start must not resurrect when its event fires.
        lifecycle.advance(100.0)
        assert lifecycle.ready == 0

    def test_matches_legacy_list_bookkeeping(self):
        """Drop-in equivalence with the pending-list the flow sim used."""
        rng_a = np.random.default_rng(12)
        rng_b = np.random.default_rng(12)
        lifecycle = ReplicaLifecycle((10.0, 70.0), rng_a, initial_ready=3)

        running, pending = 3, []
        def legacy_scale(target, now):
            nonlocal running
            current = running + len(pending)
            if target > current:
                for _ in range(target - current):
                    pending.append(now + float(rng_b.uniform(10.0, 70.0)))
            elif target < current:
                shrink = current - target
                pending.sort()
                while shrink > 0 and pending:
                    pending.pop()
                    shrink -= 1
                running = max(running - shrink, 0)
        def legacy_promote(now):
            nonlocal running
            ready = [t for t in pending if t <= now]
            running += len(ready)
            pending[:] = [t for t in pending if t > now]

        schedule = [(5.0, 6), (20.0, 2), (40.0, 8), (90.0, 3), (130.0, 5)]
        now = 0.0
        for until, target in schedule:
            while now < until:
                now += 10.0
                lifecycle.advance(now)
                legacy_promote(now)
                assert (lifecycle.ready, lifecycle.starting) == (running, len(pending))
            lifecycle.scale_to(target, now)
            legacy_scale(target, now)
            assert sorted(lifecycle.pending_ready_times()) == sorted(pending)


class TestEventFaultProcess:
    def test_deterministic_given_seed(self):
        a = EventFaultProcess(FaultConfig(mttf_seconds=100.0, seed=5, process="event"))
        b = EventFaultProcess(FaultConfig(mttf_seconds=100.0, seed=5, process="event"))
        assert [a.sample("j", 10, 30.0) for _ in range(50)] == [
            b.sample("j", 10, 30.0) for _ in range(50)
        ]

    def test_poisson_mean(self):
        process = EventFaultProcess(FaultConfig(mttf_seconds=1000.0, seed=1))
        total = sum(process.sample("j", 10, 10.0) for _ in range(2000))
        # 2000 ticks x 10 replicas x 10 s / 1000 s MTTF = 200 expected.
        assert 150 < total < 260
        assert process.total_failures == total

    def test_work_carries_across_ticks(self):
        """Sub-threshold ticks accumulate instead of being re-rolled.

        Same accumulated replica-time in one call or a thousand crosses the
        same exponential thresholds (replica count large enough that the
        per-call kill cap never binds).
        """
        burst = EventFaultProcess(FaultConfig(mttf_seconds=5000.0, seed=2))
        dribble = EventFaultProcess(FaultConfig(mttf_seconds=5000.0, seed=2))
        a = burst.sample("j", 200, 1000.0)
        b = sum(dribble.sample("j", 200, 1.0) for _ in range(1000))
        assert a > 0
        assert a == b  # same replica-time -> same threshold crossings

    def test_reset_and_validation(self):
        process = EventFaultProcess(FaultConfig(mttf_seconds=1.0, seed=3))
        process.sample("j", 5, 10.0)
        assert process.total_failures > 0
        process.reset()
        assert process.total_failures == 0
        with pytest.raises(ValueError):
            process.sample("j", -1, 1.0)
        with pytest.raises(ValueError):
            process.sample("j", 1, -1.0)
        assert process.sample("j", 0, 10.0) == 0

    def test_factory_selects_process(self):
        from repro.sim.faults import FaultInjector

        assert isinstance(make_fault_injector(FaultConfig()), FaultInjector)
        assert isinstance(
            make_fault_injector(FaultConfig(process="event")), EventFaultProcess
        )


# ----------------------------------------------------------- flow sim faults


def _run_flow(faults, minutes=20, replicas=3, rpm=600.0, seed=0):
    jobs = [InferenceJobSpec.with_default_slo("a", RESNET34)]
    traces = {"a": np.full(minutes, rpm)}
    from repro.baselines.fairshare import FairSharePolicy

    config = SimulationConfig(
        duration_minutes=minutes, seed=seed, faults=faults,
        cold_start_range=(20.0, 20.0),
    )
    sim = FlowSimulation(
        jobs, traces, FairSharePolicy(total_replicas=replicas),
        ResourceQuota.of_replicas(replicas), config=config,
        initial_replicas={"a": replicas},
    )
    return sim.run()


class TestFlowSimulatorFaults:
    """Regression: ``SimulationConfig.faults`` used to be silently ignored."""

    def test_failures_recorded_in_metadata(self):
        result = _run_flow(FaultConfig(mttf_seconds=60.0, seed=1))
        assert result.metadata["total_failures"] > 0
        assert result.metadata["failures_injected"]["a"] > 0

    def test_fault_free_metadata_absent(self):
        result = _run_flow(None)
        assert "total_failures" not in result.metadata

    def test_faults_degrade_fixed_allocation(self):
        clean = _run_flow(None)
        faulty = _run_flow(FaultConfig(mttf_seconds=120.0, seed=3))
        assert faulty.metadata["total_failures"] > 0
        assert (
            faulty.cluster_slo_violation_rate > clean.cluster_slo_violation_rate
        )

    def test_event_process_in_flow(self):
        result = _run_flow(FaultConfig(mttf_seconds=60.0, seed=2, process="event"))
        assert result.metadata["total_failures"] > 0

    def test_event_process_in_request_sim(self):
        jobs = [InferenceJobSpec.with_default_slo("a", RESNET34)]
        traces = {"a": np.full(12, 300.0)}
        config = SimulationConfig(
            duration_minutes=12, seed=0, cold_start_range=(10.0, 10.0),
            faults=FaultConfig(mttf_seconds=60.0, seed=1, process="event"),
        )
        sim = Simulation(
            jobs, traces, StaticPolicy({"a": 4}), ResourceQuota.of_replicas(4),
            config=config, initial_replicas={"a": 4},
        )
        result = sim.run()
        assert result.metadata["total_failures"] > 0

    def test_legacy_flow_without_faults_unchanged(self):
        """The fault path must be a strict no-op when faults is None."""
        a = _run_flow(None, seed=5)
        b = _run_flow(None, seed=5)
        for name in a.jobs:
            np.testing.assert_array_equal(a.jobs[name].violations, b.jobs[name].violations)


# ------------------------------------------------------- entry-point plugins


class _FakeEntryPoint:
    def __init__(self, name, target):
        self.name = name
        self._target = target

    def load(self):
        return self._target


class TestEntryPointPlugins:
    def test_plugins_load_into_both_registries(self, monkeypatch):
        from repro import api

        registered = []

        def register_fake_policy():
            @api.register_policy("ep-test-policy", kind="plugin",
                                 description="from entry point")
            def build(scenario, seed, options):  # pragma: no cover - not built
                raise NotImplementedError

            registered.append("policy")

        def register_fake_backend():
            @api.register_backend("ep-test-backend", description="from entry point")
            class EPBackend(SimHarness):
                pass

            registered.append("backend")

        def fake_entry_points(group=None):
            return {
                "repro_faro.policies": [
                    _FakeEntryPoint("ep-policy", register_fake_policy)
                ],
                "repro_faro.sim_backends": [
                    _FakeEntryPoint("ep-backend", register_fake_backend)
                ],
            }.get(group, [])

        import importlib.metadata

        monkeypatch.setattr(importlib.metadata, "entry_points", fake_entry_points)
        try:
            loaded = api.load_entry_point_plugins()
            assert loaded == (
                "repro_faro.policies:ep-policy",
                "repro_faro.sim_backends:ep-backend",
            )
            assert registered == ["policy", "backend"]
            assert "ep-test-policy" in api.get_registry()
            assert "ep-test-backend" in api.get_backend_registry()
        finally:
            if "ep-test-policy" in api.get_registry():
                api.get_registry().unregister("ep-test-policy")
            if "ep-test-backend" in api.get_backend_registry():
                api.get_backend_registry().unregister("ep-test-backend")

    def test_broken_plugin_warns_and_skips(self, monkeypatch):
        from repro import api

        def explode():
            raise RuntimeError("kaboom")

        def fake_entry_points(group=None):
            if group == "repro_faro.policies":
                return [_FakeEntryPoint("broken", explode)]
            return []

        import importlib.metadata

        monkeypatch.setattr(importlib.metadata, "entry_points", fake_entry_points)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            loaded = api.load_entry_point_plugins()
        assert loaded == ()
        assert any("kaboom" in str(w.message) for w in caught)


# -------------------------------------------------------------- spec fields


class TestSpecBackendFields:
    def test_backend_alias_key(self):
        from repro import api

        data = {
            "name": "x",
            "scenarios": [{"kind": "paper", "params": {"size": 8, "num_jobs": 2}}],
            "policies": [{"name": "fairshare"}],
            "backend": "hybrid",
            "backend_options": {"auto_request_jobs": 1},
        }
        spec = api.ExperimentSpec.from_dict(data)
        assert spec.simulator == "hybrid"
        assert spec.backend_options == {"auto_request_jobs": 1}

    def test_conflicting_backend_keys_rejected(self):
        from repro import api

        data = {
            "name": "x",
            "scenarios": [{"kind": "paper", "params": {}}],
            "policies": [{"name": "fairshare"}],
            "simulator": "flow",
            "backend": "request",
        }
        with pytest.raises(ValueError, match="aliases"):
            api.ExperimentSpec.from_dict(data)

    def test_backend_options_roundtrip(self):
        from repro import api

        spec = api.ExperimentSpec.compare(
            "x",
            api.ScenarioSpec(kind="paper", params={"size": 8, "num_jobs": 2}),
            ["fairshare"],
            simulator="hybrid",
            backend_options={"request_jobs": ("job00-azure",)},
        )
        data = spec.to_dict()
        assert data["backend_options"] == {"request_jobs": ["job00-azure"]}
        assert api.ExperimentSpec.from_dict(data) == spec

    def test_empty_backend_options_not_serialized(self):
        """Legacy specs keep byte-identical to_dict output."""
        from repro import api

        spec = api.ExperimentSpec.compare(
            "x",
            api.ScenarioSpec(kind="paper", params={"size": 8, "num_jobs": 2}),
            ["fairshare"],
        )
        assert "backend_options" not in spec.to_dict()

    def test_simulator_accepts_registered_aliases(self):
        from repro import api

        spec = api.ExperimentSpec.compare(
            "x",
            api.ScenarioSpec(kind="paper", params={"size": 8, "num_jobs": 2}),
            ["fairshare"],
            simulator="analytic-flow",
        )
        assert spec.simulator == "analytic-flow"  # stored verbatim

    def test_bad_backend_options_fail_before_any_simulation(self):
        from repro import api

        spec = api.ExperimentSpec.compare(
            "x",
            api.ScenarioSpec(kind="paper", params={"size": 8, "num_jobs": 2}),
            ["fairshare"],
            simulator="hybrid",
            backend_options={"request_jobz": ["a"]},
        )
        events = []
        with pytest.raises(ValueError, match="unknown option"):
            api.run(spec, progress=events.append)
        assert events == []


# ---------------------------------------------------------- hybrid backend


def _hybrid_sim(options, minutes=6, seed=0, faults=None, cls=HybridSimulation):
    jobs = [InferenceJobSpec.with_default_slo(f"j{i}", RESNET34) for i in range(3)]
    traces = {
        "j0": np.full(minutes, 100.0),
        "j1": np.full(minutes, 400.0),
        "j2": np.full(minutes, 250.0),
    }
    return cls(
        jobs,
        traces,
        StaticPolicy({f"j{i}": 2 for i in range(3)}),
        ResourceQuota.of_replicas(6),
        config=SimulationConfig(
            duration_minutes=minutes, seed=seed, cold_start_range=(0.0, 0.0),
            faults=faults,
        ),
        initial_replicas={f"j{i}": 2 for i in range(3)},
        options=options,
    )


SERIES_FIELDS = (
    "arrivals", "drops", "violations", "latency_p",
    "utility", "effective_utility", "replicas",
)


class TestHybridBackend:
    def test_split_recorded_in_metadata(self):
        result = _hybrid_sim(HybridBackendOptions(request_jobs=("j1",))).run()
        assert result.metadata["simulator"] == "hybrid"
        assert result.metadata["request_jobs"] == ["j1"]
        assert result.metadata["flow_jobs"] == ["j0", "j2"]

    def test_auto_selection_picks_busiest(self):
        sim = _hybrid_sim(HybridBackendOptions(auto_request_jobs=2))
        assert [job.name for job in sim.request_jobs] == ["j1", "j2"]

    def test_unknown_request_job_rejected(self):
        with pytest.raises(ValueError, match="unknown job"):
            _hybrid_sim(HybridBackendOptions(request_jobs=("ghost",)))

    @pytest.mark.parametrize(
        "faults",
        [
            None,
            FaultConfig(mttf_seconds=60.0, seed=1),
            FaultConfig(mttf_seconds=60.0, seed=1, process="event"),
        ],
        ids=["no-faults", "tick-faults", "event-faults"],
    )
    def test_all_flow_and_all_request_degenerate_cases(self, faults):
        """Every job flagged is the request backend and no job flagged the
        flow backend, on full per-minute series."""
        for request_jobs, preset in (
            (("j0", "j1", "j2"), Simulation),
            ((), FlowSimulation),
        ):
            hybrid = _hybrid_sim(
                HybridBackendOptions(request_jobs=request_jobs), faults=faults
            ).run()
            pure = _hybrid_sim(None, faults=faults, cls=preset).run()
            assert hybrid.metadata["request_jobs"] == list(request_jobs)
            for name in pure.jobs:
                for field in SERIES_FIELDS:
                    np.testing.assert_array_equal(
                        getattr(hybrid.jobs[name], field),
                        getattr(pure.jobs[name], field),
                        err_msg=f"{preset.__name__} {name}.{field}",
                    )
            if faults is not None:
                assert pure.metadata["total_failures"] > 0
                assert (
                    hybrid.metadata["failures_injected"]
                    == pure.metadata["failures_injected"]
                )

    def test_one_dispatch_schema_for_every_preset(self):
        faults = FaultConfig(mttf_seconds=60.0, seed=1, process="event")
        keys = {
            "vector_requests", "scalar_requests",
            "fault_chunk_cuts", "promotions", "demotions",
        }
        request = _hybrid_sim(None, faults=faults, cls=Simulation).run()
        flow = _hybrid_sim(None, faults=faults, cls=FlowSimulation).run()
        hybrid = _hybrid_sim(
            HybridBackendOptions(request_jobs=("j1",)), faults=faults
        ).run()
        for result in (request, flow, hybrid):
            assert set(result.metadata["dispatch"]) == keys
        assert request.metadata["dispatch"]["fault_chunk_cuts"] > 0
        assert hybrid.metadata["dispatch"]["fault_chunk_cuts"] > 0  # hybrid cuts too
        assert flow.metadata["dispatch"]["vector_requests"] == 0
        for result in (request, flow, hybrid):
            assert set(result.metadata["kernels"]) == {"dispatch", "erlang"}
        assert request.metadata["kernels"]["dispatch"] is not None  # loaded

    def test_flow_run_never_loads_the_dispatch_kernel(self, monkeypatch):
        monkeypatch.setattr(dispatch, "kernel", functools.cache(dispatch.kernel.__wrapped__))
        flow = _hybrid_sim(None, cls=FlowSimulation).run()
        assert flow.metadata["kernels"]["dispatch"] is None
        assert dispatch.kernel.cache_info().currsize == 0

    def test_deterministic_given_seed(self):
        options = HybridBackendOptions(request_jobs=("j1",))
        a = _hybrid_sim(options, seed=9).run()
        b = _hybrid_sim(options, seed=9).run()
        for name in a.jobs:
            np.testing.assert_array_equal(a.jobs[name].arrivals, b.jobs[name].arrivals)
            np.testing.assert_array_equal(
                a.jobs[name].violations, b.jobs[name].violations
            )

    def test_flow_jobs_unaffected_by_which_jobs_are_flagged(self):
        """A job's analytic stream is stable across fidelity splits."""
        a = _hybrid_sim(HybridBackendOptions(request_jobs=("j1",)), seed=2).run()
        b = _hybrid_sim(HybridBackendOptions(request_jobs=("j0", "j1")), seed=2).run()
        np.testing.assert_array_equal(a.jobs["j2"].arrivals, b.jobs["j2"].arrivals)
        np.testing.assert_array_equal(a.jobs["j2"].violations, b.jobs["j2"].violations)

    def test_request_half_matches_pure_request_sim_shape(self):
        result = _hybrid_sim(HybridBackendOptions(request_jobs=("j1",))).run()
        series = result.jobs["j1"]
        # Poisson counts, not fluid: integer arrivals near the trace rate.
        assert series.total_arrivals == pytest.approx(400 * 6, rel=0.15)

    def test_faults_span_both_halves(self):
        jobs = [InferenceJobSpec.with_default_slo(name, RESNET34) for name in ("a", "b")]
        traces = {"a": np.full(20, 300.0), "b": np.full(20, 300.0)}
        sim = HybridSimulation(
            jobs, traces, StaticPolicy({"a": 3, "b": 3}),
            ResourceQuota.of_replicas(6),
            config=SimulationConfig(
                duration_minutes=20, seed=0, cold_start_range=(5.0, 5.0),
                faults=FaultConfig(mttf_seconds=60.0, seed=1),
            ),
            initial_replicas={"a": 3, "b": 3},
            options=HybridBackendOptions(request_jobs=("a",)),
        )
        result = sim.run()
        injected = result.metadata["failures_injected"]
        assert injected.get("a", 0) > 0  # request half
        assert injected.get("b", 0) > 0  # flow half
