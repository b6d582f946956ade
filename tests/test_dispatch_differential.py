"""Randomized differential suite for compiled route-and-record.

``JobRouter.offer_many`` routes and records whole chunks through the
compiled kernel of :mod:`repro.cluster.dispatch` and claims *bit-identity*
with the per-request scalar loop ``collector.record(arrival,
router.offer(arrival))`` -- every replica's state, the pending starts,
every totals counter and the RNG generator's final position, and in the
metrics collector every bin's counts, the latency array, the per-minute
arrivals and the ``proc_time`` sums by bytes, together with what the
control loop and the reports read from them (``observation_fields``,
``rate_history``, ``minute_stats``).  These properties fuzz that claim
across the whole randomness cross-product (jitter x drop-rate x pool size x
queue pressure), the regimes of a loaded cluster (backlogged queues, cold
starts, scale-downs, empty pools) and chunks that straddle bin and minute
edges, instead of trusting a handful of handpicked cases.  Whole
simulations are checked the same way where chunks are cut or change hands:
at event-time failure instants, and across hybrid promotion and demotion.
The kernel's loader is tested too: it must load wherever it can be built,
a build that fails must fall back to the scalar loop visibly and
harmlessly, and routers and collectors must stay picklable.
"""

import hashlib
import importlib.util
import json
import math
import pickle
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api, native
from repro.cluster import dispatch
from repro.cluster.dispatch import snapshot
from repro.cluster.metrics import MetricsCollector
from repro.cluster.models import ModelProfile
from repro.cluster.router import JobRouter
from repro.core.utility import SLO
from repro.sim.faults import FaultConfig
from repro.sim.lifecycle import EventFaultProcess
from tests.test_backend_differential import tiny_spec


def make_router(jitter, replicas, drop_rate, threshold, seed, cold_start=(0.0, 0.0),
                proc_time=0.18):
    router = JobRouter(
        job_name="svc",
        model=ModelProfile(name="m", proc_time=proc_time, proc_jitter=jitter),
        initial_replicas=replicas,
        queue_threshold=threshold,
        cold_start_range=cold_start,
        seed=seed,
    )
    router.drop_rate = drop_rate
    return router


def make_pair(*args, bin_seconds=15.0, slo=0.72, **kwargs):
    """A router and the metrics collector its chunks are recorded in."""
    router = make_router(*args, **kwargs)
    collector = MetricsCollector(
        "svc", SLO(slo), proc_time=router.model.proc_time, bin_seconds=bin_seconds
    )
    return router, collector


def chunked_arrivals(rng, chunks, tick, rate, edges=None):
    """Poisson arrivals in ``tick``-second chunks.  With ``edges``, each
    chunk also gets an arrival on and one just below every multiple of
    ``edges`` after its start, where bins and minutes meet."""
    out, now = [], 0.0
    for _ in range(chunks):
        n = int(rng.poisson(rate * tick))
        times = [rng.random(n) * tick + now]
        if edges:
            on = np.arange(math.floor(now / edges) + 1, math.floor((now + tick) / edges) + 1) * edges
            on = on[(on > now) & (on <= now + tick)]
            times += [on, np.nextafter(on, 0.0)]
        out.append(np.sort(np.concatenate(times)))
        now += tick
    return out


def assert_same(scalar, batch, now):
    """The two (router, collector) pairs agree on all state and every view."""
    assert snapshot(*batch) == snapshot(*scalar)
    (s_router, s_metrics), (b_router, b_metrics) = scalar, batch
    assert b_router.queue_length(now) == s_router.queue_length(now)
    start = max(now - 60.0, 0.0)
    assert b_metrics.observation_fields(start, now) == s_metrics.observation_fields(start, now)
    assert b_metrics.rate_history(now, 15).tobytes() == s_metrics.rate_history(now, 15).tobytes()
    for minute in range(int(now // 60.0) + 1):
        assert b_metrics.minute_stats(minute) == s_metrics.minute_stats(minute)


def assert_identical_chunks(scalar, batch, chunks, tick, between=None):
    """Offer ``chunks`` to both pairs and compare after every chunk.

    ``scalar`` routes and records one request at a time, ``batch`` one
    chunk at a time.  ``between(router, now)`` runs on both routers after
    each chunk (scale events, the control loop's usage pattern).  Returns
    the router queue length at each chunk's first arrival.
    """
    queued, now = [], 0.0
    (s_router, s_metrics), (b_router, b_metrics) = scalar, batch
    for chunk in chunks:
        now += tick
        first = chunk[0] if chunk.size else now
        queued.append(sum(start > first for start in s_router.pending_starts()))
        for arrival in chunk.tolist():
            s_metrics.record(arrival, s_router.offer(arrival))
        b_router.offer_many(chunk, b_metrics)
        if between is not None:
            between(s_router, now)
            between(b_router, now)
        assert_same(scalar, batch, now)
    return queued


class TestOfferManyFuzz:
    """offer_many == the scalar loop, bit for bit, on randomized chunks."""

    @settings(max_examples=40, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 0.05, 0.2]),
        drop_rate=st.sampled_from([0.0, 0.05, 0.3]),
        replicas=st.integers(min_value=1, max_value=16),
        threshold=st.sampled_from([3, 50]),
        rate=st.floats(min_value=0.2, max_value=30.0),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_bit_identical_including_rng_state(
        self, jitter, drop_rate, replicas, threshold, rate, seed
    ):
        rng = np.random.default_rng(seed)
        chunks = chunked_arrivals(rng, chunks=4, tick=10.0, rate=rate)
        scalar = make_pair(jitter, replicas, drop_rate, threshold, seed=7)
        batch = make_pair(jitter, replicas, drop_rate, threshold, seed=7)
        assert_identical_chunks(scalar, batch, chunks, tick=10.0)

    @settings(max_examples=20, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 0.08]),
        drop_rate=st.sampled_from([0.0, 0.1]),
        replicas=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_interleaved_scaling_keeps_identity(
        self, jitter, drop_rate, replicas, seed
    ):
        """Scale events between chunks (the control loop's usage pattern)
        must not open a gap between the paths."""
        rng = np.random.default_rng(seed)
        chunks = chunked_arrivals(rng, chunks=3, tick=10.0, rate=4.0)
        scalar = make_pair(jitter, replicas, drop_rate, 50, seed=3)
        batch = make_pair(jitter, replicas, drop_rate, 50, seed=3)
        targets = [replicas + 2, max(replicas - 1, 1), replicas]

        def rescale(router, now):
            router.scale_to(targets[round(now / 10.0) - 1], now)

        assert_identical_chunks(scalar, batch, chunks, tick=10.0, between=rescale)


class TestRecordingFuzz:
    """The collector side of a chunk: bins, minutes and latencies where
    chunks straddle bin and minute edges, and SLO ties."""

    @settings(max_examples=40, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 0.05]),
        drop_rate=st.sampled_from([0.0, 0.1]),
        replicas=st.integers(min_value=1, max_value=6),
        bin_seconds=st.sampled_from([15.0, 7.5, 0.1]),
        tick=st.sampled_from([10.0, 25.0, 45.0]),
        rate=st.floats(min_value=0.5, max_value=40.0),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    @example(jitter=0.0, drop_rate=0.0, replicas=2, bin_seconds=0.1, tick=10.0,
             rate=5.0, seed=0)
    def test_chunks_across_bin_and_minute_edges(
        self, jitter, drop_rate, replicas, bin_seconds, tick, rate, seed
    ):
        """0.1 s bins put arrivals where ``a // b`` and ``floor(a / b)``
        disagree (``1.0 // 0.1 == 9.0``)."""
        rng = np.random.default_rng(seed)
        chunks = chunked_arrivals(rng, chunks=4, tick=tick, rate=rate, edges=bin_seconds)
        scalar = make_pair(jitter, replicas, drop_rate, 50, 5, bin_seconds=bin_seconds)
        batch = make_pair(jitter, replicas, drop_rate, 50, 5, bin_seconds=bin_seconds)
        assert_identical_chunks(scalar, batch, chunks, tick=tick)

    @pytest.mark.parametrize("repeats", [2, 3, 4])
    @pytest.mark.parametrize("threshold", [2, 3])
    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_latencies_on_the_slo_target(self, replicas, threshold, repeats):
        """Service of 0.25 s and arrivals on a 1/8 s grid, more than the pool
        serves, make every latency a multiple of 1/8, and with a short queue
        many equal the 0.5 s target: not violations.  (No jitter and no
        drops: the run draws nothing.)"""
        grid = np.repeat(np.arange(0.0, 40.0, 0.125), repeats)
        chunks = [grid[(grid >= t) & (grid < t + 10.0)] for t in np.arange(0.0, 40.0, 10.0)]
        args = (0.0, replicas, 0.0, threshold, 0)
        scalar = make_pair(*args, proc_time=0.25, slo=0.5)
        batch = make_pair(*args, proc_time=0.25, slo=0.5)
        assert_identical_chunks(scalar, batch, chunks, tick=10.0)
        latencies = np.frombuffer(snapshot(*scalar)["latencies"])
        assert (latencies == 0.5).any()

    def test_empty_chunk_changes_nothing(self):
        router, collector = make_pair(0.0, 2, 0.0, 50, 1)
        before = snapshot(router, collector)
        router.offer_many(np.empty(0), collector)
        assert snapshot(router, collector) == before

    @pytest.mark.parametrize("compiled", [True, False])
    def test_arrivals_out_of_order_are_refused(self, compiled, monkeypatch):
        if not compiled:
            monkeypatch.setattr(dispatch, "kernel", lambda: None)
        router, collector = make_pair(0.0, 2, 0.0, 50, 1)
        router.offer_many(np.array([20.0, 31.0]), collector)
        with pytest.raises(ValueError):
            router.offer_many(np.array([5.0]), collector)


class TestBacklogFuzz:
    """The regimes only the scalar loop used to serve: a backlogged queue,
    cold starts, scale-downs of busy replicas and an empty pool."""

    @settings(max_examples=25, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 0.05, 0.2]),
        drop_rate=st.sampled_from([0.0, 0.05, 0.3]),
        replicas=st.integers(min_value=1, max_value=8),
        overload=st.floats(min_value=2.0, max_value=6.0),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_queue_carries_across_chunks(
        self, jitter, drop_rate, replicas, overload, seed
    ):
        rng = np.random.default_rng(seed)
        rate = overload * replicas / 0.18  # above the pool's capacity
        chunks = chunked_arrivals(rng, chunks=6, tick=1.0, rate=rate)
        scalar = make_pair(jitter, replicas, drop_rate, 50, seed=5)
        batch = make_pair(jitter, replicas, drop_rate, 50, seed=5)
        queued = assert_identical_chunks(scalar, batch, chunks, tick=1.0)
        assert max(queued[1:]) > 0

    @settings(max_examples=20, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 0.08]),
        drop_rate=st.sampled_from([0.0, 0.1]),
        replicas=st.integers(min_value=0, max_value=4),
        added=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_cold_starting_replicas(self, jitter, drop_rate, replicas, added, seed):
        rng = np.random.default_rng(seed)
        chunks = chunked_arrivals(rng, chunks=4, tick=10.0, rate=15.0)
        cold_start = (4.0, 25.0)  # longer than a chunk: pods still starting
        scalar = make_pair(jitter, replicas, drop_rate, 50, 9, cold_start)
        batch = make_pair(jitter, replicas, drop_rate, 50, 9, cold_start)

        def scale_up(router, now):
            router.scale_to(router.replica_count + added, now)

        assert_identical_chunks(scalar, batch, chunks, tick=10.0, between=scale_up)

    @settings(max_examples=20, deadline=None)
    @given(
        jitter=st.sampled_from([0.0, 0.08]),
        drop_rate=st.sampled_from([0.0, 0.1]),
        replicas=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_scale_down_leaves_stale_heap_entries(
        self, jitter, drop_rate, replicas, seed
    ):
        """Scale-downs that retire replicas with work still in flight (whose
        ``free_at`` lies after ``now``): the case in which a free-time heap
        kept stale entries for retired replicas.  The load is above the
        pool's capacity, so every replica is busy when the pool shrinks."""
        rng = np.random.default_rng(seed)
        chunks = chunked_arrivals(rng, chunks=5, tick=10.0, rate=8.0 * replicas)
        scalar = make_pair(jitter, replicas, drop_rate, 50, seed=11)
        batch = make_pair(jitter, replicas, drop_rate, 50, seed=11)

        busy = []

        def scale_down(router, now):
            before = dict(zip(router._ids.tolist(), router._free_at.tolist()))
            router.scale_to(max(router.replica_count - 2, 1), now)
            if router is scalar[0]:
                kept = set(router._ids.tolist())
                busy.append(sum(
                    free > now for rid, free in before.items() if rid not in kept
                ))

        assert_identical_chunks(scalar, batch, chunks, tick=10.0, between=scale_down)
        assert busy[0] > 0

    @pytest.mark.parametrize("drop_rate", [0.0, 0.2])
    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_empty_pool(self, jitter, drop_rate):
        """``scale_to(0)``: requests tail-drop until new pods cold-start."""
        rng = np.random.default_rng(4)
        chunks = chunked_arrivals(rng, chunks=4, tick=10.0, rate=8.0)
        scalar = make_pair(jitter, 3, drop_rate, 50, 13, (2.0, 6.0))
        batch = make_pair(jitter, 3, drop_rate, 50, 13, (2.0, 6.0))
        targets = [0, 0, 2, 2]  # after chunks 1-4

        def rescale(router, now):
            router.scale_to(targets[round(now / 10.0) - 1], now)

        assert_identical_chunks(scalar, batch, chunks, tick=10.0, between=rescale)
        assert scalar[0].totals.tail_dropped > 0
        assert scalar[0].totals.served > 0


def run_both_paths(build):
    """Run the simulation ``build()`` returns on the kernel and on the
    scalar loop; returns both ``(simulation, result)`` pairs."""
    compiled = build()
    compiled_result = compiled.run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dispatch, "kernel", lambda: None)
        scalar = build()
        scalar_result = scalar.run()
    return (compiled, compiled_result), (scalar, scalar_result)


def assert_same_simulation(compiled, scalar):
    """Every collector, every live router and every series agree."""
    (c_sim, c_result), (s_sim, s_result) = compiled, scalar
    assert c_sim.cluster.metrics.keys() == s_sim.cluster.metrics.keys()
    assert c_sim.cluster.routers.keys() == s_sim.cluster.routers.keys()
    for name, c_metrics in c_sim.cluster.metrics.items():
        s_metrics = s_sim.cluster.metrics[name]
        assert snapshot(None, c_metrics) == snapshot(None, s_metrics)
        if name in c_sim.cluster.routers:
            assert snapshot(c_sim.cluster.routers[name]) == snapshot(
                s_sim.cluster.routers[name]
            )
    assert c_result.jobs.keys() == s_result.jobs.keys()
    for name, series in c_result.jobs.items():
        for field in (
            "arrivals", "drops", "violations", "latency_p",
            "utility", "effective_utility", "replicas",
        ):
            np.testing.assert_array_equal(
                getattr(series, field), getattr(s_result.jobs[name], field)
            )


class TestEventFaultCuts:
    """Exact failure instants, and identical splits on both offer paths."""

    def test_failure_times_shrink_the_pool(self):
        process = EventFaultProcess(
            FaultConfig(mttf_seconds=30.0, seed=1, process="event")
        )
        times = process.failure_times("j", 8, 0.0, 600.0)
        assert times == sorted(times)
        assert 0 < len(times) <= 8
        assert all(0.0 < t <= 600.0 for t in times)
        assert process.failures_injected["j"] == len(times)

    def test_failure_times_deterministic(self):
        a = EventFaultProcess(FaultConfig(mttf_seconds=50.0, seed=9, process="event"))
        b = EventFaultProcess(FaultConfig(mttf_seconds=50.0, seed=9, process="event"))
        for start in (0.0, 120.0, 240.0):
            assert a.failure_times("j", 5, start, 120.0) == b.failure_times(
                "j", 5, start, 120.0
            )

    def test_zero_pool_and_zero_dt(self):
        process = EventFaultProcess(FaultConfig(mttf_seconds=10.0, seed=0))
        assert process.failure_times("j", 0, 0.0, 100.0) == []
        assert process.failure_times("j", 3, 0.0, 0.0) == []
        with pytest.raises(ValueError):
            process.failure_times("j", -1, 0.0, 1.0)
        with pytest.raises(ValueError):
            process.failure_times("j", 1, 0.0, -1.0)

    @pytest.mark.parametrize("compiled", [True, False])
    def test_event_cuts_identical_across_offer_paths(self, compiled, monkeypatch):
        """The chunk split at failure instants is the same simulation whether
        the compiled kernel or its scalar fallback routes the chunks --
        pinned by comparing both paths' full per-minute series."""
        results = {True: self._run_event_sim()}
        with monkeypatch.context() as patch:
            patch.setattr(dispatch, "kernel", lambda: None)
            results[False] = self._run_event_sim()
        for field in (
            "arrivals", "drops", "violations", "latency_p",
            "utility", "effective_utility", "replicas",
        ):
            np.testing.assert_array_equal(
                getattr(results[True].jobs["a"], field),
                getattr(results[False].jobs["a"], field),
            )
        meta = results[compiled].metadata
        assert meta["total_failures"] > 0
        assert meta["dispatch"]["fault_chunk_cuts"] > 0
        assert results[False].metadata["kernels"]["dispatch"] == "python"

    @settings(max_examples=10, deadline=None)
    @given(
        fault_seed=st.integers(min_value=0, max_value=2**16),
        mttf=st.sampled_from([30.0, 90.0]),
    )
    def test_event_cut_collectors_identical(self, fault_seed, mttf):
        """Chunks cut at failure instants record the same bins, latencies
        and router state on both paths."""
        faults = FaultConfig(mttf_seconds=mttf, seed=fault_seed, process="event")
        compiled, scalar = run_both_paths(
            lambda: self._event_sim(faults, minutes=6)
        )
        assert_same_simulation(compiled, scalar)
        assert compiled[1].metadata["dispatch"]["fault_chunk_cuts"] > 0

    @staticmethod
    def _event_sim(faults, minutes=10):
        from repro.cluster.job import InferenceJobSpec
        from repro.cluster.kubernetes import ResourceQuota
        from repro.cluster.models import RESNET34
        from repro.sim import Simulation, SimulationConfig
        from tests.test_simulation import StaticPolicy

        jobs = [InferenceJobSpec.with_default_slo("a", RESNET34)]
        traces = {"a": np.full(minutes, 300.0)}
        config = SimulationConfig(
            duration_minutes=minutes, seed=0, cold_start_range=(10.0, 10.0),
            faults=faults,
        )
        return Simulation(
            jobs, traces, StaticPolicy({"a": 4}), ResourceQuota.of_replicas(4),
            config=config, initial_replicas={"a": 4},
        )

    @classmethod
    def _run_event_sim(cls, faults="event"):
        config = (
            FaultConfig(mttf_seconds=45.0, seed=1, process="event")
            if faults == "event" else None
        )
        return cls._event_sim(config).run()


class TestHybridFidelitySwitches:
    """Promotion hands a job's chunks to a new router and a collector that
    may already hold earlier minutes; demotion retires the router."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_promote_and_demote_identical(self, seed):
        compiled, scalar = run_both_paths(lambda: self._hybrid_sim(seed))
        assert_same_simulation(compiled, scalar)
        counts = compiled[1].metadata["dispatch"]
        assert counts["promotions"] > 0 and counts["demotions"] > 0
        assert scalar[1].metadata["dispatch"]["vector_requests"] == 0

    @staticmethod
    def _hybrid_sim(seed):
        from repro.cluster.job import InferenceJobSpec
        from repro.cluster.kubernetes import ResourceQuota
        from repro.cluster.models import RESNET34
        from repro.sim import SimulationConfig
        from repro.sim.simulation import HybridBackendOptions, HybridSimulation
        from tests.test_simulation import StaticPolicy

        jobs = [
            InferenceJobSpec.with_default_slo("a", RESNET34),
            InferenceJobSpec.with_default_slo("b", RESNET34),
        ]
        # Job "a" overloads its two replicas, then goes quiet, then
        # overloads them again: promoted, demoted and promoted again.
        surge = [900.0] * 3 + [12.0] * 4 + [900.0] * 3
        traces = {"a": np.array(surge), "b": np.full(10, 120.0)}
        options = HybridBackendOptions(
            promote_headroom=0.2, demote_headroom=0.6, min_dwell_ticks=2
        )
        return HybridSimulation(
            jobs, traces, StaticPolicy({"a": 2, "b": 2}),
            ResourceQuota.of_replicas(4),
            config=SimulationConfig(seed=seed, cold_start_range=(5.0, 9.0)),
            initial_replicas={"a": 2, "b": 2}, options=options,
        )


class TestDispatchCounters:
    """The harness reports which regime served each request (metadata only:
    counters never enter report digests)."""

    def test_vectorized_run_counts_vector_requests(self):
        result = TestEventFaultCuts._run_event_sim(faults=None)
        counts = result.metadata["dispatch"]
        assert counts["fault_chunk_cuts"] == 0
        arrivals = int(result.jobs["a"].arrivals.sum())
        assert counts["vector_requests"] + counts["scalar_requests"] == arrivals
        if result.metadata["kernels"]["dispatch"] == "c":
            assert counts["vector_requests"] > 0
        else:  # no compiler here: the scalar loop serves every request
            assert counts["vector_requests"] == 0
            assert counts["scalar_requests"] == arrivals

    def test_scalar_run_counts_everything_scalar(self, monkeypatch):
        monkeypatch.setattr(dispatch, "kernel", lambda: None)
        result = TestEventFaultCuts._run_event_sim(faults=None)
        counts = result.metadata["dispatch"]
        assert counts["vector_requests"] == 0
        assert result.metadata["kernels"]["dispatch"] == "python"
        assert counts["scalar_requests"] == int(result.jobs["a"].arrivals.sum())


@pytest.fixture
def compiled():
    """Skip where the kernel cannot be built; fail where it can but did not load."""
    if shutil.which("cc") is None or importlib.util.find_spec("cffi") is None:
        pytest.skip("needs a C compiler (cc) and cffi")
    assert dispatch.kernel() is not None


class TestKernelLoading:
    """The compiled kernel loads where it can; where it cannot, the scalar
    loop takes over with one warning and identical results."""

    def test_kernel_loads_where_it_can_be_built(self, compiled):
        # A broken build fails here instead of silently moving every
        # request run back to the Python loop.
        assert native.kernels()["dispatch"] == "c"

    def test_router_pickles_after_compiled_chunks(self):
        # Serve journals pickle live harnesses: the kernel's cffi objects
        # must never end up on a router or a collector, and a restored
        # pair must carry on exactly where the original left off.
        rng = np.random.default_rng(2)
        first, second = chunked_arrivals(rng, chunks=2, tick=10.0, rate=30.0)
        router, collector = make_pair(0.05, 3, 0.1, 50, seed=1)
        router.offer_many(first, collector)
        restored, restored_collector = pickle.loads(pickle.dumps((router, collector)))
        assert snapshot(restored, restored_collector) == snapshot(router, collector)
        restored.offer_many(second, restored_collector)
        router.offer_many(second, collector)
        assert snapshot(restored, restored_collector) == snapshot(router, collector)
        assert restored_collector.observation_fields(0.0, 20.0) == (
            collector.observation_fields(0.0, 20.0)
        )

    @pytest.mark.usefixtures("compiled")
    def test_compile_failure_falls_back_to_the_scalar_loop(self, tmp_path, monkeypatch):
        spec = tiny_spec("fallback", "request", trials=1)
        compiled = api.run(spec)
        broken = tmp_path / "dispatch.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(dispatch, "SOURCE", broken)
        dispatch.kernel.cache_clear()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fallback = api.run(spec)
        finally:
            dispatch.kernel.cache_clear()
        messages = [str(w.message) for w in caught if w.category is RuntimeWarning]
        assert len(messages) == 1
        assert "cc failed to compile dispatch.c" in messages[0]
        for report, kernel, counter in (
            (compiled, "c", "vector_requests"),
            (fallback, "python", "scalar_requests"),
        ):
            for per_policy in report.stats.values():
                for stats in per_policy.values():
                    for result in stats.results:
                        counts = result.metadata["dispatch"]
                        requests = sum(int(job.arrivals.sum()) for job in result.jobs.values())
                        assert result.metadata["kernels"]["dispatch"] == kernel
                        assert counts[counter] == requests > 0
        assert report_digest(fallback) == report_digest(compiled)


def report_digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
