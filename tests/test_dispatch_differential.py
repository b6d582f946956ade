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

A control tick routes every job of a cluster with one kernel call and
reads every job's observation with one more; ``TestTickEntries`` fuzzes
both against the per-job scalar loop and the Python observation, job by
job and tick by tick, on clusters of 1 to 12 jobs.
"""

import gc
import hashlib
import importlib.util
import json
import math
import pickle
import shutil
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import api, native
from repro.cluster import dispatch
from repro.cluster.dispatch import snapshot
from repro.cluster.job import InferenceJobSpec
from repro.cluster.metrics import MetricsCollector
from repro.cluster.models import ModelProfile
from repro.cluster.rayserve import RayServeCluster
from repro.cluster.router import JobRouter
from repro.core.utility import SLO
from repro.sim.faults import FaultConfig
from repro.sim.lifecycle import EventFaultProcess
from repro.sim.workload import PoissonArrivals
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

    def test_generator_without_a_cffi_interface(self, compiled):
        """The kernel reads a generator's address through ``ctypes``: a bit
        generator whose ``cffi`` interface fails still routes compiled."""

        class NoCffi(np.random.PCG64):
            @property
            def cffi(self):
                raise RuntimeError("no cffi interface")

        rng = np.random.default_rng(6)
        chunks = chunked_arrivals(rng, chunks=3, tick=10.0, rate=25.0)
        scalar = make_pair(0.05, 3, 0.1, 50, seed=1)
        batch = make_pair(0.05, 3, 0.1, 50, seed=1)
        for router, _ in (scalar, batch):
            router._rng = np.random.Generator(NoCffi(8))
        assert_identical_chunks(scalar, batch, chunks, tick=10.0)
        assert batch[0].vector_requests == sum(chunk.size for chunk in chunks) > 0

    def test_one_job_tables_are_kept_per_router_and_not_past_it(self, compiled):
        """Chunks of one router reuse its one-job table, which sees a
        replaced array by its identity and never keeps the router alive."""
        kernel = dispatch.kernel()
        rng = np.random.default_rng(4)
        chunks = chunked_arrivals(rng, chunks=4, tick=10.0, rate=40.0)
        scalar = make_pair(0.05, 2, 0.0, 3, seed=1)
        batch = make_pair(0.05, 2, 0.0, 3, seed=1)
        router, collector = batch

        def between(index):
            if index == 1:
                # Replaced behind the table's back, with no room to spare.
                for side_router, side_collector in (scalar, batch):
                    squeeze(side_router, side_collector)
            if index == 2:
                for side_router, _ in (scalar, batch):
                    side_router.scale_to(5, now=20.0)

        tables = []
        for index, chunk in enumerate(chunks):
            between(index)
            for arrival in chunk.tolist():
                scalar[1].record(arrival, scalar[0].offer(arrival))
            router.offer_many(chunk, collector)
            tables.append(kernel._tables[router])
            assert snapshot(router, collector) == snapshot(*scalar)
        assert all(table is tables[0] for table in tables)

        router.offer_many(np.array([41.0]), MetricsCollector("other", SLO(0.72), 0.05))
        assert kernel._tables[router] is not tables[0]
        owner = weakref.ref(router)
        del router, batch, tables
        gc.collect()
        assert owner() is None

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


# ------------------------------------------------------------ tick entries


class GridArrivals(PoissonArrivals):
    """A stream whose every minute holds ``repeats`` arrivals at each
    multiple of 1/8 s: with 0.25 s service, latencies land on the SLO."""

    def __init__(self, minutes, repeats):
        super().__init__(np.ones(minutes))
        self.repeats = repeats

    def _generate_minutes(self, end_time):
        minute = self._next_minute
        chunks = []
        while minute < self.rates.shape[0] and minute * 60.0 < end_time:
            chunks.append(np.repeat(np.arange(minute * 60.0, minute * 60.0 + 60.0, 0.125),
                                    self.repeats))
            minute += 1
        self._next_minute = minute
        if chunks:
            self._buffer = np.concatenate([self._buffer[int(self._taken[0]):], *chunks])
            self._taken[0] = 0


def build_cluster(jobs, bin_seconds=15.0, cold_start=(0.0, 0.0), seed=0):
    """A cluster of ``jobs`` (dicts of settings) and its arrival streams."""
    specs = [
        InferenceJobSpec(
            f"j{i}",
            ModelProfile(f"m{i}", job["proc"], proc_jitter=job["jitter"]),
            SLO(job.get("slo", 4 * job["proc"]), job["percentile"]),
        )
        for i, job in enumerate(jobs)
    ]
    prefixes = {
        f"j{i}": np.linspace(0.5, 3.0, job["prefix"])
        for i, job in enumerate(jobs) if job["prefix"] is not None
    }
    cluster = RayServeCluster(
        specs, initial_replicas={f"j{i}": job["replicas"] for i, job in enumerate(jobs)},
        cold_start_range=cold_start, metrics_bin_seconds=bin_seconds,
        history_prefix=prefixes, history_minutes=4, seed=seed,
    )
    streams = {}
    for i, job in enumerate(jobs):
        name = f"j{i}"
        cluster.routers[name].queue_threshold = job["threshold"]
        cluster.routers[name].drop_rate = job["drop"]
        if job.get("grid"):
            streams[name] = GridArrivals(3, job["grid"])
        else:
            trace = np.array([job["rate"], 0.0 if job["idle"] else job["rate"] * 1.3,
                              job["rate"]])
            streams[name] = PoissonArrivals(trace, seed=seed + 5 * i)
        if job.get("backfill"):
            cluster.metrics[name].backfill_rate_history({0: 1.25, 1: 2.5, 2: 0.75})
    return cluster, streams


def exact(observation):
    """Every field of ``observation`` as its type and exact value."""
    fields = []
    for name, value in vars(observation).items():
        if name == "rate_history":
            value = ([type(v) for v in value], np.array(value, dtype=float).tobytes())
        else:
            value = (type(value), repr(value))
        fields.append((name, value))
    return fields


def tick_both(compiled, reference, now, window=60.0):
    """One tick on each ``(cluster, streams)``: ``compiled`` through the
    tick entries, ``reference`` job by job through the scalar loop and the
    Python observation.  Returns the compiled observations after checking
    them and every job's state against the reference."""
    (cluster, streams), (twin, twin_streams) = compiled, reference
    cluster.offer_until(streams, now)
    for name, router in twin.routers.items():
        collector = twin.metrics[name]
        for arrival in twin_streams[name].take_until_array(now).tolist():
            collector.record(arrival, router.offer(arrival))
    observations = cluster.observations(now, window)
    expected = {name: twin.observation(name, now, window) for name in twin.routers}
    assert list(observations) == list(expected)
    for name, observation in observations.items():
        assert exact(observation) == exact(expected[name])
        assert snapshot(cluster.routers[name], cluster.metrics[name]) == snapshot(
            twin.routers[name], twin.metrics[name]
        )
    return observations


def squeeze(router=None, collector=None):
    """Rebuild ``router``'s ring and ``collector``'s buffers with no room
    to spare, so that the next arrivals need them grown."""
    if router is not None:
        router._pending = np.array(router.pending_starts())
        router._queue[0] = 0
    if collector is None:
        return
    opened, stored = collector._fill.tolist()
    minutes = -(-opened // collector.bins_per_minute)
    rows = minutes * collector.bins_per_minute
    collector._counts = collector._counts[:rows].copy()
    collector._proc_sums = collector._proc_sums[:rows].copy()
    collector._minutes = collector._minutes[:minutes].copy()
    collector._latencies = collector._latencies[:stored].copy()


JOB = st.fixed_dictionaries({
    "proc": st.sampled_from([0.1, 0.18, 0.25]),
    "jitter": st.sampled_from([0.0, 0.05, 0.3]),
    "drop": st.sampled_from([0.0, 0.1, 1.0]),
    "replicas": st.integers(min_value=0, max_value=6),
    "threshold": st.sampled_from([1, 3, 50]),
    "rate": st.sampled_from([0.0, 90.0, 600.0, 1500.0]),
    "idle": st.booleans(),
    "percentile": st.sampled_from([50.0, 99.0]),
    "prefix": st.sampled_from([None, 2, 9]),
    "backfill": st.booleans(),
})

#: A busy job with jitter, on a pool that keeps up.
STEADY_JOB = dict(proc=0.18, jitter=0.05, drop=0.0, replicas=3, threshold=50, rate=600.0,
                  idle=False, percentile=99.0, prefix=None, backfill=False)

#: What may happen to a job between ticks, on both sides alike.
EVENTS = ("up", "down", "fail", "drop", "undrop", "threshold", "reconcile", "squeeze",
          "squeeze-ring", "squeeze-bins", "copy-arrivals")


def apply_event(side, name, event, now):
    """``event`` on job ``name`` of ``side``, a ``(cluster, streams)``.
    The squeezes and the copy replace arrays that the dispatch kernel's
    tables view, one owner's at a time."""
    cluster, streams = side
    router = cluster.routers[name]
    if event == "up":
        router.scale_to(router.replica_count + 2, now)
    elif event == "down":
        router.scale_to(max(router.replica_count - 2, 0), now)
    elif event == "fail":
        router.fail_replica(now)
    elif event == "drop":
        router.drop_rate = 0.3
    elif event == "undrop":
        router.drop_rate = 0.0
    elif event == "threshold":
        router.queue_threshold = 2
    elif event == "squeeze":
        squeeze(router, cluster.metrics[name])
    elif event == "squeeze-ring":
        squeeze(router)
    elif event == "squeeze-bins":
        squeeze(collector=cluster.metrics[name])
    elif event == "copy-arrivals":
        stream = streams[name]
        stream._buffer, stream._taken = stream._buffer.copy(), stream._taken.copy()
    else:
        cluster.reconcile(now)


@pytest.mark.usefixtures("compiled")
class TestTickEntries:
    """``offer_until`` and ``observations`` (two kernel calls per tick) ==
    the per-job scalar loop and Python observation, bit for bit, after
    every tick."""

    @settings(max_examples=30, deadline=None)
    @given(
        jobs=st.lists(JOB, min_size=1, max_size=12),
        bin_seconds=st.sampled_from([0.1, 5.0, 15.0, 60.0]),
        cold_start=st.sampled_from([(0.0, 0.0), (10.0, 10.0), (5.0, 25.0)]),
        events=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 11), st.sampled_from(EVENTS)),
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(
        jobs=[STEADY_JOB, dict(STEADY_JOB, threshold=3)],
        bin_seconds=15.0,
        cold_start=(0.0, 0.0),
        events=[(1, 0, "squeeze-bins"), (2, 1, "squeeze-ring"), (3, 0, "copy-arrivals"),
                (4, 0, "threshold"), (5, 1, "copy-arrivals"), (6, 1, "squeeze-bins")],
        seed=1,
    )
    def test_ticks_match_the_per_job_references(
        self, jobs, bin_seconds, cold_start, events, seed
    ):
        compiled = build_cluster(jobs, bin_seconds, cold_start, seed)
        reference = build_cluster(jobs, bin_seconds, cold_start, seed)
        for tick in range(9):
            now = 10.0 * (tick + 1)
            tick_both(compiled, reference, now)
            for when, index, event in events:
                if when == tick and index < len(jobs):
                    for side in (compiled, reference):
                        apply_event(side, f"j{index}", event, now)

    def test_windows_of_every_kind(self):
        """An all-dropped window reads inf, an empty one 0.0 at a rate of
        0; latencies equal the SLO target; a history prefix and backfilled
        rates fill the history; replicas become ready on a tick."""
        base = dict(jitter=0.0, drop=0.0, replicas=2, threshold=50, rate=600.0,
                    idle=False, percentile=99.0, prefix=None, backfill=False)
        jobs = [
            dict(base, proc=0.18, replicas=0),                         # all tail-dropped
            dict(base, proc=0.18, drop=1.0),                           # all explicitly dropped
            dict(base, proc=0.18, rate=0.0, prefix=9),                 # empty, prefix only
            dict(base, proc=0.25, slo=0.5, replicas=1, threshold=3, grid=2),  # on the SLO
            dict(base, proc=0.18, idle=True, backfill=True, prefix=2),  # idle minute backfilled
        ]
        compiled = build_cluster(jobs, cold_start=(10.0, 10.0))
        reference = build_cluster(jobs, cold_start=(10.0, 10.0))
        seen = []
        for now in np.arange(10.0, 190.0, 10.0).tolist():
            seen.append(tick_both(compiled, reference, now))
            if now == 10.0:
                for side in (compiled, reference):
                    apply_event(side, "j4", "up", now)
        assert all(math.isinf(obs["j0"].latency) and math.isinf(obs["j1"].latency)
                   for obs in seen)
        assert all(obs["j2"].latency == 0.0 and obs["j2"].arrival_rate == 0.0 for obs in seen)
        assert seen[0]["j2"].rate_history[-1] == 3.0
        latencies = np.frombuffer(snapshot(None, compiled[0].metrics["j3"])["latencies"])
        assert (latencies == 0.5).any()
        assert seen[-1]["j4"].rate_history[-2] == 2.5  # minute 1: idle, backfilled
        assert [obs["j4"].current_replicas for obs in seen[:2]] == [2, 4]

    def test_a_job_mid_table_whose_buffers_must_grow(self, monkeypatch):
        """The first call leaves a job without room alone and routes the
        others; it is grown and routed by a second call."""
        job = dict(proc=0.18, jitter=0.05, drop=0.1, replicas=2, threshold=50, rate=900.0,
                   idle=False, percentile=99.0, prefix=None, backfill=False)
        compiled, reference = build_cluster([job] * 3), build_cluster([job] * 3)
        kernel, left = dispatch.kernel(), []
        route_jobs = kernel.route_jobs

        def counted(*args):
            left.append(route_jobs(*args))
            return left[-1]

        monkeypatch.setattr(kernel, "route_jobs", counted)
        for now in (10.0, 20.0, 30.0):
            tick_both(compiled, reference, now)
            squeeze(compiled[0].routers["j1"], compiled[0].metrics["j1"])
        assert left == [0, 1, 0, 1, 0]

    def test_two_kernel_calls_per_tick_whatever_the_job_count(self, monkeypatch):
        from repro.cluster.kubernetes import ResourceQuota
        from repro.cluster.models import RESNET34
        from repro.sim import Simulation, SimulationConfig
        from tests.test_simulation import StaticPolicy

        kernel, calls = dispatch.kernel(), {}
        for name in ("route_jobs", "observe_jobs"):
            def counted(*args, call=getattr(kernel, name), name=name):
                calls[name] = calls.get(name, 0) + 1
                return call(*args)

            monkeypatch.setattr(kernel, name, counted)

        def run(count):
            calls.clear()
            jobs = [InferenceJobSpec.with_default_slo(f"j{i}", RESNET34) for i in range(count)]
            replicas = {job.name: 2 for job in jobs}
            Simulation(
                jobs, {job.name: np.full(3, 240.0) for job in jobs}, StaticPolicy(replicas),
                ResourceQuota.of_replicas(2 * count),
                config=SimulationConfig(duration_minutes=3, seed=1),
                initial_replicas=replicas,
            ).run()
            return dict(calls)

        assert run(2) == run(12) == {"route_jobs": 18, "observe_jobs": 18}


def compensated_sum(values):
    """``sum`` of floats as CPython 3.12 and later computes it (Neumaier)."""
    total = compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.mark.usefixtures("compiled")
class TestProcTimeSums:
    """``mean_proc_time`` divides ``sum`` of the window's per-bin
    ``proc_time`` sums, which CPython adds left to right before 3.12 and
    compensated since; the kernel sums as the running interpreter does."""

    def test_plain_and_compensated_sums(self, monkeypatch):
        cluster, streams = dispatch._check_cluster()
        collector = cluster.metrics["sums"]
        kernel = dispatch.kernel()
        for now in (10.0, 20.0, 30.0, 40.0, 50.0):
            cluster.offer_until(streams, now)
        first, last = collector._bin_range(0.0, 50.0)
        arrivals, drops, _ = collector._totals(first, last)
        values = collector._proc_sums[first:last].tolist()
        plain = 0.0
        for value in values:
            plain += value
        # The load-time check's cluster holds this window, so a kernel
        # summing unlike the interpreter is refused at load.
        assert plain != compensated_sum(values)
        assert collector.observation_fields(0.0, 50.0)["mean_proc_time"] == (
            compensated_sum(values) if kernel.compensated else plain
        ) / (arrivals - drops)
        for compensated, total in ((False, plain), (True, compensated_sum(values))):
            monkeypatch.setattr(kernel, "compensated", compensated)
            observed = cluster.observations(50.0)["sums"].mean_proc_time
            assert observed == total / (arrivals - drops)

    def test_a_kernel_summing_unlike_sum_is_refused(self, monkeypatch):
        kernel = dispatch.kernel()
        dispatch._self_check(kernel)
        monkeypatch.setattr(kernel, "compensated", not kernel.compensated)
        with pytest.raises(native.KernelUnavailable):
            dispatch._self_check(kernel)
