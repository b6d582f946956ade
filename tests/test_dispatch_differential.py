"""Randomized differential suite for compiled request dispatch.

``JobRouter.offer_many`` routes whole chunks through the compiled kernel of
:mod:`repro.cluster.dispatch` and claims *bit-identity* with the
per-request scalar loop -- every latency float, every replica's state,
every totals counter, and the RNG generator's final position.  These
properties fuzz that claim across the whole randomness cross-product
(jitter x drop-rate x pool size x queue pressure) and the regimes of a
loaded cluster (backlogged queues, cold starts, scale-downs, empty pools)
instead of trusting a handful of handpicked cases, and the event-time
fault path is checked the same way: the compiled kernel and its scalar
fallback must split chunks at the exact same failure instants.  The
kernel's loader is tested too: it must load wherever it can be built, a
build that fails must fall back to the scalar loop visibly and harmlessly,
and routers must stay picklable.
"""

import hashlib
import importlib.util
import json
import pickle
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.cluster import dispatch
from repro.cluster.models import ModelProfile
from repro.cluster.router import JobRouter
from repro.sim.faults import FaultConfig
from repro.sim.lifecycle import EventFaultProcess
from tests.test_backend_differential import tiny_spec


def make_router(jitter, replicas, drop_rate, threshold, seed, cold_start=(0.0, 0.0)):
    router = JobRouter(
        job_name="svc",
        model=ModelProfile(name="m", proc_time=0.18, proc_jitter=jitter),
        initial_replicas=replicas,
        queue_threshold=threshold,
        cold_start_range=cold_start,
        seed=seed,
    )
    router.drop_rate = drop_rate
    return router


def chunked_arrivals(rng, chunks, tick, rate):
    out, now = [], 0.0
    for _ in range(chunks):
        n = int(rng.poisson(rate * tick))
        out.append(np.sort(rng.random(n)) * tick + now)
        now += tick
    return out


def router_state(router, now):
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


def assert_identical_chunks(scalar, batch, chunks, tick, between=None):
    """Offer ``chunks`` to both routers and compare after every chunk.

    ``between(router, now)`` runs on both routers after each chunk (scale
    events, the control loop's usage pattern).  Returns the router queue
    length at each chunk's first arrival.
    """
    queued, now = [], 0.0
    for chunk in chunks:
        now += tick
        first = chunk[0] if chunk.size else now
        queued.append(sum(start > first for start in scalar._pending_starts))
        expected = np.array([scalar.offer(a) for a in chunk.tolist()])
        np.testing.assert_array_equal(batch.offer_many(chunk), expected)
        if between is not None:
            between(scalar, now)
            between(batch, now)
        assert router_state(batch, now) == router_state(scalar, now)
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
        scalar = make_router(jitter, replicas, drop_rate, threshold, seed=7)
        batch = make_router(jitter, replicas, drop_rate, threshold, seed=7)
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
        scalar = make_router(jitter, replicas, drop_rate, 50, seed=3)
        batch = make_router(jitter, replicas, drop_rate, 50, seed=3)
        targets = [replicas + 2, max(replicas - 1, 1), replicas]

        def rescale(router, now):
            router.scale_to(targets[round(now / 10.0) - 1], now)

        assert_identical_chunks(scalar, batch, chunks, tick=10.0, between=rescale)


class TestBacklogFuzz:
    """The regimes only the scalar loop used to serve: a backlogged queue,
    cold starts, stale heap entries and an empty pool."""

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
        scalar = make_router(jitter, replicas, drop_rate, 50, seed=5)
        batch = make_router(jitter, replicas, drop_rate, 50, seed=5)
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
        scalar = make_router(jitter, replicas, drop_rate, 50, 9, cold_start)
        batch = make_router(jitter, replicas, drop_rate, 50, 9, cold_start)

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
        rng = np.random.default_rng(seed)
        chunks = chunked_arrivals(rng, chunks=5, tick=10.0, rate=4.0 * replicas)
        scalar = make_router(jitter, replicas, drop_rate, 50, seed=11)
        batch = make_router(jitter, replicas, drop_rate, 50, seed=11)

        stale = []

        def scale_down(router, now):
            router.scale_to(max(router.replica_count - 2, 1), now)
            if router is scalar:
                stale.append(sum(rid not in router._replicas for _, rid in router._free_heap))

        assert_identical_chunks(scalar, batch, chunks, tick=10.0, between=scale_down)
        assert stale[0] > 0  # the scalar heap skips retired replicas' entries

    @pytest.mark.parametrize("drop_rate", [0.0, 0.2])
    @pytest.mark.parametrize("jitter", [0.0, 0.05])
    def test_empty_pool(self, jitter, drop_rate):
        """``scale_to(0)``: requests tail-drop until new pods cold-start."""
        rng = np.random.default_rng(4)
        chunks = chunked_arrivals(rng, chunks=4, tick=10.0, rate=8.0)
        scalar = make_router(jitter, 3, drop_rate, 50, 13, (2.0, 6.0))
        batch = make_router(jitter, 3, drop_rate, 50, 13, (2.0, 6.0))
        targets = [0, 0, 2, 2]  # after chunks 1-4

        def rescale(router, now):
            router.scale_to(targets[round(now / 10.0) - 1], now)

        assert_identical_chunks(scalar, batch, chunks, tick=10.0, between=rescale)
        assert scalar.totals.tail_dropped > 0
        assert scalar.totals.served > 0


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
        assert results[False].metadata["dispatch"]["kernel"] == "python"

    @staticmethod
    def _run_event_sim(faults="event"):
        from repro.cluster.job import InferenceJobSpec
        from repro.cluster.kubernetes import ResourceQuota
        from repro.cluster.models import RESNET34
        from repro.sim import Simulation, SimulationConfig
        from tests.test_simulation import StaticPolicy

        jobs = [InferenceJobSpec.with_default_slo("a", RESNET34)]
        traces = {"a": np.full(10, 300.0)}
        config = SimulationConfig(
            duration_minutes=10, seed=0, cold_start_range=(10.0, 10.0),
            faults=FaultConfig(mttf_seconds=45.0, seed=1, process="event")
            if faults == "event" else None,
        )
        sim = Simulation(
            jobs, traces, StaticPolicy({"a": 4}), ResourceQuota.of_replicas(4),
            config=config, initial_replicas={"a": 4},
        )
        return sim.run()


class TestDispatchCounters:
    """The harness reports which regime served each request (metadata only:
    counters never enter report digests)."""

    def test_vectorized_run_counts_vector_requests(self):
        result = TestEventFaultCuts._run_event_sim(faults=None)
        dispatch = result.metadata["dispatch"]
        assert dispatch["vector_requests"] > 0
        assert dispatch["fault_chunk_cuts"] == 0
        total = dispatch["vector_requests"] + dispatch["scalar_requests"]
        assert total == int(result.jobs["a"].arrivals.sum())

    def test_scalar_run_counts_everything_scalar(self, monkeypatch):
        monkeypatch.setattr(dispatch, "kernel", lambda: None)
        result = TestEventFaultCuts._run_event_sim(faults=None)
        counts = result.metadata["dispatch"]
        assert counts["vector_requests"] == 0
        assert counts["kernel"] == "python"
        assert counts["scalar_requests"] == int(result.jobs["a"].arrivals.sum())


class TestKernelLoading:
    """The compiled kernel loads where it can; where it cannot, the scalar
    loop takes over with one warning and identical results."""

    def test_kernel_loads_where_it_can_be_built(self):
        # A broken build fails here instead of silently moving every
        # request run back to the Python loop.
        if shutil.which("cc") is None or importlib.util.find_spec("cffi") is None:
            pytest.skip("needs a C compiler (cc) and cffi")
        assert dispatch.kernel() is not None
        assert dispatch.kernel_name() == "c"

    def test_router_pickles_after_compiled_chunks(self):
        # Serve journals pickle live harnesses: the kernel's cffi objects
        # must never end up on a router.
        rng = np.random.default_rng(2)
        first, second = chunked_arrivals(rng, chunks=2, tick=10.0, rate=30.0)
        router = make_router(0.05, 3, 0.1, 50, seed=1)
        router.offer_many(first)
        restored = pickle.loads(pickle.dumps(router))
        np.testing.assert_array_equal(restored.offer_many(second), router.offer_many(second))
        assert router_state(restored, 20.0) == router_state(router, 20.0)

    def test_compile_failure_falls_back_to_the_scalar_loop(self, tmp_path, monkeypatch):
        spec = tiny_spec("fallback", "request", trials=1)
        compiled = api.run(spec)
        broken = tmp_path / "dispatch.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(dispatch, "SOURCE", broken)
        monkeypatch.setattr(dispatch, "CACHE_DIR", tmp_path / "cache")
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
                        assert counts["kernel"] == kernel
                        assert counts[counter] == requests > 0
        assert report_digest(fallback) == report_digest(compiled)


def report_digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
