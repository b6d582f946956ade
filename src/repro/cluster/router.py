"""Per-job Router: dispatch, queueing, drops, replica lifecycle.

One Router fronts each job (the paper runs it on the job's Ray head pod).
It (i) dispatches requests FIFO to the least-backlogged replica,
(ii) tail-drops requests once its queue exceeds a threshold (default 50,
returning HTTP 503 to the client), (iii) honours explicit drop directives
from the autoscaler (penalty variants), and (iv) manages replica cold
starts on scale-up and graceful draining on scale-down.

Implementation: a *virtual-time* router.  Because service is (near-)
deterministic and dispatch is FIFO/work-conserving, a request's start time
is fully determined at arrival: it runs on the replica that frees up
earliest.  The router therefore keeps a heap of per-replica free times
instead of simulating per-request events, which is exact for this
discipline and roughly an order of magnitude faster -- the property that
makes trace-driven, day-long multi-policy sweeps tractable in pure Python.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.cluster import dispatch
from repro.cluster.models import ModelProfile

__all__ = ["Replica", "RouterTotals", "JobRouter"]


@dataclass
class Replica:
    """Bookkeeping for one Ray Serve replica (worker pod)."""

    replica_id: int
    ready_at: float
    free_at: float
    served: int = 0
    active: bool = True


@dataclass
class RouterTotals:
    """Lifetime counters for one job's router."""

    arrivals: int = 0
    served: int = 0
    tail_dropped: int = 0
    explicit_dropped: int = 0
    failures: int = 0

    @property
    def dropped(self) -> int:
        return self.tail_dropped + self.explicit_dropped


class JobRouter:
    """Router + replica pool for a single inference job."""

    def __init__(
        self,
        job_name: str,
        model: ModelProfile,
        initial_replicas: int = 1,
        queue_threshold: int = 50,
        cold_start_range: tuple[float, float] = (50.0, 70.0),
        seed: int = 0,
    ) -> None:
        if initial_replicas < 0:
            raise ValueError(f"initial_replicas must be >= 0, got {initial_replicas}")
        if queue_threshold < 1:
            raise ValueError(f"queue_threshold must be >= 1, got {queue_threshold}")
        lo, hi = cold_start_range
        if lo < 0 or hi < lo:
            raise ValueError(f"invalid cold_start_range {cold_start_range}")
        self.job_name = job_name
        self.model = model
        self.queue_threshold = queue_threshold
        self.cold_start_range = cold_start_range
        self.drop_rate = 0.0
        #: Effective processing time pushed by heterogeneous device pools;
        #: ``None`` (the homogeneous default) serves at the model's time.
        self.proc_time_override: float | None = None
        self.totals = RouterTotals()
        #: Dispatch-regime counters: requests routed by the compiled chunk
        #: kernel vs the per-request scalar loop (observability only;
        #: never serialized into report digests).
        self.vector_requests = 0
        self.scalar_requests = 0
        self._rng = np.random.default_rng(seed)
        self._ids = itertools.count()
        self._replicas: dict[int, Replica] = {}
        self._free_heap: list[tuple[float, int]] = []
        # Start times of accepted-but-not-yet-started requests.  Starts are
        # assigned in nondecreasing order (FIFO + earliest-free dispatch), so
        # a deque with front-expiry gives the exact router queue length.
        self._pending_starts: deque[float] = deque()
        for _ in range(initial_replicas):
            self._add_replica(ready_at=0.0)

    # ----------------------------------------------------------- replicas

    def _add_replica(self, ready_at: float) -> Replica:
        replica = Replica(replica_id=next(self._ids), ready_at=ready_at, free_at=ready_at)
        self._replicas[replica.replica_id] = replica
        heapq.heappush(self._free_heap, (replica.free_at, replica.replica_id))
        return replica

    def _sample_cold_start(self) -> float:
        lo, hi = self.cold_start_range
        if hi == lo:
            return lo
        return float(self._rng.uniform(lo, hi))

    @property
    def replica_count(self) -> int:
        """Replicas that exist (running or still cold-starting)."""
        return len(self._replicas)

    def ready_replica_count(self, now: float) -> int:
        """Replicas past their cold start at time ``now``."""
        return sum(1 for r in self._replicas.values() if r.ready_at <= now)

    def scale_to(self, target: int, now: float) -> int:
        """Set the replica target; returns the applied delta.

        Scale-ups create replicas that become ready after a sampled cold
        start.  Scale-downs retire replicas gracefully: pods still cold-
        starting go first (latest ready time first), then the
        least-backlogged running replicas; in-flight work finishes.
        """
        if target < 0:
            raise ValueError(f"target must be >= 0, got {target}")
        delta = target - self.replica_count
        if delta > 0:
            for _ in range(delta):
                self._add_replica(ready_at=now + self._sample_cold_start())
        elif delta < 0:
            victims = self._pick_victims(-delta, now)
            for replica_id in victims:
                self._replicas[replica_id].active = False
                del self._replicas[replica_id]
        return delta

    def fail_replica(self, now: float) -> int | None:
        """Kill one uniformly random replica (fault injection).

        Returns the failed replica id, or ``None`` when the pool is empty.
        Work already assigned in virtual time completes (Ray Serve retries
        in-flight requests transparently); the first-order SLO effect of a
        failure is the capacity loss until reconciliation recreates the pod
        and it finishes a fresh cold start, which this models exactly.
        """
        if not self._replicas:
            return None
        victims = list(self._replicas)
        victim = int(victims[self._rng.integers(len(victims))])
        self._replicas[victim].active = False
        del self._replicas[victim]
        self.totals.failures += 1
        return victim

    def _pick_victims(self, count: int, now: float) -> list[int]:
        pending = [r for r in self._replicas.values() if r.ready_at > now and r.served == 0]
        pending.sort(key=lambda r: -r.ready_at)
        victims = [r.replica_id for r in pending[:count]]
        remaining = count - len(victims)
        if remaining > 0:
            running = [r for r in self._replicas.values() if r.replica_id not in victims]
            running.sort(key=lambda r: r.free_at)
            victims.extend(r.replica_id for r in running[:remaining])
        return victims

    # ------------------------------------------------------------ dispatch

    def queue_length(self, now: float) -> int:
        """Requests accepted but not yet started (the router queue)."""
        pending = self._pending_starts
        while pending and pending[0] <= now:
            pending.popleft()
        return len(pending)

    @property
    def proc_time(self) -> float:
        """Deterministic per-request service time currently in force."""
        if self.proc_time_override is not None:
            return self.proc_time_override
        return self.model.proc_time

    def _proc_time_sample(self) -> float:
        base = self.proc_time
        if self.model.proc_jitter == 0.0:
            return base
        jitter = self._rng.normal(1.0, self.model.proc_jitter)
        return base * min(max(jitter, 0.5), 1.5)

    def offer(self, arrival: float) -> float:
        """Offer one request at time ``arrival``.

        Returns the request latency in seconds, ``inf`` if dropped (tail
        drop or explicit drop directive -- both count as failed requests and
        are not retried, per the paper's load generator).
        """
        self.totals.arrivals += 1
        self.scalar_requests += 1
        if self.drop_rate > 0.0 and self._rng.random() < self.drop_rate:
            self.totals.explicit_dropped += 1
            return math.inf
        if not self._replicas:
            self.totals.tail_dropped += 1
            return math.inf
        if self.queue_length(arrival) >= self.queue_threshold:
            self.totals.tail_dropped += 1
            return math.inf
        # Pop stale heap entries until one matches a live replica's state.
        while self._free_heap:
            free_at, replica_id = self._free_heap[0]
            replica = self._replicas.get(replica_id)
            if replica is None or replica.free_at != free_at:
                heapq.heappop(self._free_heap)
                continue
            break
        else:
            self.totals.tail_dropped += 1
            return math.inf
        heapq.heappop(self._free_heap)
        start = max(arrival, replica.free_at, replica.ready_at)
        completion = start + self._proc_time_sample()
        replica.free_at = completion
        replica.served += 1
        heapq.heappush(self._free_heap, (completion, replica_id))
        if start > arrival:
            self._pending_starts.append(start)
        self.totals.served += 1
        return completion - arrival

    # ------------------------------------------------------- batch offers

    def offer_many(self, arrivals: np.ndarray) -> np.ndarray:
        """Offer a chunk of arrivals (nondecreasing times); returns latencies.

        Identical to calling :meth:`offer` once per arrival in order -- bit
        for bit, including RNG consumption and post-chunk replica state
        (fuzzed by ``tests/test_dispatch_differential.py``).  The chunk runs
        through the compiled kernel of :mod:`repro.cluster.dispatch`, which
        performs :meth:`offer`'s steps per request and draws from this
        router's own generator, so every regime -- backlog, cold starts,
        jitter, drops -- takes the same path.  When the kernel cannot load,
        the scalar :meth:`offer` loop serves the chunk.
        """
        arrivals = np.ascontiguousarray(arrivals, dtype=float)
        run = dispatch.kernel()
        if run is None:
            offer = self.offer
            return np.array([offer(arrival) for arrival in arrivals.tolist()], dtype=float)
        return self._offer_compiled(run, arrivals)

    def _offer_compiled(self, run, arrivals: np.ndarray) -> np.ndarray:
        """Route ``arrivals`` with the compiled kernel ``run``.

        Hands the kernel this router's live state as plain lists and writes
        the result back.  The free-time heap is rebuilt from live replicas:
        its stale entries never win a pop, so pop order is unchanged.
        """
        n = arrivals.shape[0]
        replicas = list(self._replicas.values())
        latencies = np.empty(n)
        frees, served, pending, counts = run(
            self._rng, arrivals, latencies,
            [replica.free_at for replica in replicas],
            [replica.ready_at for replica in replicas],
            [replica.replica_id for replica in replicas],
            [replica.served for replica in replicas],
            list(self._pending_starts),
            self.drop_rate, self.proc_time, self.model.proc_jitter,
            self.queue_threshold,
        )
        for replica, free, count in zip(replicas, frees, served):
            replica.free_at = free
            replica.served = count
        self._free_heap = [
            (free, replica.replica_id) for replica, free in zip(replicas, frees)
        ]
        heapq.heapify(self._free_heap)
        self._pending_starts = deque(pending)
        accepted, tail_dropped, explicit_dropped = counts
        totals = self.totals
        totals.arrivals += n
        totals.served += accepted
        totals.tail_dropped += tail_dropped
        totals.explicit_dropped += explicit_dropped
        self.vector_requests += n
        return latencies
