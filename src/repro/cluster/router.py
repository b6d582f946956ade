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
earliest, the one with the smallest ``(free_at, id)``.  The router
therefore keeps per-replica free times instead of simulating per-request
events, which is exact for this discipline and roughly an order of
magnitude faster -- the property that makes trace-driven, day-long
multi-policy sweeps tractable.

The state is numpy arrays, so that the compiled kernel of
:mod:`repro.cluster.dispatch` can route a whole chunk in place: the pool is
four arrays in replica-id order (``free_at``, ``ready_at``, ids and
requests served), the start times of accepted requests that have not
started form a ring with its head and length, and the lifetime counters
are one array of tallies.  The scalar :meth:`JobRouter.offer` reads and
writes the same arrays; it is the kernel's reference and its fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster import dispatch
from repro.cluster.models import ModelProfile

if TYPE_CHECKING:
    from repro.cluster.metrics import MetricsCollector

__all__ = ["RouterTotals", "JobRouter"]

#: The columns of ``JobRouter._tallies`` (``dispatch.c`` uses the same):
#: requests served, tail-dropped and explicitly dropped, replicas failed,
#: and requests routed by the compiled kernel.
SERVED, TAIL_DROPPED, EXPLICIT_DROPPED, FAILURES, ROUTED = range(5)


@dataclass
class RouterTotals:
    """Lifetime counters for one job's router (a copy: see
    :attr:`JobRouter.totals`)."""

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
        self._tallies = np.zeros(5, dtype=np.int64)
        self._rng = np.random.default_rng(seed)
        self._next_id = 0
        # The pool, in replica-id order.
        self._free_at = np.zeros(0)
        self._ready_at = np.zeros(0)
        self._ids = np.zeros(0, dtype=np.int64)
        self._served = np.zeros(0, dtype=np.int64)
        # No replica is still cold-starting from this time on.
        self._all_ready_at = 0.0
        # Start times of accepted-but-not-yet-started requests: a ring whose
        # head is _pending[_queue[0]] and whose length is _queue[1].  Starts
        # are assigned in nondecreasing order (FIFO + earliest-free
        # dispatch), so front expiry gives the exact router queue length,
        # which never exceeds the threshold; the ring grows up to it.
        self._pending = np.zeros(min(queue_threshold, 64))
        self._queue = np.zeros(2, dtype=np.int64)
        self._add_replicas([0.0] * initial_replicas)

    @property
    def totals(self) -> RouterTotals:
        """The lifetime counters, as of now."""
        served, tail_dropped, explicit_dropped, failures, _ = self._tallies.tolist()
        return RouterTotals(
            arrivals=served + tail_dropped + explicit_dropped,
            served=served,
            tail_dropped=tail_dropped,
            explicit_dropped=explicit_dropped,
            failures=failures,
        )

    @property
    def vector_requests(self) -> int:
        """Requests routed by the compiled kernel (observability only;
        never serialized into report digests)."""
        return int(self._tallies[ROUTED])

    @property
    def scalar_requests(self) -> int:
        """Requests routed by the per-request scalar loop."""
        return self.totals.arrivals - self.vector_requests

    # ----------------------------------------------------------- replicas

    def _add_replicas(self, ready_at: list[float]) -> None:
        """Append replicas, idle until their ``ready_at``, with fresh ids."""
        count = len(ready_at)
        ready = np.array(ready_at, dtype=float)
        self._free_at = np.concatenate([self._free_at, ready])
        self._ready_at = np.concatenate([self._ready_at, ready])
        ids = np.arange(self._next_id, self._next_id + count, dtype=np.int64)
        self._ids = np.concatenate([self._ids, ids])
        self._served = np.concatenate([self._served, np.zeros(count, dtype=np.int64)])
        self._next_id += count
        self._all_ready_at = max([self._all_ready_at, *ready_at])

    def _remove_replicas(self, positions: list[int]) -> None:
        """Retire the replicas at ``positions`` in the pool."""
        keep = np.ones(self._ids.shape[0], dtype=bool)
        keep[positions] = False
        self._free_at = self._free_at[keep]
        self._ready_at = self._ready_at[keep]
        self._ids = self._ids[keep]
        self._served = self._served[keep]

    def _sample_cold_start(self) -> float:
        lo, hi = self.cold_start_range
        if hi == lo:
            return lo
        return float(self._rng.uniform(lo, hi))

    @property
    def replica_count(self) -> int:
        """Replicas that exist (running or still cold-starting)."""
        return self._ids.shape[0]

    def ready_replica_count(self, now: float) -> int:
        """Replicas past their cold start at time ``now``."""
        if now >= self._all_ready_at:
            return self.replica_count
        return int(np.count_nonzero(self._ready_at <= now))

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
            self._add_replicas([now + self._sample_cold_start() for _ in range(delta)])
        elif delta < 0:
            self._remove_replicas(self._pick_victims(-delta, now))
        return delta

    def fail_replica(self, now: float) -> int | None:
        """Kill one uniformly random replica (fault injection).

        Returns the failed replica id, or ``None`` when the pool is empty.
        Work already assigned in virtual time completes (Ray Serve retries
        in-flight requests transparently); the first-order SLO effect of a
        failure is the capacity loss until reconciliation recreates the pod
        and it finishes a fresh cold start, which this models exactly.
        """
        if not self.replica_count:
            return None
        position = int(self._rng.integers(self.replica_count))
        victim = int(self._ids[position])
        self._remove_replicas([position])
        self._tallies[FAILURES] += 1
        return victim

    def _pick_victims(self, count: int, now: float) -> list[int]:
        """Pool positions of the ``count`` replicas a scale-down retires."""
        ready_at = self._ready_at.tolist()
        served = self._served.tolist()
        free_at = self._free_at.tolist()
        positions = range(len(ready_at))
        # Sorts are stable: ties keep id order.
        pending = [k for k in positions if ready_at[k] > now and served[k] == 0]
        pending.sort(key=lambda k: -ready_at[k])
        victims = pending[:count]
        remaining = count - len(victims)
        if remaining > 0:
            running = [k for k in positions if k not in victims]
            running.sort(key=lambda k: free_at[k])
            victims.extend(running[:remaining])
        return victims

    # ------------------------------------------------------------ dispatch

    def queue_length(self, now: float) -> int:
        """Requests accepted but not yet started (the router queue)."""
        pending, queue = self._pending, self._queue
        head, length = start = queue.tolist()
        capacity = pending.shape[0]
        while length and pending[head] <= now:
            head = head + 1 if head + 1 < capacity else 0
            length -= 1
        if length != start[1]:
            queue[0], queue[1] = head, length
        return length

    def pending_starts(self) -> list[float]:
        """Start times of the requests in the router queue, oldest first."""
        head, length = self._queue.tolist()
        return np.roll(self._pending, -head)[:length].tolist()

    def _reserve_queue(self, extra: int) -> None:
        """Room in the ring for ``extra`` more pending starts (up to the
        queue threshold, which the queue never exceeds)."""
        capacity = self._pending.shape[0]
        length = int(self._queue[1])
        if capacity >= self.queue_threshold or length + extra <= capacity:
            return
        grown = np.zeros(min(self.queue_threshold, max(2 * capacity, length + extra)))
        grown[:length] = self.pending_starts()
        self._pending = grown
        self._queue[0] = 0

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
        if self.drop_rate > 0.0 and self._rng.random() < self.drop_rate:
            self._tallies[EXPLICIT_DROPPED] += 1
            return math.inf
        if not self.replica_count or self.queue_length(arrival) >= self.queue_threshold:
            self._tallies[TAIL_DROPPED] += 1
            return math.inf
        free_at = self._free_at
        # argmin takes the first of equal free times: the smallest id.
        pick = int(free_at.argmin())
        start = max(arrival, float(free_at[pick]), float(self._ready_at[pick]))
        completion = start + self._proc_time_sample()
        free_at[pick] = completion
        self._served[pick] += 1
        if start > arrival:
            self._reserve_queue(1)
            head, length = self._queue.tolist()
            self._pending[(head + length) % self._pending.shape[0]] = start
            self._queue[1] = length + 1
        self._tallies[SERVED] += 1
        return completion - arrival

    # ------------------------------------------------------- batch offers

    def offer_many(self, arrivals: np.ndarray, collector: MetricsCollector) -> None:
        """Offer a chunk of arrivals (nondecreasing times) and record each
        outcome in ``collector``.

        Identical to ``collector.record(arrival, self.offer(arrival))`` once
        per arrival in order -- bit for bit, in this router's arrays and
        generator and in the collector's bins and latencies (fuzzed by
        ``tests/test_dispatch_differential.py``).  The chunk runs through
        the compiled kernel of :mod:`repro.cluster.dispatch` as a table of
        one job: it performs :meth:`offer`'s and
        :meth:`MetricsCollector.record`'s steps per request, in place on
        both objects' arrays, and draws from this router's own generator,
        so every regime -- backlog, cold starts, jitter, drops -- takes the
        same path.  When the kernel cannot load, the scalar loop serves the
        chunk.  Arrivals out of time order raise ``ValueError`` (see
        :meth:`MetricsCollector.record`).
        """
        arrivals = np.ascontiguousarray(arrivals, dtype=float)
        run = dispatch.kernel()
        if run is None:
            offer, record = self.offer, collector.record
            for arrival in arrivals.tolist():
                record(arrival, offer(arrival))
            return
        run.offer(self, collector, arrivals)
