"""The request-level trace simulation (the "cluster deployment" stand-in).

Wires together the cluster substrate (:mod:`repro.cluster`), Poisson trace
workloads (:mod:`repro.sim.workload`) and an autoscaling policy
(:mod:`repro.policy`).  The control loop itself lives in the shared
:class:`~repro.sim.harness.SimHarness`; this backend contributes only the
request-level dynamics per chunk:

1. offer every request arriving in the chunk to its job's router (one
   compiled-kernel call per job and chunk -- see
   :meth:`repro.cluster.router.JobRouter.offer_many`),
2. inject replica faults and reconcile,
3. build per-job observations from collected metrics,
4. apply the policy's decision through the resource quota.

Because routers use virtual-time dispatch (see
:mod:`repro.cluster.router`), per-request costs stay small enough for
day-long, multi-policy trace sweeps in pure Python.

``SimulationConfig`` is re-exported from :mod:`repro.sim.harness`, its
home since the backend refactor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.dispatch import kernel_name
from repro.cluster.rayserve import RayServeCluster
from repro.policy import JobObservation, ScalingDecision
from repro.sim.faults import make_fault_injector
from repro.sim.harness import SimHarness, SimulationConfig
from repro.sim.recorder import JobSeries, SimulationResult
from repro.sim.workload import PoissonArrivals

__all__ = ["SimulationConfig", "RequestBackendOptions", "Simulation"]


def replicas_per_minute(log: list[tuple[float, int]], minutes: int) -> np.ndarray:
    """Replica target sampled at each minute boundary from an event log.

    ``log`` is a time-ordered list of ``(time, target)`` changes starting
    at ``(0.0, initial)``.  Shared by the request backend and the hybrid
    backend's request-level half.
    """
    out = np.empty(minutes, dtype=int)
    idx = 0
    current = log[0][1]
    for minute in range(minutes):
        boundary = minute * 60.0
        while idx + 1 < len(log) and log[idx + 1][0] <= boundary:
            idx += 1
            current = log[idx][1]
        out[minute] = current
    return out


def collect_request_series(
    name: str, collector, minutes: int, replicas: np.ndarray
) -> JobSeries:
    """Per-minute evaluation series from a job's metrics collector.

    Shared by the request backend and the hybrid backend's request-level
    half -- one implementation of the minute-stats rollup.
    """
    arrivals = np.zeros(minutes, dtype=int)
    drops = np.zeros(minutes, dtype=int)
    violations = np.zeros(minutes, dtype=int)
    latency = np.zeros(minutes)
    utility = np.zeros(minutes)
    effective = np.zeros(minutes)
    for minute in range(minutes):
        stats = collector.minute_stats(minute)
        arrivals[minute] = stats.arrivals
        drops[minute] = stats.drops
        violations[minute] = stats.violations
        latency[minute] = stats.latency_p
        utility[minute] = stats.utility
        effective[minute] = stats.effective_utility
    return JobSeries(
        name=name,
        arrivals=arrivals,
        drops=drops,
        violations=violations,
        latency_p=latency,
        utility=utility,
        effective_utility=effective,
        replicas=replicas,
    )


@dataclass(frozen=True)
class RequestBackendOptions:
    """Typed options of the ``request`` backend.

    ``vectorize`` routes whole chunks through the compiled dispatch kernel
    (:meth:`repro.cluster.router.JobRouter.offer_many`); off, every request
    takes the scalar :meth:`~repro.cluster.router.JobRouter.offer` loop.
    Both are bit-identical, so this knob exists for benchmarking and
    debugging, not for changing results.
    """

    vectorize: bool = True


class Simulation(SimHarness):
    """One experiment run at request-level fidelity: jobs + traces + policy."""

    fidelity_label = "request-level"
    options_type = RequestBackendOptions
    #: Arrivals are drawn lazily per minute (PoissonArrivals), so trace
    #: minutes can stream in mid-run without perturbing past draws.
    supports_streaming = True

    # ------------------------------------------------------------- hooks

    def _setup(self) -> None:
        # History prefixes arrive in requests/minute (trace units); the
        # collectors keep rate histories in requests/second.
        prefix_rps = None
        if self.history_prefix:
            prefix_rps = {
                name: values * (self.config.rate_scale / 60.0)
                for name, values in self.history_prefix.items()
            }
        self.cluster = RayServeCluster(
            self.jobs,
            self.quota,
            initial_replicas=self.initial_replicas,
            queue_threshold=self.config.queue_threshold,
            cold_start_range=self.config.cold_start_range,
            metrics_bin_seconds=self.config.metrics_bin_seconds,
            history_minutes=self.config.history_minutes,
            history_prefix=prefix_rps,
            seed=self.config.seed,
        )
        self.arrivals = {
            job.name: PoissonArrivals(
                self.traces[job.name],
                rate_scale=self.config.rate_scale,
                seed=self.config.seed + 17 * index + 3,
            )
            for index, job in enumerate(self.jobs)
        }
        self._replica_log: dict[str, list[tuple[float, int]]] = {
            job.name: [(0.0, self.cluster.targets[job.name])] for job in self.jobs
        }
        self._push_device_assignment()
        self._fault_injector = (
            make_fault_injector(self.config.faults) if self.config.faults else None
        )
        # The event-driven process supports exact in-chunk failure instants;
        # the per-tick sampler only produces end-of-tick counts.
        self._event_faults = (
            self._fault_injector
            if self.config.faults is not None and self.config.faults.process == "event"
            else None
        )
        self._fault_chunk_cuts = 0

    def _push_device_assignment(
        self, hints: dict[str, dict[str, int]] | None = None
    ) -> None:
        """Re-place replica targets onto device classes; push each job's
        effective processing time onto its router.  No-op on homogeneous
        runs."""
        if self.device_pool is None:
            return
        self.device_pool.assign(dict(self.cluster.targets), hints)
        for name, router in self.cluster.routers.items():
            router.proc_time_override = self.device_pool.effective_proc_time(name)

    def _reset(self) -> None:
        if self._fault_injector is not None:
            self._fault_injector.reset()
        self._fault_chunk_cuts = 0

    def _extend(self, new: dict[str, np.ndarray]) -> None:
        for name, values in new.items():
            self.arrivals[name].extend(values)

    def advance(self, now: float, tick: float, end_time: float) -> float:
        start = now
        now = min(now + tick, end_time)
        if self._event_faults is not None:
            return self._advance_event_faults(start, now)
        if self.options.vectorize:
            for name, stream in self.arrivals.items():
                chunk = stream.take_until_array(now)
                if chunk.size:
                    self.cluster.offer_chunk(name, chunk)
        else:
            offer = self.cluster.offer
            for name, stream in self.arrivals.items():
                for arrival in stream.take_until(now):
                    offer(name, arrival)
        if self._fault_injector is not None:
            for name, router in self.cluster.routers.items():
                kills = self._fault_injector.sample(name, router.replica_count, tick)
                for _ in range(kills):
                    router.fail_replica(now)
            self.cluster.reconcile(now)
        return now

    def _advance_event_faults(self, start: float, now: float) -> float:
        """Advance one control interval with event-time failure cuts.

        The per-tick path above quantizes failures to the interval boundary:
        every request in the chunk still sees the full pool, and the kill
        lands at ``now``.  Here each job's failure instants are resolved
        exactly (:meth:`repro.sim.lifecycle.EventFaultProcess.failure_times`)
        and the offer pass is split *at* them -- requests arriving before a
        failure dispatch against the full pool, requests after it against
        the shrunk pool, exactly as a continuously-running cluster would
        see.  Jobs are processed in router (insertion) order, the same
        per-job order the fault process's RNG was consumed in before.
        """
        injector = self._event_faults
        vectorize = self.options.vectorize
        for name, router in self.cluster.routers.items():
            stream = self.arrivals[name]
            cuts = injector.failure_times(
                name, router.replica_count, start, now - start
            )
            self._fault_chunk_cuts += len(cuts)
            if vectorize:
                for instant in cuts:
                    chunk = stream.take_until_array(instant)
                    if chunk.size:
                        self.cluster.offer_chunk(name, chunk)
                    router.fail_replica(instant)
                chunk = stream.take_until_array(now)
                if chunk.size:
                    self.cluster.offer_chunk(name, chunk)
            else:
                offer = self.cluster.offer
                for instant in cuts:
                    for arrival in stream.take_until(instant):
                        offer(name, arrival)
                    router.fail_replica(instant)
                for arrival in stream.take_until(now):
                    offer(name, arrival)
        self.cluster.reconcile(now)
        return now

    def observations(self, now: float) -> dict[str, JobObservation]:
        return self.cluster.observations(now, window=self.config.observation_window)

    def apply(self, decision: ScalingDecision, now: float) -> None:
        admitted = self.cluster.apply(decision, now)
        for name, target in admitted.items():
            log = self._replica_log[name]
            if log[-1][1] != target:
                log.append((now, target))
        self._push_device_assignment(decision.device_replicas)

    # ------------------------------------------------------------ collect

    def dispatch_stats(self) -> dict:
        routers = self.cluster.routers.values()
        return {
            "vector_requests": sum(r.vector_requests for r in routers),
            "scalar_requests": sum(r.scalar_requests for r in routers),
            "fault_chunk_cuts": self._fault_chunk_cuts,
            "kernel": kernel_name() if self.options.vectorize else "python",
        }

    def collect(self) -> SimulationResult:
        series = {
            job.name: collect_request_series(
                job.name,
                self.cluster.metrics[job.name],
                self.duration_minutes,
                replicas_per_minute(
                    self._replica_log[job.name], self.duration_minutes
                ),
            )
            for job in self.jobs
        }
        metadata = self.base_metadata()
        if self._fault_injector is not None:
            metadata["failures_injected"] = dict(self._fault_injector.failures_injected)
            metadata["total_failures"] = self._fault_injector.total_failures
        return SimulationResult(
            jobs=series,
            policy_name=getattr(self.policy, "name", "policy"),
            metadata=metadata,
        )
