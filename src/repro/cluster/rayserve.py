"""Cluster facade: all jobs' routers + quota + metrics behind one API.

Mirrors the paper's deployment shape (§5): one Ray cluster (router +
replica pool) per inference job, all sharing a Kubernetes resource quota.
The autoscaler talks to this facade exactly like Faro talks to Ray Serve:
it reads per-job observations and applies :class:`ScalingDecision`s
(replica targets via the Serve API, drop directives via the router).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.job import InferenceJobSpec
from repro.cluster.kubernetes import ResourceQuota
from repro.cluster.metrics import MetricsCollector
from repro.cluster.router import JobRouter
from repro.policy import JobObservation, ScalingDecision

__all__ = ["RayServeCluster"]


class RayServeCluster:
    """All jobs of one experiment plus shared admission control."""

    def __init__(
        self,
        jobs: list[InferenceJobSpec],
        quota: ResourceQuota,
        initial_replicas: dict[str, int] | None = None,
        queue_threshold: int = 50,
        cold_start_range: tuple[float, float] = (50.0, 70.0),
        metrics_bin_seconds: float = 15.0,
        history_minutes: int = 15,
        history_prefix: dict[str, "np.ndarray"] | None = None,
        seed: int = 0,
        allow_empty: bool = False,
    ) -> None:
        if not jobs and not allow_empty:
            raise ValueError("at least one job is required")
        names = [job.name for job in jobs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        self.jobs = {job.name: job for job in jobs}
        self.quota = quota
        self.history_minutes = history_minutes
        # Construction knobs are kept so jobs can attach mid-run
        # (:meth:`add_job`, hybrid fidelity promotion) with the same
        # settings the initial pool got.
        self.queue_threshold = queue_threshold
        self.cold_start_range = cold_start_range
        self.metrics_bin_seconds = metrics_bin_seconds
        initial_replicas = initial_replicas or {}
        self.routers: dict[str, JobRouter] = {}
        self.metrics: dict[str, MetricsCollector] = {}
        self.targets: dict[str, int] = {}
        for index, job in enumerate(jobs):
            count = int(initial_replicas.get(job.name, job.min_replicas))
            router = JobRouter(
                job_name=job.name,
                model=job.model,
                initial_replicas=count,
                queue_threshold=queue_threshold,
                cold_start_range=cold_start_range,
                seed=seed + 1000 * index,
            )
            self.routers[job.name] = router
            prefix = (history_prefix or {}).get(job.name)
            self.metrics[job.name] = MetricsCollector(
                job_name=job.name,
                slo=job.slo,
                proc_time=job.model.proc_time,
                bin_seconds=metrics_bin_seconds,
                history_prefix=prefix,
            )
            self.targets[job.name] = count

    # ----------------------------------------------------------- topology

    def add_job(self, job: InferenceJobSpec, count: int, seed: int) -> JobRouter:
        """Attach ``job`` mid-run with ``count`` ready replicas.

        Used by the hybrid backend's fidelity promotion.  The router is
        built fresh with the caller-supplied ``seed`` (the caller owns
        making it deterministic); an existing metrics collector from a
        previous request-fidelity span of the same job is reused, so
        already-recorded minutes stay reportable across demote/re-promote
        cycles.
        """
        if job.name in self.routers:
            raise ValueError(f"job {job.name!r} is already attached")
        self.jobs[job.name] = job
        router = JobRouter(
            job_name=job.name,
            model=job.model,
            initial_replicas=count,
            queue_threshold=self.queue_threshold,
            cold_start_range=self.cold_start_range,
            seed=seed,
        )
        self.routers[job.name] = router
        if job.name not in self.metrics:
            self.metrics[job.name] = MetricsCollector(
                job_name=job.name,
                slo=job.slo,
                proc_time=job.model.proc_time,
                bin_seconds=self.metrics_bin_seconds,
            )
        self.targets[job.name] = count
        return router

    def remove_job(self, name: str) -> None:
        """Detach a job (hybrid fidelity demotion).

        The metrics collector is intentionally kept: minutes the job spent
        at request fidelity remain part of the run's evaluation series.
        """
        del self.jobs[name]
        del self.routers[name]
        del self.targets[name]

    # ------------------------------------------------------------ serving

    def offer(self, job_name: str, arrival: float) -> float:
        """Route one request; records the outcome and returns its latency."""
        router = self.routers[job_name]
        latency = router.offer(arrival)
        self.metrics[job_name].record(arrival, latency)
        return latency

    def offer_chunk(self, job_name: str, chunk: "np.ndarray") -> None:
        """Route one chunk of arrivals and record every outcome.

        Bit-identical to calling :meth:`offer` per arrival in order (see
        :meth:`JobRouter.offer_many` and
        :meth:`~repro.cluster.metrics.MetricsCollector.record_many`), but
        routes and records in two batch passes instead of 2N calls.
        """
        chunk = np.asarray(chunk, dtype=float)
        latencies = self.routers[job_name].offer_many(chunk)
        self.metrics[job_name].record_many(chunk, latencies)

    def total_replicas(self) -> int:
        return sum(router.replica_count for router in self.routers.values())

    # ------------------------------------------------------------ control

    def observations(self, now: float, window: float = 60.0) -> dict[str, JobObservation]:
        """Build per-job observations over the trailing ``window`` seconds."""
        observations = {}
        for name, job in self.jobs.items():
            collector = self.metrics[name]
            fields = collector.observation_fields(max(now - window, 0.0), now)
            history = collector.rate_history(now, self.history_minutes)
            router = self.routers[name]
            observations[name] = JobObservation(
                job_name=name,
                arrival_rate=fields["arrival_rate"],
                rate_history=tuple(history),
                mean_proc_time=fields["mean_proc_time"],
                latency=fields["latency"],
                slo_violation_rate=fields["slo_violation_rate"],
                current_replicas=router.ready_replica_count(now),
                target_replicas=self.targets[name],
                queue_length=router.queue_length(now),
                drop_rate=fields["drop_rate"],
            )
        return observations

    def reconcile(self, now: float) -> dict[str, int]:
        """Kubernetes-style reconciliation: recreate failed replicas.

        Any job whose live replica count dropped below its target (e.g.
        after fault injection) is scaled back to target; recreated pods pay
        a fresh cold start.  Returns the per-job number of recreated pods.
        """
        recreated = {}
        for name, router in self.routers.items():
            deficit = self.targets[name] - router.replica_count
            if deficit > 0:
                router.scale_to(self.targets[name], now)
                recreated[name] = deficit
        return recreated

    def apply(self, decision: ScalingDecision, now: float) -> dict[str, int]:
        """Admit a scaling decision through the quota and apply it.

        Returns the admitted per-job replica targets.
        """
        current = {name: self.targets[name] for name in self.jobs}
        cpu_per = {name: job.model.cpu_per_replica for name, job in self.jobs.items()}
        mem_per = {name: job.model.mem_per_replica for name, job in self.jobs.items()}
        admitted = self.quota.admit(current, decision.replicas, cpu_per, mem_per)
        for name, target in admitted.items():
            floor = self.jobs[name].min_replicas
            target = max(target, floor)
            if target != self.routers[name].replica_count:
                self.routers[name].scale_to(target, now)
            self.targets[name] = target
        for name, rate in decision.drop_rates.items():
            if name in self.routers:
                self.routers[name].drop_rate = float(rate)
        return admitted
