"""Cluster facade: all jobs' routers and metrics behind one API.

Mirrors the paper's deployment shape (§5): one Ray cluster (router +
replica pool) per inference job, all sharing a Kubernetes resource quota.
The request-level simulation (:class:`repro.sim.simulation.HybridSimulation`)
drives this facade: it offers arrivals, reads per-job observations and
reconciles failed pods here, and it owns the quota, admitting each
:class:`~repro.policy.ScalingDecision` before scaling the routers.  A
control tick routes every job's arrivals with one call of the compiled
dispatch kernel (:meth:`RayServeCluster.offer_until`) and reads every
job's observation with one more (:meth:`RayServeCluster.observations`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster import dispatch
from repro.cluster.job import InferenceJobSpec
from repro.cluster.metrics import MetricsCollector
from repro.cluster.router import JobRouter
from repro.policy import JobObservation

if TYPE_CHECKING:
    from repro.sim.workload import PoissonArrivals

__all__ = ["RayServeCluster"]


class RayServeCluster:
    """Each request-level job's router and metrics collector, by job name.

    ``targets`` holds each job's replica target; the simulation that owns
    the cluster sets it when it admits a scaling decision.
    """

    def __init__(
        self,
        jobs: list[InferenceJobSpec],
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

    def offer_chunk(self, job_name: str, chunk: "np.ndarray") -> None:
        """Route one chunk of arrivals (nondecreasing times) and record
        every outcome.

        Bit-identical to ``JobRouter.offer`` then ``MetricsCollector.record``
        per arrival in order (see :meth:`JobRouter.offer_many`), but one
        compiled kernel call routes and records the whole chunk.
        """
        self.routers[job_name].offer_many(chunk, self.metrics[job_name])

    def offer_until(self, streams: dict[str, PoissonArrivals], until: float) -> None:
        """Route and record every job's arrivals up to ``until``, taken from
        its stream in ``streams``.

        One compiled kernel call serves every job, whatever their number:
        jobs share no state, so each is routed exactly as one
        :meth:`offer_chunk` of its arrivals would route it.  When the kernel
        cannot load, each job's chunk goes through :meth:`offer_chunk`.
        """
        run = dispatch.kernel()
        if run is not None:
            run.route(self, streams, until)
            return
        for name in self.routers:
            chunk = streams[name].take_until_array(until)
            if chunk.size:
                self.offer_chunk(name, chunk)

    # ------------------------------------------------------------ control

    def observations(self, now: float, window: float = 60.0) -> dict[str, JobObservation]:
        """Build per-job observations over the trailing ``window`` seconds.

        One compiled kernel call reads every job's window, rate history,
        router queue and ready replicas; Python adds backfilled rates and
        builds the :class:`JobObservation`\\ s.  Every field is the one
        :meth:`observation` gives, which serves when the kernel cannot load.
        """
        run = dispatch.kernel()
        if run is None:
            return {name: self.observation(name, now, window) for name in self.routers}
        reals, wholes, rates = run.observe(self, now, window)
        current = int(now // 60.0)
        observations = {}
        rows = zip(self.routers, reals.tolist(), wholes.tolist(), rates)
        for name, (rate, latency, violations, proc, drops), (served, ready, queued), history in rows:
            collector = self.metrics[name]
            if collector._rate_backfill:
                collector._backfill(history, current)
            observations[name] = JobObservation(
                job_name=name,
                arrival_rate=rate,
                rate_history=tuple(history),
                mean_proc_time=proc if served else collector.proc_time,
                latency=latency,
                slo_violation_rate=violations,
                current_replicas=ready,
                target_replicas=self.targets[name],
                queue_length=queued,
                drop_rate=drops,
            )
        return observations

    def observation(self, name: str, now: float, window: float = 60.0) -> JobObservation:
        """Job ``name``'s observation over the trailing ``window`` seconds,
        from the Python references."""
        collector = self.metrics[name]
        fields = collector.observation_fields(max(now - window, 0.0), now)
        history = collector.rate_history(now, self.history_minutes)
        router = self.routers[name]
        return JobObservation(
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
