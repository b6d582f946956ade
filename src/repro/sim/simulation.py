"""The simulation harness with dynamics: request-level and analytic jobs.

One class, :class:`HybridSimulation`, plays every fidelity.  Each job is
*flagged* request-level or runs analytically:

- a request-level job gets the full cluster substrate
  (:mod:`repro.cluster`) -- Poisson arrivals from its trace
  (:mod:`repro.sim.workload`), a virtual-time router, replica cold
  starts and metrics bins; one compiled dispatch-kernel call per tick
  routes every such job's arrivals (see
  :meth:`repro.cluster.rayserve.RayServeCluster.offer_until`), and one more
  reads their observations, except under ``faults.process == "event"``,
  where each job's chunk is cut at the exact failure instants and routed
  on its own;
- an analytic job advances its queue per tick with the fluid/M/D/c model
  of :mod:`repro.sim.flow`: the run's analytic jobs are the rows of one
  :class:`~repro.sim.flow.FlowTable`, and one compiled flow-kernel call
  per tick steps them all.

All jobs share one resource quota, one autoscaling policy and the one
control loop of :class:`~repro.sim.harness.SimHarness`, so the policy sees
a single cluster.  The three registered backends differ only in which jobs
are flagged:

- ``request`` -- :class:`Simulation`, every job (the "cluster deployment"
  stand-in; the only backend that can stream trace minutes in mid-run);
- ``flow`` -- :class:`repro.sim.analytic.FlowSimulation`, no job (the
  "matched simulation" stand-in);
- ``hybrid`` -- this class, the jobs :class:`HybridBackendOptions` names,
  optionally promoted and demoted mid-run on SLO pressure.

Because routers use virtual-time dispatch (see :mod:`repro.cluster.router`),
per-request costs stay small enough for day-long, multi-policy trace
sweeps.  ``SimulationConfig`` is re-exported from :mod:`repro.sim.harness`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.rayserve import RayServeCluster
from repro.policy import JobObservation, ScalingDecision
from repro.sim.faults import make_fault_injector
from repro.sim.flow import FlowJob, FlowTable, collect_flow_series
from repro.sim.harness import SimHarness, SimulationConfig, admit_decision
from repro.sim.recorder import JobSeries, SimulationResult
from repro.sim.workload import PoissonArrivals

__all__ = [
    "SimulationConfig",
    "HybridBackendOptions",
    "HybridSimulation",
    "Simulation",
]


def replicas_per_minute(log: list[tuple[float, int]], minutes: int) -> np.ndarray:
    """Replica target sampled at each minute boundary from an event log.

    ``log`` is a time-ordered list of ``(time, target)`` changes starting
    at ``(0.0, initial)``.
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
    """Per-minute evaluation series from a job's metrics collector."""
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
class HybridBackendOptions:
    """Typed options of the ``hybrid`` backend.

    ``request_jobs`` names the jobs to simulate at request level (unknown
    names fail loudly at construction).  ``auto_request_jobs`` additionally
    flags the N busiest remaining jobs by mean offered trace rate (ties
    broken by job order, so the selection is deterministic).  Jobs not
    flagged either way advance analytically.

    ``promote_headroom`` enables *mid-run fidelity promotion*: at each
    control tick every analytic job's SLO headroom
    (``1 - latency / slo_target``) is compared against it, and a job whose
    headroom stays below the threshold for ``min_dwell_ticks`` consecutive
    ticks is switched to request fidelity at the next minute boundary --
    cheap analytic dynamics until SLO pressure makes per-request detail
    matter.  ``demote_headroom`` is the hysteresis upper band: a promoted
    job whose headroom stays above it for ``min_dwell_ticks`` ticks drops
    back to the analytic side (it must exceed ``promote_headroom`` when
    both are set; ``None`` means promoted jobs never demote).  Switches
    happen only at minute boundaries so every evaluation minute is covered
    by exactly one fidelity, and the rule is a pure function of the run's
    spec -- promotion times, router seeds and arrival streams are all
    deterministic and digest-pinned.
    """

    request_jobs: tuple[str, ...] = field(default_factory=tuple)
    auto_request_jobs: int = 0
    promote_headroom: float | None = None
    demote_headroom: float | None = None
    min_dwell_ticks: int = 3

    def __post_init__(self) -> None:
        object.__setattr__(self, "request_jobs", tuple(self.request_jobs))
        if self.auto_request_jobs < 0:
            raise ValueError(
                f"auto_request_jobs must be >= 0, got {self.auto_request_jobs}"
            )
        if self.min_dwell_ticks < 1:
            raise ValueError(
                f"min_dwell_ticks must be >= 1, got {self.min_dwell_ticks}"
            )
        if (
            self.promote_headroom is not None
            and self.demote_headroom is not None
            and self.demote_headroom <= self.promote_headroom
        ):
            raise ValueError(
                "demote_headroom must exceed promote_headroom (hysteresis), "
                f"got demote={self.demote_headroom} <= "
                f"promote={self.promote_headroom}"
            )


class HybridSimulation(SimHarness):
    """Request-level fidelity for flagged jobs, analytic for the rest."""

    fidelity_label = "hybrid"
    options_type = HybridBackendOptions

    # ------------------------------------------------------------- hooks

    def _select_request_jobs(self) -> set[str]:
        """Names of the jobs that start at request level."""
        names = [job.name for job in self.jobs]
        flagged = set(self.options.request_jobs)
        unknown = flagged - set(names)
        if unknown:
            raise ValueError(
                f"hybrid request_jobs name unknown job(s) {sorted(unknown)}; "
                f"jobs in this run: {names}"
            )
        extra = self.options.auto_request_jobs
        if extra > 0:
            candidates = [name for name in names if name not in flagged]
            means = {name: float(self.traces[name].mean()) for name in candidates}
            candidates.sort(key=lambda name: -means[name])  # stable: ties keep job order
            flagged.update(candidates[:extra])
        return flagged

    def _setup(self) -> None:
        flagged = self._select_request_jobs()
        self.request_jobs = [job for job in self.jobs if job.name in flagged]
        self.flow_jobs = [job for job in self.jobs if job.name not in flagged]
        self._promotion_enabled = (
            self.options is not None and self.options.promote_headroom is not None
        )
        self._global_index = {job.name: i for i, job in enumerate(self.jobs)}
        #: Per-job fidelity spans as ``(start_minute, is_request)`` events;
        #: a single entry means the job never switched mid-run.
        self._fidelity_log: dict[str, list[tuple[int, bool]]] = {
            job.name: [(0, job.name in flagged)] for job in self.jobs
        }
        self._fidelity_events: list[dict] = []
        self._promo_count: dict[str, int] = {}
        self._pressure: dict[str, int] = {}
        self._relief: dict[str, int] = {}
        self._last_obs: dict[str, JobObservation] = {}
        #: Dispatch counters of routers retired by demotion.
        self._retired_vector = 0
        self._retired_scalar = 0

        # --- request-level jobs (full cluster substrate) ---
        self.cluster = None
        self.arrivals: dict[str, PoissonArrivals] = {}
        self._replica_log: dict[str, list[tuple[float, int]]] = {}
        if self.request_jobs or self._promotion_enabled:
            # History prefixes arrive in requests/minute (trace units); the
            # collectors keep rate histories in requests/second.
            prefix_rps = {
                name: values * (self.config.rate_scale / 60.0)
                for name, values in self.history_prefix.items()
                if name in flagged
            }
            self.cluster = RayServeCluster(
                self.request_jobs,
                initial_replicas=self.initial_replicas,
                queue_threshold=self.config.queue_threshold,
                cold_start_range=self.config.cold_start_range,
                metrics_bin_seconds=self.config.metrics_bin_seconds,
                history_minutes=self.config.history_minutes,
                history_prefix=prefix_rps or None,
                seed=self.config.seed,
                # Promotion-enabled runs may start with no request-level
                # jobs at all; the cluster then exists only as the substrate
                # promotions attach to.
                allow_empty=True,
            )
            # Arrival-stream seeds use the *global* job index, so flagging a
            # job request-level never shifts another job's random stream.
            for index, job in enumerate(self.jobs):
                if job.name in flagged:
                    self.arrivals[job.name] = PoissonArrivals(
                        self.traces[job.name],
                        rate_scale=self.config.rate_scale,
                        seed=self.config.seed + 17 * index + 3,
                    )
            self._replica_log = {
                job.name: [(0.0, self.cluster.targets[job.name])]
                for job in self.request_jobs
            }

        # --- analytic jobs: one table row per job of the run ---
        # The table is the one record of which jobs run analytically: a
        # job's row is listed while it does (see analytic_jobs).  One child
        # RNG is drawn per job in global order (and simply unused for
        # request-level jobs), so a job's analytic stream is stable no
        # matter which other jobs are flagged.
        rng = np.random.default_rng(self.config.seed)
        self._flow = None
        if self.flow_jobs:
            self._flow = FlowTable(
                [job.name for job in self.jobs],
                self.duration_minutes,
                self.config.history_minutes,
            )
        for index, job in enumerate(self.jobs):
            child = np.random.default_rng(rng.integers(2**31))
            if job.name in flagged:
                continue
            prefix = self.history_prefix.get(job.name)
            flow = self._flow.add(
                index,
                job,
                self.traces[job.name] * self.config.rate_scale,
                None if prefix is None else prefix * self.config.rate_scale,
                self.config.queue_threshold,
                self.config.cold_start_range,
                child,
            )
            count = int(self.initial_replicas.get(job.name, job.min_replicas))
            flow.running = count
            flow.target = count

        self._push_device_assignment()
        self._fault_injector = (
            make_fault_injector(self.config.faults) if self.config.faults else None
        )
        # The event-driven process resolves exact in-chunk failure instants
        # for request-level jobs; the per-tick sampler only produces
        # end-of-tick counts.
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
        effective processing time into whichever fidelity simulates it.
        No-op on homogeneous runs."""
        if self.device_pool is None:
            return
        analytic = self.analytic_jobs()
        targets: dict[str, int] = {}
        for job in self.jobs:
            name = job.name
            if name in analytic:
                targets[name] = analytic[name].target
            else:
                targets[name] = self.cluster.targets[name]
        self.device_pool.assign(targets, hints)
        for job in self.jobs:
            name = job.name
            proc_eff = self.device_pool.effective_proc_time(name)
            if name in analytic:
                analytic[name].proc_time = proc_eff
            else:
                self.cluster.routers[name].proc_time_override = proc_eff

    def analytic_jobs(self) -> dict[str, FlowJob]:
        """The jobs running analytically now, by name in job order: the
        flow table's listed rows.  Every other job runs at request level."""
        return {} if self._flow is None else self._flow.listed_jobs()

    def _reset(self) -> None:
        if self._fault_injector is not None:
            self._fault_injector.reset()
        self._fault_chunk_cuts = 0
        if self._flow is not None:
            self._flow.reset()

    def _extend(self, new: dict[str, np.ndarray]) -> None:
        for name, stream in self.arrivals.items():
            stream.extend(new[name])

    # ------------------------------------------------------------ advance

    def advance(self, now: float, tick: float, end_time: float) -> float:
        chunk_end = min(now + tick, end_time)
        dt = min(tick, end_time - now)
        minute = min(int(now // 60.0), self.duration_minutes - 1)
        events = self._event_faults
        if events is None:
            if self.arrivals:
                # Every request-level job in one kernel call.
                self.cluster.offer_until(self.arrivals, chunk_end)
        else:
            for name, stream in self.arrivals.items():
                # Split the chunk at each exact failure instant: requests
                # before it see the full pool, requests after it the shrunk
                # one.  Jobs go in router order, the order the fault
                # process's RNG is consumed in.
                router = self.cluster.routers[name]
                cuts = events.failure_times(
                    name, router.replica_count, now, chunk_end - now
                )
                self._fault_chunk_cuts += len(cuts)
                for instant in cuts:
                    self._offer_until(name, stream, instant)
                    router.fail_replica(instant)
                self._offer_until(name, stream, chunk_end)
        if self._flow is not None:
            # Every analytic job in one kernel call.
            self._flow.step(now, minute, dt)
        if self._fault_injector is not None:
            # Sampled per job in global job order so the fault stream is
            # independent of the fidelity split.
            analytic = self.analytic_jobs()
            for job in self.jobs:
                name = job.name
                flow = analytic.get(name)
                if flow is not None:
                    kills = self._fault_injector.sample(name, flow.existing, dt)
                    if kills:
                        flow.fail(kills, chunk_end)
                elif events is None:
                    # `tick`, not `dt`: request-level jobs sample the full
                    # tick even on the final partial chunk.
                    router = self.cluster.routers[name]
                    kills = self._fault_injector.sample(
                        name, router.replica_count, tick
                    )
                    for _ in range(kills):
                        router.fail_replica(chunk_end)
            if self.cluster is not None:
                self.cluster.reconcile(chunk_end)
        return chunk_end

    def _offer_until(self, name: str, stream: PoissonArrivals, until: float) -> None:
        """Route ``name``'s arrivals before ``until`` as one chunk."""
        chunk = stream.take_until_array(until)
        if chunk.size:
            self.cluster.offer_chunk(name, chunk)

    # ------------------------------------------------------------ control

    def observations(self, now: float) -> dict[str, JobObservation]:
        request_obs: dict[str, JobObservation] = {}
        if self.cluster is not None:
            request_obs = self.cluster.observations(
                now, window=self.config.observation_window
            )
        if self._flow is None:
            flow_obs = [None] * len(self.jobs)
        else:
            minute = min(int(now // 60.0), self.duration_minutes - 1)
            flow_obs = self._flow.observations(minute)
        # A job with no analytic observation runs at request level.
        observations = {
            name: request_obs[name] if obs is None else obs
            for name, obs in zip(self._global_index, flow_obs)
        }
        self._last_obs = observations
        return observations

    def apply(self, decision: ScalingDecision, now: float) -> None:
        # Joint quota admission across both fidelities: the quota sees one
        # cluster.
        analytic = self.analytic_jobs()
        current = {}
        for job in self.jobs:
            name = job.name
            if name in analytic:
                current[name] = analytic[name].target
            else:
                current[name] = self.cluster.targets[name]
        admitted = admit_decision(self.quota, self.jobs, current, decision)
        for name, target in admitted.items():
            flow = analytic.get(name)
            if flow is None:
                router = self.cluster.routers[name]
                target = max(target, self.cluster.jobs[name].min_replicas)
                if target != router.replica_count:
                    router.scale_to(target, now)
                self.cluster.targets[name] = target
                log = self._replica_log[name]
                if log[-1][1] != target:
                    log.append((now, target))
            else:
                target = max(target, flow.spec.min_replicas)
                if target != flow.existing:
                    flow.scale_to(target, now)
                flow.target = target
        self._push_device_assignment(decision.device_replicas)
        for name, rate in decision.drop_rates.items():
            if name in analytic:
                analytic[name].drop_rate = float(rate)
            elif name in self._global_index:
                self.cluster.routers[name].drop_rate = float(rate)

    def end_of_chunk(self, now: float) -> None:
        if self._flow is not None:
            self._flow.sample_replicas(min(int(now // 60.0), self.duration_minutes - 1))
        if self._promotion_enabled:
            self._update_fidelity(now)

    # -------------------------------------------------- fidelity switching

    @staticmethod
    def _headroom(job, obs: JobObservation) -> float:
        """Predicted-vs-target SLO headroom: ``1 - latency / slo_target``.

        ``inf`` latency (all requests dropped) is maximal pressure; a
        non-finite SLO target means the job can never be under pressure.
        """
        target = job.slo.target
        if not math.isfinite(target) or target <= 0.0:
            return math.inf
        if math.isinf(obs.latency):
            return -math.inf
        return 1.0 - obs.latency / target

    def _update_fidelity(self, now: float) -> None:
        """The promotion controller, run once per control tick.

        Hysteresis with dwell: pressure/relief streak counters advance
        every tick, but a switch is executed only at a minute boundary --
        so each evaluation minute is covered by exactly one fidelity per
        job and :meth:`collect` can stitch series minute-wise.  Jobs are
        scanned in global job order; every input is a deterministic
        function of the spec, so the whole switching schedule is too.
        """
        opts = self.options
        boundary = now % 60.0 == 0.0 and now < self.duration_minutes * 60.0
        analytic = self.analytic_jobs()
        for index, job in enumerate(self.jobs):
            name = job.name
            obs = self._last_obs.get(name)
            if obs is None:
                continue
            headroom = self._headroom(job, obs)
            if name in analytic:
                if headroom < opts.promote_headroom:
                    self._pressure[name] = self._pressure.get(name, 0) + 1
                else:
                    self._pressure[name] = 0
                if boundary and self._pressure[name] >= opts.min_dwell_ticks:
                    self._promote(job, now)
                    self._pressure[name] = 0
            elif self._flow is not None and self._flow.flows[index] is not None:
                # Only dynamically-promoted jobs (an unlisted table row) can
                # demote; the initial request_jobs flag is a pin, not a
                # starting point.
                if (
                    opts.demote_headroom is not None
                    and headroom > opts.demote_headroom
                ):
                    self._relief[name] = self._relief.get(name, 0) + 1
                else:
                    self._relief[name] = 0
                if boundary and self._relief[name] >= opts.min_dwell_ticks:
                    self._demote(job, now)
                    self._relief[name] = 0

    def _promote(self, job, now: float) -> None:
        """Switch one job from analytic to request fidelity at ``now``.

        The job's table row is unlisted, its analytic state kept for a
        later demotion.  The new router starts with the flow side's ready
        replicas and schedules cold starts up to its target; its seed is a
        pure function of the run seed, the job's *global* index, and the
        job's promotion count -- never of which other jobs are flagged or
        promoted.  The arrival stream is the job's canonical request-level
        stream (the same seed derivation as a job flagged from the start)
        fast-forwarded to ``now``, so post-promotion arrivals are exactly
        the suffix a pure request-fidelity run would have offered.
        """
        name = job.name
        index = self._global_index[name]
        flow = self._flow.flows[index]
        self._flow.listed[index] = False
        count = self._promo_count.get(name, 0)
        seed = self.config.seed + 1000 * index + 7919 * count + 13
        router = self.cluster.add_job(job, flow.running, seed)
        router.drop_rate = flow.drop_rate
        if flow.target != router.replica_count:
            router.scale_to(flow.target, now)
        self.cluster.targets[name] = flow.target
        minute = int(now // 60.0)
        rates = self._flow.rates[flow.row]
        self.cluster.metrics[name].backfill_rate_history({
            m: float(rates[m])
            for m in range(max(minute - self.config.history_minutes, 0), minute)
        })
        stream = PoissonArrivals(
            self.traces[name],
            rate_scale=self.config.rate_scale,
            seed=self.config.seed + 17 * index + 3,
        )
        stream.take_until_array(now)
        self.arrivals[name] = stream
        self._replica_log.setdefault(name, []).append((now, flow.target))
        self._promo_count[name] = count + 1
        self._fidelity_log[name].append((minute, True))
        self._fidelity_events.append({"job": name, "time": now, "to": "request"})

    def _demote(self, job, now: float) -> None:
        """Switch a previously-promoted job back to analytic fidelity.

        The job's table row is listed again: its analytic state resumes
        with the router's ready replicas and live queue length; the
        router's in-flight cold starts are re-scheduled as fresh analytic
        cold starts (a conservative approximation).  The router is
        detached -- its metrics collector stays with the cluster so the
        request-fidelity minutes remain in the evaluation series.
        """
        name = job.name
        router = self.cluster.routers[name]
        index = self._global_index[name]
        flow = self._flow.flows[index]
        flow.running = router.ready_replica_count(now)
        flow.queue = float(router.queue_length(now))
        flow.drop_rate = router.drop_rate
        flow.scale_to(self.cluster.targets[name], now)
        self._retired_vector += router.vector_requests
        self._retired_scalar += router.scalar_requests
        self.cluster.remove_job(name)
        del self.arrivals[name]
        self._flow.listed[index] = True
        self._fidelity_log[name].append((int(now // 60.0), False))
        self._fidelity_events.append({"job": name, "time": now, "to": "flow"})

    # ------------------------------------------------------------ collect

    def dispatch_stats(self) -> dict:
        vector = self._retired_vector
        scalar = self._retired_scalar
        if self.cluster is not None:
            vector += sum(r.vector_requests for r in self.cluster.routers.values())
            scalar += sum(r.scalar_requests for r in self.cluster.routers.values())
        promotions = sum(1 for e in self._fidelity_events if e["to"] == "request")
        return {
            "vector_requests": vector,
            "scalar_requests": scalar,
            "fault_chunk_cuts": self._fault_chunk_cuts,
            "promotions": promotions,
            "demotions": len(self._fidelity_events) - promotions,
        }

    def collect(self) -> SimulationResult:
        minutes = self.duration_minutes
        series = {}
        for index, job in enumerate(self.jobs):
            name = job.name
            log = self._fidelity_log[name]
            if len(log) > 1:
                series[name] = self._stitch_series(name, log, minutes)
            elif log[0][1]:  # request level throughout
                series[name] = collect_request_series(
                    name,
                    self.cluster.metrics[name],
                    minutes,
                    replicas_per_minute(self._replica_log[name], minutes),
                )
            else:
                series[name] = collect_flow_series(
                    name, job, self._flow.bucket(index), minutes
                )
        metadata = self.base_metadata()
        metadata["request_jobs"] = [job.name for job in self.request_jobs]
        metadata["flow_jobs"] = [job.name for job in self.flow_jobs]
        if self._fidelity_events:
            metadata["fidelity_events"] = list(self._fidelity_events)
        if self._fault_injector is not None:
            metadata["failures_injected"] = dict(self._fault_injector.failures_injected)
            metadata["total_failures"] = self._fault_injector.total_failures
        return SimulationResult(
            jobs=series,
            policy_name=getattr(self.policy, "name", "policy"),
            metadata=metadata,
        )

    def _stitch_series(
        self, name: str, log: list[tuple[int, bool]], minutes: int
    ) -> JobSeries:
        """Minute-wise merge of a switched job's two fidelity series.

        Switches land only on minute boundaries, so every minute was
        simulated by exactly one side: build both full-length series (the
        other side's minutes are zero-filled and masked away) and take
        each minute from the side that actually ran it.
        """
        mask = np.zeros(minutes, dtype=bool)
        for i, (start, is_request) in enumerate(log):
            end = log[i + 1][0] if i + 1 < len(log) else minutes
            mask[start:end] = is_request
        request = collect_request_series(
            name,
            self.cluster.metrics[name],
            minutes,
            replicas_per_minute(self._replica_log[name], minutes),
        )
        row = self._global_index[name]
        flow = collect_flow_series(
            name, self._flow.flows[row].spec, self._flow.bucket(row), minutes
        )
        return JobSeries(
            name=name,
            arrivals=np.where(mask, request.arrivals, flow.arrivals),
            drops=np.where(mask, request.drops, flow.drops),
            violations=np.where(mask, request.violations, flow.violations),
            latency_p=np.where(mask, request.latency_p, flow.latency_p),
            utility=np.where(mask, request.utility, flow.utility),
            effective_utility=np.where(
                mask, request.effective_utility, flow.effective_utility
            ),
            replicas=np.where(mask, request.replicas, flow.replicas),
        )


class Simulation(HybridSimulation):
    """One experiment run at request-level fidelity: every job flagged."""

    fidelity_label = "request-level"
    options_type = None
    #: Arrivals are drawn lazily per minute (PoissonArrivals), so trace
    #: minutes can stream in mid-run without perturbing past draws.
    supports_streaming = True

    def _select_request_jobs(self) -> set[str]:
        return {job.name for job in self.jobs}
