"""The analytic (fluid/flow) model of one job.

Where a request-level job routes individual Poisson requests, a
:class:`FlowJob` advances its queue *analytically* per control tick:
deterministic fluid inflow/outflow for backlog dynamics plus M/D/c formulas
for the stochastic waiting tail when the queue is near empty.  It is two to
three orders of magnitude faster, which makes the large sweeps tractable
(Fig. 15's cluster-size sweep, Table 8's 100-job run), and plays the role
of the paper's "matched simulation" in the Table 7 ranking comparison.

Replica cold starts and drains run on the event-driven
:class:`~repro.sim.lifecycle.ReplicaLifecycle`.  The helpers below are the
per-minute accounting of analytic jobs inside the one simulation harness
(:class:`repro.sim.simulation.HybridSimulation`): buckets, tick folding,
observations and the evaluation series.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cluster.job import InferenceJobSpec
from repro.core.penalty import penalty_multiplier
from repro.core.utility import inverse_utility
from repro.policy import JobObservation
from repro.queueing.mdc import mdc_latency_percentile
from repro.queueing.mmc import erlang_c
from repro.sim.lifecycle import ReplicaLifecycle
from repro.sim.recorder import JobSeries

__all__ = [
    "FlowJob",
    "new_flow_buckets",
    "accumulate_flow_tick",
    "flow_observation",
    "collect_flow_series",
]


class FlowJob:
    """Analytic state of one job."""

    def __init__(
        self,
        spec: InferenceJobSpec,
        trace: np.ndarray,
        queue_threshold: int,
        cold_start_range: tuple[float, float],
        rng: np.random.Generator,
    ) -> None:
        self.spec = spec
        self.trace = trace
        self.queue_threshold = queue_threshold
        self.rng = rng
        self.lifecycle = ReplicaLifecycle(cold_start_range, rng)
        self.queue = 0.0
        self.drop_rate = 0.0
        self.target = 0
        #: Effective service time of the job's replica pool.  Homogeneous
        #: runs never reassign it (it stays the model's reference time);
        #: heterogeneous runs push the mixed-pool effective time after each
        #: device assignment.
        self.proc_time = spec.model.proc_time

    # ----------------------------------------------------------- scaling

    @property
    def running(self) -> int:
        """Replicas past their cold start (serving capacity)."""
        return self.lifecycle.ready

    @running.setter
    def running(self, value: int) -> None:
        self.lifecycle.ready = int(value)

    @property
    def existing(self) -> int:
        """Replicas that exist (running or still cold-starting)."""
        return self.lifecycle.total

    def scale_to(self, target: int, now: float) -> None:
        self.target = target
        self.lifecycle.scale_to(target, now)

    def fail(self, count: int, now: float) -> int:
        """Fault injection: lose ``count`` running replicas, then let the
        reconcile step recreate them behind a fresh cold start."""
        killed = self.lifecycle.fail(count)
        if killed:
            self.lifecycle.scale_to(self.target, now)
        return killed

    # ------------------------------------------------------------- flow

    def step(self, now: float, dt: float, lam: float) -> dict:
        """Advance one tick; returns per-tick aggregates.

        ``lam`` is the offered arrival rate in requests/second.
        """
        self.lifecycle.advance(now)
        spec = self.spec
        p = self.proc_time
        arrivals = lam * dt
        explicit_drops = arrivals * self.drop_rate
        kept_rate = lam * (1.0 - self.drop_rate)
        inflow = kept_rate * dt
        service_rate = self.running / p if self.running else 0.0
        capacity = service_rate * dt

        queue_start = self.queue
        processed = min(queue_start + inflow, capacity)
        queue_end = queue_start + inflow - processed
        tail_drops = 0.0
        if queue_end > self.queue_threshold:
            tail_drops = queue_end - self.queue_threshold
            queue_end = float(self.queue_threshold)
        self.queue = queue_end

        accepted = max(inflow - tail_drops, 0.0)
        drops = explicit_drops + tail_drops
        queue_mid = 0.5 * (queue_start + queue_end)

        if self.running == 0:
            latency_p = math.inf
            violation_fraction = 1.0
        else:
            wait_det = queue_mid / service_rate
            slo = spec.slo.target
            rho = kept_rate * p / self.running
            if rho < 1.0 and queue_mid < 1.0:
                latency_p = mdc_latency_percentile(
                    spec.slo.quantile, kept_rate, p, self.running
                )
                violation_fraction = self._stochastic_violation(kept_rate, slo)
            else:
                latency_p = wait_det + p
                violation_fraction = self._deterministic_violation(
                    queue_start, queue_end, kept_rate, service_rate, dt, slo
                )
        violations = violation_fraction * accepted + drops
        return {
            "arrivals": arrivals,
            "drops": drops,
            "violations": min(violations, arrivals),
            "latency_p": latency_p,
        }

    def _stochastic_violation(self, lam: float, slo: float) -> float:
        """P(latency > slo) for a stable, empty-queue M/D/c job.

        Uses the exponential M/M/c waiting tail halved in time (the same
        half-wait approximation as the latency estimator):
        ``P(W > t) ~= C * exp(-2 (c mu - lam) t)``.
        """
        p = self.proc_time
        if slo <= p:
            return 1.0
        if lam <= 0.0:
            return 0.0
        mu = 1.0 / p
        offered = lam * p
        if offered >= self.running:
            return 1.0
        wait_prob = erlang_c(self.running, offered)
        drain = self.running * mu - lam
        return float(min(wait_prob * math.exp(-2.0 * drain * (slo - p)), 1.0))

    def _deterministic_violation(
        self,
        queue_start: float,
        queue_end: float,
        lam: float,
        service_rate: float,
        dt: float,
        slo: float,
    ) -> float:
        """Fraction of this tick's arrivals whose fluid wait exceeds the SLO.

        The queue evolves linearly within the tick; an arrival at offset
        ``tau`` waits ``Q(tau) / service_rate`` plus one service time.
        """
        p = self.proc_time
        budget = (slo - p) * service_rate  # queue length that still meets SLO
        if budget <= 0:
            return 1.0
        slope = (queue_end - queue_start) / dt
        if abs(slope) < 1e-12:
            return 1.0 if queue_start > budget else 0.0
        crossing = (budget - queue_start) / slope
        if slope > 0:
            # Queue grows: arrivals after the crossing violate.
            fraction = 1.0 - min(max(crossing / dt, 0.0), 1.0)
        else:
            # Queue drains: arrivals before the crossing violate.
            fraction = min(max(crossing / dt, 0.0), 1.0)
        return fraction


def new_flow_buckets(names, minutes: int) -> dict[str, dict]:
    """Fresh per-minute accumulators for the analytic jobs ``names``."""
    return {
        name: {
            "arrivals": np.zeros(minutes),
            "drops": np.zeros(minutes),
            "violations": np.zeros(minutes),
            "lat_sum": np.zeros(minutes),
            "lat_weight": np.zeros(minutes),
            "lat_max": np.zeros(minutes),
            "replicas": np.zeros(minutes, dtype=int),
        }
        for name in names
    }


def accumulate_flow_tick(bucket: dict, minute: int, stats: dict) -> None:
    """Fold one tick's :meth:`FlowJob.step` aggregates into a bucket."""
    bucket["arrivals"][minute] += stats["arrivals"]
    bucket["drops"][minute] += stats["drops"]
    bucket["violations"][minute] += stats["violations"]
    if math.isfinite(stats["latency_p"]):
        bucket["lat_sum"][minute] += stats["latency_p"] * stats["arrivals"]
        bucket["lat_weight"][minute] += stats["arrivals"]
        bucket["lat_max"][minute] = max(bucket["lat_max"][minute], stats["latency_p"])
    else:
        bucket["lat_max"][minute] = math.inf


def flow_observation(
    name: str,
    flow: FlowJob,
    minute: int,
    history_rpm: dict[str, np.ndarray],
    last_tick: dict[str, dict],
) -> JobObservation:
    """Build one analytic job's observation at trace ``minute``."""
    start = minute - 14
    if start >= 0:
        window = flow.trace[start : minute + 1]
    else:
        prefix = history_rpm.get(name, np.zeros(0))
        pad = prefix[len(prefix) + start :] if len(prefix) + start >= 0 else prefix
        window = np.concatenate([pad, flow.trace[: minute + 1]])
    tick_stats = last_tick.get(name, {})
    arrivals = tick_stats.get("arrivals", 0.0)
    violations = tick_stats.get("violations", 0.0)
    return JobObservation(
        job_name=name,
        arrival_rate=flow.trace[minute] / 60.0,
        rate_history=tuple(window / 60.0),
        mean_proc_time=flow.proc_time,
        latency=tick_stats.get("latency_p", 0.0),
        slo_violation_rate=violations / arrivals if arrivals else 0.0,
        current_replicas=flow.running,
        target_replicas=flow.target,
        queue_length=int(flow.queue),
        drop_rate=flow.drop_rate,
    )


def collect_flow_series(name: str, flow: FlowJob, bucket: dict, minutes: int) -> JobSeries:
    """Assemble one analytic job's per-minute evaluation series."""
    spec = flow.spec
    latency = np.zeros(minutes)
    utility = np.zeros(minutes)
    effective = np.zeros(minutes)
    for m in range(minutes):
        if math.isinf(bucket["lat_max"][m]):
            latency[m] = math.inf
        elif bucket["lat_weight"][m] > 0:
            mean_component = bucket["lat_sum"][m] / bucket["lat_weight"][m]
            latency[m] = 0.5 * (mean_component + bucket["lat_max"][m])
        else:
            latency[m] = 0.0
        arrivals = bucket["arrivals"][m]
        if arrivals <= 0:
            utility[m] = 1.0
            effective[m] = 1.0
            continue
        utility[m] = inverse_utility(latency[m], spec.slo.target)
        drop_fraction = min(bucket["drops"][m] / arrivals, 1.0)
        effective[m] = penalty_multiplier(drop_fraction) * utility[m]
    return JobSeries(
        name=name,
        arrivals=np.round(bucket["arrivals"]).astype(int),
        drops=np.round(bucket["drops"]).astype(int),
        violations=np.minimum(
            np.round(bucket["violations"]), np.round(bucket["arrivals"])
        ).astype(int),
        latency_p=latency,
        utility=utility,
        effective_utility=effective,
        replicas=bucket["replicas"],
    )
