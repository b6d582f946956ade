"""Throughput-matrix policies for heterogeneous device fleets.

These policies treat the cluster as a device-class inventory (a
:class:`~repro.hetero.types.DeviceFleet`) and periodically re-solve a
heterogeneous allocation problem over the per-(model, device-class)
throughput matrix, in the style of Gavel's throughput-matrix schedulers:

- ``hetero-max-throughput`` maximizes the priority-weighted sum of
  normalized goodputs ``min(service_rate, arrival_rate) / arrival_rate``
  using the greedy-with-repair solver
  (:func:`repro.hetero.allocation.solve_hetero_allocation`);
- ``hetero-las`` is the same objective under least-attained-service
  weighting: each job's priority is divided by ``1 + attained service``,
  so jobs that have received less aggregate service win contended devices;
- ``ilp-placement`` solves the same instance as an assignment ILP with
  per-resource capacity and SLO-infeasibility constraints
  (:func:`repro.hetero.ilp.solve_ilp_allocation`), falling back to the
  greedy solver if the relaxation is infeasible.

All three degrade gracefully on homogeneous scenarios: a cluster without
``device_classes`` is planned as a single uniform class whose count is the
replica quota, which makes the solvers a (costlier) per-job proportional
allocator -- useful for cross-checks, not recommended as a daily driver.

Decisions carry both the per-job totals and the per-class breakdown
(:attr:`~repro.policy.ScalingDecision.device_replicas`); the simulation
backends honor the breakdown whenever it fits the fleet inventory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.registry import register_policy
from repro.experiments.scenarios import Scenario
from repro.hetero.allocation import (
    HeteroJob,
    HeteroProblem,
    solve_hetero_allocation,
)
from repro.hetero.ilp import solve_ilp_allocation
from repro.hetero.types import DeviceClass, DeviceFleet
from repro.policy import AutoscalePolicy, JobObservation, ScalingDecision

__all__ = ["HeteroPolicyOptions", "HeteroAllocationPolicy"]


@dataclass(frozen=True)
class HeteroPolicyOptions:
    """Options shared by the heterogeneous allocation policies.

    ``period`` is the re-solve interval in seconds (the solvers are much
    heavier than a reactive rule, so they run on a planning cadence);
    ``headroom`` multiplies observed arrival rates before the solve.  The
    goodput objective saturates once service rate matches the planned rate,
    so the provisioned utilization is roughly ``1 / headroom`` -- the
    default 1.5 keeps queues stable (rho ~ 0.67) while staying a
    throughput-matrix policy, not a latency-aware one.
    """

    period: float = 60.0
    headroom: float = 1.5

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError(f"period must be positive, got {self.period}")
        if self.headroom <= 0:
            raise ValueError(f"headroom must be positive, got {self.headroom}")


def _scenario_fleet(scenario: Scenario) -> DeviceFleet:
    """The scenario's fleet, or the uniform single-class degenerate fleet."""
    if scenario.devices is not None:
        return scenario.devices
    return DeviceFleet((DeviceClass(name="uniform", count=scenario.total_replicas),))


class HeteroAllocationPolicy(AutoscalePolicy):
    """Periodic re-solve of a heterogeneous allocation over a device fleet."""

    tick_interval = 10.0

    def __init__(
        self,
        scenario: Scenario,
        *,
        name: str,
        solver: str = "greedy",
        las: bool = False,
        period: float = 60.0,
        headroom: float = 1.5,
    ) -> None:
        if solver not in ("greedy", "ilp"):
            raise ValueError(f"unknown solver {solver!r}; choose 'greedy' or 'ilp'")
        self.name = name
        self.solver = solver
        self.las = las
        self.period = float(period)
        self.headroom = float(headroom)
        self.fleet = _scenario_fleet(scenario)
        self.jobs = list(scenario.jobs)
        self.types = self.fleet.replica_types()
        self.capacity = self.fleet.capacity()
        self.type_counts = self.fleet.counts()
        # The throughput matrix resolved per job: every (job, class) entry,
        # so a job's speedups are independent of the class defaults.
        self.speedup_rows = {
            job.name: {
                cls.name: self.fleet.speedup_for(job.model.name, cls.name)
                for cls in self.fleet.classes
            }
            for job in self.jobs
        }
        self._attained: dict[str, float] = {}
        self._last_solve: float | None = None
        self._last_tick_time: float | None = None

    # --------------------------------------------------------------- state

    def reset(self) -> None:
        self._attained = {job.name: 0.0 for job in self.jobs}
        self._last_solve = None
        self._last_tick_time = None

    def _update_attained(
        self, now: float, observations: dict[str, JobObservation]
    ) -> None:
        """Accumulate each job's attained service (served-capacity seconds).

        LAS weighting uses the integral of the allocated service rate
        (replicas over effective processing time), the analogue of Gavel's
        attained-service counter for time-sliced accelerators.
        """
        last = self._last_tick_time
        dt = self.tick_interval if last is None else max(now - last, 0.0)
        self._last_tick_time = now
        for name, obs in observations.items():
            if obs.mean_proc_time <= 0:
                continue
            rate = obs.current_replicas / obs.mean_proc_time
            self._attained[name] = self._attained.get(name, 0.0) + rate * dt

    # --------------------------------------------------------------- solve

    def _priorities(self) -> dict[str, float]:
        if not self.las:
            return {job.name: job.priority for job in self.jobs}
        # Least attained service: normalize by the mean so the weights stay
        # O(priority) and the solver's gain tolerances keep their meaning.
        values = [self._attained.get(job.name, 0.0) for job in self.jobs]
        mean = sum(values) / len(values) if values else 0.0
        scale = mean if mean > 0 else 1.0
        return {
            job.name: job.priority
            / (1.0 + self._attained.get(job.name, 0.0) / scale)
            for job in self.jobs
        }

    def _solve(self, observations: dict[str, JobObservation]) -> ScalingDecision:
        priorities = self._priorities()
        hetero_jobs = [
            HeteroJob(
                name=job.name,
                slo=job.slo,
                proc_time=job.model.proc_time,
                arrival_rate=observations[job.name].arrival_rate * self.headroom
                if job.name in observations
                else 0.0,
                priority=priorities[job.name],
            )
            for job in self.jobs
        ]
        problem = HeteroProblem(
            jobs=hetero_jobs,
            types=self.types,
            capacity=self.capacity,
            objective="throughput",
            type_counts=self.type_counts,
            speedup_overrides=self.speedup_rows,
        )
        if self.solver == "ilp":
            try:
                allocation = solve_ilp_allocation(problem)
            except ValueError:
                allocation = solve_hetero_allocation(problem)
        else:
            allocation = solve_hetero_allocation(problem)
        return ScalingDecision(
            replicas={
                job.name: allocation.replicas(job.name) for job in self.jobs
            },
            device_replicas={
                name: dict(pools) for name, pools in allocation.counts.items()
            },
        )

    def tick(
        self, now: float, observations: dict[str, JobObservation]
    ) -> ScalingDecision | None:
        self._update_attained(now, observations)
        if self._last_solve is not None and now - self._last_solve < self.period:
            return None
        self._last_solve = now
        return self._solve(observations)


def _build(name: str, solver: str, las: bool):
    def build(
        scenario: Scenario, seed: int, options: HeteroPolicyOptions
    ) -> AutoscalePolicy:
        options = options or HeteroPolicyOptions()
        return HeteroAllocationPolicy(
            scenario,
            name=name,
            solver=solver,
            las=las,
            period=options.period,
            headroom=options.headroom,
        )

    return build


register_policy(
    "hetero-max-throughput",
    kind="hetero",
    description=(
        "Gavel-style max-sum-throughput over the device-class throughput "
        "matrix (greedy-with-repair solver)."
    ),
    config_type=HeteroPolicyOptions,
    aliases=("max-sum-throughput",),
)(_build("hetero-max-throughput", solver="greedy", las=False))

register_policy(
    "hetero-las",
    kind="hetero",
    description=(
        "Least-attained-service throughput allocation: goodput objective "
        "with weights inversely proportional to attained service."
    ),
    config_type=HeteroPolicyOptions,
    aliases=("las",),
)(_build("hetero-las", solver="greedy", las=True))

register_policy(
    "ilp-placement",
    kind="hetero",
    description=(
        "ILP placement baseline: assignment + per-resource capacity + "
        "SLO-infeasibility constraints (LP relaxation with rounding "
        "repair)."
    ),
    config_type=HeteroPolicyOptions,
    aliases=("hetero-ilp",),
)(_build("ilp-placement", solver="ilp", las=False))
