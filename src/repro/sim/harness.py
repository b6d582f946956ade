"""The shared simulation harness: one control loop for every backend.

Every simulation fidelity advances the same way: chunk time at the
policy's tick interval, let the dynamics play out over the chunk, build
per-job observations, invoke the autoscaling policy, and admit its decision
through the shared resource quota.  :class:`SimHarness` owns that loop plus
the common plumbing (trace trimming, duration computation, history
prefixes, config validation, streaming extension, metadata assembly).  One
control tick is :meth:`SimHarness.step`; the batch :meth:`SimHarness.run`
loops over it, and so does the online :class:`repro.serve.loop.ServeLoop`,
which passes its own deadline-and-backoff ``decide`` -- the two modes share
the tick, not a copy of it.  Dynamics plug in through four hooks:

- :meth:`SimHarness.advance` -- play one chunk of dynamics, return the new
  simulation time (the dynamics own the chunk-boundary arithmetic, so the
  loop cannot perturb floating-point behaviour);
- :meth:`SimHarness.observations` -- per-job :class:`JobObservation`\\ s;
- :meth:`SimHarness.apply` -- apply an admitted :class:`ScalingDecision`;
- :meth:`SimHarness.collect` -- assemble the :class:`SimulationResult`.

The built-in backends share one implementation of those hooks,
:class:`repro.sim.simulation.HybridSimulation`, which runs each job either
request-level or analytically; ``request`` and ``flow`` are its presets
with every job, or no job, flagged.  Backends register with
:mod:`repro.sim.backends`, which gives them the same named-registry +
typed-options treatment policies get from :class:`repro.api.PolicyRegistry`;
a plugin may implement the hooks on :class:`SimHarness` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

import numpy as np

from repro import native
from repro.cluster.job import InferenceJobSpec
from repro.cluster.kubernetes import ResourceQuota
from repro.cluster.metrics import bins_per_minute
from repro.policy import AutoscalePolicy, JobObservation, ScalingDecision
from repro.sim.faults import FaultConfig
from repro.sim.recorder import SimulationResult

__all__ = ["END_EPS", "SimulationConfig", "SimHarness", "admit_decision"]

#: A run ends once simulation time is within this many seconds of its end.
END_EPS = 1e-9


@dataclass(frozen=True)
class SimulationConfig:
    """Simulation-wide knobs, shared by every backend.

    ``rate_scale`` multiplies all trace rates (useful for scaled-down runs);
    ``observation_window`` is the trailing window from which observations
    are built (60 s, one metrics minute), widened outward to whole
    metrics bins of ``metrics_bin_seconds``, which must divide a minute
    into a whole number of bins.  ``history_minutes`` (at least 1) is how
    many minutes of rate history each observation carries, at either
    fidelity.  A non-None ``faults`` enables
    replica fault injection (see :mod:`repro.sim.faults`); a mapping is
    coerced to a :class:`~repro.sim.faults.FaultConfig` so spec files can
    carry fault settings as plain JSON.  Backend-specific options do not
    live here -- they are typed per backend (see
    :mod:`repro.sim.backends`).
    """

    duration_minutes: int | None = None
    rate_scale: float = 1.0
    seed: int = 0
    queue_threshold: int = 50
    cold_start_range: tuple[float, float] = (50.0, 70.0)
    observation_window: float = 60.0
    history_minutes: int = 15
    metrics_bin_seconds: float = 15.0
    faults: FaultConfig | None = None

    def __post_init__(self) -> None:
        if self.duration_minutes is not None and self.duration_minutes < 1:
            raise ValueError("duration_minutes must be >= 1 when given")
        if self.rate_scale < 0:
            raise ValueError("rate_scale must be >= 0")
        if self.history_minutes < 1:
            raise ValueError(
                f"history_minutes must be >= 1, got {self.history_minutes}"
            )
        cold = tuple(self.cold_start_range)
        if len(cold) != 2:
            raise ValueError(
                f"cold_start_range must be a (low, high) pair, got {cold!r}"
            )
        lo, hi = cold
        if lo < 0 or hi < lo:
            raise ValueError(
                f"invalid cold_start_range {cold!r}: need 0 <= low <= high"
            )
        object.__setattr__(self, "cold_start_range", (float(lo), float(hi)))
        bins_per_minute(self.metrics_bin_seconds, "metrics_bin_seconds")
        if isinstance(self.faults, Mapping):
            object.__setattr__(self, "faults", FaultConfig(**self.faults))
        if self.faults is not None and self.duration_minutes is None:
            raise ValueError(
                "fault injection needs an explicit duration_minutes: an "
                "open-ended run would inject an unbounded number of "
                "failures; set SimulationConfig.duration_minutes"
            )


def admit_decision(
    quota: ResourceQuota,
    jobs: list[InferenceJobSpec],
    current: dict[str, int],
    decision: ScalingDecision,
) -> dict[str, int]:
    """Admit a scaling decision's replica targets through the quota.

    The single admission rule every backend shares: the quota sees the
    current targets, the requested targets, and each job's per-replica
    resource footprint, and returns what actually fits.  (Per-job
    ``min_replicas`` floors are applied by the caller, which knows how to
    apply targets to its own replica machinery.)
    """
    cpu_per = {job.name: job.model.cpu_per_replica for job in jobs}
    mem_per = {job.name: job.model.mem_per_replica for job in jobs}
    return quota.admit(current, decision.replicas, cpu_per, mem_per)


class SimHarness:
    """Shared driver for one experiment run: jobs + traces + policy + quota.

    Subclasses implement the dynamics hooks (:meth:`_setup`,
    :meth:`advance`, :meth:`observations`, :meth:`apply`,
    :meth:`collect`, and optionally :meth:`_reset` /
    :meth:`end_of_chunk`); everything else -- validation, trace trimming,
    the control loop, metadata -- lives here once.
    """

    #: Value recorded under ``metadata["simulator"]`` (stable per backend).
    fidelity_label = "abstract"

    #: Whether the backend can accept additional trace minutes mid-run via
    #: :meth:`extend_traces` (online serving).  Backends that precompute
    #: over the whole trace at setup keep the default ``False``.
    supports_streaming = False

    #: Typed per-backend options dataclass (``None`` = backend takes no
    #: options).  The registry validates spec-file options against it; a
    #: ``None`` ``options`` argument is replaced with a default instance.
    options_type: type | None = None

    def __init__(
        self,
        jobs: list[InferenceJobSpec],
        traces: dict[str, np.ndarray],
        policy: AutoscalePolicy,
        quota: ResourceQuota,
        config: SimulationConfig | None = None,
        initial_replicas: dict[str, int] | None = None,
        history_prefix: dict[str, np.ndarray] | None = None,
        options: Any = None,
        devices: Any = None,
    ) -> None:
        self.config = config or SimulationConfig()
        missing = [job.name for job in jobs if job.name not in traces]
        if missing:
            raise ValueError(f"traces missing for jobs: {missing}")
        self.jobs = jobs
        self.policy = policy
        self.quota = quota
        #: Heterogeneous fleet bookkeeping, or None on homogeneous runs --
        #: the default, in which the backends perform exactly the
        #: historical (byte-identical) homogeneous arithmetic.
        self.device_pool = None
        if devices is not None:
            from repro.sim.devices import DevicePoolManager

            self.device_pool = DevicePoolManager(devices, jobs)
        if options is None and self.options_type is not None:
            options = self.options_type()
        self.options = options
        trace_minutes = min(len(traces[job.name]) for job in jobs)
        limit = self.config.duration_minutes
        self.duration_minutes = min(trace_minutes, limit) if limit else trace_minutes
        #: Per-job evaluation traces in requests/minute, trimmed to the run
        #: duration but *not* rate-scaled (backends scale as they consume).
        self.traces = {
            job.name: np.asarray(traces[job.name], dtype=float)[: self.duration_minutes]
            for job in jobs
        }
        #: Raw pre-run history in requests/minute (trace units); backends
        #: convert to their own units (the request backend keeps rate
        #: histories in requests/second, the flow backend in trace units).
        self.history_prefix = {
            name: np.asarray(values, dtype=float)
            for name, values in (history_prefix or {}).items()
        }
        self.initial_replicas = dict(initial_replicas or {})
        self._ran = False
        self._setup()

    # ------------------------------------------------------ backend hooks

    def _setup(self) -> None:
        """Build backend state (cluster, analytic jobs, arrival streams)."""
        raise NotImplementedError

    def _reset(self) -> None:
        """Reset per-run backend state before the loop (fault injectors)."""

    def advance(self, now: float, tick: float, end_time: float) -> float:
        """Play dynamics for one chunk starting at ``now``; return new time.

        The backend owns the chunk-boundary arithmetic (e.g.
        ``min(now + tick, end_time)``) so extraction into the harness
        cannot perturb floating-point behaviour.
        """
        raise NotImplementedError

    def observations(self, now: float) -> dict[str, JobObservation]:
        """Per-job observations for the policy at time ``now``."""
        raise NotImplementedError

    def apply(self, decision: ScalingDecision, now: float) -> None:
        """Admit ``decision`` through the quota and apply it."""
        raise NotImplementedError

    def end_of_chunk(self, now: float) -> None:
        """Post-control bookkeeping (e.g. per-minute replica sampling)."""

    def collect(self) -> SimulationResult:
        """Assemble the run's :class:`SimulationResult`."""
        raise NotImplementedError

    def _extend(self, new: dict[str, np.ndarray]) -> None:
        """Feed appended trace minutes into backend state (arrival streams).

        Called by :meth:`extend_traces` with per-job arrays already trimmed
        to the admitted extension; only backends with
        ``supports_streaming = True`` need to implement it.
        """
        raise NotImplementedError(
            f"backend {self.fidelity_label!r} does not support streaming "
            "trace extension"
        )

    # ---------------------------------------------------------- streaming

    def extend_traces(
        self, new: Mapping[str, np.ndarray], *, limit_to_jobs: bool = False
    ) -> int:
        """Append trace minutes that arrived mid-run; return minutes added.

        ``new`` maps job name -> additional requests/minute values for the
        minutes directly following the current ``duration_minutes``.  Every
        harness job must be covered (extra keys are an error unless
        ``limit_to_jobs`` is set, in which case they are ignored -- the
        serve loop passes cursors that may cover more jobs than the
        scenario).  The extension is capped at
        ``config.duration_minutes``; once that horizon is reached further
        calls add nothing and return 0.

        Appending is only legal because arrivals are drawn lazily, per
        minute in order (:class:`~repro.sim.workload.PoissonArrivals`):
        minutes at or beyond the current duration have not been consumed,
        so growing the tail cannot perturb any draw already made.
        """
        if not self.supports_streaming:
            raise NotImplementedError(
                f"backend {self.fidelity_label!r} does not support streaming "
                "trace extension"
            )
        names = {job.name for job in self.jobs}
        missing = sorted(names - set(new))
        if missing:
            raise ValueError(f"extension missing traces for jobs: {missing}")
        if not limit_to_jobs:
            extra = sorted(set(new) - names)
            if extra:
                raise ValueError(f"extension has traces for unknown jobs: {extra}")
        arrays = {
            job.name: np.asarray(new[job.name], dtype=float) for job in self.jobs
        }
        minutes = min(len(values) for values in arrays.values())
        limit = self.config.duration_minutes
        if limit is not None:
            minutes = min(minutes, limit - self.duration_minutes)
        if minutes <= 0:
            return 0
        appended = {name: values[:minutes] for name, values in arrays.items()}
        self._extend(appended)
        self.traces = {
            name: np.concatenate([self.traces[name], appended[name]])
            for name in self.traces
        }
        self.duration_minutes += minutes
        return minutes

    # -------------------------------------------------------------- run

    def tick_seconds(self) -> float:
        """The policy's control period in seconds, validated positive."""
        tick = float(self.policy.tick_interval)
        if tick <= 0:
            raise ValueError(f"policy tick_interval must be positive, got {tick}")
        return tick

    def step(
        self,
        now: float,
        tick: float,
        end_time: float,
        decide: Callable[[float, dict[str, JobObservation]], Any] | None = None,
    ) -> tuple[float, dict[str, JobObservation]]:
        """Run one control tick from ``now``; return ``(new time, observations)``.

        The tick is advance -> observations -> decide -> apply (skipped when
        the decision is ``None``) -> end_of_chunk.  ``decide`` defaults to
        the policy's ``tick``; the serve loop passes its deadline-and-backoff
        wrapper instead.  Hooks are looked up on the instance at every call.
        """
        now = self.advance(now, tick, end_time)
        observations = self.observations(now)
        if decide is None:
            decide = self.policy.tick
        decision = decide(now, observations)
        if decision is not None:
            self.apply(decision, now)
        self.end_of_chunk(now)
        return now, observations

    def run(self) -> SimulationResult:
        """Drive the whole experiment and return its result.

        A harness runs once: its routers, queues, replica lifecycles and
        random streams stay where the run left them, so a second call raises
        ``RuntimeError``.
        """
        if self._ran:
            raise RuntimeError(
                "this simulation has already run; build a new one to run it again"
            )
        self._ran = True
        self.policy.reset()
        self._reset()
        tick = self.tick_seconds()
        end_time = self.duration_minutes * 60.0
        now = 0.0
        while now < end_time - END_EPS:
            now, _ = self.step(now, tick, end_time)
        return self.collect()

    # ---------------------------------------------------------- helpers

    def dispatch_stats(self) -> dict | None:
        """Per-run dispatch-regime counters, or ``None`` if the backend has
        none.

        Backends report how their hot path actually ran -- compiled-kernel
        vs scalar request dispatch, chunk cuts forced by event-time faults,
        hybrid fidelity promotions/demotions -- so a regression into a slow
        regime shows up in ``metadata["dispatch"]`` without profiling.
        Counters are observability only and are never serialized into
        report digests (``RunReport.to_dict`` carries spec + summary stats,
        not result metadata).
        """
        return None

    def base_metadata(self) -> dict:
        """The metadata fields every backend records identically.

        ``kernels`` says which compiled kernels this process has loaded
        (:func:`repro.native.kernels`; reading it never loads one), and
        ``platform`` the BLAS core, numpy CPU targets and C library they ran
        on (:func:`repro.native.host`), so a digest that moves on another
        host explains itself.
        """
        metadata = {
            "duration_minutes": self.duration_minutes,
            "rate_scale": self.config.rate_scale,
            "seed": self.config.seed,
            "quota_cpus": self.quota.cpus,
            "simulator": self.fidelity_label,
            "kernels": native.kernels(),
            "platform": native.host(),
        }
        if self.device_pool is not None:
            metadata.update(self.device_pool.metadata())
        dispatch = self.dispatch_stats()
        if dispatch is not None:
            metadata["dispatch"] = dispatch
        return metadata
