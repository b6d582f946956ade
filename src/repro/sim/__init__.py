"""Trace-driven simulation of the Ray Serve | Kubernetes stack (paper §6.4).

One harness simulates every fidelity: :class:`~repro.sim.harness.SimHarness`
owns the control loop, and :class:`~repro.sim.simulation.HybridSimulation`
supplies the dynamics, running each job either request-level or
analytically.  The registry (:mod:`repro.sim.backends`), mirroring the
policy registry on the control plane, names three presets of it:

- ``request`` (:class:`~repro.sim.simulation.Simulation`) -- every job
  request-level, the "cluster deployment" stand-in: Poisson arrivals from
  traces, per-request routing/queueing/drops (one compiled dispatch-kernel
  call per job and chunk), replica cold starts.
- ``flow`` (:class:`~repro.sim.analytic.FlowSimulation`) -- every job
  analytic (:mod:`repro.sim.flow`), the "matched simulation" stand-in that
  advances per-job queue lengths analytically; used for large sweeps
  (Fig. 15, Table 8 at 100 jobs) and for the paper's cluster-vs-simulation
  ranking comparison (Table 7).
- ``hybrid`` (:class:`~repro.sim.simulation.HybridSimulation`) -- flagged
  jobs at request level, the rest analytic, one shared quota and policy
  loop.

:mod:`repro.sim.engine` provides the heap-based discrete-event engine;
:mod:`repro.sim.lifecycle` builds the event-driven replica lifecycle
(cold starts, drains, exact Poisson faults) on top of it.
"""

from repro.sim.engine import EventLoop
from repro.sim.workload import PoissonArrivals
from repro.sim.recorder import JobSeries, SimulationResult
from repro.sim.harness import SimHarness
from repro.sim.lifecycle import EventFaultProcess, ReplicaLifecycle
from repro.sim.simulation import (
    HybridBackendOptions,
    HybridSimulation,
    Simulation,
    SimulationConfig,
)
from repro.sim.analytic import FlowSimulation
from repro.sim.backends import (
    SimBackendInfo,
    SimBackendRegistry,
    get_backend_registry,
    register_backend,
)

__all__ = [
    "EventLoop",
    "PoissonArrivals",
    "JobSeries",
    "SimulationResult",
    "SimHarness",
    "ReplicaLifecycle",
    "EventFaultProcess",
    "Simulation",
    "SimulationConfig",
    "FlowSimulation",
    "HybridSimulation",
    "HybridBackendOptions",
    "SimBackendInfo",
    "SimBackendRegistry",
    "get_backend_registry",
    "register_backend",
]
