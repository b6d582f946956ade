"""Trace-driven simulation of the Ray Serve | Kubernetes stack (paper §6.4).

All simulators are *backends* behind one shared control harness
(:class:`~repro.sim.harness.SimHarness`) and one registry
(:mod:`repro.sim.backends`), mirroring the policy registry on the control
plane:

- ``request`` (:mod:`repro.sim.simulation`) -- the high-fidelity
  request-level simulator ("cluster deployment" stand-in): Poisson
  arrivals from traces, per-request routing/queueing/drops (one compiled
  dispatch-kernel call per job and chunk), replica cold starts.
- ``flow`` (:mod:`repro.sim.analytic`) -- a fast fluid/flow simulator
  ("matched simulation" stand-in) that advances per-job queue lengths
  analytically; used for large sweeps (Fig. 15, Table 8 at 100 jobs) and
  for the paper's cluster-vs-simulation ranking comparison (Table 7).
- ``hybrid`` (:mod:`repro.sim.hybrid`) -- flagged jobs at request level,
  the rest analytic, one shared quota and policy loop.

:mod:`repro.sim.engine` provides the heap-based discrete-event engine;
:mod:`repro.sim.lifecycle` builds the event-driven replica lifecycle
(cold starts, drains, exact Poisson faults) on top of it.
"""

from repro.sim.engine import EventLoop
from repro.sim.workload import PoissonArrivals
from repro.sim.recorder import JobSeries, SimulationResult
from repro.sim.harness import SimHarness
from repro.sim.lifecycle import EventFaultProcess, ReplicaLifecycle
from repro.sim.simulation import RequestBackendOptions, Simulation, SimulationConfig
from repro.sim.analytic import FlowSimulation
from repro.sim.hybrid import HybridBackendOptions, HybridSimulation
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
    "RequestBackendOptions",
    "FlowSimulation",
    "HybridSimulation",
    "HybridBackendOptions",
    "SimBackendInfo",
    "SimBackendRegistry",
    "get_backend_registry",
    "register_backend",
]
