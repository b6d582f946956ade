"""Fast analytic (fluid/flow) cluster simulation: the ``flow`` backend.

:class:`FlowSimulation` is the one simulation harness
(:class:`repro.sim.simulation.HybridSimulation`) with no job flagged
request-level: every job advances its queue analytically per control tick
through the fluid/M/D/c model of :mod:`repro.sim.flow`.  It is two to three
orders of magnitude faster than request-level dispatch, which makes the
large sweeps tractable (Fig. 15's cluster-size sweep, Table 8's 100-job
run), and plays the role of the paper's "matched simulation" in the Table 7
ranking comparison against the request-level simulator.

Policies interact with it through exactly the same observation/decision
interface, so every autoscaler implementation is reused unchanged --
mirroring how the paper's simulator reuses the deployment code.
``SimulationConfig.faults`` is honoured with the same per-replica fault
process the request-level jobs use (failures remove serving capacity; the
reconcile step recreates pods behind a fresh cold start).
"""

from __future__ import annotations

from repro.sim.simulation import HybridSimulation

__all__ = ["FlowSimulation"]


class FlowSimulation(HybridSimulation):
    """Analytic counterpart of :class:`repro.sim.simulation.Simulation`:
    no job flagged."""

    fidelity_label = "analytic-flow"
    options_type = None

    def _select_request_jobs(self) -> set[str]:
        return set()
