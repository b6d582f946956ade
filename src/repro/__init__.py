"""Faro reproduction: SLO-aware autoscaling for multi-tenant ML inference.

Reimplementation of "A House United Within Itself: SLO-Awareness for
On-Premises Containerized ML Inference Clusters via Faro" (EuroSys '25),
including every substrate the paper depends on: queueing models, a
from-scratch autodiff engine and probabilistic N-HiTS forecaster, synthetic
Azure/Twitter trace generators, a matched Ray Serve | Kubernetes cluster
simulator, baseline autoscalers, and a full experiment harness.

Quickstart::

    from repro import quickstart_faro
    result = quickstart_faro(num_jobs=4, total_replicas=12, minutes=30)
    print(result.summary())

See ``examples/`` for richer scenarios and ``benchmarks/`` for the
per-table/per-figure reproduction harness.
"""

from repro.core.autoscaler import FaroAutoscaler, FaroConfig, JobSpec, PersistencePredictor
from repro.core.batched_solver import PGDOptions
from repro.core.decentralized import DecentralizedFaro, RebalanceConfig
from repro.core.hybrid import HybridAutoscaler, ReactiveConfig
from repro.core.objectives import ClusterObjective, make_objective
from repro.core.optimizer import (
    Allocation,
    AllocationProblem,
    ClusterCapacity,
    OptimizationJob,
    solve_allocation,
)
from repro.core.utility import SLO, inverse_utility, step_utility
from repro.cluster import (
    RESNET18,
    RESNET34,
    InferenceJobSpec,
    ModelProfile,
    RayServeCluster,
    ResourceQuota,
)
from repro.policy import AutoscalePolicy, JobObservation, ScalingDecision
from repro.sim import (
    FlowSimulation,
    HybridSimulation,
    SimHarness,
    Simulation,
    SimulationConfig,
    SimulationResult,
    get_backend_registry,
    register_backend,
)
from repro.sim.faults import FaultConfig

__version__ = "1.0.0"

__all__ = [
    "api",
    "SLO",
    "step_utility",
    "inverse_utility",
    "ClusterObjective",
    "make_objective",
    "OptimizationJob",
    "AllocationProblem",
    "ClusterCapacity",
    "Allocation",
    "solve_allocation",
    "PGDOptions",
    "FaroAutoscaler",
    "FaroConfig",
    "JobSpec",
    "PersistencePredictor",
    "HybridAutoscaler",
    "ReactiveConfig",
    "DecentralizedFaro",
    "RebalanceConfig",
    "ModelProfile",
    "RESNET18",
    "RESNET34",
    "InferenceJobSpec",
    "ResourceQuota",
    "RayServeCluster",
    "AutoscalePolicy",
    "JobObservation",
    "ScalingDecision",
    "Simulation",
    "SimulationConfig",
    "SimulationResult",
    "SimHarness",
    "FlowSimulation",
    "HybridSimulation",
    "register_backend",
    "get_backend_registry",
    "FaultConfig",
    "quickstart_faro",
]


def __getattr__(name: str):
    # The control-plane API is imported lazily (PEP 562): it pulls in the
    # experiment harness, which plain library users may never need.
    if name == "api":
        import repro.api

        return repro.api
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def quickstart_faro(
    num_jobs: int = 4,
    total_replicas: int = 12,
    minutes: int = 30,
    objective: str = "fairsum",
    seed: int = 0,
) -> SimulationResult:
    """Run a small end-to-end Faro experiment and return its result.

    Builds a job mix of ResNet34 services with paper-default SLOs, drives
    them with synthetic Azure/Twitter traces, and autoscales with the hybrid
    Faro controller (persistence predictor -- no training, so it starts
    instantly).  Routed through the declarative control plane: the same
    experiment, written to a file with ``spec.to_file(...)``, runs via
    ``repro-faro run --spec``.  Meant as a 'hello world' -- see
    ``examples/`` for the full-size scenarios.
    """
    from repro import api

    spec = api.ExperimentSpec(
        name="quickstart",
        scenarios=(
            api.ScenarioSpec(
                kind="paper",
                params={
                    "size": total_replicas,
                    "num_jobs": num_jobs,
                    "duration_minutes": minutes,
                    "days": 2,
                    "rate_hi": 400.0,
                    "eval_offset_minutes": 0,
                    "seed": seed,
                },
            ),
        ),
        policies=(
            api.PolicySpec(
                name=f"faro-{objective}",
                options={"use_trained_predictor": False},
            ),
        ),
        trials=1,
        seed=seed,
        simulator="request",
    )
    return api.run(spec).single_result()
