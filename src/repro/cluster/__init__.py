"""Simulated Ray Serve | Kubernetes cluster substrate (paper §5).

The paper deploys each ML inference job as its own Ray cluster (head pod
running a Router, worker pods each holding one Ray Serve replica) on top of
Kubernetes, with a resource quota capping the total replica count.  This
package reproduces that stack's *behaviour* for simulation:

- :mod:`repro.cluster.models` -- model profiles (ResNet18/34 processing
  times and per-replica resources).
- :mod:`repro.cluster.job` -- inference job specifications (model + SLO).
- :mod:`repro.cluster.router` -- the per-job Router: FIFO dispatch to
  replicas, tail-drop at a queue threshold (HTTP 503 semantics), explicit
  drop directives, replica cold starts, scaling.
- :mod:`repro.cluster.dispatch` -- the compiled kernel (``dispatch.c``,
  built and loaded by :mod:`repro.native`) that routes whole request
  chunks bit-identically, and its binding and self-check.
- :mod:`repro.cluster.kubernetes` -- resource-quota admission control.
- :mod:`repro.cluster.metrics` -- the metrics collector feeding autoscalers
  (arrival rates, processing times, latency percentiles, violations).
- :mod:`repro.cluster.rayserve` -- the cluster facade tying it together.
- :mod:`repro.cluster.placement` -- replica-to-node placement (the K8s
  scheduler stand-in) with binpack/spread strategies.
- :mod:`repro.cluster.batching` -- adaptive request batching at the router
  (§7 orthogonal techniques).
"""

from repro.cluster.models import ModelProfile, RESNET18, RESNET34
from repro.cluster.job import InferenceJobSpec
from repro.cluster.router import JobRouter, RouterTotals
from repro.cluster.kubernetes import ResourceQuota
from repro.cluster.metrics import MetricsCollector, MinuteStats
from repro.cluster.rayserve import RayServeCluster
from repro.cluster.placement import Node, Placement, PlacementEngine, PodSpec
from repro.cluster.batching import (
    AdaptiveBatcher,
    BatchingJobRouter,
    BatchProfile,
    CompletedRequest,
)
from repro.cluster.telemetry import render_cluster_metrics, render_result_metrics

__all__ = [
    "ModelProfile",
    "RESNET18",
    "RESNET34",
    "InferenceJobSpec",
    "JobRouter",
    "RouterTotals",
    "ResourceQuota",
    "MetricsCollector",
    "MinuteStats",
    "RayServeCluster",
    "Node",
    "PodSpec",
    "Placement",
    "PlacementEngine",
    "BatchProfile",
    "CompletedRequest",
    "BatchingJobRouter",
    "AdaptiveBatcher",
    "render_cluster_metrics",
    "render_result_metrics",
]
