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
- :mod:`repro.cluster.rayserve` -- the per-job routers and collectors the
  request-level simulation drives.

Replica-to-node placement is left to the Kubernetes scheduler (§1), as in
the paper; the simulation places nothing.
"""

from repro.cluster.models import ModelProfile, RESNET18, RESNET34
from repro.cluster.job import InferenceJobSpec
from repro.cluster.router import JobRouter, RouterTotals
from repro.cluster.kubernetes import ResourceQuota
from repro.cluster.metrics import MetricsCollector, MinuteStats
from repro.cluster.rayserve import RayServeCluster

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
]
