"""The built scenario: what every scenario kind produces (§6).

A :class:`Scenario` bundles the job specs, their evaluation-day traces, the
predictor training series, and the cluster size.  Scenarios are built from
specs (:class:`repro.api.ScenarioSpec`); the ``paper``, ``mixed`` and
``large-scale`` kinds lower onto the declarative ``custom`` kind
(:mod:`repro.api.composition`).  The paper's cluster sizes (total
replicas): right-sized RS = 36, slightly oversubscribed SO = 32, heavily
oversubscribed HO = 16, for the 10-job mix at 1-1600 req/min with ResNet34
(180 ms, SLO 720 ms p99).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.job import InferenceJobSpec

__all__ = ["CLUSTER_SIZES", "Scenario"]

#: Paper cluster sizes (total replicas) for the 10-job mix.
CLUSTER_SIZES: dict[str, int] = {"RS": 36, "SO": 32, "HO": 16}


@dataclass
class Scenario:
    """One experiment configuration."""

    name: str
    jobs: list[InferenceJobSpec]
    eval_traces: dict[str, np.ndarray]
    train_traces: dict[str, np.ndarray]
    total_replicas: int
    duration_minutes: int
    rate_scale: float = 1.0
    history_prefix: dict[str, np.ndarray] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    #: Optional heterogeneous fleet (:class:`repro.hetero.types.DeviceFleet`).
    #: None -- the default, and the only case for the built-in kinds --
    #: means the homogeneous replica pool of the paper.
    devices: object | None = None

    def __post_init__(self) -> None:
        names = {job.name for job in self.jobs}
        if set(self.eval_traces) < names or set(self.train_traces) < names:
            raise ValueError("every job needs eval and train traces")
        if self.total_replicas < len(self.jobs):
            raise ValueError(
                f"cluster of {self.total_replicas} replicas cannot host "
                f"{len(self.jobs)} jobs at one replica minimum"
            )
        if self.devices is not None and self.devices.total_count() != self.total_replicas:
            raise ValueError(
                f"device classes provide {self.devices.total_count()} slots but "
                f"total_replicas is {self.total_replicas}"
            )

    @property
    def job_names(self) -> list[str]:
        return [job.name for job in self.jobs]

    @property
    def slos(self) -> dict[str, float]:
        return {job.name: job.slo.target for job in self.jobs}

    @property
    def proc_times(self) -> dict[str, float]:
        return {job.name: job.model.proc_time for job in self.jobs}
