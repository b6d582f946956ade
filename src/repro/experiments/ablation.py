"""Ablation stack for Fig. 16: add Faro's components one at a time.

The paper's ablation (bottom to top of Fig. 16):

1. ``w/o relaxation``  -- precise objective (step utility, hard M/D/c).
2. ``w/ relaxation``   -- relaxed objective but pessimistic upper-bound
   latency estimation.
3. ``w/ M/D/c queue``  -- relaxed M/D/c latency estimation.
4. ``w/ prediction``   -- trained point time-series prediction
   (persistence before this rung).
5. ``w/ hybrid``       -- short-term reactive path added.
6. ``w/ shrinking``    -- Stage-3 shrinking enabled (the paper finds this
   *hurts* slightly on its own due to overtight allocations...).
7. ``w/ prob. pred.``  -- probabilistic prediction (...which probabilistic
   prediction then compensates for).

Each rung is a ``(scenario, seed) -> policy`` factory; pass it as the
``policy_factory`` of :func:`repro.api.runner.execute_trials`.
"""

from __future__ import annotations

from typing import Callable

from repro.core.autoscaler import FaroAutoscaler, FaroConfig, JobSpec
from repro.core.hybrid import HybridAutoscaler, ReactiveConfig
from repro.core.optimizer import ClusterCapacity
from repro.experiments.policies import PredictorProfile, train_predictors
from repro.experiments.scenarios import Scenario
from repro.forecast.predictor import ForecastWorkloadPredictor
from repro.policy import AutoscalePolicy

__all__ = ["ABLATION_ORDER", "ablation_policy_factory"]

ABLATION_ORDER = (
    "w/o relaxation",
    "w/ relaxation",
    "w/ M/D/c queue",
    "w/ prediction",
    "w/ hybrid",
    "w/ shrinking",
    "w/ prob. pred.",
)


def _stage_settings(stage: str) -> dict:
    """Cumulative FaroConfig settings for an ablation rung."""
    if stage not in ABLATION_ORDER:
        raise ValueError(f"unknown ablation stage {stage!r}")
    level = ABLATION_ORDER.index(stage)
    return {
        "relaxed": level >= 1,
        "alpha": None if level < 1 else 1.0,
        "latency_model": "upper" if level < 2 else "mdc",
        "trained_predictor": level >= 3,
        "hybrid": level >= 4,
        "shrinking": level >= 5,
        "probabilistic": level >= 6,
    }


def ablation_policy_factory(
    stage: str,
    objective: str = "fairsum",
    predictor_profile: PredictorProfile | None = None,
) -> Callable[[Scenario, int], AutoscalePolicy]:
    """Build a ``(scenario, seed) -> policy`` factory for one ablation rung."""
    settings = _stage_settings(stage)

    def factory(scenario: Scenario, seed: int) -> AutoscalePolicy:
        specs = [
            JobSpec(
                name=job.name,
                slo=job.slo,
                proc_time=job.model.proc_time,
                priority=job.priority,
            )
            for job in scenario.jobs
        ]
        config = FaroConfig(
            objective=objective,
            relaxed=settings["relaxed"],
            alpha=settings["alpha"],
            latency_model=settings["latency_model"],
            shrinking=settings["shrinking"],
            probabilistic=settings["probabilistic"],
            seed=seed,
        )
        predictors = {}
        if settings["trained_predictor"]:
            forecasters = train_predictors(scenario, predictor_profile, seed=0)
            predictors = {
                name: ForecastWorkloadPredictor(f, history_scale=60.0, seed=seed + i)
                for i, (name, f) in enumerate(forecasters.items())
            }
        capacity = ClusterCapacity.of_replicas(scenario.total_replicas)
        faro = FaroAutoscaler(specs, capacity, config=config, predictors=predictors)
        if not settings["hybrid"]:
            return faro
        return HybridAutoscaler(
            faro, ReactiveConfig(), capacity_replicas=scenario.total_replicas
        )

    factory.__name__ = f"ablation[{stage}]"
    return factory
