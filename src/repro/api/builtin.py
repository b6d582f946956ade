"""Built-in policy registrations: Faro variants, baselines, controllers.

Importing :mod:`repro.api` loads this module, which registers every policy
the paper's evaluation uses -- the five Faro variants (kind ``"faro"``),
the five baselines (kind ``"baseline"``), and the decentralized/flat Faro
controllers (kind ``"controller"``) -- on the default registry.  The
construction logic here is the single source of truth.

Registration order matters: ``registry.names(kind="faro")`` and
``registry.names(kind="baseline")`` list the names in the paper's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.api.registry import register_policy
from repro.baselines import (
    AIADPolicy,
    CilantroLikePolicy,
    FairSharePolicy,
    MarkPolicy,
    OneshotPolicy,
)
from repro.core.autoscaler import FaroAutoscaler, FaroConfig, JobSpec
from repro.core.decentralized import DecentralizedFaro, RebalanceConfig
from repro.core.hybrid import HybridAutoscaler, ReactiveConfig
from repro.core.optimizer import ClusterCapacity
from repro.experiments.policies import PredictorProfile, train_predictors
from repro.experiments.scenarios import Scenario
from repro.forecast.predictor import ForecastWorkloadPredictor
from repro.policy import AutoscalePolicy

__all__ = [
    "FaroOptions",
    "DecentralizedFaroOptions",
    "FairShareOptions",
    "OneshotOptions",
    "AIADOptions",
    "MarkOptions",
    "CilantroOptions",
    "coerce_predictor_profile",
]

_FARO_CONFIG_FIELDS = {f.name for f in fields(FaroConfig)}


def coerce_predictor_profile(value: Any) -> PredictorProfile | None:
    """Accept a profile as instance, preset name, or field mapping.

    Spec files carry ``"fast"``/``"paper"`` or a mapping of
    :class:`PredictorProfile` fields; Python callers may pass an instance.
    """
    if value is None or isinstance(value, PredictorProfile):
        return value
    if isinstance(value, str):
        presets = {"fast": PredictorProfile.fast, "paper": PredictorProfile.paper}
        if value.lower() not in presets:
            raise ValueError(
                f"unknown predictor profile {value!r}; expected one of "
                f"{sorted(presets)} or a field mapping"
            )
        return presets[value.lower()]()
    if isinstance(value, Mapping):
        known = {f.name for f in fields(PredictorProfile)}
        unknown = set(value) - known
        if unknown:
            raise ValueError(
                f"unknown predictor-profile field(s) {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )
        return PredictorProfile(**value)
    raise TypeError(f"cannot interpret predictor profile {value!r}")


def _faro_config(overrides: Mapping[str, Any], objective: str, seed: int) -> FaroConfig:
    """FaroConfig from spec overrides; unknown fields raise ValueError."""
    data = dict(overrides)
    unknown = set(data) - _FARO_CONFIG_FIELDS
    if unknown:
        raise ValueError(
            f"unknown FaroConfig field(s) {sorted(unknown)}; "
            f"accepted: {sorted(_FARO_CONFIG_FIELDS)}"
        )
    data.setdefault("objective", objective)
    data.setdefault("seed", seed)
    return FaroConfig(**data)


def _job_specs(scenario: Scenario) -> list[JobSpec]:
    return [
        JobSpec(
            name=job.name,
            slo=job.slo,
            proc_time=job.model.proc_time,
            priority=job.priority,
            cpu_per_replica=job.model.cpu_per_replica,
            mem_per_replica=job.model.mem_per_replica,
            min_replicas=job.min_replicas,
        )
        for job in scenario.jobs
    ]


def _trained_predictors(
    scenario: Scenario,
    profile: PredictorProfile | None,
    seed: int,
    seed_offset: int = 0,
) -> dict[str, ForecastWorkloadPredictor]:
    """Shared trained forecasters wrapped per-policy with their own RNGs.

    Forecasters are trained on requests/minute; controller histories are
    requests/second, hence the fixed ``history_scale=60``.
    """
    forecasters = train_predictors(scenario, profile, seed=0)
    return {
        name: ForecastWorkloadPredictor(
            f, history_scale=60.0, seed=seed + seed_offset + i
        )
        for i, (name, f) in enumerate(forecasters.items())
    }


# ------------------------------------------------------------ Faro variants


@dataclass(frozen=True)
class FaroOptions:
    """Options shared by every Faro variant.

    ``faro`` holds :class:`FaroConfig` field overrides (the spec-file
    counterpart of the old ``faro_overrides`` argument) -- e.g.
    ``{"solver": "pgd", "solver_options": {"maxiter": 40}}`` selects the
    batched first-order solver with method-specific knobs
    (:class:`~repro.core.batched_solver.PGDOptions` fields).
    ``hybrid=False`` drops the short-term reactive path (long-term
    optimizer only); ``use_trained_predictor=False`` falls back to the
    persistence predictor.
    """

    hybrid: bool = True
    use_trained_predictor: bool = True
    predictor_profile: Any = None
    faro: dict[str, Any] = field(default_factory=dict)

    def profile(self) -> PredictorProfile | None:
        return coerce_predictor_profile(self.predictor_profile)


def _build_faro(objective: str):
    def build(scenario: Scenario, seed: int, options: FaroOptions) -> AutoscalePolicy:
        options = options or FaroOptions()
        config = _faro_config(options.faro, objective, seed)
        predictors = {}
        if options.use_trained_predictor:
            predictors = _trained_predictors(scenario, options.profile(), seed)
        faro = FaroAutoscaler(
            _job_specs(scenario),
            ClusterCapacity.of_replicas(scenario.total_replicas),
            config=config,
            predictors=predictors,
        )
        if not options.hybrid:
            faro.tick_interval = 10.0  # still polled frequently; solves on period
            return faro
        return HybridAutoscaler(
            faro, ReactiveConfig(), capacity_replicas=scenario.total_replicas
        )

    return build


_FARO_VARIANTS = (
    ("faro-sum", "Faro maximizing total cluster utility (Sum).", ()),
    ("faro-fair", "Faro maximizing the worst job's utility (Fair).", ()),
    (
        "faro-fairsum",
        "Faro's headline objective: fairness-regularized sum (FairSum).",
        ("faro",),
    ),
    ("faro-penaltysum", "Sum with priority penalties (PenaltySum).", ()),
    (
        "faro-penaltyfairsum",
        "FairSum with priority penalties (PenaltyFairSum).",
        (),
    ),
)

for _name, _desc, _aliases in _FARO_VARIANTS:
    register_policy(
        _name,
        kind="faro",
        description=_desc,
        config_type=FaroOptions,
        aliases=_aliases,
    )(_build_faro(_name.removeprefix("faro-")))


# -------------------------------------------------------------- controllers


@dataclass(frozen=True)
class DecentralizedFaroOptions:
    """Options for the decentralized (per-group) Faro controller."""

    num_groups: int = 2
    objective: str = "fairsum"
    use_trained_predictor: bool = True
    predictor_profile: Any = None
    faro: dict[str, Any] = field(default_factory=dict)
    max_transfer: int = 4
    demand_quantile: float = 0.9

    def profile(self) -> PredictorProfile | None:
        return coerce_predictor_profile(self.predictor_profile)


@register_policy(
    "faro-decentralized",
    kind="controller",
    description=(
        "Per-group Faro controllers coordinated only through periodic "
        "share rebalancing (scales past a single solver)."
    ),
    config_type=DecentralizedFaroOptions,
)
def _build_decentralized(
    scenario: Scenario, seed: int, options: DecentralizedFaroOptions
) -> AutoscalePolicy:
    options = options or DecentralizedFaroOptions()
    config = _faro_config(options.faro, options.objective, seed)
    predictors = None
    if options.use_trained_predictor:
        predictors = _trained_predictors(scenario, options.profile(), seed)
    rebalance = RebalanceConfig(
        max_transfer=options.max_transfer, demand_quantile=options.demand_quantile
    )
    return DecentralizedFaro(
        jobs=_job_specs(scenario),
        total_replicas=scenario.total_replicas,
        num_groups=options.num_groups,
        config=config,
        rebalance=rebalance,
        predictors=predictors,
    )


# ---------------------------------------------------------------- baselines


@dataclass(frozen=True)
class FairShareOptions:
    min_replicas: int = 1


@register_policy(
    "fairshare",
    kind="baseline",
    description="Static equal split, no autoscaling (Clipper/TF-Serving).",
    config_type=FairShareOptions,
)
def _build_fairshare(
    scenario: Scenario, seed: int, options: FairShareOptions
) -> AutoscalePolicy:
    options = options or FairShareOptions()
    return FairSharePolicy(
        total_replicas=scenario.total_replicas, min_replicas=options.min_replicas
    )


@dataclass(frozen=True)
class OneshotOptions:
    up_hold: float = 30.0
    down_hold: float = 300.0
    min_replicas: int = 1
    max_factor: float = 8.0


@register_policy(
    "oneshot",
    kind="baseline",
    description="Reactive proportional one-shot scaling (K8s HPA/Ray Serve).",
    config_type=OneshotOptions,
)
def _build_oneshot(
    scenario: Scenario, seed: int, options: OneshotOptions
) -> AutoscalePolicy:
    options = options or OneshotOptions()
    return OneshotPolicy(
        slos=scenario.slos,
        up_hold=options.up_hold,
        down_hold=options.down_hold,
        min_replicas=options.min_replicas,
        max_factor=options.max_factor,
    )


@dataclass(frozen=True)
class AIADOptions:
    up_hold: float = 30.0
    down_hold: float = 300.0
    step: int = 1
    min_replicas: int = 1
    underload_margin: float = 0.7


@register_policy(
    "aiad",
    kind="baseline",
    description="Additive-increase/additive-decrease per job (INFaaS).",
    config_type=AIADOptions,
)
def _build_aiad(scenario: Scenario, seed: int, options: AIADOptions) -> AutoscalePolicy:
    options = options or AIADOptions()
    return AIADPolicy(
        slos=scenario.slos,
        up_hold=options.up_hold,
        down_hold=options.down_hold,
        step=options.step,
        min_replicas=options.min_replicas,
        underload_margin=options.underload_margin,
    )


@dataclass(frozen=True)
class MarkOptions:
    predictor_profile: Any = None
    proactive_period: float = 300.0
    horizon_steps: int = 7
    target_utilization: float = 0.9
    up_hold: float = 30.0
    min_replicas: int = 1

    def profile(self) -> PredictorProfile | None:
        return coerce_predictor_profile(self.predictor_profile)


@register_policy(
    "mark",
    kind="baseline",
    description=(
        "Proactive per-job provisioning from replica max-throughput "
        "(MArk/Cocktail/Barista)."
    ),
    config_type=MarkOptions,
)
def _build_mark(scenario: Scenario, seed: int, options: MarkOptions) -> AutoscalePolicy:
    options = options or MarkOptions()
    predictors = _trained_predictors(
        scenario, options.profile(), seed, seed_offset=71
    )
    return MarkPolicy(
        proc_times=scenario.proc_times,
        slos=scenario.slos,
        predictors=predictors,
        proactive_period=options.proactive_period,
        horizon_steps=options.horizon_steps,
        target_utilization=options.target_utilization,
        up_hold=options.up_hold,
        min_replicas=options.min_replicas,
    )


@dataclass(frozen=True)
class CilantroOptions:
    period: float = 60.0
    history_window: int = 15
    min_replicas: int = 1


@register_policy(
    "cilantro",
    kind="baseline",
    description=(
        "Feedback allocator with online-learned performance model "
        "(Cilantro, OSDI'23)."
    ),
    config_type=CilantroOptions,
)
def _build_cilantro(
    scenario: Scenario, seed: int, options: CilantroOptions
) -> AutoscalePolicy:
    options = options or CilantroOptions()
    return CilantroLikePolicy(
        proc_times=scenario.proc_times,
        slos=scenario.slos,
        total_replicas=scenario.total_replicas,
        period=options.period,
        history_window=options.history_window,
        min_replicas=options.min_replicas,
        seed=seed,
    )
