"""Declarative scenario composition: typed Trace/Job/Cluster specs.

Every scenario is born declaratively here, from named registry entries,
as policies and backends are:

- :class:`TraceSpec` -- one job's arrival process as a *pipeline*: a
  registered trace source (:mod:`repro.traces.generators`) plus an ordered
  list of registered transforms (:mod:`repro.traces.transforms`);
- :class:`JobSpec` -- a job: name, model (catalog name or inline profile),
  SLO (explicit target or paper-convention multiple), priority, replica
  floor, and its trace pipeline(s);
- :class:`ClusterSpec` -- the cluster: total replicas;
- :func:`custom_scenario` -- the ``custom`` scenario kind: builds a
  complete :class:`~repro.experiments.scenarios.Scenario` from those specs
  alone, so a JSON/YAML file -- no Python -- defines heterogeneous models,
  SLOs, and synthetic+replayed workloads end to end.

The three built-in kinds are lowerings onto this form: ``lower_paper``,
``lower_mixed`` and ``lower_large_scale`` turn ``paper`` / ``mixed`` /
``large-scale`` parameters into ``custom`` parameters, their keyword
signatures are the kinds' parameter surfaces, and building a kind is
``custom_scenario(**lower(**params))`` (:mod:`repro.api.scenarios`).
:meth:`repro.api.ScenarioSpec.lower` returns that ``custom`` spec.

All specs are frozen, validate eagerly, and round-trip losslessly through
``to_dict``/``from_dict``, so they embed directly in
:class:`~repro.api.spec.ScenarioSpec` parameters and spec files.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.api.spec import _check_keys, _normalize, _plain
from repro.cluster.job import InferenceJobSpec
from repro.cluster.models import RESNET18, RESNET34, ModelProfile
from repro.core.utility import SLO
from repro.experiments.scenarios import CLUSTER_SIZES, Scenario
from repro.hetero.types import DeviceClass, DeviceFleet
from repro.traces.generators import get_trace_source_registry
from repro.traces.library import standard_mix_source
from repro.traces.transforms import get_trace_transform_registry

__all__ = [
    "MODEL_CATALOG",
    "TransformStep",
    "TraceSpec",
    "JobSpec",
    "ClusterSpec",
    "custom_scenario",
    "validate_custom_params",
    "lower_paper",
    "lower_mixed",
    "lower_large_scale",
    "lower_custom",
]

#: Named model profiles a spec file can reference by string.
MODEL_CATALOG: dict[str, ModelProfile] = {
    "resnet34": RESNET34,
    "resnet18": RESNET18,
}

#: Minutes per day at the traces' native resolution.
MINUTES_PER_DAY = 1440


# ------------------------------------------------------------- trace specs


@dataclass(frozen=True)
class TransformStep:
    """One transform application in a trace pipeline."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("transform name must be non-empty")

        def despec(value: Any) -> Any:
            if isinstance(value, TraceSpec):
                return value.to_dict()
            if isinstance(value, (list, tuple)):
                return [despec(item) for item in value]
            return value

        params = {key: despec(value) for key, value in dict(self.params).items()}
        object.__setattr__(self, "params", _normalize(params))

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"name": self.name}
        if self.params:
            data["params"] = _plain(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | str) -> "TransformStep":
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(data, {"name", "params"}, "trace transform step")
        if "name" not in data:
            raise ValueError("trace transform step requires a 'name'")
        return cls(name=data["name"], params=dict(data.get("params", {})))


@dataclass(frozen=True)
class TraceSpec:
    """A job's arrival process as a value: source pipeline + transforms.

    ``build()`` materializes the per-minute series; ``validate()`` resolves
    every source/transform name and parameter against the registries
    (recursively, through ``superpose``/``splice`` nests) *without*
    generating any data -- the check a spec file gets at load time.
    """

    source: str
    params: dict[str, Any] = field(default_factory=dict)
    transforms: tuple[TransformStep, ...] = ()

    def __post_init__(self) -> None:
        if not self.source:
            raise ValueError("trace source must be non-empty")
        object.__setattr__(self, "params", _normalize(self.params))
        steps = tuple(
            step if isinstance(step, TransformStep) else TransformStep.from_dict(step)
            for step in self.transforms
        )
        object.__setattr__(self, "transforms", steps)

    def validate(self) -> None:
        """Resolve names/parameters against the registries; no generation."""
        source_info = get_trace_source_registry().get(self.source)
        source_info.check_params(self.params)
        transform_registry = get_trace_transform_registry()
        for step in self.transforms:
            info = transform_registry.get(step.name)
            info.check_params(step.params)
            for nested_name in info.nested_params:
                nested = step.params.get(nested_name)
                if nested is None:
                    raise ValueError(
                        f"trace transform {step.name!r} requires a nested "
                        f"{nested_name!r} pipeline"
                    )
                # A nested param holds one pipeline (superpose/splice) or a
                # list of pipelines (mixture); both recurse.
                if isinstance(nested, (TraceSpec, Mapping, str)):
                    items: Sequence[Any] = [nested]
                elif isinstance(nested, Sequence):
                    items = nested
                else:
                    items = [nested]
                if not items:
                    raise ValueError(
                        f"trace transform {step.name!r} requires at least one "
                        f"nested {nested_name!r} pipeline"
                    )
                for item in items:
                    nested_spec = (
                        item
                        if isinstance(item, TraceSpec)
                        else TraceSpec.from_dict(item)
                    )
                    nested_spec.validate()

    def build(self) -> np.ndarray:
        """Generate the series: source output through each transform in order."""
        series = get_trace_source_registry().build(self.source, self.params)
        transform_registry = get_trace_transform_registry()
        for step in self.transforms:
            series = transform_registry.apply(step.name, series, step.params)
        return series

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"source": self.source, "params": _plain(self.params)}
        if self.transforms:
            data["transforms"] = [step.to_dict() for step in self.transforms]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | str) -> "TraceSpec":
        if isinstance(data, str):
            return cls(source=data)
        _check_keys(data, {"source", "params", "transforms"}, "trace spec")
        if "source" not in data:
            raise ValueError("trace spec requires a 'source'")
        return cls(
            source=data["source"],
            params=dict(data.get("params", {})),
            transforms=tuple(
                TransformStep.from_dict(step) for step in data.get("transforms", ())
            ),
        )


# --------------------------------------------------------------- job specs


def _normalize_model(model: Any) -> str | dict[str, Any]:
    """Catalog name or inline :class:`ModelProfile` fields, validated."""
    if isinstance(model, ModelProfile):
        model = dataclasses.asdict(model)
    if isinstance(model, str):
        if model.lower() not in MODEL_CATALOG:
            raise ValueError(
                f"unknown model {model!r}; catalog: {sorted(MODEL_CATALOG)} "
                "(or pass an inline profile mapping)"
            )
        return model
    if isinstance(model, Mapping):
        fields = {f.name for f in dataclasses.fields(ModelProfile)}
        _check_keys(model, fields, "inline model profile")
        missing = {"name", "proc_time"} - set(model)
        if missing:
            raise ValueError(f"inline model profile is missing {sorted(missing)}")
        ModelProfile(**model)  # value validation (positive proc_time, ...)
        return _normalize(dict(model))
    raise ValueError(
        f"model must be a catalog name or a profile mapping, got {type(model).__name__}"
    )


def _normalize_slo(slo: Any) -> dict[str, Any] | None:
    """``None`` (paper default), a target, or a multiple-of-proc-time."""
    if slo is None:
        return None
    if isinstance(slo, SLO):
        slo = {"target": slo.target, "percentile": slo.percentile}
    if not isinstance(slo, Mapping):
        raise ValueError(f"slo must be a mapping, got {type(slo).__name__}")
    _check_keys(slo, {"target", "multiple", "percentile"}, "job SLO")
    if ("target" in slo) == ("multiple" in slo):
        raise ValueError("job SLO needs exactly one of 'target' or 'multiple'")
    percentile = slo.get("percentile", 99.0)
    if not 0.0 < float(percentile) < 100.0:
        raise ValueError(f"SLO percentile must be in (0, 100), got {percentile}")
    if "target" in slo and float(slo["target"]) <= 0:
        raise ValueError(f"SLO target must be positive, got {slo['target']}")
    if "multiple" in slo and float(slo["multiple"]) <= 0:
        raise ValueError(f"SLO multiple must be positive, got {slo['multiple']}")
    return _normalize(dict(slo))


@dataclass(frozen=True)
class JobSpec:
    """One inference job as a value: model, SLO, and trace pipeline(s).

    ``trace`` is the job's full series; unless ``train_trace`` supplies a
    separate predictor-training series, the scenario's ``train_minutes``
    splits ``trace`` into train/eval halves (the paper's days-1-10 /
    day-11 convention, generalized).
    """

    name: str
    trace: TraceSpec
    model: str | dict[str, Any] = "resnet34"
    slo: dict[str, Any] | None = None
    priority: float = 1.0
    min_replicas: int = 1
    train_trace: TraceSpec | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job name must be non-empty")
        if self.priority <= 0:
            raise ValueError(f"priority must be positive, got {self.priority}")
        object.__setattr__(
            self,
            "min_replicas",
            _coerce_whole(self.min_replicas, "min_replicas", minimum=1, optional=False),
        )
        trace = (
            self.trace
            if isinstance(self.trace, TraceSpec)
            else TraceSpec.from_dict(self.trace)
        )
        object.__setattr__(self, "trace", trace)
        if self.train_trace is not None:
            train = (
                self.train_trace
                if isinstance(self.train_trace, TraceSpec)
                else TraceSpec.from_dict(self.train_trace)
            )
            object.__setattr__(self, "train_trace", train)
        object.__setattr__(self, "model", _normalize_model(self.model))
        object.__setattr__(self, "slo", _normalize_slo(self.slo))

    def validate(self) -> None:
        self.trace.validate()
        if self.train_trace is not None:
            self.train_trace.validate()

    def resolve_model(self) -> ModelProfile:
        if isinstance(self.model, str):
            return MODEL_CATALOG[self.model.lower()]
        return ModelProfile(**self.model)

    def to_inference_spec(self) -> InferenceJobSpec:
        model = self.resolve_model()
        if self.slo is None or "multiple" in self.slo:
            slo = self.slo or {}
            return InferenceJobSpec.with_default_slo(
                self.name,
                model,
                slo_multiple=float(slo.get("multiple", 4.0)),
                percentile=float(slo.get("percentile", 99.0)),
                priority=self.priority,
                min_replicas=self.min_replicas,
            )
        return InferenceJobSpec(
            name=self.name,
            model=model,
            slo=SLO(
                target=float(self.slo["target"]),
                percentile=float(self.slo.get("percentile", 99.0)),
            ),
            priority=self.priority,
            min_replicas=self.min_replicas,
        )

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "name": self.name,
            "model": _plain(self.model),
            "trace": self.trace.to_dict(),
        }
        if self.slo is not None:
            data["slo"] = _plain(self.slo)
        if self.priority != 1.0:
            data["priority"] = self.priority
        if self.min_replicas != 1:
            data["min_replicas"] = self.min_replicas
        if self.train_trace is not None:
            data["train_trace"] = self.train_trace.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobSpec":
        _check_keys(
            data,
            {"name", "model", "trace", "slo", "priority", "min_replicas", "train_trace"},
            "job spec",
        )
        missing = {"name", "trace"} - set(data)
        if missing:
            raise ValueError(f"job spec is missing {sorted(missing)}")
        return cls(
            name=data["name"],
            trace=TraceSpec.from_dict(data["trace"]),
            model=data.get("model", "resnet34"),
            slo=data.get("slo"),
            priority=float(data.get("priority", 1.0)),
            min_replicas=data.get("min_replicas", 1),
            train_trace=(
                TraceSpec.from_dict(data["train_trace"])
                if data.get("train_trace") is not None
                else None
            ),
        )


#: Per-device-class fields a spec file may set (name/count required).
_DEVICE_CLASS_KEYS = {
    "name",
    "count",
    "speedup",
    "cpus",
    "mem",
    "accels",
    "cost_per_hour",
}

#: DeviceClass fields whose defaults are omitted from ``to_dict``.
_DEVICE_CLASS_DEFAULTS = {
    "speedup": 1.0,
    "cpus": 1.0,
    "mem": 1.0,
    "accels": 0.0,
    "cost_per_hour": 0.0,
}


def _coerce_device_class(data: Any) -> DeviceClass:
    if isinstance(data, DeviceClass):
        return data
    if not isinstance(data, Mapping):
        raise ValueError(
            f"device class must be a mapping, got {type(data).__name__}"
        )
    _check_keys(data, _DEVICE_CLASS_KEYS, "device class")
    missing = {"name", "count"} - set(data)
    if missing:
        raise ValueError(f"device class is missing {sorted(missing)}")
    fields = dict(data)
    fields["count"] = _coerce_whole(
        fields["count"], f"device class {fields['name']!r} count",
        minimum=1, optional=False,
    )
    for key in _DEVICE_CLASS_DEFAULTS:
        if key in fields:
            fields[key] = float(fields[key])
    return DeviceClass(**fields)


@dataclass(frozen=True)
class ClusterSpec:
    """The cluster as a value: total replica capacity, optionally typed.

    The homogeneous form is a bare ``total_replicas`` -- unchanged, and
    byte-identical through ``to_dict``.  A heterogeneous cluster instead
    lists ``device_classes`` (name, count, per-resource footprint, default
    speedup) plus an optional per-(model, class) ``throughput`` matrix of
    speedups relative to the reference CPU processing time;
    ``total_replicas`` may then be omitted (it is the sum of class counts)
    or stated redundantly (it must match).  A single class with speedup 1
    *is* the homogeneous cluster -- not a separate code path.
    """

    total_replicas: int | None = None
    device_classes: tuple[DeviceClass, ...] = ()
    throughput: dict[str, dict[str, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        classes = tuple(_coerce_device_class(cls) for cls in self.device_classes)
        object.__setattr__(self, "device_classes", classes)
        if self.throughput and not classes:
            raise ValueError(
                "cluster spec has a 'throughput' matrix but no 'device_classes'"
            )
        matrix = {
            str(model): {str(name): float(v) for name, v in dict(row).items()}
            for model, row in dict(self.throughput).items()
        }
        object.__setattr__(self, "throughput", matrix)
        if classes:
            # DeviceFleet validates class names, matrix references, and
            # speedup positivity; build it once here to fail at load time.
            derived = self.to_fleet().total_count()
            total = _coerce_whole(self.total_replicas, "total_replicas", minimum=1)
            if total is not None and total != derived:
                raise ValueError(
                    f"total_replicas={total} does not match the "
                    f"{derived} slots the device classes provide"
                )
            object.__setattr__(self, "total_replicas", derived)
        else:
            object.__setattr__(
                self,
                "total_replicas",
                _coerce_whole(
                    self.total_replicas, "total_replicas", minimum=1, optional=False
                ),
            )

    def to_fleet(self) -> DeviceFleet | None:
        """The typed fleet, or None for the homogeneous single-pool form."""
        if not self.device_classes:
            return None
        return DeviceFleet(classes=self.device_classes, speedups=self.throughput)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"total_replicas": self.total_replicas}
        if self.device_classes:
            data["device_classes"] = [
                {
                    "name": cls.name,
                    "count": cls.count,
                    **{
                        key: getattr(cls, key)
                        for key, default in _DEVICE_CLASS_DEFAULTS.items()
                        if getattr(cls, key) != default
                    },
                }
                for cls in self.device_classes
            ]
        if self.throughput:
            data["throughput"] = {
                model: dict(row) for model, row in self.throughput.items()
            }
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | int) -> "ClusterSpec":
        if isinstance(data, int):
            return cls(total_replicas=data)
        _check_keys(
            data, {"total_replicas", "device_classes", "throughput"}, "cluster spec"
        )
        if "total_replicas" not in data and not data.get("device_classes"):
            raise ValueError(
                "cluster spec requires 'total_replicas' or 'device_classes'"
            )
        return cls(
            total_replicas=data.get("total_replicas"),
            device_classes=tuple(data.get("device_classes", ())),
            throughput=dict(data.get("throughput", {})),
        )


# ------------------------------------------------------- the custom kind


def _coerce_whole(
    value: Any, name: str, minimum: int = 0, optional: bool = True
) -> int | None:
    """Whole-count parameter: accepts 10 or 10.0, rejects 10.5 and -1.

    JSON has one number type, so spec files legitimately deliver integral
    floats; silently truncating a fractional one would change semantics
    (replica counts, split points), and an uncast float would crash later
    as a slice index -- both must fail here, at validation time.
    """
    if value is None:
        if not optional:
            raise ValueError(f"{name} must be a whole number, not null")
        return None
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        # OverflowError: json.loads happily yields Infinity.
        raise ValueError(f"{name} must be a whole number, got {value!r}") from exc
    if as_int != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    if as_int < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    return as_int


def _coerce_rate_scale(value: Any) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"rate_scale must be a number, got {value!r}") from exc
    # json.loads yields Infinity/NaN for their literals; neither is a rate.
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"rate_scale must be a finite number >= 0, got {value}")
    return value


@dataclass(frozen=True)
class _ParsedCustom:
    """Typed result of parsing the ``custom`` kind's raw parameters."""

    jobs: tuple[JobSpec, ...]
    cluster: ClusterSpec
    train_minutes: int | None
    eval_offset_minutes: int
    duration_minutes: int | None
    history_prefix_minutes: int


def _parse_custom(
    jobs: Sequence[Any],
    cluster: Any,
    train_minutes: Any,
    eval_offset_minutes: Any,
    duration_minutes: Any,
    history_prefix_minutes: Any,
) -> _ParsedCustom:
    """Shared parse/validation for :func:`custom_scenario` and the
    load-time :func:`validate_custom_params` hook."""
    if not isinstance(jobs, Sequence) or isinstance(jobs, (str, bytes)):
        raise ValueError("custom scenario 'jobs' must be a list of job specs")
    job_specs = tuple(
        job if isinstance(job, JobSpec) else JobSpec.from_dict(job) for job in jobs
    )
    if not job_specs:
        raise ValueError("custom scenario needs at least one job")
    names = [job.name for job in job_specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in custom scenario: {names}")
    if cluster is None:
        raise ValueError("custom scenario requires a 'cluster'")
    cluster_spec = (
        cluster if isinstance(cluster, ClusterSpec) else ClusterSpec.from_dict(cluster)
    )
    # Infeasible capacity fails here, at load time, not in a sweep worker
    # -- and against the *sum of replica floors*, which the built Scenario
    # only partially checks (one replica per job).
    floors = sum(job.min_replicas for job in job_specs)
    if cluster_spec.total_replicas < floors:
        raise ValueError(
            f"cluster of {cluster_spec.total_replicas} replicas cannot host "
            f"{len(job_specs)} job(s) whose min_replicas floors sum to {floors}"
        )
    # A throughput matrix row for a model no job uses is a typo, not a
    # forward declaration -- fail at load time like every other bad key.
    fleet = cluster_spec.to_fleet()
    if fleet is not None and fleet.speedups:
        model_names = {job.resolve_model().name for job in job_specs}
        unknown_models = set(fleet.speedups) - model_names
        if unknown_models:
            raise ValueError(
                f"cluster throughput matrix references model(s) "
                f"{sorted(unknown_models)} not used by any job; job models: "
                f"{sorted(model_names)}"
            )
    train_minutes = _coerce_whole(train_minutes, "train_minutes", minimum=1)
    if train_minutes is None and any(job.train_trace is None for job in job_specs):
        raise ValueError(
            "custom scenario requires 'train_minutes' (the train/eval "
            "split point) when a job has no explicit 'train_trace'"
        )
    for job in job_specs:
        job.validate()
    return _ParsedCustom(
        jobs=job_specs,
        cluster=cluster_spec,
        train_minutes=train_minutes,
        eval_offset_minutes=_coerce_whole(
            eval_offset_minutes, "eval_offset_minutes", optional=False
        ),
        # None means "no trim"; an explicit 0 is ambiguous (unlimited?
        # empty?) and must fail loudly instead of silently meaning None.
        duration_minutes=_coerce_whole(
            duration_minutes, "duration_minutes", minimum=1
        ),
        history_prefix_minutes=_coerce_whole(
            history_prefix_minutes, "history_prefix_minutes", optional=False
        ),
    )


def custom_scenario(
    jobs: Sequence[Any] = (),
    cluster: Any = None,
    name: str = "custom",
    train_minutes: int | None = None,
    eval_offset_minutes: int = 0,
    duration_minutes: int | None = None,
    history_prefix_minutes: int = 16,
    rate_scale: float = 1.0,
    metadata: Mapping[str, Any] | None = None,
) -> Scenario:
    """Build a :class:`Scenario` from Trace/Job/Cluster specs alone.

    The one scenario builder: every built-in kind is a lowering onto these
    parameters (:func:`lower_paper` and friends).  Per job: its ``trace``
    pipeline generates the full series, split at ``train_minutes`` into
    predictor-training and evaluation halves (or the job's ``train_trace``
    pipeline supplies training data and the whole ``trace`` evaluates).
    ``eval_offset_minutes`` skips into the evaluation series,
    ``duration_minutes`` trims it, all jobs are cut to the shortest
    evaluation window, and the ``history_prefix_minutes`` immediately
    preceding the window seed the predictors' rate histories.
    """
    parsed = _parse_custom(
        jobs,
        cluster,
        train_minutes,
        eval_offset_minutes,
        duration_minutes,
        history_prefix_minutes,
    )
    rate_scale = _coerce_rate_scale(rate_scale)
    eval_traces: dict[str, np.ndarray] = {}
    train_traces: dict[str, np.ndarray] = {}
    history_prefix: dict[str, np.ndarray] = {}
    for job in parsed.jobs:
        full = job.trace.build()
        if job.train_trace is not None:
            train = job.train_trace.build()
            eval_full = full
        else:
            cut = parsed.train_minutes
            if cut >= full.shape[0]:
                raise ValueError(
                    f"job {job.name!r}: trace of {full.shape[0]} minutes has "
                    f"no data after train_minutes={cut}"
                )
            train = full[:cut]
            eval_full = full[cut:]
        series = eval_full
        if parsed.eval_offset_minutes:
            series = series[parsed.eval_offset_minutes:]
        if parsed.duration_minutes is not None:
            series = series[: parsed.duration_minutes]
        if series.size == 0:
            raise ValueError(
                f"job {job.name!r} has an empty evaluation window (offset "
                f"{parsed.eval_offset_minutes} past {eval_full.shape[0]} minutes)"
            )
        eval_traces[job.name] = series
        train_traces[job.name] = train
        # The minutes immediately preceding the evaluation window seed the
        # predictors' rate histories, spanning the train/eval boundary when
        # the offset is small.  Only those minutes are copied: a slice of
        # the joined trace would keep a second copy of all of it alive.
        offset = parsed.eval_offset_minutes
        start = train.shape[0] + offset - parsed.history_prefix_minutes
        history_prefix[job.name] = np.concatenate(
            [train[max(start, 0):], eval_full[max(start - train.shape[0], 0) : offset]]
        )
    minutes = min(series.shape[0] for series in eval_traces.values())
    eval_traces = {name_: series[:minutes] for name_, series in eval_traces.items()}
    return Scenario(
        name=name,
        jobs=[job.to_inference_spec() for job in parsed.jobs],
        eval_traces=eval_traces,
        train_traces=train_traces,
        total_replicas=parsed.cluster.total_replicas,
        duration_minutes=minutes,
        rate_scale=rate_scale,
        history_prefix=history_prefix,
        metadata=dict(metadata or {}),
        devices=parsed.cluster.to_fleet(),
    )


def validate_custom_params(params: Mapping[str, Any]) -> None:
    """Load-time validation hook: full parse, zero trace generation."""
    params = dict(params)
    _parse_custom(
        params.get("jobs", ()),
        params.get("cluster"),
        params.get("train_minutes"),
        params.get("eval_offset_minutes", 0),
        params.get("duration_minutes"),
        params.get("history_prefix_minutes", 16),
    )
    _coerce_rate_scale(params.get("rate_scale", 1.0))


# ----------------------------------------------------------------- lowering


def _mix_job(
    index: int, days: int, seed: int, rate_hi: float, model: str
) -> dict[str, Any]:
    """Job ``index`` of the paper mix as a composed job spec (dict form)."""
    source, source_params = standard_mix_source(index, days, seed)
    return JobSpec(
        name=f"job{index:02d}-{source}",
        model=model,
        trace=TraceSpec(
            source=source,
            params=source_params,
            transforms=(
                TransformStep(name="rescale", params={"lo": 1.0, "hi": rate_hi}),
            ),
        ),
    ).to_dict()


def _lower_mix(
    name: str,
    models: Sequence[str],
    total_replicas: int,
    metadata: Mapping[str, Any],
    *,
    days: Any,
    seed: Any,
    rate_hi: Any,
    duration_minutes: Any,
    rate_scale: Any,
    eval_offset_minutes: Any,
) -> dict[str, Any]:
    """``custom`` parameters of one job per model on the paper's trace mix:
    days 1..days-1 train the predictors, the last day evaluates."""
    days = _coerce_whole(days, "days", optional=False)
    if days < 2:
        raise ValueError(f"need >= 2 days for a train/eval split, got {days}")
    seed = _coerce_whole(seed, "seed", optional=False)
    rate_hi = float(rate_hi)
    return {
        "name": name,
        "jobs": [
            _mix_job(index, days, seed, rate_hi, model)
            for index, model in enumerate(models)
        ],
        "cluster": {"total_replicas": total_replicas},
        "train_minutes": (days - 1) * MINUTES_PER_DAY,
        "eval_offset_minutes": _coerce_whole(
            eval_offset_minutes, "eval_offset_minutes", optional=False
        ),
        # The built-in kinds treat any falsy duration (None or 0) as "no
        # trim"; the custom kind spells that None and rejects a bare 0.
        "duration_minutes": _coerce_whole(duration_minutes, "duration_minutes")
        or None,
        "rate_scale": float(rate_scale),
        "metadata": dict(metadata),
    }


def lower_paper(
    size: str | int = "SO",
    num_jobs: int = 10,
    duration_minutes: int | None = 360,
    rate_scale: float = 1.0,
    days: int = 11,
    rate_hi: float = 1600.0,
    eval_offset_minutes: int = 480,
    seed: int = 0,
) -> dict[str, Any]:
    """The ``paper`` kind (§6): ``num_jobs`` ResNet34 jobs on the
    Azure+Twitter mix, as ``custom`` parameters.

    ``size`` picks the cluster ("RS"/"SO"/"HO" or an explicit replica
    count).  ``duration_minutes`` trims the evaluation day (the paper's
    cluster runs compress the day into ~6 hours; benches use shorter
    windows).  ``eval_offset_minutes`` skips into the evaluation day so the
    window covers rising diurnal load rather than the quiet early morning.
    """
    if isinstance(size, str):
        if size not in CLUSTER_SIZES:
            raise ValueError(
                f"unknown size {size!r}; expected one of {list(CLUSTER_SIZES)}"
            )
        total, label = CLUSTER_SIZES[size], size
    else:
        total = _coerce_whole(size, "size", optional=False)
        label = str(total)
    num_jobs = _coerce_whole(num_jobs, "num_jobs", minimum=1, optional=False)
    return _lower_mix(
        f"paper-{label}-{num_jobs}jobs",
        ["resnet34"] * num_jobs,
        total,
        {"size": label},
        days=days,
        seed=seed,
        rate_hi=rate_hi,
        duration_minutes=duration_minutes,
        rate_scale=rate_scale,
        eval_offset_minutes=eval_offset_minutes,
    )


def lower_mixed(
    total_replicas: int = 36,
    num_jobs: int = 10,
    duration_minutes: int | None = 360,
    rate_scale: float = 1.0,
    days: int = 11,
    eval_offset_minutes: int = 480,
    seed: int = 0,
) -> dict[str, Any]:
    """The ``mixed`` kind (§6.3): alternating ResNet18 (400 ms SLO) and
    ResNet34 jobs, as ``custom`` parameters."""
    total = _coerce_whole(total_replicas, "total_replicas", optional=False)
    num_jobs = _coerce_whole(num_jobs, "num_jobs", minimum=1, optional=False)
    return _lower_mix(
        f"mixed-{total}r-{num_jobs}jobs",
        ["resnet18" if index % 2 == 0 else "resnet34" for index in range(num_jobs)],
        total,
        {"size": "mixed"},
        days=days,
        seed=seed,
        rate_hi=1600.0,
        duration_minutes=duration_minutes,
        rate_scale=rate_scale,
        eval_offset_minutes=eval_offset_minutes,
    )


def lower_large_scale(
    num_jobs: int = 20,
    total_replicas: int = 70,
    duration_minutes: int | None = 240,
    rate_scale: float = 1.0,
    days: int = 11,
    eval_offset_minutes: int = 480,
    seed: int = 0,
) -> dict[str, Any]:
    """The ``large-scale`` kind (§6.5): the paper mix duplicated to
    ``num_jobs`` ResNet34 jobs, as ``custom`` parameters.

    Paper configurations: 20 jobs / 70 replicas (cluster) and
    100 jobs / 320 replicas (simulation).
    """
    num_jobs = _coerce_whole(num_jobs, "num_jobs", minimum=1, optional=False)
    total = _coerce_whole(total_replicas, "total_replicas", optional=False)
    return _lower_mix(
        f"scale-{num_jobs}jobs-{total}r",
        ["resnet34"] * num_jobs,
        total,
        {"size": f"{num_jobs}jobs"},
        days=days,
        seed=seed,
        rate_hi=1600.0,
        duration_minutes=duration_minutes,
        rate_scale=rate_scale,
        eval_offset_minutes=eval_offset_minutes,
    )


def lower_custom(params: Mapping[str, Any]) -> dict[str, Any]:
    """The ``custom`` kind is already the composed form: lowering is identity."""
    return dict(params)
