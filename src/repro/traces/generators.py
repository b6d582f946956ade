"""Trace *sources*: the registry of named arrival-rate generators.

A trace pipeline (:class:`repro.api.composition.TraceSpec`) starts from one
registered source -- a callable producing a per-minute requests/minute
series from keyword parameters -- and threads it through registered
transforms (:mod:`repro.traces.transforms`).  Sources are declarative
building blocks: every parameter is a plain JSON value, so a spec file can
name any source without writing Python.

Built-in catalog:

- ``azure`` / ``twitter`` -- the synthetic paper workloads
  (:mod:`repro.traces.azure` / ``.twitter``), exposed with their full
  config surface;
- ``constant`` / ``diurnal`` / ``ramp`` / ``spike-train`` -- deterministic
  primitives for composing workloads the frozen paper mixes cannot
  express (steady floors, sinusoidal days, load ramps, periodic bursts);
- ``file`` -- replay from a CSV (``save_trace_csv`` format), a job-mix
  JSON (``save_job_mix_json`` format, one named job), or a ``.npy`` array,
  so real captured traces drop in without touching experiment code.

Plugins register more with :func:`register_trace_source`.
"""

from __future__ import annotations

import contextlib
import dataclasses
from pathlib import Path
from typing import Any, Callable, ClassVar, Iterator, Mapping

import numpy as np

from repro.registry import ParamEntry, Registry
from repro.traces.azure import AzureTraceConfig, generate_azure_trace
from repro.traces.twitter import TwitterTraceConfig, generate_twitter_trace

__all__ = [
    "TraceSourceInfo",
    "TraceSourceRegistry",
    "register_trace_source",
    "get_trace_source_registry",
    "resolve_trace_path",
    "trace_search_path",
]


#: Stack of directories spec files were loaded from; ``file`` trace paths
#: resolve against these (innermost last) after the working directory.
_SPEC_DIRS: list[Path] = []


@contextlib.contextmanager
def trace_search_path(directory: str | Path | None) -> Iterator[None]:
    """Resolve relative ``file`` trace paths against ``directory`` too.

    Entered around spec validation and scenario builds with the spec
    file's directory, so a spec can name replay files relative to itself
    no matter the process working directory.  ``None`` is a no-op (specs
    built from literal dicts have no home directory).  Reentrant: nested
    contexts stack, innermost directory wins.
    """
    if directory is None:
        yield
        return
    _SPEC_DIRS.append(Path(directory))
    try:
        yield
    finally:
        _SPEC_DIRS.pop()


def resolve_trace_path(path: str | Path) -> Path:
    """Resolve a ``file`` trace path.

    Absolute paths pass through untouched (the escape hatch).  Relative
    paths keep their historical working-directory meaning when such a file
    exists; otherwise the directories of the spec files currently being
    loaded are tried, innermost first.  When nothing matches, the
    CWD-relative path is returned so the caller's error names the primary
    location.
    """
    path = Path(path)
    if path.is_absolute() or path.is_file():
        return path
    for directory in reversed(_SPEC_DIRS):
        candidate = directory / path
        if candidate.is_file():
            return candidate
    return path


SourceFn = Callable[..., np.ndarray]


@dataclasses.dataclass(frozen=True, kw_only=True)
class TraceSourceInfo(ParamEntry):
    """One registered trace source."""

    noun: ClassVar[str] = "trace source"

    #: Optional dataclass whose fields define the parameter surface (used
    #: when ``fn`` takes ``**params`` and forwards them to a config type).
    params_from: type | None = None

    def param_names(self) -> tuple[str, ...]:
        if self.params_from is not None:
            return tuple(f.name for f in dataclasses.fields(self.params_from))
        return super().param_names()

    def accepts_any_params(self) -> bool:
        return self.params_from is None and super().accepts_any_params()


class TraceSourceRegistry(Registry[TraceSourceInfo]):
    """Name -> :class:`TraceSourceInfo`, case-insensitive, registration order."""

    entry_type = TraceSourceInfo

    def build(self, name: str, params: Mapping[str, Any] | None = None) -> np.ndarray:
        """Generate a source's series; unknown parameters raise ValueError."""
        info = self.get(name)
        params = dict(params or {})
        info.check_params(params)
        series = np.asarray(info.fn(**params), dtype=float)
        if series.ndim != 1 or series.size == 0:
            raise ValueError(
                f"trace source {info.name!r} must produce a non-empty 1-D "
                f"series, got shape {series.shape}"
            )
        if np.any(series < 0):
            raise ValueError(f"trace source {info.name!r} produced negative rates")
        return series


_DEFAULT_SOURCES = TraceSourceRegistry()


def get_trace_source_registry() -> TraceSourceRegistry:
    """The process-wide default :class:`TraceSourceRegistry`."""
    return _DEFAULT_SOURCES


def register_trace_source(
    name: str,
    *,
    description: str = "",
    params_from: type | None = None,
    validate: Callable[[dict[str, Any]], None] | None = None,
) -> Callable[[SourceFn], SourceFn]:
    """Register a trace source on the default registry (decorator)."""
    return _DEFAULT_SOURCES.register(
        name, description=description, params_from=params_from, validate=validate
    )


# ---------------------------------------------------------------- builtins


def _validate_config_params(config_type: type) -> Callable[[dict[str, Any]], None]:
    def validate(params: dict[str, Any]) -> None:
        config_type(**params)  # field validation without generating a trace

    return validate


@register_trace_source(
    "azure",
    description="Synthetic Azure-Functions-like diurnal/bursty trace (paper's 9 shapes).",
    params_from=AzureTraceConfig,
    validate=_validate_config_params(AzureTraceConfig),
)
def _azure_source(**params) -> np.ndarray:
    return generate_azure_trace(AzureTraceConfig(**params))


@register_trace_source(
    "twitter",
    description="Synthetic Twitter-stream-like trace (skewed diurnal, heavy tails, spikes).",
    params_from=TwitterTraceConfig,
    validate=_validate_config_params(TwitterTraceConfig),
)
def _twitter_source(**params) -> np.ndarray:
    return generate_twitter_trace(TwitterTraceConfig(**params))


def _check_positive_minutes(minutes: int) -> int:
    minutes = int(minutes)
    if minutes < 1:
        raise ValueError(f"minutes must be >= 1, got {minutes}")
    return minutes


@register_trace_source(
    "constant", description="Flat rate: `level` requests/minute for `minutes`."
)
def _constant_source(minutes: int = 1440, level: float = 100.0) -> np.ndarray:
    minutes = _check_positive_minutes(minutes)
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    return np.full(minutes, float(level))


@register_trace_source(
    "diurnal",
    description="Sinusoidal day: base_level * (1 + amplitude*sin), optional phase.",
)
def _diurnal_source(
    minutes: int = 1440,
    base_level: float = 100.0,
    amplitude: float = 0.5,
    period_minutes: int = 1440,
    phase_minutes: float = 0.0,
) -> np.ndarray:
    minutes = _check_positive_minutes(minutes)
    if base_level < 0:
        raise ValueError(f"base_level must be >= 0, got {base_level}")
    if not 0.0 <= amplitude <= 1.0:
        raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
    if period_minutes < 1:
        raise ValueError(f"period_minutes must be >= 1, got {period_minutes}")
    t = np.arange(minutes, dtype=float)
    phase = 2.0 * np.pi * (t + phase_minutes) / float(period_minutes)
    return np.maximum(base_level * (1.0 + amplitude * np.sin(phase)), 0.0)


@register_trace_source(
    "ramp", description="Linear ramp from `start` to `stop` requests/minute."
)
def _ramp_source(
    minutes: int = 1440, start: float = 0.0, stop: float = 100.0
) -> np.ndarray:
    minutes = _check_positive_minutes(minutes)
    if start < 0 or stop < 0:
        raise ValueError("ramp endpoints must be >= 0")
    return np.linspace(float(start), float(stop), minutes)


@register_trace_source(
    "spike-train",
    description=(
        "Periodic spikes with geometric decay on a flat base (flash crowds "
        "on a schedule)."
    ),
)
def _spike_train_source(
    minutes: int = 1440,
    base_level: float = 50.0,
    period_minutes: int = 120,
    magnitude: float = 400.0,
    decay: float = 0.7,
    offset_minutes: int = 0,
) -> np.ndarray:
    minutes = _check_positive_minutes(minutes)
    if base_level < 0 or magnitude < 0:
        raise ValueError("base_level and magnitude must be >= 0")
    if period_minutes < 1:
        raise ValueError(f"period_minutes must be >= 1, got {period_minutes}")
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay must be in (0, 1), got {decay}")
    if offset_minutes < 0:
        raise ValueError(f"offset_minutes must be >= 0, got {offset_minutes}")
    series = np.full(minutes, float(base_level))
    for start in range(int(offset_minutes), minutes, int(period_minutes)):
        level = float(magnitude)
        step = start
        while level > 0.01 and step < minutes:
            series[step] += level
            level *= decay
            step += 1
    return series


_FILE_SUFFIXES = (".csv", ".json", ".npy")


def _validate_file_params(params: dict[str, Any]) -> None:
    path = params.get("path")
    if not path:
        raise ValueError("file trace source requires a 'path'")
    path = resolve_trace_path(path)
    if path.suffix.lower() not in _FILE_SUFFIXES:
        raise ValueError(
            f"file trace source supports {_FILE_SUFFIXES}, got {path.suffix!r}"
        )
    if not path.is_file():
        raise ValueError(f"trace file {path} does not exist")


@register_trace_source(
    "file",
    description=(
        "Replay a trace file: CSV (minute,requests), job-mix JSON (pass "
        "`job` to pick one), or a .npy array.  Relative paths resolve "
        "against the working directory, then the spec file's directory."
    ),
    validate=_validate_file_params,
)
def _file_source(path: str = "", job: str | None = None) -> np.ndarray:
    _validate_file_params({"path": path})
    path = str(resolve_trace_path(path))
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        from repro.traces.io import load_trace_csv

        return load_trace_csv(path)
    if suffix == ".json":
        from repro.traces.io import load_job_mix_json

        jobs, _ = load_job_mix_json(path)
        by_name = {j.name: j for j in jobs}
        if job is None:
            if len(jobs) != 1:
                raise ValueError(
                    f"{path} holds {len(jobs)} traces; pass 'job' to pick one "
                    f"of {sorted(by_name)}"
                )
            return jobs[0].rates_per_min
        if job not in by_name:
            raise ValueError(f"no trace {job!r} in {path}; available: {sorted(by_name)}")
        return by_name[job].rates_per_min
    series = np.asarray(np.load(path), dtype=float)
    if series.ndim != 1:
        raise ValueError(f"{path} must hold a 1-D array, got shape {series.shape}")
    return series
