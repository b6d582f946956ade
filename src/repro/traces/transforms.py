"""Trace *transforms*: the registry of named series -> series operators.

The second half of a trace pipeline (:class:`repro.api.composition.
TraceSpec`): after a registered source generates a per-minute series,
an ordered list of registered transforms reshapes it.  Transforms apply in
declaration order and every one preserves the trace invariant (1-D,
non-negative), so any pipeline of registered steps yields a valid arrival
trace.

Built-in catalog:

- ``rescale`` -- map into a [lo, hi] requests/minute band
  (:func:`repro.traces.scaling.rescale_trace`, the paper's 1-1600 band);
- ``clip`` -- hard floor/ceiling;
- ``time-shift`` -- rotate (wrap-around) or shift with edge padding;
- ``noise`` -- multiplicative lognormal noise, seeded;
- ``compress-windows`` -- average fixed windows
  (:func:`repro.traces.scaling.compress_windows`, the paper's 4-minute
  cluster compression);
- ``superpose`` -- add another trace pipeline's series (weighted);
- ``splice`` -- concatenate another trace pipeline's series (optionally
  replacing the tail from a cut point).

``superpose`` and ``splice`` take a nested trace pipeline under the
``trace`` parameter (declared via ``nested_params``), so composed
workloads -- a diurnal base plus a replayed burst, a synthetic ramp
spliced onto real data -- stay fully declarative and recursively
validated.  Plugins register more with :func:`register_trace_transform`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Mapping

import numpy as np

from repro.registry import ParamEntry, Registry
from repro.traces.scaling import compress_windows, rescale_trace

__all__ = [
    "TraceTransformInfo",
    "TraceTransformRegistry",
    "register_trace_transform",
    "get_trace_transform_registry",
]

TransformFn = Callable[..., np.ndarray]


@dataclass(frozen=True, kw_only=True)
class TraceTransformInfo(ParamEntry):
    """One registered trace transform: ``fn(series, **params) -> series``."""

    noun: ClassVar[str] = "trace transform"

    #: Parameter names whose values are *nested trace pipelines* (mappings
    #: with source/params/transforms keys).  The composition layer uses
    #: this to validate and build nested traces recursively.
    nested_params: tuple[str, ...] = ()

    def param_names(self) -> tuple[str, ...]:
        return tuple(n for n in super().param_names() if n != "series")


class TraceTransformRegistry(Registry[TraceTransformInfo]):
    """Name -> :class:`TraceTransformInfo`, case-insensitive, registration order."""

    entry_type = TraceTransformInfo

    def apply(
        self, name: str, series: np.ndarray, params: Mapping[str, Any] | None = None
    ) -> np.ndarray:
        """Apply one transform; unknown names/parameters raise ValueError."""
        info = self.get(name)
        params = dict(params or {})
        info.check_params(params)
        result = np.asarray(info.fn(np.asarray(series, dtype=float), **params), dtype=float)
        if result.ndim != 1 or result.size == 0:
            raise ValueError(
                f"trace transform {info.name!r} must produce a non-empty 1-D "
                f"series, got shape {result.shape}"
            )
        if np.any(result < 0):
            raise ValueError(f"trace transform {info.name!r} produced negative rates")
        return result


_DEFAULT_TRANSFORMS = TraceTransformRegistry()


def get_trace_transform_registry() -> TraceTransformRegistry:
    """The process-wide default :class:`TraceTransformRegistry`."""
    return _DEFAULT_TRANSFORMS


def register_trace_transform(
    name: str,
    *,
    description: str = "",
    nested_params: tuple[str, ...] = (),
) -> Callable[[TransformFn], TransformFn]:
    """Register a trace transform on the default registry (decorator)."""
    return _DEFAULT_TRANSFORMS.register(
        name, description=description, nested_params=tuple(nested_params)
    )


# ---------------------------------------------------------------- builtins


@register_trace_transform(
    "rescale",
    description="Rescale into the [lo, hi] requests/minute band (paper prep).",
)
def _rescale(
    series: np.ndarray,
    lo: float = 1.0,
    hi: float = 1600.0,
    percentile: float = 99.5,
) -> np.ndarray:
    return rescale_trace(series, lo, hi, percentile=percentile)


@register_trace_transform(
    "clip", description="Hard floor/ceiling on the per-minute rates."
)
def _clip(
    series: np.ndarray, lo: float = 0.0, hi: float | None = None
) -> np.ndarray:
    if lo < 0:
        raise ValueError(f"clip lo must be >= 0 (rates are non-negative), got {lo}")
    if hi is not None and hi < lo:
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    return np.clip(series, lo, hi)


@register_trace_transform(
    "time-shift",
    description=(
        "Shift the series by `minutes` (positive = later); mode 'roll' "
        "wraps around, 'pad' repeats the edge value."
    ),
)
def _time_shift(
    series: np.ndarray, minutes: int = 0, mode: str = "roll"
) -> np.ndarray:
    minutes = int(minutes)
    if mode not in ("roll", "pad"):
        raise ValueError(f"time-shift mode must be 'roll' or 'pad', got {mode!r}")
    if minutes == 0:
        return series
    if mode == "roll":
        return np.roll(series, minutes)
    shifted = np.empty_like(series)
    n = series.shape[0]
    k = max(min(minutes, n), -n)
    if k > 0:
        shifted[:k] = series[0]
        shifted[k:] = series[: n - k]
    else:
        shifted[n + k :] = series[-1]
        shifted[: n + k] = series[-k:]
    return shifted


@register_trace_transform(
    "noise",
    description="Multiplicative lognormal noise with `sigma`, seeded (reproducible).",
)
def _noise(series: np.ndarray, sigma: float = 0.1, seed: int = 0) -> np.ndarray:
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = np.random.default_rng(seed)
    return series * np.exp(rng.normal(0.0, sigma, size=series.shape[0]))


@register_trace_transform(
    "compress-windows",
    description="Average fixed `window`-minute windows (paper's 4-min compression).",
)
def _compress_windows(series: np.ndarray, window: int = 4) -> np.ndarray:
    return compress_windows(series, window=window)


def _build_nested(trace: Any, what: str) -> np.ndarray:
    """Build a nested trace pipeline given as a spec mapping."""
    if trace is None:
        raise ValueError(f"{what} requires a nested 'trace' pipeline")
    from repro.api.composition import TraceSpec

    if not isinstance(trace, TraceSpec):
        trace = TraceSpec.from_dict(trace)
    return trace.build()


@register_trace_transform(
    "superpose",
    description=(
        "Add another trace pipeline's series, weighted; result clipped at 0 "
        "and truncated to the shorter length."
    ),
    nested_params=("trace",),
)
def _superpose(
    series: np.ndarray, trace: Any = None, weight: float = 1.0
) -> np.ndarray:
    other = _build_nested(trace, "superpose")
    n = min(series.shape[0], other.shape[0])
    return np.maximum(series[:n] + weight * other[:n], 0.0)


@register_trace_transform(
    "mixture",
    description=(
        "Windowed superposition of nested pipelines: per `window`-minute "
        "window, a weight row (cycled from `weights`) blends the base "
        "series with each pipeline in `traces`."
    ),
    nested_params=("traces",),
)
def _mixture(
    series: np.ndarray,
    traces: Any = None,
    weights: Any = None,
    window: int = 60,
) -> np.ndarray:
    """Blend the base with N nested pipelines, re-weighted every window.

    ``weights`` is a list of rows, each ``[base_w, t1_w, ..., tN_w]``; row
    ``k`` scales window ``k`` and rows cycle when the series outlasts them.
    Omitted weights mean an unweighted sum (every component at 1.0).  All
    series are truncated to the shortest component.
    """
    if traces is None:
        raise ValueError("mixture requires a nested 'traces' list of pipelines")
    if isinstance(traces, (Mapping, str)):
        traces = [traces]
    others = [_build_nested(trace, "mixture") for trace in traces]
    if not others:
        raise ValueError("mixture requires at least one nested pipeline")
    window = int(window)
    if window < 1:
        raise ValueError(f"mixture window must be >= 1 minute, got {window}")
    k = len(others) + 1
    if weights is None:
        rows = np.ones((1, k))
    else:
        rows = np.asarray(weights, dtype=float)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != k:
            raise ValueError(
                f"mixture weights must be rows of {k} entries (base + "
                f"{len(others)} pipeline(s)), got shape {rows.shape}"
            )
        if np.any(rows < 0):
            raise ValueError("mixture weights must be non-negative")
    n = min(series.shape[0], *(other.shape[0] for other in others))
    components = np.stack([series[:n]] + [other[:n] for other in others])
    out = np.empty(n)
    for start in range(0, n, window):
        row = rows[(start // window) % rows.shape[0]]
        out[start : start + window] = row @ components[:, start : start + window]
    return np.maximum(out, 0.0)


@register_trace_transform(
    "splice",
    description=(
        "Concatenate another trace pipeline's series; with `at`, the base "
        "is cut there first (splice real data onto a synthetic prefix)."
    ),
    nested_params=("trace",),
)
def _splice(series: np.ndarray, trace: Any = None, at: int | None = None) -> np.ndarray:
    other = _build_nested(trace, "splice")
    if at is None:
        base = series
    else:
        at = int(at)
        if not 0 <= at <= series.shape[0]:
            raise ValueError(
                f"splice point {at} outside the base series of {series.shape[0]} minutes"
            )
        base = series[:at]
    return np.concatenate([base, other])
