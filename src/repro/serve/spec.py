"""Serve specs: an experiment spec plus online-serving options.

A :class:`ServeSpec` is an :class:`~repro.api.spec.ExperimentSpec` (what
to run) paired with :class:`ServeOptions` (how to serve it).  Spec files
carry the serving block under a top-level ``"serve"`` key next to the
usual experiment keys::

    {
      "version": 1,
      "name": "replay-serve",
      "scenarios": [...], "policies": [...],
      "serve": {"window_minutes": 5}
    }

A file without a ``"serve"`` key loads with default options, so any
existing experiment spec can be served as-is.  The experiment half is
*the* experiment: ``repro.api.serve(spec)`` must produce a report
byte-identical to ``repro.api.run(spec.experiment)``, so the digest of
the serve run's merged report is the experiment spec's digest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping

from repro.api.spec import ExperimentSpec, _check_keys

__all__ = ["ServeOptions", "ServeSpec"]


@dataclass(frozen=True)
class ServeOptions:
    """How a spec is served: windows, pacing, degradation, streaming.

    ``tick_deadline_s`` enables graceful degradation: a solve that takes
    longer (or raises) holds the previous allocation and backs off for
    ``backoff_ticks`` ticks, doubling up to ``max_backoff_ticks`` while
    failures persist.  ``None`` (the default) disables the deadline --
    required for digest-pinned replays, where only a solver *exception*
    can trigger degradation.

    ``realtime`` paces the loop against the wall clock at
    ``realtime_speedup`` virtual seconds per wall second; accelerated
    (virtual-clock) serving is the default.  ``stream`` configures a
    :class:`~repro.serve.cursor.TailingFileCursor` over a live CSV
    (keys: ``path``, optional ``job``, ``horizon_minutes``); omitted, the
    scenario's own traces replay through a
    :class:`~repro.serve.cursor.ReplayCursor`.
    """

    window_minutes: int = 15
    tick_deadline_s: float | None = None
    backoff_ticks: int = 1
    max_backoff_ticks: int = 8
    checkpoint_ticks: int | None = None
    realtime: bool = False
    realtime_speedup: float = 1.0
    poll_seconds: float = 1.0
    stream: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.window_minutes < 1:
            raise ValueError(
                f"window_minutes must be >= 1, got {self.window_minutes}"
            )
        if self.tick_deadline_s is not None and self.tick_deadline_s <= 0:
            raise ValueError(
                f"tick_deadline_s must be positive, got {self.tick_deadline_s}"
            )
        if self.backoff_ticks < 1:
            raise ValueError(f"backoff_ticks must be >= 1, got {self.backoff_ticks}")
        if self.max_backoff_ticks < self.backoff_ticks:
            raise ValueError(
                f"max_backoff_ticks ({self.max_backoff_ticks}) must be >= "
                f"backoff_ticks ({self.backoff_ticks})"
            )
        if self.checkpoint_ticks is not None and self.checkpoint_ticks < 1:
            raise ValueError(
                f"checkpoint_ticks must be >= 1, got {self.checkpoint_ticks}"
            )
        if self.realtime_speedup <= 0:
            raise ValueError(
                f"realtime_speedup must be positive, got {self.realtime_speedup}"
            )
        if self.poll_seconds <= 0:
            raise ValueError(f"poll_seconds must be positive, got {self.poll_seconds}")
        if self.stream is not None:
            stream = dict(self.stream)
            _check_keys(stream, {"path", "job", "horizon_minutes"}, "serve stream")
            if not stream.get("path"):
                raise ValueError("serve stream requires a 'path'")
            object.__setattr__(self, "stream", stream)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "window_minutes": self.window_minutes,
            "tick_deadline_s": self.tick_deadline_s,
            "backoff_ticks": self.backoff_ticks,
            "max_backoff_ticks": self.max_backoff_ticks,
            "checkpoint_ticks": self.checkpoint_ticks,
            "realtime": self.realtime,
            "realtime_speedup": self.realtime_speedup,
            "poll_seconds": self.poll_seconds,
        }
        if self.stream is not None:
            data["stream"] = dict(self.stream)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeOptions":
        _check_keys(
            data,
            {
                "window_minutes",
                "tick_deadline_s",
                "backoff_ticks",
                "max_backoff_ticks",
                "checkpoint_ticks",
                "realtime",
                "realtime_speedup",
                "poll_seconds",
                "stream",
            },
            "serve options",
        )
        kwargs = dict(data)
        if "stream" in kwargs and kwargs["stream"] is not None:
            kwargs["stream"] = dict(kwargs["stream"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ServeSpec:
    """One online-serving run: an experiment plus its serving options."""

    experiment: ExperimentSpec
    serve: ServeOptions = field(default_factory=ServeOptions)

    def to_dict(self) -> dict[str, Any]:
        data = self.experiment.to_dict()
        data["serve"] = self.serve.to_dict()
        return data

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Any], *, spec_dir: str | None = None
    ) -> "ServeSpec":
        rest = dict(data)
        serve_block = rest.pop("serve", None) or {}
        experiment = ExperimentSpec.from_dict(rest)
        if spec_dir is not None:
            experiment = replace(experiment, spec_dir=spec_dir)
        return cls(experiment=experiment, serve=ServeOptions.from_dict(serve_block))

    @classmethod
    def from_file(cls, path: str | Path) -> "ServeSpec":
        """Load from JSON/YAML; a missing ``serve`` block means defaults."""
        path = Path(path)
        text = path.read_text()
        if path.suffix.lower() in (".yaml", ".yml"):
            import yaml

            data = yaml.safe_load(text)
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ValueError(f"invalid JSON in {path}: {exc}") from exc
        if not isinstance(data, Mapping):
            raise ValueError(f"spec file {path} must contain a mapping")
        return cls.from_dict(data, spec_dir=str(path.parent.resolve()))

    def to_file(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path
