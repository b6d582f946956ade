"""Serializable experiment specs: scenarios, policies, whole experiments.

A complete comparison experiment -- which scenarios, which policies with
which options, how many trials, which simulator, which seeds -- is a value,
not code.  The three frozen dataclasses here round-trip losslessly through
``to_dict``/``from_dict`` and JSON/YAML files, so an experiment is a
reviewable artifact::

    spec = ExperimentSpec.from_file("specs/paper_headline.json")
    report = repro.api.run(spec)

Spec-file shape (JSON shown; YAML is accepted with the same keys)::

    {
      "version": 1,
      "name": "headline",
      "scenarios": [{"kind": "paper", "params": {"size": "SO"}}],
      "policies": [{"name": "fairshare"},
                   {"name": "faro-fairsum", "options": {"hybrid": true}}],
      "trials": 1,
      "seed": 0,
      "simulator": "request",
      "predictor_profile": "fast"
    }

``simulator`` (spec files may also spell it ``backend``) names any
registered simulation backend -- ``request``, ``flow``, ``hybrid``, or a
plugin (see :mod:`repro.sim.backends`); the optional ``backend_options``
mapping carries that backend's typed options, e.g.::

      "simulator": "hybrid",
      "backend_options": {"auto_request_jobs": 2}

Unknown keys raise ``ValueError`` everywhere: a typo in a spec file fails
at load time, not as a silently-ignored setting.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["SPEC_VERSION", "ScenarioSpec", "PolicySpec", "ExperimentSpec"]

#: Current spec-file schema version.
SPEC_VERSION = 1


def _backend_registry():
    """The simulation-backend registry, imported lazily.

    Spec construction must stay importable without dragging in the whole
    simulation stack unless a simulator name actually needs resolving.
    """
    from repro.sim.backends import get_backend_registry

    return get_backend_registry()


def _plain(value: Any) -> Any:
    """Deep-copy ``value`` into plain JSON types (tuples become lists)."""
    if isinstance(value, Mapping):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"value {value!r} is not JSON-serializable")


def _normalize(value: Any) -> Any:
    """Canonicalize spec containers at construction time.

    Tuples become lists and mapping keys become strings -- the shapes JSON
    produces -- so ``from_dict(to_dict(spec)) == spec`` holds even when the
    caller passed tuples (e.g. ``sim_overrides={"cold_start_range":
    (5.0, 5.0)}``).  Unlike :func:`_plain`, rich non-JSON values (such as a
    ``PredictorProfile`` passed programmatically) are left untouched; they
    only fail later, at ``to_dict`` time, if actually serialized.
    """
    if isinstance(value, Mapping):
        return {str(k): _normalize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_normalize(v) for v in value]
    return value


def _check_keys(data: Mapping[str, Any], allowed: set[str], what: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(
            f"unknown key(s) {sorted(unknown)} in {what}; accepted: {sorted(allowed)}"
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario as a value: registered kind + its parameters.

    ``name`` optionally overrides the built scenario's display name (useful
    when the same kind appears twice with different parameters).
    """

    kind: str = "paper"
    params: dict[str, Any] = field(default_factory=dict)
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("scenario kind must be non-empty")
        object.__setattr__(self, "params", _normalize(self.params))

    def build(self):
        """Materialize into a :class:`~repro.experiments.scenarios.Scenario`."""
        from repro.api.scenarios import build_scenario

        return build_scenario(self)

    def lower(self) -> "ScenarioSpec":
        """Re-express this spec as the fully-composed ``custom`` kind.

        The built-in kinds ``paper``/``mixed``/``large-scale`` are
        lowerings onto ``custom``: this returns the very ``custom`` spec
        they build through, with every job, trace pipeline and cluster
        spelled out, so both build the same scenario; ``custom`` lowers to
        itself.  Kinds registered without a lowering hook raise
        ``ValueError``.
        """
        from repro.api.scenarios import get_scenario_registry

        info = get_scenario_registry().get(self.kind)
        if info.lower is None:
            raise ValueError(
                f"scenario kind {info.name!r} does not support lowering "
                "(no lower hook registered)"
            )
        info.check_param_names(self.params)  # kind-named error for typos
        return ScenarioSpec(
            kind="custom", params=info.lower(dict(self.params)), name=self.name
        )

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind, "params": _plain(self.params)}
        if self.name is not None:
            data["name"] = self.name
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        _check_keys(data, {"kind", "params", "name"}, "scenario spec")
        return cls(
            kind=data.get("kind", "paper"),
            params=dict(data.get("params", {})),
            name=data.get("name"),
        )


@dataclass(frozen=True)
class PolicySpec:
    """A policy as a value: registry name + typed options.

    ``options`` is validated against the policy's registered config type at
    build time (see :meth:`repro.api.PolicyRegistry.parse_options`).
    ``label`` overrides the name used in reports, so one policy can appear
    twice with different options.
    """

    name: str
    options: dict[str, Any] = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("policy name must be non-empty")
        object.__setattr__(self, "options", _normalize(self.options))

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else self.name

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"name": self.name}
        if self.options:
            data["options"] = _plain(self.options)
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | str) -> "PolicySpec":
        if isinstance(data, str):
            return cls(name=data)
        _check_keys(data, {"name", "options", "label"}, "policy spec")
        if "name" not in data:
            raise ValueError("policy spec requires a 'name'")
        return cls(
            name=data["name"],
            options=dict(data.get("options", {})),
            label=data.get("label"),
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A whole experiment: scenarios x policies x trials, plus run settings.

    ``predictor_profile`` is the shared training budget for policies that
    use trained workload predictors: ``"fast"``, ``"paper"``, a mapping of
    :class:`~repro.experiments.policies.PredictorProfile` fields, or
    ``None`` (policy defaults).  Per-policy options may still override it.
    ``sim_overrides`` passes extra
    :class:`~repro.sim.harness.SimulationConfig` fields (e.g.
    ``cold_start_range``, ``faults``) through to every trial.

    ``simulator`` names a registered simulation backend
    (:mod:`repro.sim.backends`; ``repro-faro backends list`` shows the
    catalog -- ``request``, ``flow``, ``hybrid``, plus plugins).  Spec
    files may spell the key ``backend`` instead.  ``backend_options``
    carries that backend's typed options (e.g. the hybrid backend's
    ``request_jobs``); unknown backends and unknown option keys fail at
    load/validation time, exactly like policy options.
    """

    name: str
    scenarios: tuple[ScenarioSpec, ...]
    policies: tuple[PolicySpec, ...]
    trials: int = 1
    seed: int = 0
    simulator: str = "request"
    predictor_profile: str | dict[str, Any] | None = None
    sim_overrides: dict[str, Any] = field(default_factory=dict)
    backend_options: dict[str, Any] = field(default_factory=dict)
    description: str = ""
    #: Load-time provenance: the directory the spec file came from, used
    #: to resolve relative replay-trace paths (including in pickled sweep
    #: workers).  Not part of the experiment's identity -- excluded from
    #: comparisons, ``to_dict``, and digests -- but a declared field so
    #: every ``dataclasses.replace``-derived spec keeps it automatically.
    spec_dir: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("experiment name must be non-empty")
        scenarios = tuple(
            s if isinstance(s, ScenarioSpec) else ScenarioSpec.from_dict(s)
            for s in self.scenarios
        )
        policies = tuple(
            p if isinstance(p, PolicySpec) else PolicySpec.from_dict(p)
            for p in self.policies
        )
        if not scenarios:
            raise ValueError("experiment needs at least one scenario")
        if not policies:
            raise ValueError("experiment needs at least one policy")
        labels = [p.display_label for p in policies]
        if len(set(labels)) != len(labels):
            raise ValueError(
                f"policy labels must be unique, got {labels}; "
                "set 'label' to disambiguate repeated policies"
            )
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        registry = _backend_registry()
        if self.simulator not in registry:
            raise ValueError(
                f"unknown simulator {self.simulator!r}; expected one of "
                f"{registry.names()} (or a registered alias)"
            )
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "policies", policies)
        object.__setattr__(self, "sim_overrides", _normalize(self.sim_overrides))
        object.__setattr__(self, "backend_options", _normalize(self.backend_options))
        if isinstance(self.predictor_profile, (Mapping, list, tuple)):
            object.__setattr__(
                self, "predictor_profile", _normalize(self.predictor_profile)
            )

    # ------------------------------------------------------- construction

    @classmethod
    def compare(
        cls,
        name: str,
        scenario: ScenarioSpec | Sequence[ScenarioSpec],
        policies: Sequence[PolicySpec | str],
        **settings: Any,
    ) -> "ExperimentSpec":
        """Convenience: one-or-more scenarios x a list of policy names/specs."""
        scenarios = (
            (scenario,) if isinstance(scenario, ScenarioSpec) else tuple(scenario)
        )
        specs = tuple(
            p if isinstance(p, PolicySpec) else PolicySpec(name=p) for p in policies
        )
        return cls(name=name, scenarios=scenarios, policies=specs, **settings)

    def lower(self) -> "ExperimentSpec":
        """The same experiment with every scenario lowered to ``custom``.

        Useful for freezing an experiment: the lowered spec file spells
        out every job, trace pipeline, and cluster explicitly instead of
        naming a built-in kind, and simulates bit-identically.
        ``spec_dir`` provenance rides along as a declared field.
        """
        return replace(self, scenarios=tuple(s.lower() for s in self.scenarios))

    # ------------------------------------------------------ serialization

    def to_dict(self) -> dict[str, Any]:
        data = {
            "version": SPEC_VERSION,
            "name": self.name,
            "description": self.description,
            "scenarios": [s.to_dict() for s in self.scenarios],
            "policies": [p.to_dict() for p in self.policies],
            "trials": self.trials,
            "seed": self.seed,
            "simulator": self.simulator,
            "predictor_profile": _plain(self.predictor_profile),
            "sim_overrides": _plain(self.sim_overrides),
        }
        # Emitted only when set: legacy specs keep byte-identical dumps.
        if self.backend_options:
            data["backend_options"] = _plain(self.backend_options)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        _check_keys(
            data,
            {
                "version",
                "name",
                "description",
                "scenarios",
                "policies",
                "trials",
                "seed",
                "simulator",
                "backend",
                "predictor_profile",
                "sim_overrides",
                "backend_options",
            },
            "experiment spec",
        )
        version = data.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported spec version {version!r}; this build reads "
                f"version {SPEC_VERSION}"
            )
        if "name" not in data:
            raise ValueError("experiment spec requires a 'name'")
        # "backend" is an input-side alias for "simulator" (the canonical,
        # serialized key): spec files written around the backend registry
        # read more naturally with it.
        simulator = data.get("simulator")
        backend = data.get("backend")
        if simulator is not None and backend is not None and simulator != backend:
            raise ValueError(
                f"spec sets both simulator={simulator!r} and "
                f"backend={backend!r}; use one (they are aliases)"
            )
        profile = data.get("predictor_profile")
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            scenarios=tuple(
                ScenarioSpec.from_dict(s) for s in data.get("scenarios", ())
            ),
            policies=tuple(PolicySpec.from_dict(p) for p in data.get("policies", ())),
            trials=int(data.get("trials", 1)),
            seed=int(data.get("seed", 0)),
            simulator=simulator if simulator is not None else (backend or "request"),
            predictor_profile=(
                dict(profile) if isinstance(profile, Mapping) else profile
            ),
            sim_overrides=dict(data.get("sim_overrides", {})),
            backend_options=dict(data.get("backend_options", {})),
        )

    # ------------------------------------------------------------ file IO

    def to_file(self, path: str | Path) -> Path:
        """Write the spec as JSON (default) or YAML (``.yaml``/``.yml``)."""
        path = Path(path)
        data = self.to_dict()
        if path.suffix.lower() in (".yaml", ".yml"):
            path.write_text(_yaml().safe_dump(data, sort_keys=False))
        else:
            path.write_text(json.dumps(data, indent=2) + "\n")
        return path

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentSpec":
        """Load a spec from a JSON or YAML file (decided by suffix)."""
        data, spec_dir = _read_spec_file(path)
        # Remember where the spec came from so relative replay-file paths
        # can resolve against the spec's own directory -- including in
        # sweep workers, which receive this object pickled.  ``spec_dir``
        # is a declared (non-compared, non-serialized) field, so the
        # derived instance is built with ``replace`` instead of mutating a
        # frozen value after the fact.
        return replace(cls.from_dict(data), spec_dir=spec_dir)


def _read_spec_file(path: str | Path) -> tuple[Mapping[str, Any], str]:
    """The mapping a JSON or YAML (by suffix) spec file holds, and its
    resolved directory.

    Malformed JSON or YAML, or a document that is not a mapping, raises
    ``ValueError`` naming the file; a YAML file without PyYAML installed
    raises ``RuntimeError``.
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() in (".yaml", ".yml"):
        yaml = _yaml()
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValueError(f"invalid YAML in {path}: {_yaml_error(exc)}") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(data, Mapping):
        raise ValueError(f"spec file {path} must contain a mapping")
    return data, str(path.parent.resolve())


def _yaml_error(exc: Exception) -> str:
    """One line for a PyYAML error, in the shape of a JSON decode error:
    the problem and its 1-based line and column, else the first line."""
    problem = getattr(exc, "problem", None)
    mark = getattr(exc, "problem_mark", None)
    if problem and mark is not None:
        return f"{problem}: line {mark.line + 1} column {mark.column + 1}"
    return str(exc).strip().splitlines()[0]


def _yaml():
    """PyYAML, imported lazily so JSON-only installs still work."""
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - environment-dependent
        raise RuntimeError(
            "YAML spec files need the optional 'pyyaml' package; "
            "use JSON specs instead"
        ) from exc
    return yaml
