"""Scenario registry: named, parameterized cluster/workload setups.

A :class:`~repro.api.spec.ScenarioSpec` names a registered scenario *kind*
plus keyword parameters; :func:`build_scenario` resolves the kind here and
calls its factory.  Every built-in kind builds through the fully
declarative ``custom`` kind (:func:`repro.api.composition.custom_scenario`):
``paper``, ``mixed`` and ``large-scale`` are lowerings onto it, whose
keyword signatures are their parameter surfaces.  Plugins may register new
kinds with :func:`register_scenario` -- any callable returning a
:class:`~repro.experiments.scenarios.Scenario` qualifies.

Kinds may also carry two optional hooks:

- ``validate(params)`` runs at spec load/validation time for deep,
  cheap checks beyond parameter *names* (the ``custom`` kind resolves its
  whole job/trace pipeline graph here, and a built-in kind validates the
  ``custom`` parameters it lowers to, before anything simulates);
- ``lower(params)`` re-expresses the kind's parameters as equivalent
  ``custom``-kind parameters (see :meth:`repro.api.ScenarioSpec.lower`).
  Every built-in kind lowers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping

from repro.registry import ParamEntry, Registry, signature_params

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.spec import ScenarioSpec
    from repro.experiments.scenarios import Scenario

__all__ = [
    "ScenarioInfo",
    "ScenarioRegistry",
    "register_scenario",
    "get_scenario_registry",
    "build_scenario",
]

ScenarioFactory = Callable[..., "Scenario"]


@dataclass(frozen=True, kw_only=True)
class ScenarioInfo(ParamEntry):
    """One registered scenario kind; ``fn`` is its factory."""

    noun: ClassVar[str] = "scenario kind"

    #: Optional lowering hook: this kind's params -> equivalent params of
    #: the ``custom`` kind.  ``None`` means the kind cannot lower.
    lower: Callable[[Mapping[str, Any]], dict[str, Any]] | None = None

    def param_defaults(self) -> dict[str, Any]:
        """Defaults of the factory's keyword parameters (for the CLI)."""
        return signature_params(self.fn)[1]


class ScenarioRegistry(Registry[ScenarioInfo]):
    """Kind -> :class:`ScenarioInfo`, case-insensitive, registration order."""

    entry_type = ScenarioInfo

    def build(self, kind: str, params: Mapping[str, Any] | None = None) -> "Scenario":
        """Build a scenario of ``kind``; unknown parameters raise ValueError.

        Only parameter *names* are pre-checked here: the deep ``validate``
        hook belongs to spec load/validation time (``_validate_spec``,
        ``check_params``), and the factory is about to parse its own
        parameters anyway -- running the hook again would parse a composed
        scenario's whole job graph twice per build (once per shard in
        every sweep worker).
        """
        info = self.get(kind)
        params = dict(params or {})
        info.check_param_names(params)
        return info.fn(**params)


_DEFAULT_SCENARIOS = ScenarioRegistry()


def get_scenario_registry() -> ScenarioRegistry:
    """The process-wide default :class:`ScenarioRegistry`."""
    return _DEFAULT_SCENARIOS


def register_scenario(
    name: str,
    *,
    description: str = "",
    validate: Callable[[Mapping[str, Any]], None] | None = None,
    lower: Callable[[Mapping[str, Any]], dict[str, Any]] | None = None,
) -> Callable[[ScenarioFactory], ScenarioFactory]:
    """Register a scenario factory on the default registry (decorator)."""
    return _DEFAULT_SCENARIOS.register(
        name, description=description, validate=validate, lower=lower
    )


def build_scenario(spec: "ScenarioSpec") -> "Scenario":
    """Materialize a :class:`ScenarioSpec` into a concrete scenario.

    A ``spec.name`` override is applied on a *copy* of the factory's
    result: factories are free to cache or share Scenario instances, and
    renaming a shared instance in place would leak one spec's label into
    every later build.
    """
    scenario = _DEFAULT_SCENARIOS.build(spec.kind, spec.params)
    if spec.name and spec.name != scenario.name:
        scenario = replace(scenario, name=spec.name)
    return scenario


# ------------------------------------------------------- built-in kinds

# The composition module is a leaf (it does not import this one); the
# ``custom`` kind and the lowerings onto it all register here so the whole
# catalog assembles in one place.
from repro.api import composition as _composition  # noqa: E402


def _register_lowering(
    name: str, description: str, lower: Callable[..., dict[str, Any]]
) -> None:
    """Register kind ``name`` as the lowering ``lower`` onto ``custom``.

    ``lower``'s keyword signature is the kind's parameter surface; building
    the kind is ``custom_scenario(**lower(**params))``, and its ``validate``
    hook checks the lowered parameters without generating any trace.
    """

    @functools.wraps(lower)
    def build(**params: Any) -> "Scenario":
        return _composition.custom_scenario(**lower(**params))

    register_scenario(
        name,
        description=description,
        validate=lambda params: _composition.validate_custom_params(lower(**params)),
        lower=lambda params: lower(**params),
    )(build)


_register_lowering(
    "paper",
    "The paper's main setup (§6): N ResNet34 jobs on Azure+Twitter "
    "traces; size RS(36)/SO(32)/HO(16) or an explicit replica count.",
    _composition.lower_paper,
)
_register_lowering(
    "mixed",
    "Mixed workload (§6.3): alternating ResNet18/ResNet34 jobs.",
    _composition.lower_mixed,
)
_register_lowering(
    "large-scale",
    "Large-scale workloads (§6.5): duplicated job mixes.",
    _composition.lower_large_scale,
)

register_scenario(
    "custom",
    description=(
        "Fully declarative scenario: jobs (model/SLO/trace pipelines), "
        "cluster -- homogeneous (total_replicas) or heterogeneous "
        "(device_classes + per-model throughput matrix) -- and train/eval "
        "split from spec parameters alone."
    ),
    validate=_composition.validate_custom_params,
    lower=_composition.lower_custom,
)(_composition.custom_scenario)
