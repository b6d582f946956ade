"""Analysis-pass registry: the catalog of static-analysis rules.

Every rule the linter can run -- the built-in determinism and contract
passes, user plugins -- is registered here under a stable pass id together
with a *typed* options dataclass and the checker callable.
:class:`AnalysisPassRegistry` is a :class:`repro.registry.Registry`, the
catalog class the policy, backend, scenario and trace registries share:
one lookup does resolution, option validation, and execution.

Registering a pass::

    from dataclasses import dataclass
    from repro.analysis import register_pass

    @dataclass(frozen=True)
    class MyOptions:
        max_widgets: int = 3

    @register_pass("widget-budget", description="No more than N widgets.",
                   config_type=MyOptions)
    def check_widgets(context, options):
        for node in ast.walk(context.tree):
            ...
            yield context.finding("widget-budget", node, "too many widgets")

File passes receive ``(ModuleContext, options)`` per linted file and
return/yield findings.  A pass registered with ``scope="project"``
instead receives ``(ProjectContext, options)`` once per lint run -- that
is how cross-file rules like the perf-gate pairing check run.  The pass
id is also the token the inline suppression syntax names:
``# repro: allow(widget-budget) -- reason``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Mapping

from repro.registry import Entry, Registry

__all__ = [
    "AnalysisPassInfo",
    "AnalysisPassRegistry",
    "register_pass",
    "get_pass_registry",
]

#: File passes: ``(ModuleContext, options) -> Iterable[Finding]``.
#: Project passes: ``(ProjectContext, options) -> Iterable[Finding]``.
PassFn = Callable[[Any, Any], Any]

_SCOPES = ("file", "project")


@dataclass(frozen=True, kw_only=True)
class AnalysisPassInfo(Entry):
    """One registered pass: id, scope, options schema, checker."""

    noun: ClassVar[str] = "analysis pass"

    fn: PassFn
    scope: str = "file"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.scope not in _SCOPES:
            raise ValueError(
                f"pass {self.name!r} has unknown scope {self.scope!r}; "
                f"expected one of {_SCOPES}"
            )


class AnalysisPassRegistry(Registry[AnalysisPassInfo]):
    """Pass id -> :class:`AnalysisPassInfo`, case-insensitive, registration
    order; ``names(scope=...)`` lists one scope's passes."""

    entry_type = AnalysisPassInfo

    def run(
        self,
        name: str,
        target: Any,
        options: Mapping[str, Any] | Any = None,
    ) -> list:
        """Run one pass over a module/project context, returning findings."""
        info = self.get(name)
        config = self.parse_options(name, options)
        return list(info.fn(target, config) or ())


#: Process-wide default registry; ``repro.analysis`` populates it with the
#: built-in passes at import time, plugins extend it via
#: :func:`register_pass`.
_DEFAULT_REGISTRY = AnalysisPassRegistry()


def get_pass_registry() -> AnalysisPassRegistry:
    """The process-wide default :class:`AnalysisPassRegistry`."""
    return _DEFAULT_REGISTRY


def register_pass(
    name: str,
    *,
    description: str = "",
    scope: str = "file",
    config_type: type | None = None,
) -> Callable[[PassFn], PassFn]:
    """Register an analysis pass on the default registry (decorator)."""
    return _DEFAULT_REGISTRY.register(
        name, description=description, scope=scope, config_type=config_type
    )
