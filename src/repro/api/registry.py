"""Policy registry: the control plane's catalog of autoscaling policies.

Every policy the experiment harness can run -- Faro variants, baselines,
decentralized controllers, user plugins -- is registered here under a
stable name together with a *typed* options dataclass and a builder.
Resolution, option validation, and construction all go through one
lookup; ``names(kind=...)`` lists one kind's policies in registration
order.  The catalog contract itself (names, aliases, options) is
:class:`repro.registry.Registry`'s.

Registering a policy::

    from dataclasses import dataclass
    from repro.api import register_policy

    @dataclass(frozen=True)
    class MyOptions:
        aggressiveness: float = 1.0

    @register_policy("my-policy", kind="plugin", config_type=MyOptions,
                     description="Scales by vibes.")
    def build_my_policy(scenario, seed, options):
        return MyPolicy(slos=scenario.slos, k=options.aggressiveness)

The builder receives ``(scenario, seed, options)`` where ``options`` is an
instance of ``config_type`` (or ``None`` when no config type is declared).
``PolicySpec(name="my-policy", options={"aggressiveness": 2.0})`` then
resolves through the same path as every built-in policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping

from repro.registry import Entry, Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.scenarios import Scenario
    from repro.policy import AutoscalePolicy

__all__ = [
    "PolicyInfo",
    "PolicyRegistry",
    "register_policy",
    "get_registry",
    "PLUGIN_ENTRY_POINT_GROUPS",
    "load_entry_point_plugins",
]

#: Builder signature: ``(scenario, seed, options) -> AutoscalePolicy``.
PolicyBuilder = Callable[["Scenario", int, Any], "AutoscalePolicy"]


@dataclass(frozen=True, kw_only=True)
class PolicyInfo(Entry):
    """One registered policy: name, provenance, options schema, builder."""

    noun: ClassVar[str] = "policy"

    builder: PolicyBuilder
    kind: str = "plugin"


class PolicyRegistry(Registry[PolicyInfo]):
    """Name -> :class:`PolicyInfo` catalog with typed option parsing.

    Iteration order is registration order, which the built-in
    registrations use to preserve the paper's policy ordering;
    ``names(kind=...)`` lists one kind's policies.
    """

    entry_type = PolicyInfo
    field = "builder"

    def build(
        self,
        name: str,
        scenario: "Scenario",
        seed: int = 0,
        options: Mapping[str, Any] | Any = None,
    ) -> "AutoscalePolicy":
        """Construct the policy ``name`` for ``scenario``.

        ``options`` follows :meth:`parse_options`.  The returned object is a
        ready-to-tick :class:`~repro.policy.AutoscalePolicy`.
        """
        info = self.get(name)
        config = self.parse_options(name, options)
        return info.builder(scenario, int(seed), config)


#: Process-wide default registry.  ``repro.api`` populates it with every
#: built-in policy at import time; plugins add to it via
#: :func:`register_policy`.
_DEFAULT_REGISTRY = PolicyRegistry()


def get_registry() -> PolicyRegistry:
    """The process-wide default :class:`PolicyRegistry`."""
    return _DEFAULT_REGISTRY


def register_policy(
    name: str,
    *,
    kind: str = "plugin",
    description: str = "",
    config_type: type | None = None,
    aliases: tuple[str, ...] = (),
) -> Callable[[PolicyBuilder], PolicyBuilder]:
    """Register a policy builder on the default registry (decorator)."""
    return _DEFAULT_REGISTRY.register(
        name,
        kind=kind,
        description=description,
        config_type=config_type,
        aliases=aliases,
    )


# ----------------------------------------------------- entry-point plugins

#: Entry-point groups scanned for third-party registrations: policies,
#: simulation backends, and static-analysis passes.
PLUGIN_ENTRY_POINT_GROUPS = (
    "repro_faro.policies",
    "repro_faro.sim_backends",
    "repro_faro.analysis_passes",
)


def load_entry_point_plugins(
    groups: tuple[str, ...] = PLUGIN_ENTRY_POINT_GROUPS,
) -> tuple[str, ...]:
    """Load third-party registry plugins advertised via package metadata.

    An installed package opts in by declaring entry points, e.g.::

        [project.entry-points."repro_faro.policies"]
        my-policy = my_package.faro_plugin:register

    Each entry point resolves to either a callable (invoked with no
    arguments) or a module whose import performs the registration -- both
    are expected to call :func:`register_policy` /
    :func:`repro.sim.backends.register_backend`.  Returns
    ``"group:name"`` labels of the plugins that loaded.

    ``repro.api`` calls this once at import time, which also covers
    ``spawn`` sweep workers (:mod:`repro.api.parallel`): a fresh worker
    interpreter imports ``repro.api`` before resolving any policy or
    backend named in a spec, so third-party names resolve there too.  A
    plugin that fails to load is reported as a ``RuntimeWarning`` and
    skipped -- one broken package must not take down every experiment.
    """
    import warnings
    from importlib import metadata

    loaded: list[str] = []
    for group in groups:
        for entry in metadata.entry_points(group=group):
            try:
                plugin = entry.load()
                if callable(plugin):
                    plugin()
            except Exception as exc:
                warnings.warn(
                    f"failed to load plugin {entry.name!r} from entry-point "
                    f"group {group!r}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            loaded.append(f"{group}:{entry.name}")
    return tuple(loaded)
