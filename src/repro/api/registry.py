"""Policy registry: the control plane's catalog of autoscaling policies.

Every policy the experiment harness can run -- Faro variants, baselines,
decentralized controllers, user plugins -- is registered here under a
stable name together with a *typed* options dataclass and a builder.
Resolution, option validation, and construction all go through one
lookup; ``names(kind=...)`` lists one kind's policies in registration
order.

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

from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

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


@dataclass(frozen=True)
class PolicyInfo:
    """One registered policy: name, provenance, options schema, builder."""

    name: str
    kind: str
    description: str
    builder: PolicyBuilder
    config_type: type | None = None
    aliases: tuple[str, ...] = ()

    def option_fields(self) -> list[tuple[str, Any]]:
        """(field name, default) pairs of the options schema, for docs/CLI."""
        if self.config_type is None:
            return []
        out = []
        for f in fields(self.config_type):
            if f.default is not MISSING:
                default = f.default
            elif f.default_factory is not MISSING:  # type: ignore[misc]
                default = f.default_factory()  # type: ignore[misc]
            else:
                default = None
            out.append((f.name, default))
        return out


class PolicyRegistry:
    """Name -> :class:`PolicyInfo` catalog with typed option parsing.

    Names are case-insensitive and unique across primary names and
    aliases.  Iteration order is registration order, which the built-in
    registrations use to preserve the paper's policy ordering.
    """

    def __init__(self) -> None:
        self._entries: dict[str, PolicyInfo] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------ register

    def register(
        self,
        name: str,
        *,
        kind: str = "plugin",
        description: str = "",
        config_type: type | None = None,
        aliases: tuple[str, ...] = (),
    ) -> Callable[[PolicyBuilder], PolicyBuilder]:
        """Decorator registering ``builder`` under ``name``."""

        def decorator(builder: PolicyBuilder) -> PolicyBuilder:
            self.add(
                PolicyInfo(
                    name=name,
                    kind=kind,
                    description=description,
                    builder=builder,
                    config_type=config_type,
                    aliases=tuple(aliases),
                )
            )
            return builder

        return decorator

    def add(self, info: PolicyInfo) -> None:
        """Register ``info``; rejects duplicate names/aliases."""
        if not info.name or info.name != info.name.strip():
            raise ValueError(f"invalid policy name {info.name!r}")
        if info.config_type is not None and not is_dataclass(info.config_type):
            raise TypeError(
                f"config_type for {info.name!r} must be a dataclass, "
                f"got {info.config_type!r}"
            )
        key = info.name.lower()
        for taken in (key, *[a.lower() for a in info.aliases]):
            if taken in self._entries or taken in self._aliases:
                raise ValueError(f"policy name {taken!r} is already registered")
        self._entries[key] = info
        for alias in info.aliases:
            self._aliases[alias.lower()] = key

    def unregister(self, name: str) -> None:
        """Remove a policy (plugins/tests); unknown names raise ValueError."""
        info = self.get(name)
        del self._entries[info.name.lower()]
        for alias in info.aliases:
            self._aliases.pop(alias.lower(), None)

    # ------------------------------------------------------------- lookup

    def get(self, name: str) -> PolicyInfo:
        """Resolve ``name`` (or an alias) to its :class:`PolicyInfo`."""
        key = str(name).lower()
        key = self._aliases.get(key, key)
        info = self._entries.get(key)
        if info is None:
            known = ", ".join(sorted(self._entries))
            raise ValueError(f"unknown policy {name!r}; registered: {known}")
        return info

    def __contains__(self, name: object) -> bool:
        key = str(name).lower()
        return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[PolicyInfo]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def names(self, kind: str | None = None) -> tuple[str, ...]:
        """Registered primary names (registration order), optionally by kind."""
        return tuple(
            info.name for info in self if kind is None or info.kind == kind
        )

    def infos(self, kind: str | None = None) -> tuple[PolicyInfo, ...]:
        return tuple(info for info in self if kind is None or info.kind == kind)

    # -------------------------------------------------------------- build

    def parse_options(self, name: str, options: Mapping[str, Any] | Any = None):
        """Validate ``options`` against the policy's config type.

        Accepts a mapping (JSON-shaped, as stored in a
        :class:`~repro.api.spec.PolicySpec`), an already-constructed config
        instance, or ``None``.  Unknown keys raise ``ValueError`` so typos
        in spec files fail loudly.
        """
        info = self.get(name)
        if info.config_type is None:
            if options:
                raise ValueError(
                    f"policy {info.name!r} accepts no options, got {dict(options)!r}"
                )
            return None
        if isinstance(options, info.config_type):
            return options
        data = dict(options or {})
        known = {f.name for f in fields(info.config_type)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown option(s) {sorted(unknown)} for policy {info.name!r}; "
                f"accepted: {sorted(known)}"
            )
        return info.config_type(**data)

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
        try:
            entries = metadata.entry_points(group=group)
        except TypeError:  # pragma: no cover - Python < 3.10 select API
            entries = metadata.entry_points().get(group, ())  # type: ignore[attr-defined]
        for entry in entries:
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
