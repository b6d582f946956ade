"""Simulation-backend registry: the catalog of execution fidelities.

Every simulator the experiment harness can drive -- the request-level
reference, the analytic flow model, the hybrid split, user plugins -- is
registered here under a stable name together with a *typed* options
dataclass, exactly mirroring how :class:`repro.api.PolicyRegistry` treats
autoscaling policies.  The registry replaces the hardwired
``Simulation``/``FlowSimulation`` conditional the run engine used to carry
and the frozen ``("request", "flow")`` tuple in the spec schema: name
resolution, option validation, and construction all go through one lookup,
so a new fidelity is a plugin, not a fork.

Registering a backend::

    from dataclasses import dataclass
    from repro.sim.backends import register_backend
    from repro.sim.harness import SimHarness

    @dataclass(frozen=True)
    class MyOptions:
        granularity: float = 1.0

    @register_backend("my-fidelity", description="Coarse-grained replay.",
                      config_type=MyOptions, fidelity="analytic")
    class MySimulation(SimHarness):
        options_type = MyOptions
        ...

A spec file then selects it with ``"simulator": "my-fidelity"`` and
configures it through ``"backend_options"``; unknown backend names and
unknown option keys both fail loudly at spec-validation time, before any
simulation runs.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.harness import SimHarness

__all__ = [
    "SimBackendInfo",
    "SimBackendRegistry",
    "register_backend",
    "get_backend_registry",
]


@dataclass(frozen=True)
class SimBackendInfo:
    """One registered backend: name, fidelity class, options schema."""

    name: str
    description: str
    cls: type
    config_type: type | None = None
    #: Coarse fidelity class for docs/CLI: "request-level", "analytic", ...
    fidelity: str = ""
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


class SimBackendRegistry:
    """Name -> :class:`SimBackendInfo` catalog with typed option parsing.

    Names are case-insensitive and unique across primary names and
    aliases; iteration order is registration order (built-ins register
    request, flow, hybrid -- in fidelity order).
    """

    def __init__(self) -> None:
        self._entries: dict[str, SimBackendInfo] = {}
        self._aliases: dict[str, str] = {}

    # ------------------------------------------------------------ register

    def register(
        self,
        name: str,
        *,
        description: str = "",
        config_type: type | None = None,
        fidelity: str = "",
        aliases: tuple[str, ...] = (),
    ) -> Callable[[type], type]:
        """Decorator registering a :class:`SimHarness` subclass as ``name``."""

        def decorator(cls: type) -> type:
            self.add(
                SimBackendInfo(
                    name=name,
                    description=description,
                    cls=cls,
                    config_type=config_type,
                    fidelity=fidelity,
                    aliases=tuple(aliases),
                )
            )
            return cls

        return decorator

    def add(self, info: SimBackendInfo) -> None:
        """Register ``info``; rejects duplicate names/aliases."""
        if not info.name or info.name != info.name.strip():
            raise ValueError(f"invalid backend name {info.name!r}")
        if info.config_type is not None and not is_dataclass(info.config_type):
            raise TypeError(
                f"config_type for {info.name!r} must be a dataclass, "
                f"got {info.config_type!r}"
            )
        key = info.name.lower()
        for taken in (key, *[a.lower() for a in info.aliases]):
            if taken in self._entries or taken in self._aliases:
                raise ValueError(f"backend name {taken!r} is already registered")
        self._entries[key] = info
        for alias in info.aliases:
            self._aliases[alias.lower()] = key

    def unregister(self, name: str) -> None:
        """Remove a backend (plugins/tests); unknown names raise ValueError."""
        info = self.get(name)
        del self._entries[info.name.lower()]
        for alias in info.aliases:
            self._aliases.pop(alias.lower(), None)

    # ------------------------------------------------------------- lookup

    def get(self, name: str) -> SimBackendInfo:
        """Resolve ``name`` (or an alias) to its :class:`SimBackendInfo`."""
        key = str(name).lower()
        key = self._aliases.get(key, key)
        info = self._entries.get(key)
        if info is None:
            known = ", ".join(sorted(self._entries))
            raise ValueError(f"unknown simulator {name!r}; registered: {known}")
        return info

    def __contains__(self, name: object) -> bool:
        key = str(name).lower()
        return key in self._entries or key in self._aliases

    def __iter__(self) -> Iterator[SimBackendInfo]:
        return iter(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> tuple[str, ...]:
        """Registered primary names, in registration order."""
        return tuple(info.name for info in self)

    def infos(self) -> tuple[SimBackendInfo, ...]:
        return tuple(self)

    # -------------------------------------------------------------- build

    def parse_options(self, name: str, options: Mapping[str, Any] | Any = None):
        """Validate ``options`` against the backend's config type.

        Accepts a mapping (JSON-shaped, as stored in an
        :class:`~repro.api.spec.ExperimentSpec`), an already-constructed
        config instance, or ``None``.  Unknown keys raise ``ValueError`` so
        typos in spec files fail loudly, exactly like policy options.
        """
        info = self.get(name)
        if info.config_type is None:
            if options:
                raise ValueError(
                    f"backend {info.name!r} accepts no options, got {dict(options)!r}"
                )
            return None
        if isinstance(options, info.config_type):
            return options
        data = dict(options or {})
        known = {f.name for f in fields(info.config_type)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown option(s) {sorted(unknown)} for backend {info.name!r}; "
                f"accepted: {sorted(known)}"
            )
        return info.config_type(**data)

    def create(
        self,
        name: str,
        *args: Any,
        options: Mapping[str, Any] | Any = None,
        **kwargs: Any,
    ) -> "SimHarness":
        """Construct the backend ``name`` with validated options.

        Positional/keyword arguments are the shared
        :class:`~repro.sim.harness.SimHarness` constructor signature
        (jobs, traces, policy, quota, config=..., ...).
        """
        info = self.get(name)
        parsed = self.parse_options(name, options)
        return info.cls(*args, options=parsed, **kwargs)


#: Process-wide default registry, populated with the built-in fidelities
#: below; plugins add to it via :func:`register_backend`.
_DEFAULT_BACKENDS = SimBackendRegistry()


def get_backend_registry() -> SimBackendRegistry:
    """The process-wide default :class:`SimBackendRegistry`."""
    return _DEFAULT_BACKENDS


def register_backend(
    name: str,
    *,
    description: str = "",
    config_type: type | None = None,
    fidelity: str = "",
    aliases: tuple[str, ...] = (),
) -> Callable[[type], type]:
    """Register a simulation backend on the default registry (decorator)."""
    return _DEFAULT_BACKENDS.register(
        name,
        description=description,
        config_type=config_type,
        fidelity=fidelity,
        aliases=aliases,
    )


# --------------------------------------------------------- built-in backends

def _register_builtins() -> None:
    from repro.sim.analytic import FlowSimulation
    from repro.sim.simulation import HybridBackendOptions, HybridSimulation, Simulation

    _DEFAULT_BACKENDS.add(
        SimBackendInfo(
            name="request",
            description=(
                "Request-level reference (every job flagged): Poisson arrivals, "
                "virtual-time routers, per-request queueing/drops, cold starts."
            ),
            cls=Simulation,
            config_type=None,
            fidelity="request-level",
            aliases=("request-level",),
        )
    )
    _DEFAULT_BACKENDS.add(
        SimBackendInfo(
            name="flow",
            description=(
                "Analytic fluid/flow model (no job flagged): per-tick queue "
                "dynamics plus M/D/c waiting tails; 100-1000x faster."
            ),
            cls=FlowSimulation,
            config_type=None,
            fidelity="analytic",
            aliases=("analytic", "analytic-flow"),
        )
    )
    _DEFAULT_BACKENDS.add(
        SimBackendInfo(
            name="hybrid",
            description=(
                "Flagged jobs at request level, the rest analytic, one "
                "shared quota and policy loop (see HybridBackendOptions)."
            ),
            cls=HybridSimulation,
            config_type=HybridBackendOptions,
            fidelity="hybrid",
            aliases=(),
        )
    )


_register_builtins()
