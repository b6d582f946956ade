"""Simulation-backend registry: the catalog of execution fidelities.

Every simulator the experiment harness can drive -- the request-level
reference, the analytic flow model, the hybrid split, user plugins -- is
registered here under a stable name together with a *typed* options
dataclass, in a :class:`repro.registry.Registry` like every other catalog.
The registry replaces the hardwired ``Simulation``/``FlowSimulation``
conditional the run engine used to carry and the frozen
``("request", "flow")`` tuple in the spec schema: name resolution, option
validation, and construction all go through one lookup, so a new fidelity
is a plugin, not a fork.

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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Mapping

from repro.registry import Entry, Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.harness import SimHarness

__all__ = [
    "SimBackendInfo",
    "SimBackendRegistry",
    "register_backend",
    "get_backend_registry",
]


@dataclass(frozen=True, kw_only=True)
class SimBackendInfo(Entry):
    """One registered backend: name, fidelity class, options schema."""

    noun: ClassVar[str] = "simulator"

    cls: type
    #: Coarse fidelity class for docs/CLI: "request-level", "analytic", ...
    fidelity: str = ""


class SimBackendRegistry(Registry[SimBackendInfo]):
    """Name -> :class:`SimBackendInfo` catalog with typed option parsing.

    Iteration order is registration order (built-ins register request,
    flow, hybrid -- in fidelity order).
    """

    entry_type = SimBackendInfo
    field = "cls"

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

    register_backend(
        "request",
        description=(
            "Request-level reference (every job flagged): Poisson arrivals, "
            "virtual-time routers, per-request queueing/drops, cold starts."
        ),
        fidelity="request-level",
        aliases=("request-level",),
    )(Simulation)
    register_backend(
        "flow",
        description=(
            "Analytic fluid/flow model (no job flagged): fluid queues plus "
            "M/D/c waiting tails; 2.6x faster than request (BENCH_sim.json)."
        ),
        fidelity="analytic",
        aliases=("analytic", "analytic-flow"),
    )(FlowSimulation)
    register_backend(
        "hybrid",
        description=(
            "Flagged jobs at request level, the rest analytic, one "
            "shared quota and policy loop (see HybridBackendOptions)."
        ),
        config_type=HybridBackendOptions,
        fidelity="hybrid",
    )(HybridSimulation)


_register_builtins()
