"""The declarative control-plane API: the repro's single public surface.

Three layers, one entry point:

- **Policy registry** (:class:`PolicyRegistry`, :func:`register_policy`) --
  every Faro variant, baseline, and controller is registered by name with
  a typed options schema; user plugins extend the same catalog.
- **Serializable specs** (:class:`ScenarioSpec`, :class:`PolicySpec`,
  :class:`ExperimentSpec`) -- a whole comparison experiment is a frozen
  value with lossless ``to_dict``/``from_dict`` and JSON/YAML file IO.
- **Unified run engine** (:func:`run`) -- one code path drives trace
  generation, predictor training, policy construction, and the simulator,
  with progress/telemetry callbacks, and returns a :class:`RunReport`.

Quickstart::

    from repro import api

    spec = api.ExperimentSpec.compare(
        "demo",
        api.ScenarioSpec(kind="paper", params={"size": "SO", "num_jobs": 4,
                                               "duration_minutes": 20}),
        ["fairshare", "aiad", "faro-fairsum"],
        simulator="flow",
    )
    report = api.run(spec)
    print(report.describe())

The same spec, written with ``spec.to_file("demo.json")``, runs from the
command line via ``repro-faro run --spec demo.json``.
"""

from repro.api.registry import (
    PLUGIN_ENTRY_POINT_GROUPS,
    PolicyInfo,
    PolicyRegistry,
    get_registry,
    load_entry_point_plugins,
    register_policy,
)
from repro.sim.backends import (
    SimBackendInfo,
    SimBackendRegistry,
    get_backend_registry,
    register_backend,
)
from repro.api.spec import SPEC_VERSION, ExperimentSpec, PolicySpec, ScenarioSpec
from repro.api.scenarios import (
    ScenarioInfo,
    ScenarioRegistry,
    build_scenario,
    get_scenario_registry,
    register_scenario,
)
from repro.api.composition import (
    MODEL_CATALOG,
    ClusterSpec,
    JobSpec,
    TraceSpec,
    TransformStep,
    custom_scenario,
)
from repro.traces.generators import (
    get_trace_source_registry,
    register_trace_source,
)
from repro.traces.transforms import (
    get_trace_transform_registry,
    register_trace_transform,
)
from repro.api.runner import (
    ProgressCallback,
    RunEvent,
    RunReport,
    ShardFailure,
    TrialStats,
    derive_trial_seed,
    execute_trials,
    run,
    run_policy,
)
from repro.api.parallel import (
    ShardOutcome,
    SweepInfo,
    SweepJournal,
    TrialShard,
    plan_shards,
    run_parallel,
)
# The serving engine re-exports are lazy (PEP 562): repro.serve imports
# this package's submodules at its own import time, so an eager
# ``from repro.serve import ...`` here would deadlock the import cycle
# whenever repro.serve is imported first.
_SERVE_EXPORTS = ("ServeOptions", "ServeSpec", "ServeResult", "serve")


def __getattr__(name: str):
    if name in _SERVE_EXPORTS:
        import repro.serve as _serve

        return getattr(_serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

# Populate the default registries with every built-in policy, then pull in
# third-party policies/backends advertised via importlib.metadata entry
# points (spawn sweep workers re-run both on their own import of this
# package, so plugin names resolve in worker processes too).
import repro.api.builtin  # noqa: E402,F401  (imported for registration side effects)
import repro.api.hetero_policies  # noqa: E402,F401  (imported for registration side effects)

load_entry_point_plugins()

__all__ = [
    "SPEC_VERSION",
    "ScenarioSpec",
    "PolicySpec",
    "ExperimentSpec",
    "PolicyInfo",
    "PolicyRegistry",
    "register_policy",
    "get_registry",
    "PLUGIN_ENTRY_POINT_GROUPS",
    "load_entry_point_plugins",
    "SimBackendInfo",
    "SimBackendRegistry",
    "register_backend",
    "get_backend_registry",
    "ScenarioInfo",
    "ScenarioRegistry",
    "register_scenario",
    "get_scenario_registry",
    "build_scenario",
    "MODEL_CATALOG",
    "TraceSpec",
    "TransformStep",
    "JobSpec",
    "ClusterSpec",
    "custom_scenario",
    "register_trace_source",
    "get_trace_source_registry",
    "register_trace_transform",
    "get_trace_transform_registry",
    "RunEvent",
    "ProgressCallback",
    "RunReport",
    "ShardFailure",
    "TrialStats",
    "derive_trial_seed",
    "execute_trials",
    "run_policy",
    "run",
    "TrialShard",
    "ShardOutcome",
    "SweepInfo",
    "SweepJournal",
    "plan_shards",
    "run_parallel",
    "ServeOptions",
    "ServeSpec",
    "ServeResult",
    "serve",
]
