"""Public API surface tests: everything advertised must be importable, and
everything in ``src/repro`` must be reachable from the engine."""

import ast
import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent

#: Modules that no engine path imports, kept because a paper bench
#: reproduces a result with them: ``{module: (bench, result)}``.
PAPER_ARTIFACTS = {
    "repro.experiments.ablation": ("bench_fig16_ablation.py", "Fig. 16"),
    "repro.experiments.metrics": ("bench_table7_matched.py", "Table 7"),
    "repro.experiments.sweeps": ("bench_ablation_knobs.py", "the design-knob sweeps"),
}


def unreached_modules() -> set[str]:
    """Modules of ``src/repro`` that no chain of imports from ``repro.cli``
    reaches.

    Imports inside functions count, and importing a module runs its parents'
    ``__init__``.  In an ``__init__``, an import that binds a submodule is an
    edge; one that binds a name defined in a submodule is a re-export,
    followed only when a reached module takes that name from the package.
    """
    src = Path(repro.__file__).resolve().parent.parent
    modules = {}  # name -> (syntax tree, is a package __init__)
    for path in (src / "repro").rglob("*.py"):
        parts = path.relative_to(src).with_suffix("").parts
        package = parts[-1] == "__init__"
        modules[".".join(parts[:-1] if package else parts)] = (
            ast.parse(path.read_text()),
            package,
        )

    def imports(name):
        """``(module, name, bound as)`` per import; ``name`` None for ``import m``."""
        for node in ast.walk(modules[name][0]):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name, None, None
            elif isinstance(node, ast.ImportFrom):  # src/repro has no relative imports
                for alias in node.names:
                    yield node.module, alias.name, alias.asname or alias.name

    reached, todo = set(), []

    def reach(name):
        """``name`` runs, and so do the ``__init__``s of its packages."""
        while name in modules and name not in reached:
            reached.add(name)
            todo.append(name)
            name = name.rpartition(".")[0]

    def take(package, attr):
        """A reached module takes ``attr`` from ``package``."""
        if f"{package}.{attr}" in modules:
            return reach(f"{package}.{attr}")
        reach(package)
        if package in modules and modules[package][1]:
            for module, name, bound in imports(package):
                if bound == attr:
                    take(module, name)

    reach("repro.cli")
    while todo:
        name = todo.pop()
        for module, attr, _ in imports(name):
            if attr is None:
                reach(module)
            elif not modules[name][1]:
                take(module, attr)
            elif f"{module}.{attr}" in modules:
                reach(f"{module}.{attr}")
    return set(modules) - reached


class TestReachability:
    def test_only_paper_artifacts_are_unreached(self):
        """Code that no spec, the serve loop or the CLI can run is deleted,
        unless a paper bench needs it."""
        assert unreached_modules() == set(PAPER_ARTIFACTS)
        for module, (bench, _) in PAPER_ARTIFACTS.items():
            assert f"from {module} import" in (ROOT / "benchmarks" / bench).read_text()


class TestTopLevelAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.utility",
            "repro.core.penalty",
            "repro.core.objectives",
            "repro.core.latency",
            "repro.core.optimizer",
            "repro.core.hierarchical",
            "repro.core.autoscaler",
            "repro.core.hybrid",
            "repro.core.decentralized",
            "repro.queueing",
            "repro.autodiff",
            "repro.forecast",
            "repro.traces",
            "repro.cluster",
            "repro.sim",
            "repro.sim.faults",
            "repro.baselines",
            "repro.experiments",
            "repro.experiments.sweeps",
            "repro.experiments.plotting",
            "repro.api",
            "repro.api.registry",
            "repro.api.spec",
            "repro.api.scenarios",
            "repro.api.runner",
            "repro.policy",
            "repro.hetero",
            "repro.cli",
        ],
    )
    def test_submodules_import(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name} missing"

    def test_paper_defaults_exposed(self):
        assert repro.RESNET34.proc_time == pytest.approx(0.180)
        assert repro.RESNET18.proc_time == pytest.approx(0.100)
        job = repro.InferenceJobSpec.with_default_slo("j", repro.RESNET34)
        assert job.slo.target == pytest.approx(0.720)
        assert job.slo.percentile == 99.0

    def test_faro_config_paper_defaults(self):
        config = repro.FaroConfig()
        assert config.period == 300.0
        assert config.rho_max == 0.95
        assert config.groups == 10
        assert config.solver == "cobyla"
        assert config.cold_start_seconds == 60.0

    def test_docstrings_on_public_classes(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"
