"""Every benchmark module imports.

The ``benchmarks/bench_*.py`` files take minutes each and a bare ``pytest``
run does not collect them, so a bench that imports a removed API would
break only at its next manual run.  Importing each one by path catches
that in about a second for all of them.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"

#: Kept in sync with benchmarks/ by ``test_every_bench_is_covered``.
BENCHES = [
    "bench_ablation_knobs.py",
    "bench_cobyla_trstlp.py",
    "bench_ext_extensions.py",
    "bench_fig01_motivation.py",
    "bench_fig02_cilantro.py",
    "bench_fig04_utility.py",
    "bench_fig05_solvers.py",
    "bench_fig06_relaxation.py",
    "bench_fig07_hierarchical.py",
    "bench_fig08_prediction.py",
    "bench_fig10_baselines.py",
    "bench_fig11_timeline.py",
    "bench_fig12_fairness.py",
    "bench_fig13_variants.py",
    "bench_fig14_mixed.py",
    "bench_fig15_sweep.py",
    "bench_fig16_ablation.py",
    "bench_forecast_train.py",
    "bench_hetero_policies.py",
    "bench_optimizer_hotpath.py",
    "bench_parallel_sweep.py",
    "bench_queueing_tables.py",
    "bench_scenario_build.py",
    "bench_sim_backends.py",
    "bench_table3_lost_utility.py",
    "bench_table7_matched.py",
    "bench_table8_scale.py",
]


def test_every_bench_is_covered():
    """No bench module may be missing from the import list."""
    assert {path.name for path in BENCH_DIR.glob("bench_*.py")} == set(BENCHES)


@pytest.mark.parametrize("script", BENCHES)
def test_bench_imports(script, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))  # benches import benchmarks.conftest
    spec = importlib.util.spec_from_file_location(
        f"benchmarks.{Path(script).stem}", BENCH_DIR / script
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert any(name.startswith("test_") for name in vars(module))
