"""Smoke tests: every example under examples/ runs to completion.

Examples are the repository's executable documentation; a refactor that
breaks one should fail CI, not a user.  Each test execs the script with
``__name__ == "__main__"`` semantics and checks a signature line of its
output, keeping runtimes tolerable by relying on the examples' own small
default sizes.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: (script, fragment expected in stdout). Kept in sync with examples/.
EXAMPLES = [
    ("quickstart.py", "Faro quickstart"),
    ("declarative_experiment.py", "Declarative experiment"),
    ("composed_scenario.py", "Declarative scenario composition"),
    ("heterogeneous_cluster.py", "Heterogeneous allocation"),
    ("fault_tolerance.py", "Fault tolerance"),
    ("decentralized_faro.py", "Decentralized Faro"),
]


def test_every_example_is_covered():
    """No example script may be missing from the smoke list."""
    on_disk = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    listed = {name for name, _ in EXAMPLES}
    heavy = {  # exercised by their own dedicated tests/benches instead
        "multi_tenant_showdown.py",
        "overload_with_drops.py",
        "forecast_workloads.py",
        "custom_policy.py",
    }
    assert on_disk - heavy == listed


@pytest.mark.parametrize("script,fragment", EXAMPLES)
def test_example_runs(script, fragment, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert fragment in out
