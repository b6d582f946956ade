"""Tier-1 checks of the end-to-end benchmark harness.

These check the harness, not the program's speed: metric names agree with
``BENCHMARK.json``, percentiles and self times are computed as documented,
probes leave no trace behind, and a tiny flow-backend spec produces every
end-to-end metric.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.sim.analytic import FlowSimulation

from . import cli
from .probes import (
    Patches,
    SpanRecorder,
    TickStamps,
    layer_probes,
    layer_totals,
    self_times,
    tick_stamp_probes,
)
from .stats import nearest_rank, tail
from .suite import Workload, load_benchmark
from .worker import run_workload

_MISSING = object()

TINY_SPEC = {
    "version": 1,
    "name": "e2e-harness-tiny",
    "scenarios": [
        {
            "kind": "paper",
            "params": {
                "size": 9,
                "num_jobs": 3,
                "duration_minutes": 16,
                "days": 2,
                "rate_hi": 400.0,
            },
        }
    ],
    "policies": [{"name": "fairshare"}, {"name": "faro-fairsum"}],
    "trials": 1,
    "seed": 0,
    "simulator": "flow",
    "predictor_profile": {"epochs": 1, "max_windows": 64},
}


def _probe_targets():
    probes = layer_probes(SpanRecorder(), FlowSimulation)
    stamps = tick_stamp_probes(TickStamps(), FlowSimulation)
    return [(p.owner, p.attr) for p in probes] + [(o, a) for o, a, _ in stamps]


def _snapshot(targets):
    return [vars(owner).get(attr, _MISSING) for owner, attr in targets]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "tiny.json"
    path.write_text(json.dumps(TINY_SPEC))
    workload = Workload("tiny", str(path))
    targets = _probe_targets()
    before = _snapshot(targets)
    plain, _, _ = run_workload(workload, seed=0, traced=False)
    traced, recorder, _ = run_workload(workload, seed=0, traced=True)
    after = _snapshot(targets)
    return {
        "plain": plain,
        "traced": traced,
        "recorder": recorder,
        "before": before,
        "after": after,
    }


def test_emitted_metric_names_equal_benchmark_json(tiny_runs):
    bench = load_benchmark()
    end_to_end = {spec["name"] for spec in bench["end_to_end"]}
    per_layer = {spec["name"] for spec in bench["per_layer"]}
    assert set(tiny_runs["plain"]["metrics"]) == end_to_end
    summary = cli.summarize_workload([tiny_runs["plain"], tiny_runs["traced"]], bench)
    assert set(summary) == end_to_end | per_layer
    line = cli.result_line({"tiny": summary}, bench, 1, [tiny_runs["traced"]])
    assert set(line["metrics"]) == per_layer


def test_p97_of_360_ticks_is_the_11th_largest():
    values = [float(v) for v in range(360)]
    random.Random(7).shuffle(values)
    assert nearest_rank(values, 97) == tail(values) == sorted(values)[-11]
    assert nearest_rank(values, 50) == 179.0
    assert tail([float(v) for v in range(5400)]) == 5389.0  # still ten beyond it
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        tail(values[:10])


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        (0, "root", 0.0, 10.0, -1),
        (1, "a", 1.0, 3.0, 0),
        (2, "b", 2.0, 5.0, 0),  # overlaps a: the children cover [1, 5]
        (3, "leaf", 3.5, 4.0, 2),
        (4, "a", 6.0, 7.0, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 5.0, 1: 2.0, 2: 2.5, 3: 0.5, 4: 1.0})
    totals = layer_totals(spans)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["busy_s"] == pytest.approx(3.0)
    assert totals["root"]["self_s"] == pytest.approx(5.0)


def test_every_wrapper_is_restored_after_a_traced_run(tiny_runs):
    assert all(a is b for a, b in zip(tiny_runs["before"], tiny_runs["after"]))
    names = {span[1] for span in tiny_runs["recorder"].spans}
    assert {"core.policy_tick", "core.solve", "sim.advance", "baselines.tick"} <= names


def test_patches_restore_inherited_attributes_after_an_error():
    class Base:
        def hook(self):
            return "base"

    class Child(Base):
        pass

    with pytest.raises(RuntimeError):
        with Patches() as patches:
            patches.replace(Child, "hook", lambda fn: lambda self: "wrapped")
            assert Child().hook() == "wrapped"
            raise RuntimeError("run failed")
    assert "hook" not in vars(Child)
    assert Child().hook() == "base"


def test_tiny_flow_spec_yields_every_end_to_end_metric(tiny_runs):
    plain = tiny_runs["plain"]
    assert plain["ok"] and plain["failed"] == 0 and plain["attempted"] == 2
    for name, value in plain["metrics"].items():
        assert math.isfinite(value) and value > 0, name
    # Tracing must not change a single bit of the report.
    assert tiny_runs["traced"]["checks"]["digest"] == plain["checks"]["digest"]


def test_missing_program_source_fails_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ROOT", tmp_path)
    assert cli.main(["--workload", "headline", "--repeats", "1"]) == 2
    assert capsys.readouterr().out == ""
