"""Experiment harness tests: scenarios, metrics, reports, policy factory."""

import numpy as np
import pytest

from repro.api import get_registry
from repro.experiments import (
    CLUSTER_SIZES,
    format_table,
    kendall_tau_distance,
    paper_comparison_table,
    paper_scenario,
    rank_policies,
)
from repro.experiments.ablation import ABLATION_ORDER, ablation_policy_factory
from repro.experiments.policies import PredictorProfile
from repro.experiments.scenarios import large_scale_scenario, mixed_model_scenario


@pytest.fixture(scope="module")
def tiny_scenario():
    return paper_scenario("HO", num_jobs=4, duration_minutes=10, days=2, rate_hi=300.0)


class TestScenarios:
    def test_cluster_sizes_match_paper(self):
        assert CLUSTER_SIZES == {"RS": 36, "SO": 32, "HO": 16}

    def test_scenario_shapes(self, tiny_scenario):
        assert len(tiny_scenario.jobs) == 4
        assert tiny_scenario.duration_minutes == 10
        assert set(tiny_scenario.eval_traces) == set(tiny_scenario.job_names)
        for name in tiny_scenario.job_names:
            assert tiny_scenario.history_prefix[name].shape[0] > 0

    def test_explicit_size(self):
        scenario = paper_scenario(24, num_jobs=4, duration_minutes=5, days=2)
        assert scenario.total_replicas == 24

    def test_unknown_size(self):
        with pytest.raises(ValueError):
            paper_scenario("XL")

    def test_mixed_scenario_alternates_models(self):
        scenario = mixed_model_scenario(num_jobs=4, duration_minutes=5, days=2)
        procs = [job.model.proc_time for job in scenario.jobs]
        assert procs == [0.1, 0.18, 0.1, 0.18]
        slos = [job.slo.target for job in scenario.jobs]
        assert slos == pytest.approx([0.4, 0.72, 0.4, 0.72])

    def test_large_scale_duplicates(self):
        scenario = large_scale_scenario(num_jobs=12, total_replicas=40, duration_minutes=5, days=2)
        assert len(scenario.jobs) == 12

    def test_too_small_cluster_rejected(self):
        with pytest.raises(ValueError):
            paper_scenario(2, num_jobs=4, duration_minutes=5, days=2)


class TestKendallTau:
    def test_identical(self):
        assert kendall_tau_distance(["a", "b", "c"], ["a", "b", "c"]) == 0.0

    def test_reversed(self):
        assert kendall_tau_distance(["a", "b", "c"], ["c", "b", "a"]) == 1.0

    def test_one_swap(self):
        assert kendall_tau_distance(["a", "b", "c"], ["b", "a", "c"]) == pytest.approx(1 / 3)

    def test_different_items_rejected(self):
        with pytest.raises(ValueError):
            kendall_tau_distance(["a"], ["b"])

    def test_rank_policies(self):
        scores = {"x": 2.0, "y": 0.5, "z": 1.0}
        assert rank_policies(scores) == ["y", "z", "x"]
        assert rank_policies(scores, ascending=False) == ["x", "z", "y"]


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["faro", 0.79], ["aiad", 1.96]])
        lines = table.splitlines()
        assert "name" in lines[0]
        assert "0.790" in table

    def test_paper_comparison(self):
        text = paper_comparison_table(
            "Table 3", [("faro lost utility", 0.79, 0.81)], note="shape holds"
        )
        assert "Table 3" in text
        assert "shape holds" in text


class TestPolicyFactory:
    def test_all_baselines_construct(self, tiny_scenario):
        for name in get_registry().names(kind="baseline"):
            if name == "mark":
                continue  # needs predictor training, covered below
            policy = get_registry().build(name, tiny_scenario)
            assert policy.tick_interval > 0

    def test_faro_variants_construct(self, tiny_scenario):
        profile = PredictorProfile(epochs=1, max_windows=64)
        for name in get_registry().names(kind="faro")[:2]:
            policy = get_registry().build(
                name, tiny_scenario, options={"predictor_profile": profile}
            )
            assert "Faro" in policy.name

    def test_mark_with_predictor(self, tiny_scenario):
        profile = PredictorProfile(epochs=1, max_windows=64)
        policy = get_registry().build(
            "mark", tiny_scenario, options={"predictor_profile": profile}
        )
        assert policy.name.startswith("MArk")

    def test_unknown_policy(self, tiny_scenario):
        with pytest.raises(ValueError):
            get_registry().build("chaos-monkey", tiny_scenario)


class TestAblation:
    def test_order_matches_paper(self):
        assert ABLATION_ORDER[0] == "w/o relaxation"
        assert ABLATION_ORDER[-1] == "w/ prob. pred."

    def test_factories_construct(self, tiny_scenario):
        profile = PredictorProfile(epochs=1, max_windows=64)
        for stage in ("w/o relaxation", "w/ M/D/c queue", "w/ prob. pred."):
            factory = ablation_policy_factory(stage, predictor_profile=profile)
            policy = factory(tiny_scenario, seed=0)
            assert policy.tick_interval > 0

    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            ablation_policy_factory("w/ quantum")
