"""Run-engine tests: spec-driven runs reproduce per-policy runs."""

import pytest

from repro import api
from repro.experiments.policies import PredictorProfile

TINY_PROFILE = PredictorProfile(epochs=1, max_windows=64)

#: Scaled-down versions of the paper's RS/SO/HO scenarios (2 jobs, short
#: windows) -- cluster sizes keep the RS > SO > HO ordering.
PAPER_SIZES = {"RS": 9, "SO": 8, "HO": 4}
POLICIES = ("fairshare", "aiad", "faro-fairsum")


def _scenario_spec(size_label: str) -> api.ScenarioSpec:
    return api.ScenarioSpec(
        kind="paper",
        params={
            "size": PAPER_SIZES[size_label],
            "num_jobs": 2,
            "duration_minutes": 8,
            "days": 2,
            "rate_hi": 300.0,
        },
        name=f"tiny-{size_label}",
    )


def _tiny_spec(**overrides) -> api.ExperimentSpec:
    settings = dict(
        trials=1,
        seed=0,
        simulator="flow",
        predictor_profile={"epochs": 1, "max_windows": 64},
    )
    settings.update(overrides)
    return api.ExperimentSpec.compare(
        "tiny-paper",
        [_scenario_spec(label) for label in ("RS", "SO", "HO")],
        list(POLICIES),
        **settings,
    )


class TestEquivalence:
    def test_run_reproduces_compare_policies(self, tmp_path):
        """Same seeds -> same summary stats as ``run_policy`` on the built
        scenario, policy by policy (RS/SO/HO).

        The spec takes the full acceptance route: serialized to a file,
        reloaded with ``ExperimentSpec.from_file``, run via ``api.run``.
        """
        path = _tiny_spec().to_file(tmp_path / "rs_so_ho.json")
        report = api.run(api.ExperimentSpec.from_file(path))
        for label in ("RS", "SO", "HO"):
            scenario = _scenario_spec(label).build()
            for policy in POLICIES:
                via_api = report.get(f"tiny-{label}", policy)
                via_policy = api.run_policy(
                    scenario,
                    policy,
                    trials=1,
                    simulator="flow",
                    seed=0,
                    predictor_profile=TINY_PROFILE,
                )
                assert via_api.lost_utility_mean == via_policy.lost_utility_mean
                assert via_api.lost_effective_mean == via_policy.lost_effective_mean
                assert via_api.violation_rate_mean == via_policy.violation_rate_mean

    def test_run_is_deterministic(self):
        spec = _tiny_spec()
        a = api.run(spec)
        b = api.run(spec)
        for scenario in a.scenario_names():
            for policy in POLICIES:
                assert (
                    a.get(scenario, policy).lost_utility_mean
                    == b.get(scenario, policy).lost_utility_mean
                )


class TestRunFromFile:
    def test_run_accepts_path(self, tmp_path):
        spec = api.ExperimentSpec.compare(
            "from-file",
            _scenario_spec("HO"),
            ["fairshare"],
            simulator="flow",
        )
        path = spec.to_file(tmp_path / "spec.json")
        report = api.run(path)
        assert report.spec == spec
        assert report.get("tiny-HO", "fairshare").results


class TestRunReport:
    @pytest.fixture(scope="class")
    def report(self):
        return api.run(
            api.ExperimentSpec.compare(
                "report-fixture",
                _scenario_spec("HO"),
                ["fairshare", "aiad"],
                simulator="flow",
            )
        )

    def test_accessors(self, report):
        assert report.scenario_names() == ("tiny-HO",)
        assert report.policy_labels() == ("fairshare", "aiad")
        assert report.best_policy("tiny-HO") in ("fairshare", "aiad")
        with pytest.raises(KeyError):
            report.get("tiny-HO", "ghost")

    def test_describe_and_rows(self, report):
        text = report.describe()
        assert "tiny-HO" in text and "fairshare" in text
        assert len(report.summary_rows()) == 2

    def test_to_dict_json_safe(self, report):
        import json

        data = json.loads(json.dumps(report.to_dict()))
        assert data["spec"]["name"] == "report-fixture"
        cell = data["stats"]["tiny-HO"]["aiad"]
        assert set(cell) >= {"lost_utility_mean", "violation_rate_mean"}

    def test_single_result_requires_singleton(self, report):
        with pytest.raises(ValueError):
            report.single_result()

    def test_single_result(self):
        report = api.run(
            api.ExperimentSpec.compare(
                "single", _scenario_spec("HO"), ["fairshare"], simulator="flow"
            )
        )
        assert report.single_result().policy_name == "FairShare"


class TestProgressEvents:
    def test_event_stream_shape(self):
        events = []
        api.run(
            api.ExperimentSpec.compare(
                "events",
                _scenario_spec("HO"),
                ["fairshare"],
                trials=2,
                simulator="flow",
            ),
            progress=events.append,
        )
        stages = [e.stage for e in events]
        assert stages == [
            "scenario-start",
            "policy-start",
            "trial-start",
            "trial-end",
            "trial-start",
            "trial-end",
            "policy-end",
            "scenario-end",
            "run-end",
        ]
        trial_ends = [e for e in events if e.stage == "trial-end"]
        assert [e.trial for e in trial_ends] == [0, 1]
        assert all(e.scenario == "tiny-HO" for e in trial_ends)

    def test_invalid_spec_fails_before_any_simulation(self):
        """A typo'd policy/option/parameter aborts in the pre-run pass."""
        events = []
        good_scenario = _scenario_spec("HO")
        for spec in (
            api.ExperimentSpec.compare("bad1", good_scenario, ["fairshare", "gost"]),
            api.ExperimentSpec.compare(
                "bad2",
                good_scenario,
                [api.PolicySpec("fairshare", options={"max_factor": 2.0})],
            ),
            api.ExperimentSpec.compare(
                "bad3",
                api.ScenarioSpec(kind="paper", params={"replica_count": 8}),
                ["fairshare"],
            ),
        ):
            with pytest.raises(ValueError):
                api.run(spec, progress=events.append)
        assert events == []  # nothing ran, not even scenario construction

    def test_duplicate_scenario_names_rejected(self):
        spec = api.ExperimentSpec.compare(
            "dups",
            [_scenario_spec("HO"), _scenario_spec("HO")],
            ["fairshare"],
            simulator="flow",
        )
        with pytest.raises(ValueError, match="duplicate scenario"):
            api.run(spec)
