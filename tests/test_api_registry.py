"""Policy/scenario registry tests: catalog, typed options, conformance."""

from dataclasses import dataclass

import pytest

from repro import api
from repro.experiments.policies import PredictorProfile
from repro.policy import AutoscalePolicy, JobObservation, ScalingDecision

TINY_PROFILE = PredictorProfile(epochs=1, max_windows=64)

#: The paper's Faro variants and baselines, in the paper's order.
FARO_VARIANTS = (
    "faro-sum", "faro-fair", "faro-fairsum", "faro-penaltysum", "faro-penaltyfairsum",
)
BASELINES = ("fairshare", "oneshot", "aiad", "mark", "cilantro")


@pytest.fixture(scope="module")
def tiny_scenario():
    return api.ScenarioSpec(
        kind="paper",
        params={"size": "HO", "num_jobs": 4, "duration_minutes": 10,
                "days": 2, "rate_hi": 300.0},
    ).build()


class TestCatalog:
    def test_all_legacy_names_resolve(self):
        registry = api.get_registry()
        for name in FARO_VARIANTS + BASELINES:
            assert name in registry
            assert registry.get(name).name == name

    def test_legacy_tuples_derive_from_registry(self):
        registry = api.get_registry()
        # Paper order is preserved by registration order.
        assert registry.names(kind="faro") == FARO_VARIANTS
        assert registry.names(kind="baseline") == BASELINES

    def test_alias_and_case_insensitive(self):
        registry = api.get_registry()
        assert registry.get("faro").name == "faro-fairsum"
        assert registry.get("FairShare").name == "fairshare"

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            api.get_registry().get("chaos-monkey")

    def test_unknown_scenario_kind(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            api.get_scenario_registry().build("quantum", {})

    def test_scenario_param_validation(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            api.get_scenario_registry().build("paper", {"replica_count": 8})


class TestTypedOptions:
    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="unknown option"):
            api.get_registry().parse_options("fairshare", {"max_factor": 2.0})

    def test_unknown_faro_field_rejected(self, tiny_scenario):
        with pytest.raises(ValueError, match="FaroConfig"):
            api.get_registry().build(
                "faro-fairsum",
                tiny_scenario,
                options={"use_trained_predictor": False, "faro": {"warp_speed": 9}},
            )

    def test_bad_profile_rejected(self):
        from repro.api.builtin import coerce_predictor_profile

        with pytest.raises(ValueError, match="predictor profile"):
            coerce_predictor_profile("warp")
        with pytest.raises(ValueError, match="field"):
            coerce_predictor_profile({"epochz": 1})

    def test_profile_coercions_agree(self):
        from repro.api.builtin import coerce_predictor_profile

        assert coerce_predictor_profile("fast") == PredictorProfile.fast()
        assert coerce_predictor_profile({"epochs": 2}) == PredictorProfile(epochs=2)
        profile = PredictorProfile.paper()
        assert coerce_predictor_profile(profile) is profile

    def test_options_instance_passthrough(self, tiny_scenario):
        from repro.api.builtin import FairShareOptions

        policy = api.get_registry().build(
            "fairshare", tiny_scenario, options=FairShareOptions(min_replicas=2)
        )
        assert policy.min_replicas == 2


def _canned_observations(scenario, violating=True):
    """Observations resembling a loaded cluster (latency over SLO)."""
    obs = {}
    for job in scenario.jobs:
        latency = job.slo.target * (3.0 if violating else 0.5)
        obs[job.name] = JobObservation(
            job_name=job.name,
            arrival_rate=8.0,
            rate_history=(6.0, 7.0, 8.0, 8.0),
            mean_proc_time=job.model.proc_time,
            latency=latency,
            slo_violation_rate=0.5 if violating else 0.0,
            current_replicas=1,
            target_replicas=1,
            queue_length=4 if violating else 0,
        )
    return obs


class TestConformance:
    """Every registered policy builds from a spec and ticks sanely."""

    @pytest.mark.parametrize(
        "name", api.get_registry().names(kind="faro")
        + api.get_registry().names(kind="baseline")
        + api.get_registry().names(kind="controller"),
    )
    def test_builds_and_decides(self, name, tiny_scenario):
        options = {"predictor_profile": TINY_PROFILE}
        supported = {f for f, _ in api.get_registry().get(name).option_fields()}
        options = {k: v for k, v in options.items() if k in supported}
        policy = api.get_registry().build(name, tiny_scenario, seed=0, options=options)
        assert isinstance(policy, AutoscalePolicy)
        assert policy.tick_interval > 0

        decision = None
        now = 0.0
        while decision is None and now <= 600.0:
            decision = policy.tick(now, _canned_observations(tiny_scenario))
            now += policy.tick_interval
        assert decision is not None, f"{name} never produced a decision"
        assert isinstance(decision, ScalingDecision)
        job_names = set(tiny_scenario.job_names)
        assert set(decision.replicas) <= job_names
        assert set(decision.drop_rates) <= job_names
        for target in decision.replicas.values():
            assert isinstance(target, int) and target >= 0
        # reset() restores a reusable policy: ticking again must not raise.
        policy.reset()
        policy.tick(0.0, _canned_observations(tiny_scenario))


class TestPlugins:
    def test_register_build_unregister(self, tiny_scenario):
        registry = api.get_registry()

        @dataclass(frozen=True)
        class NoopOptions:
            replicas: int = 1

        @registry.register(
            "test-noop", kind="plugin", description="test", config_type=NoopOptions
        )
        def build_noop(scenario, seed, options):
            class Noop(AutoscalePolicy):
                name = "Noop"

                def tick(self, now, observations):
                    return ScalingDecision(
                        replicas={n: options.replicas for n in observations}
                    )

            return Noop()

        try:
            assert "test-noop" in registry
            assert "test-noop" in registry.names(kind="plugin")
            policy = registry.build(
                "test-noop", tiny_scenario, options={"replicas": 3}
            )
            decision = policy.tick(0.0, _canned_observations(tiny_scenario))
            assert set(decision.replicas.values()) == {3}
        finally:
            registry.unregister("test-noop")
        assert "test-noop" not in registry

    def test_duplicate_name_rejected(self):
        registry = api.get_registry()
        with pytest.raises(ValueError, match="already registered"):
            registry.register("fairshare")(lambda s, seed, o: None)

    def test_duplicate_alias_rejected(self):
        registry = api.get_registry()
        with pytest.raises(ValueError, match="already registered"):
            registry.register("brand-new", aliases=("faro",))(
                lambda s, seed, o: None
            )

    def test_non_dataclass_config_rejected(self):
        registry = api.get_registry()
        with pytest.raises(TypeError, match="dataclass"):
            registry.register("bad-config", config_type=dict)(
                lambda s, seed, o: None
            )
