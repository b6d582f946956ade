"""Declarative scenario composition: specs, pipelines, lowering, e2e.

Four layers of protection around the scenario-composition redesign:

- **Registry/spec behaviour**: trace sources and transforms resolve by
  name with validated parameters; Trace/Job/Cluster specs round-trip
  losslessly through ``to_dict``/``from_dict`` (Hypothesis-tested, the
  ``test_api_spec.py`` style); transform pipelines preserve the trace
  invariant (1-D, non-negative) and apply in declaration order.
- **Lowering pins**: every built-in kind builds through the ``custom``
  spec ``ScenarioSpec.lower()`` returns, so the two specs' ``api.run``
  *stats* are bit-identical, and equal to digests captured on the
  factories the built-in kinds once had.  (The serialized spec itself
  necessarily differs -- that is the point of lowering -- so the digests
  pin the ``stats`` payload, the simulated numbers.)  Tiny cases run in
  tier-1 with literal digests; the shipped ``specs/`` files run under
  ``slow``.  Whole-number parameters of the built-in kinds validate at
  spec load.
- **Spec-only e2e**: ``specs/custom_burst.json`` -- heterogeneous models,
  SLOs, synthetic+replayed traces, no Python -- runs through
  ``repro-faro run`` (digest-pinned) and the sharded sweep executor with
  byte-identical serial/parallel reports.
- **Registry satellites**: ``**kwargs`` plugin factories validate
  correctly, and a ``ScenarioSpec.name`` override never renames a
  factory's (possibly cached/shared) Scenario in place.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api.composition import ClusterSpec, JobSpec, TraceSpec, TransformStep
from repro.traces.generators import get_trace_source_registry
from repro.traces.transforms import get_trace_transform_registry

REPO_ROOT = Path(__file__).resolve().parent.parent

#: sha256 of ``json.dumps(report.to_dict()["stats"], sort_keys=True)`` for
#: the tiny lowering cases, captured on the built-in kinds' own factories
#: (since deleted) at the composition layer's introduction.  Acceptance
#: contract: the built-in kinds and their lowered (``custom``-kind) specs
#: must reproduce these bits, through every future refactor.
LOWER_STATS_DIGESTS = {
    "paper": "1720326ca2bf887fa52ce1c7d8852c818bae30fbd804c9398ee366b1467bfda7",
    "mixed": "d4feb124bdef9a7c4ca0c2b2e0623e7e5e3c7e4d89354efece335911df9fb304",
    "large-scale": "deb4b79d45c8197913073c7c79d24d6f4fbb6c258151f25ec96f6aed708a55fe",
}

#: sha256 of the full serial ``api.run`` report of specs/custom_burst.json
#: (spec + stats), captured at introduction.
CUSTOM_BURST_DIGEST = (
    "0a8b95a79945f968bdb5dca3d64ceca29bcf9d6fe36f88d32a7cb6ee3ff8b807"
)

TINY_LOWER_PARAMS = {
    "paper": {"size": 8, "num_jobs": 2, "duration_minutes": 8, "days": 2,
              "rate_hi": 300.0},
    "mixed": {"total_replicas": 8, "num_jobs": 2, "duration_minutes": 6,
              "days": 2},
    "large-scale": {"num_jobs": 3, "total_replicas": 9, "duration_minutes": 6,
                    "days": 2},
}


def stats_digest(report) -> str:
    return hashlib.sha256(
        json.dumps(report.to_dict()["stats"], sort_keys=True).encode()
    ).hexdigest()


def report_digest(report) -> str:
    return hashlib.sha256(
        json.dumps(report.to_dict(), sort_keys=True).encode()
    ).hexdigest()


def tiny_experiment(scenario_spec: api.ScenarioSpec, name: str) -> api.ExperimentSpec:
    return api.ExperimentSpec.compare(
        name,
        scenario_spec,
        [
            api.PolicySpec(name="fairshare"),
            api.PolicySpec(name="aiad"),
            api.PolicySpec(
                name="faro-fairsum",
                options={"use_trained_predictor": False},
                label="faro",
            ),
        ],
        simulator="flow",
        trials=2,
        seed=0,
    )


# --------------------------------------------------------------- registries


class TestTraceSourceRegistry:
    def test_builtin_catalog(self):
        names = set(get_trace_source_registry().names())
        assert {"azure", "twitter", "constant", "diurnal", "ramp",
                "spike-train", "file"} <= names

    def test_unknown_source(self):
        with pytest.raises(ValueError, match="unknown trace source"):
            get_trace_source_registry().build("ghost", {})

    def test_unknown_param(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            get_trace_source_registry().build("constant", {"levle": 5.0})

    @pytest.mark.parametrize(
        "source,params",
        [
            ("azure", {"days": 1, "seed": 3}),
            ("twitter", {"days": 1, "seed": 3}),
            ("constant", {"minutes": 30, "level": 50.0}),
            ("diurnal", {"minutes": 30, "base_level": 10.0}),
            ("ramp", {"minutes": 30, "start": 0.0, "stop": 9.0}),
            ("spike-train", {"minutes": 30, "period_minutes": 7}),
        ],
    )
    def test_builtin_sources_produce_valid_traces(self, source, params):
        series = get_trace_source_registry().build(source, params)
        assert series.ndim == 1
        assert series.shape[0] == (1440 if "days" in params else params["minutes"])
        assert np.all(series >= 0)

    def test_sources_are_deterministic(self):
        registry = get_trace_source_registry()
        a = registry.build("azure", {"days": 1, "seed": 9})
        b = registry.build("azure", {"days": 1, "seed": 9})
        np.testing.assert_array_equal(a, b)

    def test_file_source_csv_roundtrip(self, tmp_path):
        from repro.traces.io import save_trace_csv

        series = np.array([1.0, 5.5, 0.0, 9.25])
        path = tmp_path / "trace.csv"
        save_trace_csv(path, series)
        loaded = get_trace_source_registry().build("file", {"path": str(path)})
        np.testing.assert_array_equal(loaded, series)

    def test_file_source_job_mix_json(self, tmp_path):
        from repro.traces.io import save_job_mix_json
        from repro.traces.library import JobTrace

        jobs = [
            JobTrace(name="a", rates_per_min=np.array([1.0, 2.0]), train_days=1),
            JobTrace(name="b", rates_per_min=np.array([3.0, 4.0]), train_days=1),
        ]
        path = tmp_path / "mix.json"
        save_job_mix_json(path, jobs)
        registry = get_trace_source_registry()
        loaded = registry.build("file", {"path": str(path), "job": "b"})
        np.testing.assert_array_equal(loaded, [3.0, 4.0])
        with pytest.raises(ValueError, match="pass 'job'"):
            registry.build("file", {"path": str(path)})

    def test_file_source_npy(self, tmp_path):
        path = tmp_path / "trace.npy"
        np.save(path, np.array([2.0, 4.0, 8.0]))
        loaded = get_trace_source_registry().build("file", {"path": str(path)})
        np.testing.assert_array_equal(loaded, [2.0, 4.0, 8.0])

    def test_file_source_missing_file_fails_validation(self):
        spec = TraceSpec(source="file", params={"path": "no/such/file.csv"})
        with pytest.raises(ValueError, match="does not exist"):
            spec.validate()


_series_arrays = st.lists(
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False, width=32),
    min_size=4,
    max_size=64,
).map(lambda values: np.asarray(values, dtype=float))


class TestTransformProperties:
    @given(series=_series_arrays)
    @settings(max_examples=40, deadline=None)
    def test_rescale_lands_in_band_and_preserves_length(self, series):
        out = get_trace_transform_registry().apply(
            "rescale", series, {"lo": 1.0, "hi": 100.0}
        )
        assert out.shape == series.shape
        assert np.all(out >= 1.0) and np.all(out <= 100.0)

    @given(series=_series_arrays)
    @settings(max_examples=40, deadline=None)
    def test_clip_noise_shift_preserve_length_and_nonnegativity(self, series):
        registry = get_trace_transform_registry()
        for name, params in (
            ("clip", {"lo": 0.5, "hi": 500.0}),
            ("noise", {"sigma": 0.3, "seed": 1}),
            ("time-shift", {"minutes": 3}),
            ("time-shift", {"minutes": -2, "mode": "pad"}),
        ):
            out = registry.apply(name, series, params)
            assert out.shape == series.shape
            assert np.all(out >= 0)

    @given(series=_series_arrays)
    @settings(max_examples=40, deadline=None)
    def test_roll_shift_preserves_the_multiset(self, series):
        out = get_trace_transform_registry().apply(
            "time-shift", series, {"minutes": 5, "mode": "roll"}
        )
        np.testing.assert_array_equal(np.sort(out), np.sort(series))

    @given(series=_series_arrays, window=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_compress_windows_length(self, series, window):
        out = get_trace_transform_registry().apply(
            "compress-windows", series, {"window": window}
        )
        assert out.shape[0] == series.shape[0] // window

    @given(series=_series_arrays)
    @settings(max_examples=25, deadline=None)
    def test_pipeline_applies_transforms_in_declaration_order(self, series):
        """A pipeline is exactly the ordered composition of its steps."""
        registry = get_trace_transform_registry()
        shifted = registry.apply("time-shift", series, {"minutes": 2})
        manual = registry.apply("rescale", shifted, {"lo": 1.0, "hi": 50.0})

        spec = TraceSpec(
            source="constant",  # placeholder; we bypass the source below
            transforms=(
                TransformStep("time-shift", {"minutes": 2}),
                TransformStep("rescale", {"lo": 1.0, "hi": 50.0}),
            ),
        )
        out = series
        for step in spec.transforms:
            out = registry.apply(step.name, out, step.params)
        np.testing.assert_array_equal(out, manual)

    def test_superpose_adds_and_truncates(self):
        registry = get_trace_transform_registry()
        base = np.array([10.0, 10.0, 10.0, 10.0])
        out = registry.apply(
            "superpose",
            base,
            {"trace": {"source": "constant", "params": {"minutes": 3, "level": 5.0}},
             "weight": 2.0},
        )
        np.testing.assert_array_equal(out, [20.0, 20.0, 20.0])

    def test_superpose_negative_weight_clips_at_zero(self):
        out = get_trace_transform_registry().apply(
            "superpose",
            np.array([1.0, 1.0]),
            {"trace": {"source": "constant", "params": {"minutes": 2, "level": 50.0}},
             "weight": -1.0},
        )
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_splice_concatenates(self):
        out = get_trace_transform_registry().apply(
            "splice",
            np.array([1.0, 2.0, 3.0, 4.0]),
            {"trace": {"source": "constant", "params": {"minutes": 2, "level": 9.0}},
             "at": 2},
        )
        np.testing.assert_array_equal(out, [1.0, 2.0, 9.0, 9.0])

    def test_unknown_transform_and_param(self):
        registry = get_trace_transform_registry()
        with pytest.raises(ValueError, match="unknown trace transform"):
            registry.apply("ghost", np.ones(4))
        with pytest.raises(ValueError, match="unknown parameter"):
            registry.apply("clip", np.ones(4), {"high": 2.0})


# ------------------------------------------------------------- round-trips


_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="-_"),
    min_size=1,
    max_size=12,
)
_json_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=8),
)
_params = st.dictionaries(st.text(min_size=1, max_size=8), _json_scalars, max_size=3)

_transform_steps = st.builds(TransformStep, name=_names, params=_params)
_trace_specs = st.builds(
    TraceSpec,
    source=_names,
    params=_params,
    transforms=st.lists(_transform_steps, max_size=3).map(tuple),
)
_models = st.one_of(
    st.sampled_from(["resnet34", "resnet18"]),
    st.builds(
        lambda proc, jitter: {"name": "custom-model", "proc_time": proc,
                              "proc_jitter": jitter},
        proc=st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
        jitter=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    ),
)
_slos = st.one_of(
    st.none(),
    st.builds(
        lambda m, p: {"multiple": m, "percentile": p},
        m=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
        p=st.floats(min_value=50.0, max_value=100.0, exclude_max=True, allow_nan=False),
    ),
    st.builds(
        lambda t: {"target": t},
        t=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    ),
)
_job_specs = st.builds(
    JobSpec,
    name=_names,
    trace=_trace_specs,
    model=_models,
    slo=_slos,
    priority=st.floats(min_value=0.125, max_value=10.0, allow_nan=False),
    min_replicas=st.integers(min_value=1, max_value=3),
    train_trace=st.one_of(st.none(), _trace_specs),
)
_cluster_specs = st.builds(
    ClusterSpec, total_replicas=st.integers(min_value=1, max_value=1000)
)


class TestRoundTrip:
    @given(spec=_trace_specs)
    @settings(max_examples=50, deadline=None)
    def test_trace_dict_roundtrip(self, spec):
        assert TraceSpec.from_dict(spec.to_dict()) == spec

    @given(spec=_job_specs)
    @settings(max_examples=50, deadline=None)
    def test_job_dict_roundtrip(self, spec):
        assert JobSpec.from_dict(spec.to_dict()) == spec

    @given(spec=_cluster_specs)
    @settings(max_examples=25, deadline=None)
    def test_cluster_dict_roundtrip(self, spec):
        assert ClusterSpec.from_dict(spec.to_dict()) == spec

    @given(spec=_job_specs)
    @settings(max_examples=25, deadline=None)
    def test_job_dict_is_json_stable(self, spec):
        decoded = json.loads(json.dumps(spec.to_dict()))
        assert JobSpec.from_dict(decoded) == spec

    def test_nested_trace_specs_serialize_inside_transform_params(self):
        nested = TraceSpec(source="constant", params={"minutes": 4, "level": 2.0})
        spec = TraceSpec(
            source="constant",
            params={"minutes": 4, "level": 1.0},
            transforms=(TransformStep("superpose", {"trace": nested}),),
        )
        data = json.loads(json.dumps(spec.to_dict()))  # fully JSON-plain
        assert data["transforms"][0]["params"]["trace"]["source"] == "constant"
        assert TraceSpec.from_dict(data) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            TraceSpec.from_dict({"source": "constant", "tranforms": []})
        with pytest.raises(ValueError, match="unknown key"):
            JobSpec.from_dict({"name": "a", "trace": {"source": "constant"},
                               "modle": "resnet34"})
        with pytest.raises(ValueError, match="unknown key"):
            ClusterSpec.from_dict({"replicas": 4})


# ------------------------------------------------------- the custom kind


def _tiny_custom_params(**overrides):
    params = {
        "name": "tiny-custom",
        "jobs": [
            {
                "name": "a",
                "model": "resnet34",
                "trace": {
                    "source": "diurnal",
                    "params": {"minutes": 80, "base_level": 120.0},
                },
            },
            {
                "name": "b",
                "model": "resnet18",
                "slo": {"target": 0.3, "percentile": 95.0},
                "trace": {
                    "source": "constant",
                    "params": {"minutes": 90, "level": 60.0},
                },
            },
        ],
        "cluster": {"total_replicas": 6},
        "train_minutes": 60,
        "duration_minutes": 10,
    }
    params.update(overrides)
    return params


class TestCustomScenario:
    def test_builds_heterogeneous_scenario(self):
        scenario = api.ScenarioSpec(kind="custom", params=_tiny_custom_params()).build()
        assert scenario.name == "tiny-custom"
        assert scenario.total_replicas == 6
        assert scenario.duration_minutes == 10  # trimmed to duration
        by_name = {job.name: job for job in scenario.jobs}
        assert by_name["a"].model.name == "resnet34"
        assert by_name["b"].model.name == "resnet18"
        assert by_name["a"].slo.target == pytest.approx(0.72)  # paper default
        assert by_name["b"].slo.target == 0.3
        assert by_name["b"].slo.percentile == 95.0
        assert scenario.train_traces["a"].shape[0] == 60
        # shortest eval window wins: job a has 80-60=20 eval minutes, job b
        # 30; both trimmed to duration_minutes=10.
        assert all(v.shape[0] == 10 for v in scenario.eval_traces.values())

    def test_history_prefix_spans_the_split(self):
        scenario = api.ScenarioSpec(
            kind="custom",
            params=_tiny_custom_params(history_prefix_minutes=8),
        ).build()
        full = get_trace_source_registry().build(
            "diurnal", {"minutes": 80, "base_level": 120.0}
        )
        np.testing.assert_array_equal(
            scenario.history_prefix["a"], full[52:60]
        )

    @pytest.mark.parametrize("offset", [0, 5, 480])
    def test_history_prefix_owns_its_minutes(self, offset):
        """Each prefix is a copy of its minutes only: a view of the joined
        train + eval trace would keep a second copy of all of it alive."""
        diurnal = {"source": "diurnal", "params": {"minutes": 2880}}
        params = _tiny_custom_params(
            jobs=[
                {"name": "a", "trace": diurnal},
                {
                    "name": "b",
                    "trace": diurnal,
                    "train_trace": {"source": "ramp", "params": {"minutes": 40}},
                },
            ],
            train_minutes=1440,
            eval_offset_minutes=offset,
        )
        scenario = api.ScenarioSpec(kind="custom", params=params).build()
        sources = get_trace_source_registry()
        full = sources.build("diurnal", {"minutes": 2880})
        joined = {
            "a": full,
            "b": np.concatenate([sources.build("ramp", {"minutes": 40}), full]),
        }
        boundaries = {"a": 1440 + offset, "b": 40 + offset}
        for name, prefix in scenario.history_prefix.items():
            assert prefix.base is None
            boundary = boundaries[name]
            np.testing.assert_array_equal(
                prefix, joined[name][max(boundary - 16, 0) : boundary]
            )

    def test_separate_train_trace(self):
        params = _tiny_custom_params()
        params["jobs"][0]["train_trace"] = {
            "source": "constant",
            "params": {"minutes": 40, "level": 9.0},
        }
        scenario = api.ScenarioSpec(kind="custom", params=params).build()
        # Train comes from the dedicated pipeline; the whole `trace`
        # becomes the evaluation series (then offset/duration trims).
        np.testing.assert_array_equal(scenario.train_traces["a"], np.full(40, 9.0))
        assert scenario.eval_traces["a"].shape[0] == 10

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda p: p.pop("cluster"), "requires a 'cluster'"),
            (lambda p: p.pop("train_minutes"), "train_minutes"),
            (lambda p: p.update(jobs=[]), "at least one job"),
            (
                lambda p: p["jobs"].append(dict(p["jobs"][0])),
                "duplicate job names",
            ),
            (
                lambda p: p["jobs"][0].update(model="resnet99"),
                "unknown model",
            ),
            (
                lambda p: p["jobs"][0]["trace"].update(source="ghost"),
                "unknown trace source",
            ),
            (
                lambda p: p["jobs"][0]["trace"].update(
                    transforms=[{"name": "rescale", "params": {"high": 2}}]
                ),
                "unknown parameter",
            ),
            (
                lambda p: p["jobs"][0].update(
                    slo={"target": 0.3, "multiple": 4.0}
                ),
                "exactly one of",
            ),
            (
                # 0 is ambiguous (unlimited? empty?); None means "no trim".
                lambda p: p.update(duration_minutes=0),
                "duration_minutes must be >= 1",
            ),
            (
                lambda p: p.update(rate_scale=-1.0),
                "rate_scale must be a finite number >= 0",
            ),
            (
                # json.loads accepts the Infinity/NaN literals.
                lambda p: p.update(rate_scale=float("nan")),
                "rate_scale must be a finite number",
            ),
            (
                lambda p: p.update(train_minutes=float("inf")),
                "whole number",
            ),
            (
                # JSON has one number type: 6.5 replicas must not truncate.
                lambda p: p["cluster"].update(total_replicas=6.5),
                "whole number",
            ),
            (
                lambda p: p["cluster"].update(total_replicas=1),
                "cannot host",
            ),
            (
                # Capacity is checked against the sum of min_replicas
                # floors, not just one replica per job.
                lambda p: p["jobs"][0].update(min_replicas=10),
                "floors sum to",
            ),
            (
                # Wrong-typed JSON values give contextual errors, not raw
                # TypeError tracebacks.
                lambda p: p["jobs"][0]["trace"].update(
                    source="azure", params={"days": "2"}
                ),
                "trace source 'azure'",
            ),
        ],
    )
    def test_invalid_custom_specs_fail_at_validation(self, mutate, match):
        params = _tiny_custom_params()
        mutate(params)
        spec = api.ExperimentSpec.compare(
            "bad-custom",
            api.ScenarioSpec(kind="custom", params=params),
            ["fairshare"],
            simulator="flow",
        )
        events = []
        with pytest.raises(ValueError, match=match):
            api.run(spec, progress=events.append)
        assert events == []  # failed in pre-run validation, nothing ran

    def test_train_minutes_past_trace_end_fails_at_build(self):
        params = _tiny_custom_params(train_minutes=200)
        with pytest.raises(ValueError, match="no data after"):
            api.ScenarioSpec(kind="custom", params=params).build()

    def test_integral_float_minutes_accepted(self):
        """JSON has one number type: 60.0 must mean 60, not a crash."""
        params = _tiny_custom_params(
            train_minutes=60.0, duration_minutes=10.0, eval_offset_minutes=0.0
        )
        scenario = api.ScenarioSpec(kind="custom", params=params).build()
        assert scenario.duration_minutes == 10
        assert scenario.train_traces["a"].shape[0] == 60

    def test_fractional_minutes_rejected_at_validation(self):
        params = _tiny_custom_params(train_minutes=60.5)
        with pytest.raises(ValueError, match="whole number"):
            from repro.api.composition import validate_custom_params

            validate_custom_params(params)


# ---------------------------------------------------- registry satellites


class TestRegistrySatellites:
    def test_var_keyword_factory_accepts_arbitrary_params(self):
        """A plugin factory taking **kwargs must not reject every param."""
        registry = api.get_scenario_registry()
        seen = {}

        def factory(**kwargs):
            seen.update(kwargs)
            return api.ScenarioSpec(
                kind="custom", params=_tiny_custom_params()
            ).build()

        api.register_scenario("kwargs-plugin", description="test")(factory)
        try:
            info = registry.get("kwargs-plugin")
            assert info.accepts_any_params()
            info.check_params({"anything": 1, "goes": True})  # must not raise
            scenario = registry.build("kwargs-plugin", {"alpha": 2, "beta": "x"})
            assert seen == {"alpha": 2, "beta": "x"}
            assert scenario.name == "tiny-custom"
            # And the spec-level pre-run validation accepts it too.
            from repro.api.runner import _validate_spec

            _validate_spec(
                api.ExperimentSpec.compare(
                    "kwargs-exp",
                    api.ScenarioSpec(kind="kwargs-plugin", params={"alpha": 1}),
                    ["fairshare"],
                )
            )
        finally:
            registry.unregister("kwargs-plugin")

    def test_name_override_never_renames_a_shared_scenario(self):
        """build_scenario must rename a copy, not the factory's instance."""
        registry = api.get_scenario_registry()
        shared = api.ScenarioSpec(kind="custom", params=_tiny_custom_params()).build()

        api.register_scenario("shared-plugin", description="test")(lambda: shared)
        try:
            built = api.build_scenario(
                api.ScenarioSpec(kind="shared-plugin", name="override")
            )
            assert built.name == "override"
            assert shared.name == "tiny-custom"  # untouched
            assert built is not shared
            # A second, unnamed build still sees the original name.
            assert api.build_scenario(
                api.ScenarioSpec(kind="shared-plugin")
            ).name == "tiny-custom"
        finally:
            registry.unregister("shared-plugin")


# ------------------------------------------------------------ lowering pins


class TestLoweringTiny:
    @pytest.mark.parametrize("kind", sorted(TINY_LOWER_PARAMS))
    def test_lowered_stats_bit_identical_and_pinned(self, kind):
        scenario_spec = api.ScenarioSpec(kind=kind, params=TINY_LOWER_PARAMS[kind])
        direct = api.run(tiny_experiment(scenario_spec, f"lower-{kind}"))
        lowered_spec = scenario_spec.lower()
        assert lowered_spec.kind == "custom"
        lowered = api.run(tiny_experiment(lowered_spec, f"lower-{kind}"))
        assert direct.to_dict()["stats"] == lowered.to_dict()["stats"]
        assert stats_digest(direct) == LOWER_STATS_DIGESTS[kind]
        assert stats_digest(lowered) == LOWER_STATS_DIGESTS[kind]

    def test_lowered_spec_is_a_serializable_file(self, tmp_path):
        spec = tiny_experiment(
            api.ScenarioSpec(kind="paper", params=TINY_LOWER_PARAMS["paper"]),
            "lower-file",
        ).lower()
        assert all(s.kind == "custom" for s in spec.scenarios)
        path = spec.to_file(tmp_path / "lowered.json")
        assert api.ExperimentSpec.from_file(path) == spec

    def test_unlowerable_kind_raises(self):
        registry = api.get_scenario_registry()
        api.register_scenario("no-lower", description="test")(lambda: None)
        try:
            with pytest.raises(ValueError, match="does not support lowering"):
                api.ScenarioSpec(kind="no-lower").lower()
        finally:
            registry.unregister("no-lower")

    def test_custom_lowers_to_itself(self):
        spec = api.ScenarioSpec(kind="custom", params=_tiny_custom_params())
        assert spec.lower() == spec


#: Each built-in kind's whole-number parameters.
WHOLE_NUMBER_PARAMS = {
    "paper": ("size", "num_jobs", "days", "seed"),
    "mixed": ("total_replicas", "num_jobs", "days", "seed"),
    "large-scale": ("num_jobs", "total_replicas", "days", "seed"),
}


class TestWholeNumberParams:
    """JSON has one number type: a built-in kind takes 2.0 as 2, and
    rejects 2.5 or "2" at spec validation instead of truncating it."""

    @pytest.mark.parametrize("kind", sorted(WHOLE_NUMBER_PARAMS))
    def test_integral_floats_build_the_int_scenario(self, kind):
        params = {**TINY_LOWER_PARAMS[kind], "seed": 1}
        as_floats = {
            key: float(value) if key in WHOLE_NUMBER_PARAMS[kind] else value
            for key, value in params.items()
        }
        spec = api.ScenarioSpec(kind=kind, params=params)
        float_spec = api.ScenarioSpec(kind=kind, params=as_floats)
        assert float_spec.lower() == spec.lower()
        expected, built = spec.build(), float_spec.build()
        assert built.name == expected.name and "." not in built.name
        assert built.total_replicas == expected.total_replicas
        assert built.job_names == expected.job_names
        for name in expected.job_names:
            np.testing.assert_array_equal(
                built.eval_traces[name], expected.eval_traces[name]
            )

    @pytest.mark.parametrize("bad", [2.5, "2"])
    @pytest.mark.parametrize(
        "kind, param",
        [(kind, param) for kind, names in WHOLE_NUMBER_PARAMS.items() for param in names],
    )
    def test_fractional_and_string_values_fail_at_validation(self, kind, param, bad):
        params = {**TINY_LOWER_PARAMS[kind], param: bad}
        spec = api.ExperimentSpec.compare(
            "bad-whole",
            api.ScenarioSpec(kind=kind, params=params),
            ["fairshare"],
            simulator="flow",
        )
        events = []
        with pytest.raises(ValueError, match=param):
            api.run(spec, progress=events.append)
        assert events == []  # failed in pre-run validation, nothing ran

    @pytest.mark.parametrize("kind", sorted(WHOLE_NUMBER_PARAMS))
    def test_run_spec_with_a_fractional_count_exits_two(self, kind, tmp_path, capsys):
        from repro.cli import main

        params = {**TINY_LOWER_PARAMS[kind], "num_jobs": 2.5}
        path = api.ExperimentSpec.compare(
            "bad-whole",
            api.ScenarioSpec(kind=kind, params=params),
            ["fairshare"],
            simulator="flow",
        ).to_file(tmp_path / "spec.json")
        assert main(["run", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert "num_jobs must be a whole number, got 2.5" in captured.err
        assert "Traceback" not in captured.err


@pytest.mark.slow
class TestLoweringShippedSpecs:
    """Every shipped spec file lowers to bit-identical statistics."""

    @pytest.mark.parametrize(
        "path",
        [
            "specs/quickstart.yaml",
            "specs/mixed_sweep.json",
            "specs/paper_headline.json",
            "specs/hybrid_paper.json",
            "specs/custom_burst.json",
        ],
    )
    def test_shipped_spec_lowered_stats_identical(self, path):
        spec = api.ExperimentSpec.from_file(REPO_ROOT / path)
        direct = api.run(spec)
        lowered = api.run(spec.lower())
        assert direct.to_dict()["stats"] == lowered.to_dict()["stats"]


# --------------------------------------------------------- spec-only e2e


class TestCustomBurstEndToEnd:
    """specs/custom_burst.json: a scenario no Python defines, end to end."""

    def test_serial_report_digest_pinned(self):
        report = api.run(api.ExperimentSpec.from_file("specs/custom_burst.json"))
        assert report_digest(report) == CUSTOM_BURST_DIGEST

    def test_runs_through_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main(
            ["run", "--spec", "specs/custom_burst.json", "--report", str(report_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "burst-3jobs-14r" in out
        data = json.loads(report_path.read_text())
        assert data["spec"]["scenarios"][0]["kind"] == "custom"
        assert set(data["stats"]["burst-3jobs-14r"]) == {
            "fairshare", "aiad", "faro (persistence)"
        }


@pytest.mark.slow
class TestCustomBurstSweep:
    def test_sharded_sweep_byte_identical_to_serial(self):
        spec = api.ExperimentSpec.from_file("specs/custom_burst.json")
        serial = api.run(spec)
        parallel = api.run_parallel(spec, workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )
        assert report_digest(serial) == CUSTOM_BURST_DIGEST

    def test_sweep_cli_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main(
            [
                "sweep",
                "--spec", "specs/custom_burst.json",
                "--workers", "2",
                "--journal", str(tmp_path / "journal"),
                "--report", str(report_path),
            ]
        )
        assert code == 0
        data = json.loads(report_path.read_text())
        assert report_digest_from_dict(data) == CUSTOM_BURST_DIGEST


def report_digest_from_dict(data: dict) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# ------------------------------------------------------------------- CLI


class TestScenariosCli:
    def test_show(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "show", "custom"]) == 0
        out = capsys.readouterr().out
        assert "train_minutes" in out
        assert "lowers to 'custom': yes" in out

    def test_show_unknown(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "show", "ghost"]) == 2
        assert "unknown scenario kind" in capsys.readouterr().err

    def test_lower_kind_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "lowered.json"
        code = main(
            [
                "scenarios", "lower", "paper",
                "--params",
                json.dumps(TINY_LOWER_PARAMS["paper"]),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        data = json.loads(out_path.read_text())
        assert data["kind"] == "custom"
        assert len(data["params"]["jobs"]) == 2

    def test_lower_whole_spec_file(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "lower", "--spec", "specs/quickstart.yaml"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(s["kind"] == "custom" for s in data["scenarios"])

    def test_build_dry_run(self, capsys):
        from repro.cli import main

        code = main(["scenarios", "build", "--spec", "specs/custom_burst.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "burst-3jobs-14r" in out
        assert "300ms p95" in out  # the heterogeneous SLO made it through

    def test_build_invalid_params(self, capsys):
        from repro.cli import main

        code = main(
            ["scenarios", "build", "custom", "--params", '{"jobs": []}']
        )
        assert code == 2
        assert "cannot build" in capsys.readouterr().err

    def test_lower_requires_target(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "lower"]) == 2


# ------------------------------------------------- mixture transform


def _mixture_trace(base_minutes=4, base_level=10.0, **mixture_params):
    params = {
        "traces": [
            {"source": "constant", "params": {"minutes": 4, "level": 100.0}}
        ],
    }
    params.update(mixture_params)
    return TraceSpec.from_dict(
        {
            "source": "constant",
            "params": {"minutes": base_minutes, "level": base_level},
            "transforms": [{"name": "mixture", "params": params}],
        }
    )


class TestMixtureTransform:
    def test_registered(self):
        assert "mixture" in get_trace_transform_registry().names()

    def test_windowed_weight_rows(self):
        series = _mixture_trace(window=2, weights=[[1.0, 0.0], [0.0, 1.0]]).build()
        np.testing.assert_allclose(series, [10.0, 10.0, 100.0, 100.0])

    def test_weight_rows_cycle(self):
        series = _mixture_trace(window=1, weights=[[1.0, 0.0], [0.0, 1.0]]).build()
        np.testing.assert_allclose(series, [10.0, 100.0, 10.0, 100.0])

    def test_default_weights_are_plain_sum(self):
        series = _mixture_trace().build()
        np.testing.assert_allclose(series, [110.0] * 4)

    def test_single_mapping_pipeline_wrapped(self):
        spec = TraceSpec.from_dict(
            {
                "source": "constant",
                "params": {"minutes": 4, "level": 10.0},
                "transforms": [
                    {
                        "name": "mixture",
                        "params": {
                            "traces": {
                                "source": "constant",
                                "params": {"minutes": 4, "level": 1.0},
                            },
                            "weights": [1.0, 2.0],
                        },
                    }
                ],
            }
        )
        np.testing.assert_allclose(spec.build(), [12.0] * 4)

    def test_truncates_to_shortest_component(self):
        series = _mixture_trace(
            traces=[{"source": "constant", "params": {"minutes": 2, "level": 1.0}}]
        ).build()
        assert series.shape[0] == 2

    @pytest.mark.parametrize(
        "params,match",
        [
            ({"traces": None}, "nested 'traces'"),
            ({"traces": []}, "at least one"),
            ({"window": 0}, "window"),
            ({"weights": [[1.0, 0.0, 0.0]]}, "rows of 2 entries"),
            ({"weights": [[1.0, -0.5]]}, "non-negative"),
        ],
    )
    def test_validation_errors(self, params, match):
        with pytest.raises(ValueError, match=match):
            _mixture_trace(**params).build()

    def test_nested_pipeline_validated_recursively(self):
        with pytest.raises(ValueError, match="ghost"):
            _mixture_trace(
                traces=[{"source": "ghost", "params": {}}]
            ).build()


# ------------------------------------------- spec-relative replay paths


def _write_replay_csv(path, minutes=30, level=12.0):
    rows = ["minute,requests"] + [f"{m},{level}" for m in range(minutes)]
    path.write_text("\n".join(rows) + "\n")


def _file_spec_dict(trace_path):
    return {
        "version": 1,
        "name": "replay-exp",
        "scenarios": [
            {
                "kind": "custom",
                "params": {
                    "name": "replay-scn",
                    "jobs": [
                        {
                            "name": "a",
                            "model": "resnet18",
                            "trace": {
                                "source": "file",
                                "params": {"path": str(trace_path)},
                            },
                        }
                    ],
                    "cluster": {"total_replicas": 4},
                    "train_minutes": 20,
                    "duration_minutes": 5,
                },
            }
        ],
        "policies": [{"name": "fairshare"}],
        "trials": 1,
        "seed": 0,
        "simulator": "flow",
    }


class TestSpecRelativeTracePaths:
    def test_custom_burst_cwd_relative_regression(self):
        # The shipped spec names its replay file relative to the repo root
        # (the historical working-directory meaning) -- must keep working.
        spec = api.ExperimentSpec.from_file("specs/custom_burst.json")
        scenario = spec.scenarios[0].build()
        assert any(len(t) > 0 for t in scenario.eval_traces.values())

    def test_spec_relative_path_from_foreign_cwd(self, tmp_path, monkeypatch):
        home = tmp_path / "home"
        home.mkdir()
        _write_replay_csv(home / "replay.csv")
        spec_path = home / "exp.json"
        spec_path.write_text(json.dumps(_file_spec_dict("replay.csv")))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        spec = api.ExperimentSpec.from_file(spec_path)
        report = api.run(spec)
        assert "fairshare" in report.stats["replay-scn"]

    def test_absolute_path_escape_hatch(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        _write_replay_csv(data_dir / "replay.csv")
        spec_path = tmp_path / "exp.json"
        spec_path.write_text(
            json.dumps(_file_spec_dict(data_dir / "replay.csv"))
        )
        monkeypatch.chdir(tmp_path)
        spec = api.ExperimentSpec.from_file(spec_path)
        assert "fairshare" in api.run(spec).stats["replay-scn"]

    def test_missing_file_still_names_cwd_candidate(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        from repro.traces.generators import resolve_trace_path, trace_search_path

        with trace_search_path(tmp_path / "specs"):
            assert resolve_trace_path("ghost.csv") == Path("ghost.csv")

    def test_cwd_meaning_wins_over_spec_dir(self, tmp_path, monkeypatch):
        from repro.traces.generators import resolve_trace_path, trace_search_path

        cwd = tmp_path / "cwd"
        spec_dir = tmp_path / "spec"
        cwd.mkdir()
        spec_dir.mkdir()
        _write_replay_csv(cwd / "dup.csv", level=1.0)
        _write_replay_csv(spec_dir / "dup.csv", level=2.0)
        monkeypatch.chdir(cwd)
        with trace_search_path(spec_dir):
            assert resolve_trace_path("dup.csv") == Path("dup.csv")


# --------------------------------------------------- scenarios --export


class TestScenariosExportCli:
    def test_export_spec_with_devices(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "export"
        code = main(
            [
                "scenarios", "build",
                "--spec", "specs/hetero_mixed.json",
                "--export", str(out),
            ]
        )
        assert code == 0
        slug = "hetero-mixed-2m-16d"
        for suffix in ("jobs", "eval_traces", "train_traces", "devices"):
            assert (out / f"{slug}_{suffix}.csv").is_file()
        header = (out / f"{slug}_devices.csv").read_text().splitlines()[0]
        assert "speedup[resnet34]" in header
        jobs = (out / f"{slug}_jobs.csv").read_text().splitlines()
        assert jobs[0].startswith("job,model,slo_target_s")
        assert len(jobs) == 3  # header + 2 jobs
        assert str(out) in capsys.readouterr().out

    def test_export_builtin_kind_without_devices(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "export"
        code = main(
            [
                "scenarios", "build", "paper",
                "--params", json.dumps(TINY_LOWER_PARAMS["paper"]),
                "--export", str(out),
            ]
        )
        assert code == 0
        written = sorted(p.name for p in out.iterdir())
        assert not any("devices" in name for name in written)
        assert any(name.endswith("_jobs.csv") for name in written)
        # Trace CSVs replay: minute column plus one column per job.
        eval_csv = next(p for p in out.iterdir() if p.name.endswith("_eval_traces.csv"))
        header = eval_csv.read_text().splitlines()[0].split(",")
        assert header[0] == "minute"
        assert len(header) == 3
