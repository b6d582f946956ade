"""Cross-backend differential suite: byte-identity pins and Table 7 parity.

Three layers of protection around the backend refactor:

- **Byte-identity pins**: ``repro.api.run`` report digests for
  request/flow specs were captured on the pre-refactor engine and are
  asserted here, so the harness extraction, the event-driven lifecycle,
  the compiled request dispatch and the merge of the request and flow
  backends into presets of the hybrid harness provably changed nothing --
  down to the last bit of every serialized statistic.  Tiny specs run in
  tier-1; the shipped ``specs/`` files run under the ``slow`` marker.
- **Ranking agreement** (Table 7's methodology): the request-level and
  flow simulators must agree on how policies *rank*, which is the claim
  the paper's matched-simulation comparisons rest on.
- **Hybrid pins**: the new backend's behaviour is pinned by digest so
  future refactors inherit the same guarantee, and it must run end-to-end
  through spec files, the CLI, and the sharded sweep executor.
"""

import hashlib
import json

import pytest

from repro import api

#: sha256 of ``json.dumps(api.run(spec).to_dict(), sort_keys=True)``,
#: captured on the pre-refactor engine (commit 96ea3bf).  These values are
#: the refactor's acceptance contract: do not regenerate them to make a
#: failing test pass -- a mismatch means results changed.
PRE_REFACTOR_DIGESTS = {
    "tiny-request": "70feaffc9d5282337eb2a8ffb39a34f67f3ec7dceae5502ab5b28d9c72d6d47b",
    "tiny-flow": "aaf99e6c53c9bd246f014dc2d39d30371da6b12ad58b6089cb79f3051a43c08b",
    "tiny-overrides": "fbfa91075dfd88373d5b0b0dcb88c18c16d41e00b5cec4646e8b2a888c312f57",
    "specs/quickstart.yaml": "e4f09a3b1f115e8cdd332dbaa2032dc70d2f78f9c0616cb4ee6424cb81c7bffb",
    "specs/mixed_sweep.json": "7311b8d6918687b303fd8e5b6137a9b20d256854df03d6afbd2c7a9b6f86fc4e",
    "specs/paper_headline.json": "6c2ffdf3b6333099f0c5cc49538ed7aab8f4adc39297fde0e0e69d0afee32965",
}

#: Report digests of tiny request/flow specs with fault injection (per-tick
#: and event-time) and on a heterogeneous device fleet, captured on the
#: engine whose ``request`` and ``flow`` backends still had their own
#: dynamics (commit 72d7b9d), before they became presets of the hybrid
#: harness.  Do not regenerate them: a mismatch means results changed.
PRE_MERGE_DIGESTS = {
    "tiny-request-tick-faults": "e6918166f70bc68366f53d104dc84ff181c8d472fe2645b67cbb229ccc8f93bc",
    "tiny-flow-tick-faults": "1d4bacbd12922ff78a1418de706bc4a93884548d86d76535dbd20bd1744fd283",
    "tiny-request-event-faults": "2f28d0b9f450341318c122c4d6c668b881b4127fa43b803c539b360a27e0105a",
    "tiny-flow-event-faults": "e15ab9ef72c677e10f88f072da7f214ab78ed4bc4e29401df9c9bc0f920166dd",
    "tiny-hetero-request": "37aaa1678898ffc685c3e4c905205d0de455c11890dcfff81f540984472254c6",
}

#: Fault settings of the pinned fault specs: short enough an MTTF that
#: every trial sees failures.
PINNED_FAULTS = {
    "tick": {"mttf_seconds": 300.0, "seed": 1},
    "event": {"mttf_seconds": 300.0, "seed": 1, "process": "event"},
}

#: Behaviour pin for the new hybrid backend (captured at introduction, this
#: PR): seed/ordering changes in the hybrid split show up here.
HYBRID_DIGEST = "9e983e6687899d876aa91b6a1bfa44f5e1aa31b21bd748df3d09671c7009b9d2"

#: Behaviour pin for hybrid mid-run fidelity promotion (captured at
#: introduction).  The promotion rule is required to be a deterministic
#: function of the spec -- promotion times, router seeds, and arrival
#: streams included -- so any change to the hysteresis controller, seed
#: derivation, or minute stitching shows up here.
HYBRID_PROMOTION_DIGEST = (
    "00cdf9235a83b23d4f800fd7ac3aec43b247b94f145e683e68ce07333980336b"
)


def report_digest(spec) -> str:
    return digest(api.run(spec))


def digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def tiny_spec(name: str, simulator: str, **settings) -> api.ExperimentSpec:
    defaults = dict(
        trials=2,
        seed=0,
        predictor_profile={"epochs": 1, "max_windows": 64},
    )
    defaults.update(settings)
    return api.ExperimentSpec.compare(
        name,
        [
            api.ScenarioSpec(
                kind="paper",
                params={"size": 8, "num_jobs": 2, "duration_minutes": 8,
                        "days": 2, "rate_hi": 300.0},
                name="tiny-SO",
            ),
            api.ScenarioSpec(
                kind="mixed",
                params={"total_replicas": 8, "num_jobs": 2,
                        "duration_minutes": 6, "days": 2},
                name="tiny-mixed",
            ),
        ],
        ["fairshare", "aiad", "faro-fairsum"],
        simulator=simulator,
        **defaults,
    )


# ----------------------------------------------------- byte-identity pins


class TestPreRefactorByteIdentity:
    def test_tiny_request_spec_pinned(self):
        assert (
            report_digest(tiny_spec("tiny-request", "request"))
            == PRE_REFACTOR_DIGESTS["tiny-request"]
        )

    def test_tiny_flow_spec_pinned(self):
        assert (
            report_digest(tiny_spec("tiny-flow", "flow"))
            == PRE_REFACTOR_DIGESTS["tiny-flow"]
        )

    def test_tiny_sim_overrides_pinned(self):
        base = tiny_spec("tiny-overrides", "request")
        spec = api.ExperimentSpec(
            name="tiny-overrides",
            scenarios=base.scenarios,
            policies=base.policies,
            trials=1,
            seed=3,
            simulator="request",
            predictor_profile={"epochs": 1, "max_windows": 64},
            sim_overrides={"cold_start_range": [5.0, 9.0], "queue_threshold": 40},
        )
        assert report_digest(spec) == PRE_REFACTOR_DIGESTS["tiny-overrides"]


class TestPreMergeByteIdentity:
    """Faults and device fleets through the request and flow presets."""

    @pytest.mark.parametrize("process", ["tick", "event"])
    @pytest.mark.parametrize("simulator", ["request", "flow"])
    def test_tiny_fault_spec_pinned(self, simulator, process):
        name = f"tiny-{simulator}-{process}-faults"
        spec = tiny_spec(
            name, simulator, trials=1,
            sim_overrides={"faults": PINNED_FAULTS[process]},
        )
        report = api.run(spec)
        failures = [
            result.metadata["total_failures"]
            for per_policy in report.stats.values()
            for stats in per_policy.values()
            for result in stats.results
        ]
        assert min(failures) > 0  # every trial exercises the fault path
        assert digest(report) == PRE_MERGE_DIGESTS[name]

    def test_tiny_hetero_request_spec_pinned(self):
        from tests.test_hetero_policies import _hetero_custom_params

        spec = api.ExperimentSpec.compare(
            "tiny-hetero-request",
            api.ScenarioSpec(kind="custom", params=_hetero_custom_params()),
            ["fairshare", "hetero-max-throughput"],
            simulator="request",
            trials=1,
            seed=0,
            predictor_profile={"epochs": 1, "max_windows": 64},
        )
        report = api.run(spec)
        result = report.get("tiny-hetero", "fairshare").results[0]
        assert result.metadata["device_classes"] == {"cpu": 4, "gpu": 2}
        assert digest(report) == PRE_MERGE_DIGESTS["tiny-hetero-request"]


@pytest.mark.slow
class TestShippedSpecByteIdentity:
    """Every shipped spec file, bit-for-bit against the pre-refactor engine."""

    @pytest.mark.parametrize(
        "path",
        [
            "specs/quickstart.yaml",
            "specs/mixed_sweep.json",
            "specs/paper_headline.json",
        ],
    )
    def test_shipped_spec_pinned(self, path):
        spec = api.ExperimentSpec.from_file(path)
        assert report_digest(spec) == PRE_REFACTOR_DIGESTS[path]


# ------------------------------------------------------ ranking agreement


class TestRankingAgreement:
    """Table 7's methodology: fidelities agree on policy rankings."""

    POLICIES = ("fairshare", "aiad", "faro-fairsum")

    def _report(self, simulator):
        spec = api.ExperimentSpec.compare(
            f"rank-{simulator}",
            api.ScenarioSpec(
                kind="paper",
                params={"size": 5, "num_jobs": 2, "duration_minutes": 16,
                        "days": 2, "rate_hi": 400.0},
                name="rank",
            ),
            list(self.POLICIES),
            simulator=simulator,
            trials=1,
            seed=0,
            predictor_profile={"epochs": 1, "max_windows": 64},
        )
        return api.run(spec)

    def test_request_and_flow_agree_on_ranking(self):
        request = self._report("request")
        flow = self._report("flow")

        def ranking(report):
            cells = report.stats["rank"]
            return sorted(cells, key=lambda label: cells[label].lost_utility_mean)

        request_ranking = ranking(request)
        flow_ranking = ranking(flow)
        # The oversubscribed setup separates the policies clearly; both
        # fidelities must produce the same order (the paper's Table 7
        # observation, scaled down).
        assert request_ranking == flow_ranking
        assert request.best_policy("rank") == flow.best_policy("rank")


# ------------------------------------------------------------ hybrid e2e


def hybrid_spec(trials: int = 2) -> api.ExperimentSpec:
    return api.ExperimentSpec.compare(
        "hybrid-pin",
        api.ScenarioSpec(
            kind="paper",
            params={"size": 8, "num_jobs": 3, "duration_minutes": 8,
                    "days": 2, "rate_hi": 300.0},
            name="tiny-hybrid",
        ),
        ["fairshare", "aiad"],
        simulator="hybrid",
        backend_options={"auto_request_jobs": 1},
        trials=trials,
        seed=0,
        predictor_profile={"epochs": 1, "max_windows": 64},
    )


class TestHybridEndToEnd:
    def test_hybrid_behaviour_pinned(self):
        assert report_digest(hybrid_spec()) == HYBRID_DIGEST

    def test_hybrid_runs_from_spec_file_and_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = hybrid_spec(trials=1).to_file(tmp_path / "hybrid.json")
        report_path = tmp_path / "report.json"
        code = main(["run", "--spec", str(path), "--report", str(report_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "hybrid simulator" in out  # report.describe() names it
        data = json.loads(report_path.read_text())
        assert data["spec"]["simulator"] == "hybrid"
        assert data["spec"]["backend_options"] == {"auto_request_jobs": 1}

    def test_hybrid_flagged_jobs_see_request_level_dynamics(self):
        report = api.run(hybrid_spec(trials=1))
        result = report.get("tiny-hybrid", "fairshare").results[0]
        assert len(result.metadata["request_jobs"]) == 1
        assert len(result.metadata["flow_jobs"]) == 2


@pytest.mark.slow
class TestHybridSweep:
    def test_hybrid_sharded_sweep_matches_serial(self):
        spec = hybrid_spec(trials=4)
        serial = api.run(spec)
        parallel = api.run_parallel(spec, workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )


# ------------------------------------------------- hybrid mid-run promotion


def promotion_spec(trials: int = 2, policies=("fairshare", "faro-fairsum")):
    """An undersized paper scenario whose jobs come under SLO pressure
    within the first minute, driving the promotion controller."""
    return api.ExperimentSpec.compare(
        "hybrid-promotion-pin",
        api.ScenarioSpec(
            kind="paper",
            params={"size": 5, "num_jobs": 2, "duration_minutes": 10,
                    "days": 2, "rate_hi": 600.0},
            name="tiny-promo",
        ),
        list(policies),
        simulator="hybrid",
        backend_options={"promote_headroom": 0.2, "demote_headroom": 0.7,
                         "min_dwell_ticks": 2},
        trials=trials,
        seed=0,
        predictor_profile={"epochs": 1, "max_windows": 64},
    )


class TestHybridPromotion:
    def test_promotion_behaviour_pinned(self):
        """The whole promotion schedule is deterministic and digest-pinned."""
        assert report_digest(promotion_spec()) == HYBRID_PROMOTION_DIGEST

    def test_promotions_actually_fire(self):
        report = api.run(promotion_spec(trials=1, policies=("fairshare",)))
        result = report.get("tiny-promo", "fairshare").results[0]
        dispatch = result.metadata["dispatch"]
        assert dispatch["promotions"] > 0
        events = result.metadata["fidelity_events"]
        assert all(e["time"] % 60.0 == 0.0 for e in events)  # minute boundaries
        assert dispatch["vector_requests"] > 0  # promoted routers vectorize

    def test_promotion_sharded_sweep_matches_serial(self):
        spec = promotion_spec(trials=2, policies=("fairshare",))
        serial = api.run(spec)
        parallel = api.run_parallel(spec, workers=2)
        assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
            parallel.to_dict(), sort_keys=True
        )
