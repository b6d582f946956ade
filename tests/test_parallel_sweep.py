"""Differential tests: the sharded executor is bit-identical to serial.

The whole value of :mod:`repro.api.parallel` rests on one claim -- that no
choice of worker count, shard granularity, or shard completion order can
change a single bit of the report.  These tests pin that claim directly
(``json.dumps`` equality of ``RunReport.to_dict()`` against the serial
engine) and property-test the algebra underneath it: the associative,
order-invariant :meth:`RunReport.merge` / :meth:`TrialStats.merged`.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.api.parallel import plan_shards
from repro.api.runner import RunReport, TrialStats

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def tiny_spec(scenario_kinds=("paper",), trials=2, policies=("fairshare", "aiad")):
    scenarios = []
    for kind in scenario_kinds:
        if kind == "paper":
            scenarios.append(
                api.ScenarioSpec(
                    kind="paper",
                    params={
                        "size": 8,
                        "num_jobs": 2,
                        "duration_minutes": 8,
                        "days": 2,
                        "rate_hi": 300.0,
                    },
                    name="tiny-paper",
                )
            )
        else:
            scenarios.append(
                api.ScenarioSpec(
                    kind="mixed",
                    params={
                        "total_replicas": 8,
                        "num_jobs": 2,
                        "duration_minutes": 8,
                        "days": 2,
                    },
                    name="tiny-mixed",
                )
            )
    return api.ExperimentSpec.compare(
        "tiny-parallel",
        scenarios,
        list(policies),
        trials=trials,
        simulator="flow",
        predictor_profile={"epochs": 1, "max_windows": 64},
    )


def canonical(report: RunReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


# ----------------------------------------------------------- differential


class TestDifferential:
    def test_one_worker_matches_serial(self):
        spec = tiny_spec()
        serial = api.run(spec)
        parallel = api.run_parallel(spec, workers=1)
        assert canonical(parallel) == canonical(serial)
        # Key order (scenario/policy iteration order) matches too, so the
        # serialized report files are byte-identical, not just dict-equal.
        assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())

    def test_two_workers_shuffled_shards_match_serial(self):
        spec = tiny_spec(scenario_kinds=("paper", "mixed"))
        serial = api.run(spec)
        n = len(plan_shards(spec, 2))
        order = list(reversed(range(n)))
        parallel = api.run_parallel(spec, workers=2, shard_order=order)
        assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())
        assert tuple(parallel.stats) == tuple(serial.stats)

    def test_run_workers_kwarg_routes_to_parallel(self):
        spec = tiny_spec()
        serial = api.run(spec)
        parallel = api.run(spec, workers=2)
        assert parallel.sweep is not None and parallel.sweep.workers == 2
        assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())

    @pytest.mark.slow
    def test_four_workers_single_trial_shards_match_serial(self):
        """Finest granularity (one trial per shard), shuffled, 4 workers."""
        spec = tiny_spec(scenario_kinds=("paper", "mixed"), trials=3)
        serial = api.run(spec)
        shards = plan_shards(spec, 4, trials_per_shard=1)
        # Deterministic shuffle (no RNG: reverse + interleave halves).
        half = len(shards) // 2
        order = [
            index
            for pair in zip(
                reversed(range(half)), reversed(range(half, len(shards)))
            )
            for index in pair
        ]
        order += [i for i in range(len(shards)) if i not in set(order)]
        parallel = api.run_parallel(
            spec, workers=4, trials_per_shard=1, shard_order=order
        )
        assert json.dumps(parallel.to_dict()) == json.dumps(serial.to_dict())

    def test_repeated_run_in_one_process_is_bit_identical(self):
        """Serial engine has no hidden cross-run state (module RNG etc.)."""
        spec = tiny_spec()
        assert canonical(api.run(spec)) == canonical(api.run(spec))

    def test_raising_progress_callback_fails_like_serial(self, tmp_path):
        """A faulty callback must surface on both paths, not be swallowed
        by the drainer thread -- and completed shards stay journaled."""
        spec = tiny_spec()

        def boom(event):
            raise RuntimeError("telemetry broke")

        with pytest.raises(RuntimeError, match="telemetry broke"):
            api.run(spec, progress=boom)
        journal = tmp_path / "journal"
        with pytest.raises(RuntimeError, match="telemetry broke"):
            api.run_parallel(spec, workers=2, progress=boom, journal=journal)
        assert list(journal.glob("shard-*.pkl"))  # resumable

    def test_parallel_trial_events_use_global_indices(self):
        spec = tiny_spec(trials=2)
        events = []
        api.run_parallel(spec, workers=2, progress=events.append)
        trial_ends = sorted(
            (e.policy, e.trial) for e in events if e.stage == "trial-end"
        )
        assert trial_ends == [("aiad", 0), ("aiad", 1), ("fairshare", 0), ("fairshare", 1)]
        assert all(e.trials == 2 for e in events if e.stage == "trial-end")
        assert [e.stage for e in events if e.stage == "run-end"] == ["run-end"]


class TestPlanShards:
    def test_covers_grid_exactly(self):
        spec = tiny_spec(scenario_kinds=("paper", "mixed"), trials=5)
        for workers, trials_per_shard in [(1, None), (4, None), (16, None), (2, 2)]:
            shards = plan_shards(spec, workers, trials_per_shard=trials_per_shard)
            seen = set()
            for shard in shards:
                for trial in shard.trial_indices():
                    key = (shard.scenario_index, shard.policy_index, trial)
                    assert key not in seen, f"duplicate {key}"
                    seen.add(key)
            assert len(seen) == 2 * 2 * 5

    def test_more_workers_than_cells_splits_trials(self):
        spec = tiny_spec(trials=4)  # 1 scenario x 2 policies
        assert len(plan_shards(spec, 1)) == 2
        assert len(plan_shards(spec, 8)) == 8  # 2 cells x 4 single-trial shards

    def test_shard_id_stable(self):
        spec = tiny_spec(trials=4)
        shard = plan_shards(spec, 8)[0]
        assert shard.shard_id == "s000-p000-t0000-0001"

    def test_bad_arguments(self):
        spec = tiny_spec()
        with pytest.raises(ValueError):
            plan_shards(spec, 0)
        with pytest.raises(ValueError):
            plan_shards(spec, 2, trials_per_shard=0)
        with pytest.raises(ValueError):
            api.run_parallel(spec, workers=2, shard_order=[0])  # not a permutation


# ------------------------------------------------------- merge properties


def fake_result(value: float):
    """Stand-in for SimulationResult: just the three merged metrics."""

    class _Result:
        def __init__(self, v):
            self.avg_lost_cluster_utility = v
            self.avg_lost_effective_utility = v / 2.0
            self.cluster_slo_violation_rate = v / 10.0

        def __eq__(self, other):
            return self.avg_lost_cluster_utility == other.avg_lost_cluster_utility

    return _Result(value)


def synthetic_report(spec, cell_trials, scenario_names=("sc-a", "sc-b")):
    """Full report over spec's grid with the given per-trial values."""
    report = RunReport(spec=spec)
    for s_index, scenario in enumerate(scenario_names):
        report.scenario_index[scenario] = s_index
        per_policy = {}
        for label in (p.display_label for p in spec.policies):
            values = cell_trials[(scenario, label)]
            per_policy[label] = TrialStats.from_results(
                label,
                [fake_result(v) for v in values],
                trial_indices=list(range(len(values))),
            )
        report.stats[scenario] = per_policy
    return report


def split_report(spec, report, assignment):
    """Partition ``report`` into one partial report per worker id.

    ``assignment`` maps (scenario, label, trial_index) -> worker id.
    """
    partials = {}
    for scenario, per_policy in report.stats.items():
        for label, stats in per_policy.items():
            for position, trial_index in enumerate(stats.trial_indices):
                worker = assignment[(scenario, label, trial_index)]
                partial = partials.setdefault(
                    worker, RunReport(spec=spec, scenario_index={})
                )
                partial.scenario_index[scenario] = report.scenario_index[scenario]
                cell = partial.stats.setdefault(scenario, {})
                if label in cell:
                    cell[label] = TrialStats.merged(
                        [
                            cell[label],
                            TrialStats.from_results(
                                label,
                                [stats.results[position]],
                                trial_indices=[trial_index],
                            ),
                        ]
                    )
                else:
                    cell[label] = TrialStats.from_results(
                        label,
                        [stats.results[position]],
                        trial_indices=[trial_index],
                    )
    return list(partials.values())


@st.composite
def merge_case(draw):
    """A synthetic full report plus a random partition of its trials."""
    trials = draw(st.integers(min_value=1, max_value=5))
    workers = draw(st.integers(min_value=1, max_value=4))
    spec = api.ExperimentSpec.compare(
        "merge-prop",
        [
            api.ScenarioSpec(kind="paper", name="sc-a"),
            api.ScenarioSpec(kind="paper", name="sc-b"),
        ],
        ["fairshare", "aiad"],
        trials=trials,
    )
    values = st.floats(
        min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
    )
    cell_trials = {}
    assignment = {}
    for scenario in ("sc-a", "sc-b"):
        for label in ("fairshare", "aiad"):
            cell_trials[(scenario, label)] = [draw(values) for _ in range(trials)]
            for trial in range(trials):
                assignment[(scenario, label, trial)] = draw(
                    st.integers(min_value=0, max_value=workers - 1)
                )
    permutation = draw(st.permutations(list(range(workers))))
    return spec, cell_trials, assignment, permutation


class TestMergeProperties:
    @settings(max_examples=40, deadline=None)
    @given(case=merge_case())
    def test_merge_of_any_partition_in_any_order_restores_report(self, case):
        spec, cell_trials, assignment, permutation = case
        full = synthetic_report(spec, cell_trials)
        partials = split_report(spec, full, assignment)
        ordered = [partials[i] for i in permutation if i < len(partials)]
        merged = RunReport(spec=spec)
        for partial in ordered:
            merged = merged.merge(partial)
        assert json.dumps(merged.to_dict(), sort_keys=True) == json.dumps(
            full.to_dict(), sort_keys=True
        )
        assert tuple(merged.stats) == tuple(full.stats)
        for scenario in full.stats:
            assert tuple(merged.stats[scenario]) == tuple(full.stats[scenario])

    @settings(max_examples=20, deadline=None)
    @given(case=merge_case())
    def test_merge_is_associative(self, case):
        spec, cell_trials, assignment, _ = case
        full = synthetic_report(spec, cell_trials)
        partials = split_report(spec, full, assignment)
        while len(partials) < 3:
            partials.append(RunReport(spec=spec))
        a, b, c = partials[0], partials[1], partials[2]
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert json.dumps(left.to_dict(), sort_keys=True) == json.dumps(
            right.to_dict(), sort_keys=True
        )

    def test_merge_rejects_other_specs(self):
        a = RunReport(spec=tiny_spec())
        b = RunReport(spec=tiny_spec(trials=3))
        with pytest.raises(ValueError, match="different specs"):
            a.merge(b)

    def test_merge_rejects_overlapping_trials(self):
        spec = api.ExperimentSpec.compare(
            "overlap", [api.ScenarioSpec(kind="paper", name="sc")], ["fairshare"]
        )
        stats = TrialStats.from_results(
            "fairshare", [fake_result(1.0)], trial_indices=[0]
        )
        a = RunReport(spec=spec, stats={"sc": {"fairshare": stats}})
        b = RunReport(spec=spec, stats={"sc": {"fairshare": stats}})
        with pytest.raises(ValueError, match="overlapping trial indices"):
            a.merge(b)

    def test_merged_requires_trial_indices(self):
        summary_only = TrialStats.from_results("p", [fake_result(1.0)])
        indexed = TrialStats.from_results("p", [fake_result(2.0)], trial_indices=[1])
        with pytest.raises(ValueError, match="trial_indices"):
            TrialStats.merged([summary_only, indexed])

    def test_merged_rejects_mixed_policies(self):
        a = TrialStats.from_results("p", [fake_result(1.0)], trial_indices=[0])
        b = TrialStats.from_results("q", [fake_result(2.0)], trial_indices=[1])
        with pytest.raises(ValueError, match="different policies"):
            TrialStats.merged([a, b])
