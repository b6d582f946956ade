"""Fig. 15: cluster-size sweep from heavily oversubscribed to
undersubscribed (matched simulation).

Paper shape: at sizes >= right-sized (36+), all Faro variants and Mark
reach cluster utility near the maximum (10); in constrained clusters Faro
beats Mark and the rest; in the smallest clusters Faro-Sum/PenaltySum
lead the *Fair* variants.
"""

import numpy as np

from benchmarks.conftest import BENCH_MINUTES, BENCH_PROFILE, write_result
from repro import api
from repro.experiments import paper_scenario
from repro.experiments.report import format_table

SIZES = (16, 24, 32, 36, 48, 64)
POLICIES = ("oneshot", "aiad", "mark", "faro-fair", "faro-sum", "faro-fairsum")


def test_fig15_size_sweep(benchmark):
    def run():
        utilities = {}
        for size in SIZES:
            scenario = paper_scenario(size, duration_minutes=BENCH_MINUTES, seed=0)
            for policy in POLICIES:
                stats = api.run_policy(
                    scenario,
                    policy,
                    trials=1,
                    simulator="flow",
                    seed=0,
                    predictor_profile=BENCH_PROFILE,
                )
                utilities[(size, policy)] = (
                    stats.results[0].num_jobs - stats.lost_utility_mean
                )
        return utilities

    utilities = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for policy in POLICIES:
        series = " ".join(f"{utilities[(size, policy)]:5.2f}" for size in SIZES)
        rows.append((policy, "", series))
    rows.insert(0, ("cluster size ->", "", " ".join(f"{s:5d}" for s in SIZES)))
    text = format_table(
        ["policy (avg cluster utility)", "paper", "measured across sizes"],
        rows,
        title="== Fig. 15: over- to under-subscribed sweep (flow sim) ==",
    )
    write_result("fig15_sweep", text)

    # Undersubscribed: Faro variants near max utility (10 jobs).
    for policy in ("faro-sum", "faro-fairsum"):
        assert utilities[(64, policy)] > 9.0
    # Utility grows with cluster size for Faro.
    faro_curve = [utilities[(size, "faro-fairsum")] for size in SIZES]
    assert faro_curve[0] < faro_curve[-1]
    # Constrained region: Faro above Oneshot/AIAD.
    for size in (16, 24, 32):
        assert utilities[(size, "faro-sum")] >= utilities[(size, "oneshot")] - 0.2
        assert utilities[(size, "faro-sum")] >= utilities[(size, "aiad")] - 0.2
