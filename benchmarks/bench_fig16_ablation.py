"""Fig. 16: ablation study -- Faro's components added one at a time.

Paper shape (lost cluster utility, FairSum, cluster sizes 32/36/40):
relaxation is the biggest lever (2.1x-3.7x); M/D/c estimation and
prediction each contribute up to ~1.1x; the hybrid reactive path up to
1.42x; shrinking alone *hurts* (up to 1.25x) and probabilistic prediction
recovers it (up to 1.36x).
"""

from benchmarks.conftest import BENCH_MINUTES, BENCH_PROFILE, write_result
from repro import api
from repro.experiments.ablation import ABLATION_ORDER, ablation_policy_factory
from repro.experiments.report import format_table

PAPER_SO = {
    "w/o relaxation": 2.11,
    "w/ relaxation": 1.00,
    "w/ M/D/c queue": 0.96,
    "w/ prediction": 0.87,
    "w/ hybrid": 0.78,
    "w/ shrinking": 0.78,
    "w/ prob. pred.": 0.78,
}


def test_fig16_ablation(benchmark, bench_cache):
    scenario = bench_cache.scenario("SO", BENCH_MINUTES)

    def run():
        lost = {}
        for stage in ABLATION_ORDER:
            factory = ablation_policy_factory(
                stage, objective="fairsum", predictor_profile=BENCH_PROFILE
            )
            stats = api.execute_trials(scenario, stage, factory, trials=1, seed=0)
            lost[stage] = stats.lost_utility_mean
        return lost

    lost = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        (stage, PAPER_SO[stage], lost[stage]) for stage in ABLATION_ORDER
    ]
    rows.append(
        (
            "relaxation improvement",
            "2.1x-3.7x",
            f"{lost['w/o relaxation'] / max(lost['w/ relaxation'], 1e-9):.1f}x",
        )
    )
    text = format_table(
        ["component stack (lost utility)", "paper (size 32)", "measured"],
        rows,
        title="== Fig. 16: ablation study (SO cluster, FairSum) ==",
    )
    write_result("fig16_ablation", text)

    # Relaxation is the single biggest component...
    assert lost["w/o relaxation"] > 1.25 * lost["w/ relaxation"]
    # ...and the full stack compounds to a large end-to-end improvement.
    assert lost["w/o relaxation"] > 2.0 * lost["w/ prob. pred."]
    # The full stack is at least as good as the relaxation-only rung.
    assert lost["w/ prob. pred."] <= lost["w/ relaxation"] * 1.1
