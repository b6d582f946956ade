"""Shared infrastructure for the reproduction benchmarks.

Each bench file regenerates one table or figure from the paper's evaluation
(§6), prints a paper-vs-measured comparison, and appends it to
``results/<bench>.txt``.  Heavy simulation runs are memoized in a
session-scoped cache so that benches which share runs (e.g. Fig. 12 /
Fig. 13 / Table 7) do not repeat them.

Absolute numbers are not expected to match the paper (different hardware,
synthetic traces, simulated cluster); the *shape* -- who wins, by roughly
what factor, where crossovers fall -- is what the assertions pin.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import pytest

from repro import api
from repro.api.runner import TrialStats
from repro.experiments.policies import PredictorProfile

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

#: Evaluation window (minutes) for scaled-down bench runs.
BENCH_MINUTES = 60

#: Predictor training budget for benches.
BENCH_PROFILE = PredictorProfile.fast()

#: Policies of the paper's headline comparison (Fig. 10 / Table 3).
HEADLINE_POLICIES = ("fairshare", "oneshot", "aiad", "mark", "faro-fairsum")

#: All nine policies of Figs. 12/13 and Table 7.
ALL_POLICIES = (
    "fairshare",
    "oneshot",
    "aiad",
    "mark",
    "faro-fair",
    "faro-sum",
    "faro-fairsum",
    "faro-penaltysum",
    "faro-penaltyfairsum",
)


class BenchCache:
    """Session-wide memoization of scenarios and simulation runs."""

    def __init__(self) -> None:
        self._scenarios: dict = {}
        self._runs: dict = {}

    def scenario(self, size, minutes: int = BENCH_MINUTES, **kwargs):
        key = (size, minutes, tuple(sorted(kwargs.items())))
        if key not in self._scenarios:
            spec = api.ScenarioSpec(
                kind="paper",
                params={"size": size, "duration_minutes": minutes, **kwargs},
            )
            self._scenarios[key] = spec.build()
        return self._scenarios[key]

    def run(
        self,
        size,
        policy: str,
        minutes: int = BENCH_MINUTES,
        simulator: str = "request",
        trials: int = 1,
        seed: int = 0,
    ) -> TrialStats:
        key = (size, policy, minutes, simulator, trials, seed)
        if key not in self._runs:
            self._runs[key] = api.run_policy(
                self.scenario(size, minutes),
                api.PolicySpec(name=policy, label=policy),
                trials=trials,
                simulator=simulator,
                seed=seed,
                predictor_profile=BENCH_PROFILE,
            )
        return self._runs[key]


@pytest.fixture(scope="session")
def bench_cache():
    return BenchCache()


def write_result(name: str, text: str) -> None:
    """Print a bench's comparison table and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    print(f"\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


#: Measured seconds over which a short perf point repeats, and its fewest
#: runs: the best of 5 runs of a 5-30 ms point still read a busy moment
#: often enough to cross its gate.
TIMING_SPAN_S = 1.0
TIMING_MIN_RUNS = 5


def best_over_span(
    time_once: Callable[[], float],
    span: float = TIMING_SPAN_S,
    minimum: int = TIMING_MIN_RUNS,
) -> float:
    """The fastest of as many ``time_once()`` durations (seconds) as fit
    in ``span`` measured seconds, and of at least ``minimum``."""
    best, spent, runs = math.inf, 0.0, 0
    while runs < minimum or spent < span:
        elapsed = time_once()
        best = min(best, elapsed)
        spent += elapsed
        runs += 1
    return best
