"""Parameter sweeps over Faro's design knobs.

DESIGN.md calls out the knobs the paper fixes by fiat -- ``rho_max = 0.95``
(§3.4), ``alpha`` (Eq. 1 / Fig. 4a), the 5-minute long-term period (§4.4),
the 7-minute prediction window (§5), and the cold-start magnitude (§4.1).
These sweeps quantify each choice: every point is a full trace-driven run
via :func:`repro.api.runner.run_policy`, so the output rows slot directly
into the bench report tables.  For a parallel sweep, write the points as
policies of an :class:`~repro.api.spec.ExperimentSpec` and run it with
``repro.api.run(spec, workers=N)`` or ``repro-faro sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.runner import TrialStats, run_policy
from repro.api.spec import PolicySpec
from repro.experiments.policies import PredictorProfile
from repro.experiments.scenarios import Scenario

__all__ = ["SweepResult", "sweep_faro_config", "sweep_cold_start", "sweep_predictor"]

#: FaroConfig fields that may be swept with ``sweep_faro_config``.
SWEEPABLE = (
    "rho_max",
    "alpha",
    "period",
    "horizon_steps",
    "num_samples",
    "solver",
    "groups",
    "gamma",
    "latency_model",
)


@dataclass
class SweepResult:
    """All points of one sweep, in input order."""

    parameter: str
    values: list = field(default_factory=list)
    stats: list[TrialStats] = field(default_factory=list)

    def add(self, value, stats: TrialStats) -> None:
        self.values.append(value)
        self.stats.append(stats)

    def best_value(self):
        """Swept value with the lowest mean lost cluster utility."""
        if not self.stats:
            raise ValueError("sweep has no points")
        best = min(range(len(self.stats)), key=lambda i: self.stats[i].lost_utility_mean)
        return self.values[best]

    def rows(self) -> list[list]:
        """Table rows: value, lost utility (mean/sd), violation rate."""
        return [
            [
                value,
                f"{s.lost_utility_mean:.3f}",
                f"{s.lost_utility_sd:.3f}",
                f"{s.violation_rate_mean:.4f}",
            ]
            for value, s in zip(self.values, self.stats)
        ]


def sweep_faro_config(
    scenario: Scenario,
    parameter: str,
    values: list,
    objective: str = "fairsum",
    trials: int = 1,
    simulator: str = "flow",
    seed: int = 0,
    predictor_profile: PredictorProfile | None = None,
) -> SweepResult:
    """Sweep one :class:`~repro.core.autoscaler.FaroConfig` field.

    Every other setting stays at the paper default, so the sweep isolates
    the single knob.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(f"cannot sweep {parameter!r}; choose from {SWEEPABLE}")
    if not values:
        raise ValueError("values must be non-empty")
    result = SweepResult(parameter=parameter)
    for value in values:
        spec = PolicySpec(
            name=f"faro-{objective}",
            options={"faro": {parameter: value}},
            label=f"faro-{objective}",
        )
        stats = run_policy(
            scenario,
            spec,
            trials=trials,
            simulator=simulator,
            seed=seed,
            predictor_profile=predictor_profile,
        )
        result.add(value, stats)
    return result


def sweep_cold_start(
    scenario: Scenario,
    seconds: list[float],
    objective: str = "fairsum",
    trials: int = 1,
    simulator: str = "request",
    seed: int = 0,
    predictor_profile: PredictorProfile | None = None,
) -> SweepResult:
    """Sweep the replica cold-start delay.

    Both sides move together: the simulated pods take ``s`` seconds to
    become ready *and* Faro's planner is told to expect ``s`` seconds --
    the paper's setting where the controller knows its own cold-start cost.
    Uses the request-level simulator by default (the flow simulator's
    cold-start handling is coarser).
    """
    if not seconds:
        raise ValueError("seconds must be non-empty")
    if any(s < 0 for s in seconds):
        raise ValueError("cold-start delays must be non-negative")
    result = SweepResult(parameter="cold_start_seconds")
    for value in seconds:
        spec = PolicySpec(
            name=f"faro-{objective}",
            options={"faro": {"cold_start_seconds": float(value)}},
            label=f"faro-{objective}",
        )
        stats = run_policy(
            scenario,
            spec,
            trials=trials,
            simulator=simulator,
            seed=seed,
            predictor_profile=predictor_profile,
            sim_overrides={"cold_start_range": (float(value), float(value))},
        )
        result.add(value, stats)
    return result


def sweep_predictor(
    scenario: Scenario,
    kinds: tuple[str, ...] = ("persistence", "nhits"),
    objective: str = "fairsum",
    trials: int = 1,
    simulator: str = "flow",
    seed: int = 0,
    predictor_profile: PredictorProfile | None = None,
) -> SweepResult:
    """Compare workload predictors feeding the same Faro controller.

    ``nhits`` is the paper's trained probabilistic predictor;
    ``persistence`` runs the same controller with the persistence
    predictor (``use_trained_predictor=False``), which plans for the
    current rate and trains nothing.
    """
    known = {"persistence", "nhits"}
    unknown = set(kinds) - known
    if unknown:
        raise ValueError(f"unknown predictor kinds {sorted(unknown)}; choose from {sorted(known)}")
    if not kinds:
        raise ValueError("kinds must be non-empty")
    result = SweepResult(parameter="predictor")
    for kind in kinds:
        trained = kind == "nhits"
        spec = PolicySpec(
            name=f"faro-{objective}",
            options={"use_trained_predictor": trained},
            label=f"faro-{objective}" if trained else f"faro-{objective}-persistence",
        )
        stats = run_policy(
            scenario,
            spec,
            trials=trials,
            simulator=simulator,
            seed=seed,
            predictor_profile=predictor_profile,
        )
        result.add(kind, stats)
    return result
