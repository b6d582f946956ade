"""Experiment harness reproducing the paper's evaluation (§6).

Trials run through :mod:`repro.api` (``api.run`` for a spec,
``api.run_policy`` for a registered policy on a built scenario,
``api.execute_trials`` for a hand-written policy factory); this package
holds the pieces those runs are made of and reported with.

- :mod:`repro.experiments.scenarios` -- the built :class:`Scenario` and the
  paper's cluster sizes (right-sized 36, slightly oversubscribed 32,
  heavily oversubscribed 16 replicas).  The paper's setups (10-job
  Azure+Twitter mix, mixed ResNet18/34, large-scale) are the ``paper``,
  ``mixed`` and ``large-scale`` scenario kinds of :mod:`repro.api`.
- :mod:`repro.experiments.policies` -- the predictor-training budget and
  the shared trained-predictor cache the registered policies use.
- :mod:`repro.experiments.metrics` -- Kendall-tau ranking distance and
  summary statistics.
- :mod:`repro.experiments.report` -- paper-vs-measured table formatting.
- :mod:`repro.experiments.ablation` -- the Fig. 16 component stack.
- :mod:`repro.experiments.sweeps` -- design-knob sweeps (rho_max, alpha,
  control period, prediction window, cold start, predictor choice).
- :mod:`repro.experiments.plotting` -- ASCII charts for terminal reports.
"""

from repro.experiments.scenarios import CLUSTER_SIZES, Scenario
from repro.experiments.metrics import kendall_tau_distance, rank_policies
from repro.experiments.report import format_table, paper_comparison_table
from repro.experiments.sweeps import (
    SweepResult,
    sweep_cold_start,
    sweep_faro_config,
    sweep_predictor,
)
from repro.experiments.plotting import ascii_bars, ascii_boxplot, ascii_timeline

__all__ = [
    "Scenario",
    "CLUSTER_SIZES",
    "kendall_tau_distance",
    "rank_policies",
    "format_table",
    "paper_comparison_table",
    "SweepResult",
    "sweep_faro_config",
    "sweep_cold_start",
    "sweep_predictor",
    "ascii_timeline",
    "ascii_bars",
    "ascii_boxplot",
]
