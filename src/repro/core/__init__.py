"""Faro's core contribution (paper §3-§4).

Layout:

- :mod:`repro.core.utility` -- per-job utility functions (§3.1).
- :mod:`repro.core.penalty` -- drop-penalty / effective utility (§3.2, Table 5).
- :mod:`repro.core.objectives` -- the five cluster objective functions (§3.2).
- :mod:`repro.core.latency` -- upper-bound and M/D/c latency estimators and
  their plateau-free relaxations (§3.3-§3.4).
- :mod:`repro.core.optimizer` -- precise and relaxed cluster optimization,
  solver wrappers and integer post-processing (§3.4).
- :mod:`repro.core.interp` -- the batched table-interpolation kernel
  (numpy reference + optional bit-identical numba JIT).
- :mod:`repro.core.batched_solver` -- batched first-order solver
  (projected gradient ascent, ``method="pgd"``).
- :mod:`repro.core.hierarchical` -- grouped (hierarchical) optimization (§3.4).
- :mod:`repro.core.autoscaler` -- the three-stage multi-tenant autoscaler (§4).
- :mod:`repro.core.hybrid` -- hybrid long-term predictive + short-term
  reactive controller (§4.4).
"""

from repro.core.utility import inverse_utility, step_utility, utility_from_slo
from repro.core.penalty import (
    PENALTY_BRACKETS,
    effective_utility,
    penalty_multiplier,
    penalty_multiplier_relaxed,
    service_credit,
)
from repro.core.objectives import ClusterObjective, make_objective
from repro.core.latency import LatencyModel, UPPER_BOUND, MDC, RELAXED_MDC
from repro.core.optimizer import (
    DEFAULT_TABLE_CACHE,
    Allocation,
    AllocationProblem,
    OptimizationJob,
    UtilityTableCache,
    solve_allocation,
    warm_start_vector,
)
from repro.core.batched_solver import PGDOptions, solve_pgd
from repro.core.hierarchical import solve_hierarchical
from repro.core.autoscaler import FaroAutoscaler, FaroConfig
from repro.core.hybrid import HybridAutoscaler, ReactiveConfig

__all__ = [
    "step_utility",
    "inverse_utility",
    "utility_from_slo",
    "PENALTY_BRACKETS",
    "service_credit",
    "penalty_multiplier",
    "penalty_multiplier_relaxed",
    "effective_utility",
    "ClusterObjective",
    "make_objective",
    "LatencyModel",
    "UPPER_BOUND",
    "MDC",
    "RELAXED_MDC",
    "OptimizationJob",
    "AllocationProblem",
    "Allocation",
    "solve_allocation",
    "warm_start_vector",
    "UtilityTableCache",
    "DEFAULT_TABLE_CACHE",
    "PGDOptions",
    "solve_pgd",
    "solve_hierarchical",
    "FaroAutoscaler",
    "FaroConfig",
    "HybridAutoscaler",
    "ReactiveConfig",
]
