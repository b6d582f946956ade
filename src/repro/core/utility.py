"""Per-job utility functions (paper §3.1).

A job's SLO is ``(latency target s, percentile k)``.  Given the currently
measured (or estimated) k-th percentile latency ``l``, the paper distills the
SLO into:

- the *original* step utility: 1 if ``l <= s`` else 0, and
- the *relaxed* inverse utility ``U(l, s) = min((s / l) ** alpha, 1)``
  (Eq. 1), which removes the plateau that makes the step function hopeless
  for numerical optimizers.  As ``alpha -> inf`` the inverse utility
  approaches the step utility (Fig. 4a).

Utility values are lower bounds on SLO satisfaction rates (Fig. 4b), so Faro
uses them as pessimistic proxies in resource-allocation decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["step_utility", "inverse_utility", "utility_from_slo", "SLO"]


def step_utility(latency: float, slo: float) -> float:
    """Original (step) utility: 1.0 when the SLO is met, else 0.0."""
    if slo <= 0:
        raise ValueError(f"SLO target must be positive, got {slo}")
    if latency < 0:
        raise ValueError(f"latency must be non-negative, got {latency}")
    return 1.0 if latency <= slo else 0.0


def inverse_utility(latency: float, slo: float, alpha: float = 1.0) -> float:
    """Relaxed utility ``min((s / l) ** alpha, 1)`` (paper Eq. 1).

    Defined as 1.0 for ``latency <= slo`` (including latency 0) and decays
    smoothly for latencies above the target; an infinite latency (dropped
    request / unstable queue) yields 0.0.
    """
    if slo <= 0:
        raise ValueError(f"SLO target must be positive, got {slo}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if latency < 0:
        raise ValueError(f"latency must be non-negative, got {latency}")
    if latency <= slo:
        return 1.0
    if math.isinf(latency):
        return 0.0
    return min((slo / latency) ** alpha, 1.0)


@dataclass(frozen=True)
class SLO:
    """A latency Service Level Objective: ``target`` seconds at ``percentile``.

    ``percentile`` is expressed in (0, 100), e.g. 99 for p99 (the paper's
    default) or 50 for median.  A p100 SLO is refused: the M/D/c latency
    quantile the planners and the analytic simulator read has no finite
    value at quantile 1.
    """

    target: float
    percentile: float = 99.0

    def __post_init__(self) -> None:
        if self.target <= 0:
            raise ValueError(f"SLO target must be positive, got {self.target}")
        if not 0 < self.percentile < 100:
            raise ValueError(
                f"percentile must be in (0, 100), got {self.percentile}"
            )

    @property
    def quantile(self) -> float:
        """The percentile expressed as a quantile in (0, 1)."""
        return self.percentile / 100.0


def utility_from_slo(latency: float, slo: SLO, alpha: float | None = 1.0) -> float:
    """Distill an SLO and a measured latency into a utility value.

    ``alpha=None`` selects the original step utility; any positive float
    selects the relaxed inverse utility with that exponent.
    """
    if alpha is None:
        return step_utility(latency, slo.target)
    return inverse_utility(latency, slo.target, alpha=alpha)
