"""Latency estimation for a mixed (heterogeneous) replica pool.

A pool mixing replica types is reduced to an *effective homogeneous* M/D/c
queue: with ``n_t`` replicas of type ``t`` serving a job whose reference
processing time is ``p``, the pool's total service rate is

    ``R = sum_t n_t * speedup_t / p``

and the reduction keeps the true server count ``c = sum_t n_t`` while
assigning each server the pool-average service time ``p_eff = c / R``.
This preserves both aggregate capacity (so the stability boundary
``rho = lam / R`` is exact) and the number of parallel servers (so the
light-load waiting behaviour is close).  The approximation is standard for
heterogeneous M/x/c pools with rate-proportional routing; for strongly
bimodal pools it errs pessimistic at low load, which is the safe direction
for SLO planning.
"""

from __future__ import annotations

import math

from repro.core.latency import MDC, LatencyModel
from repro.hetero.types import ReplicaType

__all__ = ["mixed_pool_stats", "mixed_pool_latency"]


def mixed_pool_stats(
    counts: dict[ReplicaType, int], reference_proc_time: float
) -> tuple[int, float]:
    """Effective ``(server_count, proc_time)`` of a mixed pool.

    ``counts`` maps each :class:`~repro.hetero.types.ReplicaType` to its
    replica count.  Returns ``(0, inf)`` for an empty pool.
    """
    if reference_proc_time <= 0:
        raise ValueError(f"processing time must be positive, got {reference_proc_time}")
    servers = 0
    total_rate = 0.0
    for rtype, count in counts.items():
        if count < 0:
            raise ValueError(f"negative count for replica type {rtype.name}")
        servers += count
        total_rate += count * rtype.speedup / reference_proc_time
    if servers == 0:
        return 0, math.inf
    return servers, servers / total_rate


def mixed_pool_latency(
    quantile: float,
    lam: float,
    reference_proc_time: float,
    counts: dict[ReplicaType, int],
    model: LatencyModel = MDC,
) -> float:
    """``quantile`` latency of a job served by a mixed replica pool.

    ``model`` is any :class:`~repro.core.latency.LatencyModel`; the default
    M/D/c matches Faro's estimator for ML inference.  Returns ``inf`` for an
    empty pool.
    """
    servers, proc_eff = mixed_pool_stats(counts, reference_proc_time)
    if servers == 0:
        return math.inf
    return model.estimate(quantile, lam, proc_eff, servers)
