"""Exact discrete-event simulation of multi-server FCFS queues.

The analytic estimators in :mod:`repro.queueing` are approximations -- the
half-wait rule for M/D/c (Tijms 2006), Allen-Cunneen for G/G/c -- and the
paper leans on them precisely *because* they are fast enough for an
optimizer's inner loop.  This module provides the ground truth they
approximate: an exact G/G/c FCFS simulation (the c-server Lindley
recursion, implemented with a server-availability heap).
``test_queueing_validation.py`` drives it with matched arrival/service
processes and bounds each approximation's error.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

__all__ = [
    "simulate_queue_waits",
    "QueueSample",
    "sample_mdc_queue",
    "sample_mmc_queue",
    "sample_ggc_queue",
]


def simulate_queue_waits(
    interarrivals: np.ndarray, services: np.ndarray, servers: int
) -> np.ndarray:
    """Queueing delays of an FCFS queue with ``servers`` servers.

    ``interarrivals[i]`` is the gap before customer ``i`` arrives;
    ``services[i]`` is its service demand.  Exact for any G/G/c FCFS
    system (work-conserving, no preemption): each customer starts on the
    earliest-available server.
    """
    inter = np.asarray(interarrivals, dtype=float)
    serv = np.asarray(services, dtype=float)
    if inter.shape != serv.shape or inter.ndim != 1:
        raise ValueError(
            f"interarrivals {inter.shape} and services {serv.shape} must be equal-length 1-D"
        )
    if inter.size == 0:
        return np.empty(0)
    if np.any(inter < 0) or np.any(serv < 0):
        raise ValueError("interarrival and service times must be non-negative")
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    arrivals = np.cumsum(inter)
    free_at = [0.0] * servers
    heapq.heapify(free_at)
    waits = np.empty(inter.size)
    for i, arrival in enumerate(arrivals):
        available = heapq.heappop(free_at)
        start = max(arrival, available)
        waits[i] = start - arrival
        heapq.heappush(free_at, start + serv[i])
    return waits


@dataclass
class QueueSample:
    """Empirical waits from one simulated queue run."""

    waits: np.ndarray

    @property
    def mean_wait(self) -> float:
        return float(np.mean(self.waits))

    def wait_percentile(self, q: float) -> float:
        """Empirical ``q``-quantile (0 < q < 1) of queueing delay."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        return float(np.quantile(self.waits, q))

    def drop_warmup(self, fraction: float = 0.1) -> "QueueSample":
        """Discard the initial transient (default: first 10% of customers)."""
        if not 0.0 <= fraction < 1.0:
            raise ValueError(f"fraction must be in [0, 1), got {fraction}")
        start = int(self.waits.size * fraction)
        return QueueSample(waits=self.waits[start:])


def _poisson_interarrivals(lam: float, n: int, rng: np.random.Generator) -> np.ndarray:
    if lam <= 0:
        raise ValueError(f"arrival rate must be positive, got {lam}")
    return rng.exponential(1.0 / lam, n)


def sample_mdc_queue(
    lam: float, proc_time: float, servers: int, n: int = 200_000, seed: int = 0
) -> QueueSample:
    """Simulate an M/D/c queue (Poisson arrivals, deterministic service)."""
    rng = np.random.default_rng(seed)
    inter = _poisson_interarrivals(lam, n, rng)
    services = np.full(n, float(proc_time))
    return QueueSample(simulate_queue_waits(inter, services, servers)).drop_warmup()


def sample_mmc_queue(
    lam: float, mu: float, servers: int, n: int = 200_000, seed: int = 0
) -> QueueSample:
    """Simulate an M/M/c queue (Poisson arrivals, exponential service)."""
    rng = np.random.default_rng(seed)
    inter = _poisson_interarrivals(lam, n, rng)
    services = rng.exponential(1.0 / mu, n)
    return QueueSample(simulate_queue_waits(inter, services, servers)).drop_warmup()


def sample_ggc_queue(
    lam: float,
    mean_service: float,
    cs2: float,
    servers: int,
    n: int = 200_000,
    seed: int = 0,
) -> QueueSample:
    """Simulate an M/G/c queue with gamma-distributed service of SCV ``cs2``.

    A gamma distribution with shape ``1/cs2`` has exactly the requested
    squared coefficient of variation, letting the validation suite probe
    the Allen-Cunneen/Lee-Longton approximation between the M/D/c
    (``cs2 = 0``) and M/M/c (``cs2 = 1``) corners and beyond.
    """
    if cs2 <= 0:
        raise ValueError("cs2 must be positive (use sample_mdc_queue for cs2 = 0)")
    rng = np.random.default_rng(seed)
    inter = _poisson_interarrivals(lam, n, rng)
    shape = 1.0 / cs2
    scale = mean_service / shape
    services = rng.gamma(shape, scale, n)
    return QueueSample(simulate_queue_waits(inter, services, servers)).drop_warmup()
