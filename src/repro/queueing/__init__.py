"""Queueing-theory substrate used by Faro's latency estimation (paper §3.3).

The paper models each inference job as an M/D/c queue (Poisson arrivals,
deterministic per-request processing time, ``c`` replicas) and adopts the
standard engineering approximation that the M/D/c waiting time is about half
the M/M/c waiting time (Tijms 2006).  This package provides:

- :mod:`repro.queueing.mmc` -- exact M/M/c results (Erlang B/C, waiting-time
  distribution and percentiles).
- :mod:`repro.queueing.mdc` -- M/D/c approximations built on top of M/M/c,
  including the half-wait rule the paper uses and the higher-fidelity
  Cosmetatos correction.
- :mod:`repro.queueing.ggc` -- G/G/c (Allen-Cunneen) and M/G/c
  approximations for the paper's §7 "Beyond ML Inference" adaptation path.
"""

from repro.queueing.mmc import (
    erlang_b,
    erlang_c,
    mmc_mean_wait,
    mmc_wait_ccdf,
    mmc_wait_percentile,
    utilization,
)
from repro.queueing.mdc import (
    cosmetatos_correction,
    mdc_mean_wait,
    mdc_latency_percentile,
    mdc_wait_percentile,
)
from repro.queueing.ggc import (
    ggc_latency_percentile,
    ggc_mean_wait,
    ggc_wait_percentile,
    kingman_wait,
    mgc_mean_wait,
    mgc_wait_percentile,
    variability_factor,
)

__all__ = [
    "erlang_b",
    "erlang_c",
    "utilization",
    "mmc_mean_wait",
    "mmc_wait_ccdf",
    "mmc_wait_percentile",
    "mdc_mean_wait",
    "mdc_wait_percentile",
    "mdc_latency_percentile",
    "cosmetatos_correction",
    "variability_factor",
    "kingman_wait",
    "ggc_mean_wait",
    "ggc_wait_percentile",
    "ggc_latency_percentile",
    "mgc_mean_wait",
    "mgc_wait_percentile",
]
