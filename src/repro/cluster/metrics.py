"""Metrics collection (the paper's modified Ray Router exports, §5).

Per job the collector aggregates request outcomes into fixed-size time bins
(default 15 s; a minute must hold a whole number of them) holding arrivals,
drops, SLO violations and latency samples.  From the bins it derives:

- recent observations for the control loop (:meth:`observation_fields`),
- per-minute arrival-rate history for time-series predictors
  (:meth:`rate_history`), and
- per-minute evaluation series (violation rate, p99 latency, utility) for
  the experiment reports (:meth:`minute_stats`).

Dropped requests count as SLO violations with infinite latency, matching
the paper's metric definitions (§6 "Metrics").

The bins are numpy arrays, filled in place either by :meth:`record`, one
request at a time, or by the compiled dispatch kernel of
:mod:`repro.cluster.dispatch`, which records each request of a chunk as it
routes it, with :meth:`record`'s exact steps:

- ``_counts``: one row per bin of arrivals, drops, violations, and the
  number of latencies stored up to and including the bin;
- ``_proc_sums``: per bin, the collector's ``proc_time`` added once per
  served request, so the sum rounds as :meth:`record`'s additions do;
- ``_minutes``: arrivals per minute, so :meth:`rate_history` is a slice;
- ``_latencies``: every served latency in arrival order, so the latencies
  of a run of bins are one slice, cut at the bins' cumulative ends;
- ``_fill``: the number of bins opened and of latencies stored.

So outcomes must be recorded in time order: one in a bin before the latest
recorded bin raises ``ValueError``.  The same kernel also reads the
observations of every job at once (see
:meth:`repro.cluster.rayserve.RayServeCluster.observations`);
:meth:`observation_fields` and :meth:`rate_history` are its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.penalty import penalty_multiplier
from repro.core.utility import SLO, inverse_utility

__all__ = ["MinuteStats", "MetricsCollector", "bins_per_minute"]

#: The columns of ``MetricsCollector._counts`` (``dispatch.c`` uses the same).
ARRIVALS, DROPS, VIOLATIONS, LATENCY_END = range(4)


def bins_per_minute(bin_seconds: float, name: str = "bin_seconds") -> int:
    """The number of ``bin_seconds`` bins in a minute.

    Raises ``ValueError`` naming ``name`` unless ``bin_seconds`` is
    positive and divides 60 s into a whole number of bins: per-minute rates
    sum whole bins, so a bin across a minute edge would count its arrivals
    in one minute only (25 s bins read 0.833 req/s from a steady 1 req/s).
    """
    count = round(60.0 / bin_seconds) if bin_seconds > 0 else 0
    if count < 1 or count * bin_seconds != 60.0:
        raise ValueError(
            f"{name} must be positive and divide 60 s into a whole number of "
            f"bins, got {bin_seconds}"
        )
    return count


def _grown(array: np.ndarray, length: int) -> np.ndarray:
    """A zero-padded copy of ``array`` with ``length`` rows."""
    grown = np.zeros((length,) + array.shape[1:], dtype=array.dtype)
    grown[: array.shape[0]] = array
    return grown


@dataclass(frozen=True)
class MinuteStats:
    """Aggregated per-minute evaluation numbers for one job."""

    minute: int
    arrivals: int
    drops: int
    violations: int
    latency_p: float
    violation_rate: float
    utility: float
    effective_utility: float


class MetricsCollector:
    """Aggregates one job's request stream into time bins."""

    def __init__(
        self,
        job_name: str,
        slo: SLO,
        proc_time: float,
        bin_seconds: float = 15.0,
        alpha: float = 1.0,
        history_prefix: np.ndarray | None = None,
    ) -> None:
        self.bins_per_minute = bins_per_minute(bin_seconds)
        self.job_name = job_name
        self.slo = slo
        self.proc_time = proc_time
        self.bin_seconds = bin_seconds
        self.alpha = alpha
        # Arrival rates (requests/second, one per minute, most recent last)
        # observed *before* t=0 -- seeds predictors so early control cycles
        # are not blinded by an empty history.
        self.history_prefix = (
            np.asarray(history_prefix, dtype=float) if history_prefix is not None else None
        )
        self._counts = np.zeros((0, 4), dtype=np.int64)
        self._proc_sums = np.zeros(0)
        self._minutes = np.zeros(0, dtype=np.int64)
        self._latencies = np.zeros(0)
        self._fill = np.zeros(2, dtype=np.int64)
        #: Synthetic per-minute rates (requests/second) for minutes this
        #: collector never observed -- seeded by the hybrid backend when a
        #: job is promoted to request fidelity mid-run, so predictors are
        #: not blinded by the empty pre-promotion history.  Consulted by
        #: :meth:`rate_history` only where no arrivals were recorded; never
        #: contributes to :meth:`minute_stats` or observations.
        self._rate_backfill: dict[int, float] = {}

    def _reserve(self, last_arrival: float, latencies: int) -> None:
        """Room for the bins up to ``last_arrival``'s and ``latencies`` more."""
        minutes = int(last_arrival // self.bin_seconds) // self.bins_per_minute + 1
        if minutes > self._minutes.shape[0]:
            minutes = max(minutes, 2 * self._minutes.shape[0])
            self._counts = _grown(self._counts, minutes * self.bins_per_minute)
            self._proc_sums = _grown(self._proc_sums, minutes * self.bins_per_minute)
            self._minutes = _grown(self._minutes, minutes)
        stored = int(self._fill[1]) + latencies
        if stored > self._latencies.shape[0]:
            self._latencies = _grown(self._latencies, max(stored, 2 * self._latencies.shape[0]))

    # ------------------------------------------------------------- record

    def record(self, arrival_time: float, latency: float, proc_time: float | None = None) -> None:
        """Record one request outcome (``latency = inf`` for drops)."""
        index = int(arrival_time // self.bin_seconds)
        opened, stored = self._fill.tolist()
        if index < max(opened - 1, 0):
            raise ValueError(
                f"outcomes must be recorded in time order from t=0: arrival "
                f"{arrival_time} falls in bin {index}, before bin {max(opened - 1, 0)}"
            )
        if index >= self._counts.shape[0] or stored == self._latencies.shape[0]:
            self._reserve(arrival_time, 1)
        counts = self._counts
        if index >= opened:
            counts[opened : index + 1, LATENCY_END] = stored
            self._fill[0] = index + 1
        row = counts[index]
        row[ARRIVALS] += 1
        self._minutes[index // self.bins_per_minute] += 1
        if math.isinf(latency):
            row[DROPS] += 1
            row[VIOLATIONS] += 1
            return
        if latency > self.slo.target:
            row[VIOLATIONS] += 1
        self._latencies[stored] = latency
        self._fill[1] = row[LATENCY_END] = stored + 1
        self._proc_sums[index] += proc_time if proc_time is not None else self.proc_time

    # -------------------------------------------------------- observation

    def _bin_range(self, start: float, end: float) -> tuple[int, int]:
        """Bins ``[first, last)`` of the window ``[start, end)``, widened
        outward to whole bins."""
        first = max(int(start // self.bin_seconds), 0)
        return first, max(int(math.ceil(end / self.bin_seconds)), first)

    def _percentile(self, last: int, served: int, drops: int) -> float:
        """SLO-percentile latency of the bins before ``last`` that hold the
        last ``served`` latencies and ``drops`` drops; drops count as inf."""
        opened, hi = self._fill.tolist()
        if last < opened:
            hi = int(self._counts[last - 1, LATENCY_END]) if last else 0
        lo = hi - served
        total = served + drops
        if total == 0:
            return 0.0
        rank = self.slo.quantile * total
        if rank > served:
            return math.inf
        # The order statistic a full sort would put at this index.
        index = min(max(int(math.ceil(rank)) - 1, 0), served - 1)
        return float(np.partition(self._latencies[lo:hi], index)[index])

    def _totals(self, first: int, last: int) -> list[int]:
        """Arrivals, drops and violations in bins ``[first, last)``."""
        return self._counts[first:last, :LATENCY_END].sum(axis=0).tolist()

    def window_latency_percentile(self, start: float, end: float) -> float:
        """SLO-percentile latency over [start, end); drops count as inf."""
        first, last = self._bin_range(start, end)
        arrivals, drops, _ = self._totals(first, last)
        return self._percentile(last, arrivals - drops, drops)

    def observation_fields(self, start: float, end: float) -> dict:
        """Raw aggregates over [start, end) for building JobObservation.

        The aggregates cover every bin that ``[start, end)`` touches: the
        window is widened outward to whole bins, while ``arrival_rate``
        still divides by ``end - start``.  With 15 s bins and a 10 s control
        tick, ``[now - 60, now)`` then holds 60, 70 or 65 s of arrivals in
        rotation (``now`` = 60, 70, 80, ...): a steady 10 req/s reads
        ``arrival_rate`` 10.0, 11.667 and 10.833, and the latency and
        violation aggregates cover the same 60-70 s.
        """
        first, last = self._bin_range(start, end)
        arrivals, drops, violations = self._totals(first, last)
        served = arrivals - drops
        proc_sum = sum(self._proc_sums[first:last].tolist())
        duration = max(end - start, 1e-9)
        return {
            "arrival_rate": arrivals / duration,
            "latency": self._percentile(last, served, drops),
            "slo_violation_rate": violations / arrivals if arrivals else 0.0,
            "mean_proc_time": proc_sum / served if served else self.proc_time,
            "drop_rate": drops / arrivals if arrivals else 0.0,
        }

    def rate_history(self, now: float, minutes: int) -> np.ndarray:
        """Per-minute arrival rates (requests/second) for the last ``minutes``.

        This is the series fed to time-series predictors; requests/second
        units keep it consistent with the optimizer's latency models.
        Minutes before t=0 come from the history prefix (0 where it has
        none); a minute without arrivals takes its backfilled rate, if any.
        """
        if minutes < 1:
            raise ValueError(f"minutes must be >= 1, got {minutes}")
        current = int(now // 60.0)
        lo = current - minutes
        rates = np.zeros(minutes)
        prefix = self.history_prefix
        if lo < 0 and prefix is not None:
            first = max(lo, -prefix.shape[0])
            stop = min(current, 0)
            if stop > first:
                rates[first - lo : stop - lo] = prefix[prefix.shape[0] + first : prefix.shape[0] + stop]
        observed = max(lo, 0)
        counts = self._minutes[observed:current]
        start = observed - lo
        np.divide(counts, 60.0, out=rates[start : start + counts.shape[0]])
        self._backfill(rates, current)
        return rates

    def _backfill(self, rates: np.ndarray, current: int) -> None:
        """Put backfilled rates into ``rates``, the history of the minutes
        before ``current``, where no arrivals were recorded."""
        lo = current - rates.shape[0]
        for minute, rate in self._rate_backfill.items():
            if max(lo, 0) <= minute < current and not rates[minute - lo]:
                rates[minute - lo] = rate

    def backfill_rate_history(self, minute_rates: dict[int, float]) -> None:
        """Seed per-minute rates (requests/second) for unobserved minutes.

        Hybrid fidelity promotion calls this with the offered trace rates
        of the minutes the job spent on the analytic side, so
        :meth:`rate_history` stays informative across the fidelity switch.
        Backfill never overrides minutes with recorded arrivals.
        """
        for minute, rate in minute_rates.items():
            self._rate_backfill[int(minute)] = float(rate)

    # ------------------------------------------------------------ results

    def minute_stats(self, minute: int) -> MinuteStats:
        """Evaluation aggregates for one whole minute."""
        first, last = self._bin_range(minute * 60.0, (minute + 1) * 60.0)
        arrivals, drops, violations = self._totals(first, last)
        latency = self._percentile(last, arrivals - drops, drops)
        if arrivals == 0:
            utility = 1.0  # An idle job trivially meets its SLO.
            violation_rate = 0.0
        else:
            utility = inverse_utility(latency, self.slo.target, alpha=self.alpha)
            violation_rate = violations / arrivals
        drop_fraction = drops / arrivals if arrivals else 0.0
        effective = penalty_multiplier(drop_fraction) * utility
        return MinuteStats(
            minute=minute,
            arrivals=arrivals,
            drops=drops,
            violations=violations,
            latency_p=latency,
            violation_rate=violation_rate,
            utility=utility,
            effective_utility=effective,
        )
