"""Poisson request generation from arrival-rate traces.

The paper's load generator replays trace arrival counts as a Poisson
process (§6, following Swayam/DeepRecSys/INFaaS/MArk).  Each trace minute
with rate ``r`` requests/minute yields ``Poisson(r * rate_scale)`` arrivals
placed uniformly in the minute.

Generation is batched per consumption step: one call path
(:meth:`PoissonArrivals._generate_minutes`) draws every not-yet-generated
minute a take needs and lands them in a single numpy buffer.  The
request-level tick takes every job's arrivals from that buffer in place,
in the dispatch kernel (:meth:`repro.cluster.rayserve.RayServeCluster.offer_until`);
``take_until_array`` cuts one chunk with one ``searchsorted``.  Day-long
multi-job simulations stay memory-bounded: consumed prefixes are compacted
away.

**RNG contract (pinned):** the draw sequence is, per minute in order, one
scalar ``poisson(rate)`` when the scaled rate is positive, then one
``uniform`` batch when the count is positive.  Every byte-identity digest
in the test suite rests on this order; the batched generator must consume
the bit stream exactly like the historical lazy per-minute generator
(differential-tested in ``tests/test_workload_vectorized.py``).  Treat it
like a file format.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PoissonArrivals"]


class PoissonArrivals:
    """Per-minute Poisson arrival stream for one job, batched per take."""

    def __init__(
        self,
        rates_per_min: np.ndarray,
        rate_scale: float = 1.0,
        seed: int = 0,
        minute_seconds: float = 60.0,
    ) -> None:
        if rate_scale < 0:
            raise ValueError(f"rate_scale must be >= 0, got {rate_scale}")
        if minute_seconds <= 0:
            raise ValueError(f"minute_seconds must be positive, got {minute_seconds}")
        self.rates = np.asarray(rates_per_min, dtype=float)
        if np.any(self.rates < 0):
            raise ValueError("trace rates must be non-negative")
        self.rate_scale = rate_scale
        self.minute_seconds = minute_seconds
        self._rng = np.random.default_rng(seed)
        # Scaled per-minute rates, precomputed once (same float product the
        # per-minute path computed, so the positive-rate test is identical).
        self._scaled = self.rates * rate_scale
        # Generated arrivals; those from _buffer[_taken[0]] on are not taken
        # yet.  The dispatch kernel takes them in place and moves _taken, so
        # it is an array.
        self._buffer = np.empty(0, dtype=float)
        self._taken = np.zeros(1, dtype=np.int64)
        self._next_minute = 0
        self.generated = 0

    @property
    def duration_seconds(self) -> float:
        return self.rates.shape[0] * self.minute_seconds

    def extend(self, rates_per_min: np.ndarray) -> None:
        """Append trace minutes past the current end (online serving).

        Generation is lazy and strictly in minute order, so appending
        minutes the generator has not reached yet cannot perturb any draw
        already made: the stream behaves exactly as if it had been
        constructed with the concatenated trace up front.  The serve
        engine's byte-identity to batch replay rests on this.
        """
        new = np.asarray(rates_per_min, dtype=float)
        if np.any(new < 0):
            raise ValueError("trace rates must be non-negative")
        if self._next_minute > self.rates.shape[0]:
            raise AssertionError("generator ran past the end of the trace")
        self.rates = np.concatenate([self.rates, new])
        # Same per-element float product __init__ computes, so minute m's
        # scaled rate is identical whether m arrived up front or streamed.
        self._scaled = np.concatenate([self._scaled, new * self.rate_scale])

    def _generate_minutes(self, end_time: float) -> None:
        """Draw every minute a take up to ``end_time`` still needs.

        All newly generated minutes land in the buffer with a single
        concatenate (which also compacts the consumed prefix).  The RNG
        draws themselves stay per-minute, in minute order -- that sequence
        is the pinned contract documented above.
        """
        chunks: list[np.ndarray] = []
        minute = self._next_minute
        total_minutes = self.rates.shape[0]
        seconds = self.minute_seconds
        rng = self._rng
        scaled = self._scaled
        while minute < total_minutes and minute * seconds < end_time:
            rate = scaled[minute]
            count = int(rng.poisson(rate)) if rate > 0 else 0
            if count:
                start = minute * seconds
                chunks.append(np.sort(rng.uniform(start, start + seconds, count)))
                self.generated += count
            minute += 1
        self._next_minute = minute
        if chunks:
            self._buffer = np.concatenate([self._buffer[int(self._taken[0]) :], *chunks])
            self._taken[0] = 0

    def _take_view(self, end_time: float) -> np.ndarray:
        """Buffer view of all arrivals <= end_time not yet taken."""
        if self._next_minute * self.minute_seconds < end_time:
            self._generate_minutes(end_time)
        buffer = self._buffer
        # The buffer is globally sorted (minutes generated in order, times
        # sorted within each minute), so the cut point is one searchsorted.
        start = int(self._taken[0])
        cursor = max(int(buffer.searchsorted(end_time, side="right")), start)
        taken = buffer[start:cursor]
        self._taken[0] = cursor
        if cursor > 4096:
            # Compact the consumed prefix to bound memory (copy, not view:
            # a view would pin the full backing array alive).
            self._buffer = buffer[cursor:].copy()
            self._taken[0] = 0
        return taken

    def take_until(self, end_time: float) -> list[float]:
        """All arrival times <= end_time not yet taken, in order."""
        return self._take_view(end_time).tolist()

    def take_until_array(self, end_time: float) -> np.ndarray:
        """Like :meth:`take_until`, as a float array (batch-offer input)."""
        # Copy: the view would otherwise alias a buffer a later compaction
        # (or this very call's slice-out) shares with future takes.
        return self._take_view(end_time).copy()
