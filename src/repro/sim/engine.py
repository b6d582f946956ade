"""A small discrete-event simulation engine.

The trace simulations in this repo use a specialized chunked loop for speed,
but a general heap-based engine is useful for tests, extensions, and
modelling one-off event processes (e.g. failure injection).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Callable

__all__ = ["EventLoop"]


class EventLoop:
    """Heap-ordered event loop with stable FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()
        self.now = 0.0
        self._processed = 0

    def schedule(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule at {time} before now={self.now}")
        heapq.heappush(self._heap, (time, next(self._counter), callback))

    def schedule_in(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.schedule(self.now + delay, callback)

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def next_time(self) -> float:
        """Time of the earliest pending event, ``inf`` when there is none."""
        return self._heap[0][0] if self._heap else math.inf

    @property
    def processed(self) -> int:
        return self._processed

    def run_until(self, end_time: float) -> None:
        """Process events with time <= end_time; advance the clock to it."""
        while self._heap and self._heap[0][0] <= end_time:
            time, _, callback = heapq.heappop(self._heap)
            self.now = time
            self._processed += 1
            callback()
        self.now = max(self.now, end_time)

    def run(self) -> None:
        """Process all pending events (callbacks may schedule more)."""
        while self._heap:
            time, _, callback = heapq.heappop(self._heap)
            self.now = time
            self._processed += 1
            callback()
