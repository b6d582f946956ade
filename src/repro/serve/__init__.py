"""repro.serve -- continuous online serving atop the simulation engine.

Batch experiments (`repro.api.run`) consume a whole trace and return one
report.  This package runs the *same* control loop continuously: a
:class:`~repro.serve.cursor.TraceCursor` reveals arrival-trace minutes
incrementally (replayed, chunked, or tailed from a live CSV), a
:class:`~repro.serve.loop.ServeLoop` ticks the policy against them with a
solve deadline and graceful degradation, and sealed
:class:`~repro.serve.windows.WindowReport` blocks stream to subscribers
while a running merge reassembles the batch report.

The load-bearing property: serving a finite replayed trace -- any window
size, any checkpoint/resume schedule -- merges to a report **byte-identical**
to batch ``api.run`` on the same spec (pinned by
``tests/test_serve_loop.py``).

Wall-clock access lives only in :mod:`repro.serve.clock`; the determinism
lint enforces that boundary for the rest of the package.
"""

from repro.serve.clock import Clock, FakeClock, VirtualClock, WallClock
from repro.serve.cursor import (
    ChunkedReplayCursor,
    ReplayCursor,
    TailingFileCursor,
    TraceCursor,
    cursor_from_source,
)
from repro.serve.loop import (
    ServeAborted,
    ServeJournal,
    ServeLoop,
    ServeResult,
    TrialOutcome,
    serve,
)
from repro.serve.sinks import CallbackSink, JsonlSink, TableSink, WindowSink
from repro.serve.spec import ServeOptions, ServeSpec
from repro.serve.windows import (
    WindowAccumulator,
    WindowReport,
    WindowStats,
    window_index,
)

__all__ = [
    "Clock",
    "VirtualClock",
    "WallClock",
    "FakeClock",
    "TraceCursor",
    "ReplayCursor",
    "ChunkedReplayCursor",
    "TailingFileCursor",
    "cursor_from_source",
    "ServeAborted",
    "ServeJournal",
    "ServeLoop",
    "ServeResult",
    "TrialOutcome",
    "serve",
    "WindowSink",
    "CallbackSink",
    "JsonlSink",
    "TableSink",
    "ServeOptions",
    "ServeSpec",
    "WindowStats",
    "WindowReport",
    "WindowAccumulator",
    "window_index",
]
