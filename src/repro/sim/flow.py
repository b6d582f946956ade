"""The analytic (fluid/flow) model of the jobs that run without requests.

Where a request-level job routes individual Poisson requests, an analytic
job advances its queue per control tick: deterministic fluid inflow and
outflow for backlog dynamics plus M/D/c formulas for the stochastic
waiting tail when the queue is near empty.  ``results/BENCH_sim.json``
measures the six-job adaptive workload 2.6x faster at flow fidelity than
at request fidelity; the model runs the large sweeps (Fig. 15's
cluster-size sweep, Table 8's 100-job run) and plays the role of the
paper's "matched simulation" in the Table 7 ranking comparison.

A run's analytic jobs share one :class:`FlowTable`: one row per job of
the run, in global job order, holding each job's queue, settings, rates,
per-minute buckets and last tick as columns.  A :class:`FlowJob` is one
row's view plus the job's event-driven
:class:`~repro.sim.lifecycle.ReplicaLifecycle` (cold starts draw from
the job's RNG, so they stay in Python); it writes the row's ready count
whenever the lifecycle may have changed it.  :meth:`FlowTable.step`
advances every listed row by one tick with one call of the compiled
kernel (``flow.c``), which repeats :meth:`FlowJob.step` and
:func:`accumulate_flow_tick`, the scalar reference and fallback, bit for
bit.  :meth:`FlowTable.observations` builds the rows'
:class:`~repro.policy.JobObservation`\\ s from the columns.  The harness
is :class:`repro.sim.simulation.HybridSimulation`.
"""

from __future__ import annotations

import functools
import math
import weakref
from pathlib import Path

import numpy as np

from repro import native
from repro.cluster.job import InferenceJobSpec
from repro.core.penalty import penalty_multiplier
from repro.core.utility import inverse_utility
from repro.policy import JobObservation
from repro.queueing.mdc import mdc_latency_percentile
from repro.queueing.mmc import erlang_c
from repro.sim.lifecycle import ReplicaLifecycle
from repro.sim.recorder import JobSeries

__all__ = [
    "FlowJob",
    "FlowTable",
    "accumulate_flow_tick",
    "collect_flow_series",
    "kernel",
]

SOURCE = Path(__file__).with_name("flow.c")


class FlowJob:
    """One analytic job: its replica lifecycle and a view of its table row."""

    def __init__(
        self,
        spec: InferenceJobSpec | None,
        table: FlowTable,
        row: int,
        cold_start_range: tuple[float, float],
        rng: np.random.Generator,
    ) -> None:
        self.spec = spec
        self.table = table
        self.row = row
        self.rng = rng
        self.lifecycle = ReplicaLifecycle(cold_start_range, rng)

    # ------------------------------------------------------------- row

    @property
    def queue(self) -> float:
        return self.table.queue[self.row]

    @queue.setter
    def queue(self, value: float) -> None:
        self.table.queue[self.row] = value

    @property
    def drop_rate(self) -> float:
        return float(self.table.drop_rate[self.row])

    @drop_rate.setter
    def drop_rate(self, value: float) -> None:
        self.table.drop_rate[self.row] = value

    @property
    def proc_time(self) -> float:
        """Effective service time of the job's replica pool.  Homogeneous
        runs never reassign it (it stays the model's reference time);
        heterogeneous runs push the mixed-pool effective time after each
        device assignment."""
        return float(self.table.proc_time[self.row])

    @proc_time.setter
    def proc_time(self, value: float) -> None:
        self.table.proc_time[self.row] = value

    @property
    def target(self) -> int:
        return int(self.table.target[self.row])

    @target.setter
    def target(self, value: int) -> None:
        self.table.target[self.row] = value

    @property
    def queue_threshold(self) -> int:
        return int(self.table.threshold[self.row])

    # ----------------------------------------------------------- scaling

    @property
    def running(self) -> int:
        """Replicas past their cold start (serving capacity)."""
        return self.lifecycle.ready

    @running.setter
    def running(self, value: int) -> None:
        self.lifecycle.ready = int(value)
        self._sync()

    @property
    def existing(self) -> int:
        """Replicas that exist (running or still cold-starting)."""
        return self.lifecycle.total

    def _sync(self) -> None:
        """Write the lifecycle's ready count and next event to the row."""
        self.table.ready[self.row] = self.lifecycle.ready
        self.table.due[self.row] = self.lifecycle.loop.next_time

    def advance(self, now: float) -> None:
        """Play the lifecycle's events up to ``now``."""
        self.lifecycle.advance(now)
        self._sync()

    def scale_to(self, target: int, now: float) -> None:
        self.target = target
        self.lifecycle.scale_to(target, now)
        self._sync()

    def fail(self, count: int, now: float) -> int:
        """Fault injection: lose ``count`` running replicas, then let the
        reconcile step recreate them behind a fresh cold start."""
        killed = self.lifecycle.fail(count)
        if killed:
            self.lifecycle.scale_to(self.target, now)
        self._sync()
        return killed

    # ------------------------------------------------------------- flow

    def step(self, dt: float, lam: float) -> dict:
        """Advance the queue one tick; returns per-tick aggregates.

        ``lam`` is the offered arrival rate in requests/second.  The
        caller has advanced the lifecycle to the tick's start.
        """
        p = self.proc_time
        drop_rate = self.drop_rate
        arrivals = lam * dt
        explicit_drops = arrivals * drop_rate
        kept_rate = lam * (1.0 - drop_rate)
        inflow = kept_rate * dt
        service_rate = self.running / p if self.running else 0.0
        capacity = service_rate * dt

        queue_start = self.queue
        processed = min(queue_start + inflow, capacity)
        queue_end = queue_start + inflow - processed
        tail_drops = 0.0
        if queue_end > self.queue_threshold:
            tail_drops = queue_end - self.queue_threshold
            queue_end = float(self.queue_threshold)
        self.queue = queue_end

        accepted = max(inflow - tail_drops, 0.0)
        drops = explicit_drops + tail_drops
        queue_mid = 0.5 * (queue_start + queue_end)

        if self.running == 0:
            latency_p = math.inf
            violation_fraction = 1.0
        else:
            wait_det = queue_mid / service_rate
            slo = self.table.slo[self.row]
            rho = kept_rate * p / self.running
            if rho < 1.0 and queue_mid < 1.0:
                latency_p = mdc_latency_percentile(
                    float(self.table.quantile[self.row]), kept_rate, p, self.running
                )
                violation_fraction = self._stochastic_violation(kept_rate, slo)
            else:
                latency_p = wait_det + p
                violation_fraction = self._deterministic_violation(
                    queue_start, queue_end, kept_rate, service_rate, dt, slo
                )
        violations = violation_fraction * accepted + drops
        return {
            "arrivals": arrivals,
            "drops": drops,
            "violations": min(violations, arrivals),
            "latency_p": latency_p,
        }

    def _stochastic_violation(self, lam: float, slo: float) -> float:
        """P(latency > slo) for a stable, empty-queue M/D/c job.

        Uses the exponential M/M/c waiting tail halved in time (the same
        half-wait approximation as the latency estimator):
        ``P(W > t) ~= C * exp(-2 (c mu - lam) t)``.
        """
        p = self.proc_time
        if slo <= p:
            return 1.0
        if lam <= 0.0:
            return 0.0
        mu = 1.0 / p
        offered = lam * p
        if offered >= self.running:
            return 1.0
        wait_prob = erlang_c(self.running, offered)
        drain = self.running * mu - lam
        return float(min(wait_prob * math.exp(-2.0 * drain * (slo - p)), 1.0))

    def _deterministic_violation(
        self,
        queue_start: float,
        queue_end: float,
        lam: float,
        service_rate: float,
        dt: float,
        slo: float,
    ) -> float:
        """Fraction of this tick's arrivals whose fluid wait exceeds the SLO.

        The queue evolves linearly within the tick; an arrival at offset
        ``tau`` waits ``Q(tau) / service_rate`` plus one service time.
        """
        p = self.proc_time
        budget = (slo - p) * service_rate  # queue length that still meets SLO
        if budget <= 0:
            return 1.0
        slope = (queue_end - queue_start) / dt
        if abs(slope) < 1e-12:
            return 1.0 if queue_start > budget else 0.0
        crossing = (budget - queue_start) / slope
        if slope > 0:
            # Queue grows: arrivals after the crossing violate.
            fraction = 1.0 - min(max(crossing / dt, 0.0), 1.0)
        else:
            # Queue drains: arrivals before the crossing violate.
            fraction = min(max(crossing / dt, 0.0), 1.0)
        return fraction


def accumulate_flow_tick(bucket: dict, minute: int, stats: dict) -> None:
    """Fold one tick's :meth:`FlowJob.step` aggregates into a bucket."""
    bucket["arrivals"][minute] += stats["arrivals"]
    bucket["drops"][minute] += stats["drops"]
    bucket["violations"][minute] += stats["violations"]
    if math.isfinite(stats["latency_p"]):
        bucket["lat_sum"][minute] += stats["latency_p"] * stats["arrivals"]
        bucket["lat_weight"][minute] += stats["arrivals"]
        bucket["lat_max"][minute] = max(bucket["lat_max"][minute], stats["latency_p"])
    else:
        bucket["lat_max"][minute] = math.inf


class FlowTable:
    """A run's analytic jobs as columns: one row per job, in global order.

    Per row: the queue, drop rate, processing time, ready replicas,
    target, queue threshold, SLO target and quantile, and the time of the
    lifecycle's next event (``due``); per row and minute, the offered
    rates in requests/second (``history``, whose first ``pad`` columns
    hold the history prefix) and the buckets of :data:`BUCKETS`; per row,
    the last tick's arrivals, violations and latency.  Only ``listed``
    rows step and observe: a row is listed while its job runs
    analytically.  The arrays are filled in place and never replaced.
    """

    #: The per-minute accumulators of :func:`accumulate_flow_tick`, and the
    #: replica target sampled at each minute boundary.
    BUCKETS = ("arrivals", "drops", "violations", "lat_sum", "lat_weight",
               "lat_max", "replicas")

    def __init__(self, names: list[str], minutes: int, history_minutes: int) -> None:
        count = len(names)
        self.names = list(names)
        self.minutes = minutes
        #: History columns before minute 0: a window is ``history_minutes`` long.
        self.pad = history_minutes - 1
        self.flows: list[FlowJob | None] = [None] * count
        self.listed = np.zeros(count, dtype=bool)
        self.queue = np.zeros(count)
        self.drop_rate = np.zeros(count)
        self.proc_time = np.zeros(count)
        self.slo = np.zeros(count)
        self.quantile = np.zeros(count)
        self.ready = np.zeros(count, dtype=np.int64)
        self.target = np.zeros(count, dtype=np.int64)
        self.threshold = np.zeros(count, dtype=np.int64)
        self.due = np.full(count, math.inf)
        self.history = np.zeros((count, self.pad + minutes))
        #: Each row's first history column: ``pad`` less its prefix length.
        self.first = np.full(count, self.pad, dtype=np.int64)
        for name in self.BUCKETS:
            dtype = int if name == "replicas" else float
            setattr(self, name, np.zeros((count, minutes), dtype=dtype))
        self.last_arrivals = np.zeros(count)
        self.last_violations = np.zeros(count)
        self.last_latency = np.zeros(count)
        self._window_minute = -1
        self._windows: list[tuple | None] = [None] * count

    @property
    def rates(self) -> np.ndarray:
        """Offered rates (requests/second), one row per job and minute."""
        return self.history[:, self.pad:]

    def add(
        self,
        row: int,
        spec: InferenceJobSpec,
        trace: np.ndarray,
        prefix: np.ndarray | None,
        queue_threshold: int,
        cold_start_range: tuple[float, float],
        rng: np.random.Generator,
    ) -> FlowJob:
        """Fill ``row`` for ``spec`` and list it; ``trace`` and ``prefix``
        are in requests/minute.  Returns the row's job."""
        self.history[row, self.pad:] = trace / 60.0
        if prefix is not None:
            tail = prefix[max(len(prefix) - self.pad, 0):]
            self.first[row] = self.pad - len(tail)
            self.history[row, self.first[row]:self.pad] = tail / 60.0
        self.proc_time[row] = spec.model.proc_time
        self.slo[row] = spec.slo.target
        self.quantile[row] = spec.slo.quantile
        self.threshold[row] = queue_threshold
        flow = self.flows[row] = FlowJob(spec, self, row, cold_start_range, rng)
        self.listed[row] = True
        return flow

    def reset(self) -> None:
        """Empty the buckets and the last tick, as at a run's start."""
        for name in self.BUCKETS:
            getattr(self, name).fill(0)
        self.last_arrivals.fill(0.0)
        self.last_violations.fill(0.0)
        self.last_latency.fill(0.0)

    def listed_jobs(self) -> dict[str, FlowJob]:
        """The listed rows' jobs by name, in row order."""
        return {
            name: flow
            for name, flow, listed in zip(self.names, self.flows, self.listed.tolist())
            if listed
        }

    def bucket(self, row: int) -> dict[str, np.ndarray]:
        """Row ``row`` of every bucket, as views."""
        return {name: getattr(self, name)[row] for name in self.BUCKETS}

    # ----------------------------------------------------------- ticking

    def step(self, now: float, minute: int, dt: float) -> None:
        """Advance every listed row one tick of ``dt`` seconds from ``now``
        and fold it into ``minute``'s buckets."""
        flows = self.flows
        for row in np.flatnonzero(self.listed & (self.due <= now)).tolist():
            flows[row].advance(now)
        compiled = kernel()
        start = 0 if compiled is None else compiled.step(self, minute, dt)
        if start >= 0:
            self._step_reference(minute, dt, start)

    def _step_reference(self, minute: int, dt: float, start: int) -> None:
        """:meth:`FlowJob.step` and :func:`accumulate_flow_tick` on every
        listed row from ``start`` on."""
        rates = self.rates[:, minute]
        for row in np.flatnonzero(self.listed[start:]).tolist():
            row += start
            stats = self.flows[row].step(dt, rates[row])
            self.last_arrivals[row] = stats["arrivals"]
            self.last_violations[row] = stats["violations"]
            self.last_latency[row] = stats["latency_p"]
            accumulate_flow_tick(self.bucket(row), minute, stats)

    def sample_replicas(self, minute: int) -> None:
        """Record each listed row's target as ``minute``'s replicas."""
        np.copyto(self.replicas[:, minute], self.target, where=self.listed)

    def observations(self, minute: int) -> list[JobObservation | None]:
        """Each listed row's observation at trace ``minute`` (``None`` for
        the rest).  Rate histories are built once per minute."""
        count = len(self.names)
        if minute != self._window_minute:
            self._window_minute = minute
            self._windows = [None] * count
        windows, column = self._windows, self.pad + minute
        rows = np.flatnonzero(self.listed).tolist()
        for row in rows:
            if windows[row] is None:
                start = max(minute, int(self.first[row]))
                windows[row] = tuple(self.history[row, start : column + 1])
        arrivals = self.last_arrivals
        violation_rate = np.divide(
            self.last_violations, arrivals, out=np.zeros(count), where=arrivals != 0
        )
        # JobObservation's fields, in order: np.float64 rates, latency and
        # violation rate; float processing time and drop rate; int counts.
        columns = [
            self.names,
            list(self.history[:, column]),
            windows,
            self.proc_time.tolist(),
            list(self.last_latency),
            list(violation_rate),
            self.ready.tolist(),
            self.target.tolist(),
            [int(queue) for queue in self.queue.tolist()],
            self.drop_rate.tolist(),
        ]
        columns = [[values[row] for row in rows] for values in columns]
        out: list[JobObservation | None] = [None] * count
        for row, obs in zip(rows, map(JobObservation, *columns)):
            out[row] = obs
        return out


def collect_flow_series(name: str, spec: InferenceJobSpec, bucket: dict, minutes: int) -> JobSeries:
    """Assemble one analytic job's per-minute evaluation series."""
    latency = np.zeros(minutes)
    utility = np.zeros(minutes)
    effective = np.zeros(minutes)
    for m in range(minutes):
        if math.isinf(bucket["lat_max"][m]):
            latency[m] = math.inf
        elif bucket["lat_weight"][m] > 0:
            mean_component = bucket["lat_sum"][m] / bucket["lat_weight"][m]
            latency[m] = 0.5 * (mean_component + bucket["lat_max"][m])
        else:
            latency[m] = 0.0
        arrivals = bucket["arrivals"][m]
        if arrivals <= 0:
            utility[m] = 1.0
            effective[m] = 1.0
            continue
        utility[m] = inverse_utility(latency[m], spec.slo.target)
        drop_fraction = min(bucket["drops"][m] / arrivals, 1.0)
        effective[m] = penalty_multiplier(drop_fraction) * utility[m]
    return JobSeries(
        name=name,
        arrivals=np.round(bucket["arrivals"]).astype(int),
        drops=np.round(bucket["drops"]).astype(int),
        violations=np.minimum(
            np.round(bucket["violations"]), np.round(bucket["arrivals"])
        ).astype(int),
        latency_p=latency,
        utility=utility,
        effective_utility=effective,
        # A copy: the table refills its buckets in place on the next run.
        replicas=bucket["replicas"].copy(),
    )


# ------------------------------------------------------------------ kernel

_CDEF = """
typedef struct {
    int64_t rows, minutes, stride;
    const uint8_t *listed;
    double *queue;
    const double *drop_rate, *proc_time, *slo, *quantile;
    const int64_t *ready, *threshold;
    const double *rates;
    double *arrivals, *drops, *violations, *lat_sum, *lat_weight, *lat_max;
    double *last_arrivals, *last_violations, *last_latency;
} FlowTable;
int64_t flow_step(const FlowTable *t, int64_t minute, double dt);
"""

#: The table's arrays a ``FlowTable`` struct points into, by C type.
_DOUBLES = ("queue", "drop_rate", "proc_time", "slo", "quantile",
            "arrivals", "drops", "violations", "lat_sum", "lat_weight", "lat_max",
            "last_arrivals", "last_violations", "last_latency")
_LONGS = ("ready", "threshold")


@functools.cache
def kernel() -> Kernel | None:
    """The compiled kernel, or ``None`` when it cannot load.

    Loaded once per process, on first use.
    """
    return native.load(
        "flow", SOURCE, _CDEF, Kernel, _self_check,
        fallback="analytic jobs step through FlowJob.step and accumulate_flow_tick",
    )


class Kernel:
    """``flow.c``, bound: one ``flow_step`` call per table and tick.

    Each table's ``FlowTable`` struct is made on its first step and kept
    in a weak dictionary keyed by the table, never on the table, which
    stays picklable; its arrays are never replaced, so the struct stays
    valid for the table's life.
    """

    def __init__(self, ffi, library) -> None:
        self.ffi = ffi
        self.flow_step = library.flow_step
        self._structs = weakref.WeakKeyDictionary()

    def step(self, table: FlowTable, minute: int, dt: float) -> int:
        """``flow_step`` on ``table``: -1 when every listed row stepped,
        else the first row left to the reference."""
        if not 0 <= minute < table.minutes:
            raise IndexError(f"minute {minute} outside the table's {table.minutes}")
        bound = self._structs.get(table)
        if bound is None:
            bound = self._structs[table] = self._struct(table)
        return self.flow_step(bound[0], minute, dt)

    def _struct(self, table: FlowTable) -> tuple:
        ffi = self.ffi
        views = {name: ffi.from_buffer("double[]", getattr(table, name)) for name in _DOUBLES}
        views.update(
            (name, ffi.from_buffer("int64_t[]", getattr(table, name))) for name in _LONGS
        )
        views["listed"] = ffi.from_buffer("uint8_t[]", table.listed)
        views["history"] = ffi.from_buffer("double[]", table.history)
        struct = ffi.new("FlowTable *")
        struct.rows, struct.minutes = len(table.names), table.minutes
        struct.stride = table.history.shape[1]
        struct.rates = views["history"] + table.pad
        for name in (*_DOUBLES, *_LONGS, "listed"):
            setattr(struct, name, views[name])
        return struct, views


def _check_table() -> FlowTable:
    """Rows covering every branch of :meth:`FlowJob.step`, for the load-time
    check; each row's rate changes from minute to minute.

    Columns per row: processing time, SLO target, quantile, ready
    replicas, queue threshold, drop rate, starting queue and the three
    minutes' rates in requests/second.  Besides the model's regimes
    (no replica, stable and empty, backlogged, draining, at the threshold,
    a budget below zero, every request dropped): -0.0 rates and queue, NaN
    rates and SLOs and an infinite rate tell Python's ``min`` and ``max``
    from their operands swapped; two rows sit where ``lam / (1 / p)`` and
    ``lam * p`` are different loads; one where ``lam / (c mu) >= 1`` while
    ``lam p / c < 1``; and the last, a negative rate, is handed back to the
    reference.
    """
    nan = math.nan
    rows = [
        # p, slo, q, ready, threshold, drop, queue, rates
        (0.18, 0.72, 0.99, 0, 50, 0.0, 0.0, (5.0, 6.0, 0.0)),
        (0.18, 0.72, 0.99, 4, 50, 0.0, 0.0, (9.3, 12.7, 4.1)),
        (0.18, 0.72, 0.5, 8, 50, 0.0, 0.0, (0.7, 2.3, 1.1)),
        (0.18, 0.15, 0.99, 3, 50, 0.0, 0.0, (4.0, 6.5, 2.0)),
        (0.18, 0.72, 0.99, 3, 50, 0.0, 0.0, (0.0, 0.0, 3.0)),
        (0.18, 0.72, 0.99, 2, 20, 0.0, 0.0, (40.0, 45.0, 30.0)),
        (0.18, 0.72, 0.99, 2, 50, 0.0, 2.0, (12.0, 12.5, 11.5)),
        (0.18, 0.72, 0.99, 3, 50, 0.0, 30.0, (5.0, 1.0, 0.0)),
        (0.2, 0.72, 0.99, 2, 30, 0.0, 3.0, (10.0, 10.0, 12.0)),
        (0.2, 0.15, 0.99, 2, 50, 0.0, 12.0, (10.0, 16.0, 8.0)),
        (0.18, 0.72, 0.95, 3, 50, 1.0, 5.0, (20.0, 30.0, 10.0)),
        (0.18, 0.72, 0.99, 3, 50, 0.25, 0.0, (14.0, 22.0, 18.0)),
        (0.18, 0.72, 0.99, 3, 50, 0.0, 0.0, (-0.0, -0.0, -0.0)),
        (0.18, 0.72, 0.99, 0, 50, 0.0, -0.0, (-0.0, -0.0, -0.0)),
        (0.18, 0.72, 0.99, 3, 50, 0.0, 0.0, (nan, 4.0, nan)),
        (0.18, 0.72, 0.99, 3, 20, 0.5, 20.0, (math.inf, math.inf, 2.0)),
        (0.18, nan, 0.99, 2, 50, 0.0, 2.0, (30.0, 30.0, 30.0)),
        (0.18, nan, 0.99, 3, 50, 0.0, 0.0, (4.0, 6.0, 5.0)),
        (0.36, 0.72, 0.99, 5, 50, 0.0, 0.0, (6.9, 6.9, 3.0)),
        (0.38, 0.9, 0.99, 6, 50, 0.0, 0.0, (6.5, 2.0, 6.5)),
        (0.122, 0.72, 0.99, 5, 50, 0.0, 0.0, (40.983606557377044,) * 3),
        (0.18, 0.72, 0.99, 0, 50, 0.0, 5.0, (-1.0, -1.0, -1.0)),
    ]
    table = FlowTable([f"row{r}" for r in range(len(rows) + 1)], 3, 3)
    rng = np.random.default_rng(0)
    for r, (p, slo, q, ready, threshold, drop, queue, rates) in enumerate(rows):
        flow = table.flows[r] = FlowJob(None, table, r, (0.0, 0.0), rng)
        table.listed[r] = True
        table.history[r, table.pad:] = rates
        table.proc_time[r], table.slo[r], table.quantile[r] = p, slo, q
        table.threshold[r], table.drop_rate[r], table.queue[r] = threshold, drop, queue
        flow.running = ready
    # The last row stays unlisted: nothing may write it.
    table.queue[-1] = 3.0
    table.history[-1] = 1.0
    return table


def _self_check(compiled: Kernel) -> None:
    """Raise unless ``compiled`` steps :func:`_check_table` exactly as the
    reference does, over three minutes of two ticks each (the second tick
    of the last minute a partial one)."""
    kernel_table, reference = _check_table(), _check_table()
    for minute, dt in ((0, 10.0), (0, 10.0), (1, 10.0), (1, 10.0), (2, 10.0), (2, 2.5)):
        start = compiled.step(kernel_table, minute, dt)
        # The NaN and infinite rows warn on numpy scalars.
        with np.errstate(all="ignore"):
            if start >= 0:
                kernel_table._step_reference(minute, dt, start)
            reference._step_reference(minute, dt, 0)
        for name in (*_DOUBLES, *_LONGS):
            if getattr(kernel_table, name).tobytes() != getattr(reference, name).tobytes():
                raise native.KernelUnavailable(
                    f"the load-time check disagrees with FlowJob.step on {name}"
                )
