"""The compiled dispatch kernel (``dispatch.c``) and its binding.

Two C functions each loop over a table of request-level jobs:

- ``route_jobs`` routes and records each job's arrivals up to a time,
  repeating :meth:`JobRouter.offer <repro.cluster.router.JobRouter.offer>`'s
  and :meth:`MetricsCollector.record <repro.cluster.metrics.MetricsCollector.record>`'s
  exact steps per request, in place on the router's and the collector's
  numpy arrays, and drawing from the router's own PCG64 through numpy's
  exported ``random_standard_uniform`` and ``random_normal``;
- ``observe_jobs`` computes each job's observation window: the bin
  totals, the ``proc_time`` sum and the SLO-percentile latency of
  :meth:`MetricsCollector.observation_fields <repro.cluster.metrics.MetricsCollector.observation_fields>`,
  the rates of :meth:`MetricsCollector.rate_history <repro.cluster.metrics.MetricsCollector.rate_history>`,
  the router queue of :meth:`JobRouter.queue_length <repro.cluster.router.JobRouter.queue_length>`
  (whose expired head it drops in place) and the ready replicas.

:meth:`RayServeCluster.offer_until <repro.cluster.rayserve.RayServeCluster.offer_until>`
and :meth:`RayServeCluster.observations <repro.cluster.rayserve.RayServeCluster.observations>`
make one call each per control tick, whatever the job count;
:meth:`JobRouter.offer_many <repro.cluster.router.JobRouter.offer_many>`
is ``route_jobs`` on a table of one job.  Replica state, pending starts,
bins, latencies, observations and the generators' final positions are the
scalar loop's and the Python references', bit for bit, in every randomness
regime.

A table holds one ``Job`` entry per job: cffi views of its router's,
collector's and arrival stream's arrays, and their scalars.  A part of an
entry is filled again only when one of the arrays it views was replaced
(a scale event, a failure, a buffer grown, a minute of arrivals drawn),
which the table sees by the arrays' identities, or when the router's drop
rate, processing time or queue threshold changed: a steady tick makes no
per-job cffi call, and the objects that own the arrays keep no record of
their replacement.  Tables live in this module, in a weak dictionary keyed by cluster
(or by router, for a table of one job), never on a router, collector,
stream or cluster, so all four stay picklable.

The first dispatch of a process calls :func:`kernel`, which loads
``dispatch.c`` through :func:`repro.native.load`, binds it next to numpy's
``numpy.random._generator`` module, which exports the draw functions, and
checks it once against the references (:func:`_self_check`).  When the
kernel cannot load, routing runs the scalar loop and observations the
Python references.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from itertools import chain
from pathlib import Path

import numpy as np

from repro import native

__all__ = ["Kernel", "kernel", "snapshot"]

SOURCE = Path(__file__).with_name("dispatch.c")

_CDEF = """
typedef struct {
    void *bitgen;
    double *free_at;
    const double *ready_at;
    const int64_t *ids;
    int64_t *served;
    int64_t replicas;
    double *pending;
    int64_t ring_capacity;
    int64_t *queue;
    int64_t *tallies;
    double drop_rate, proc_time, jitter;
    int64_t threshold;
    int64_t *counts;
    double *proc_sums;
    int64_t *minutes;
    int64_t bin_capacity;
    double *latencies;
    int64_t latency_capacity;
    int64_t *fill;
    double bin_seconds;
    int64_t bins_per_minute;
    double slo_target, quantile, record_proc_time;
    const double *prefix;
    int64_t prefix_length;
    const double *arrivals;
    int64_t length;
    int64_t *taken;
    int64_t status, cut;
} Job;
double random_standard_uniform(void *bitgen);
double random_normal(void *bitgen, double loc, double scale);
int64_t route_jobs(Job *jobs, int64_t count, double until,
                   double (*uniform)(void *),
                   double (*normal)(void *, double, double));
int64_t observe_jobs(Job *jobs, int64_t count, double now, double window,
                     int64_t history, int64_t compensated,
                     double *reals, int64_t *wholes, double *rates);
"""


@functools.cache
def kernel() -> Kernel | None:
    """The compiled kernel, or ``None`` when it cannot load.

    Loaded once per process, on first use.
    """
    return native.load(
        "dispatch", SOURCE, _CDEF, Kernel, _self_check,
        fallback="requests run the scalar JobRouter.offer and "
        "MetricsCollector.record loop, and observations the Python references",
    )


# What each part of a table entry is made from: the arrays it views and,
# for a router, the generator whose address it holds; and the router's
# settings that may change after it is built.
_ROUTER_PART = operator.attrgetter(
    "_free_at", "_ready_at", "_ids", "_served", "_pending", "_queue", "_tallies", "_rng",
)
_COLLECTOR_PART = operator.attrgetter(
    "_counts", "_proc_sums", "_minutes", "_latencies", "_fill", "history_prefix",
)
_STREAM_PART = operator.attrgetter("_buffer", "_taken")
_SETTINGS = operator.attrgetter("drop_rate", "proc_time_override", "queue_threshold")


def _replaced(objects: tuple, held) -> bool:
    """Whether any of ``objects`` is not the object a part was made from."""
    return held is None or not all(map(operator.is_, objects, held[0]))


class _Table:
    """One ``Job`` entry per member ``(router, collector, stream)``, in order.

    ``stream`` is ``None`` where the entry takes its arrivals from a chunk
    or takes none.  ``held[j]`` keeps alive what entry ``j``'s router,
    collector and stream parts were made from, with the cffi views into
    those arrays, so an object that is still the one held was never
    replaced.
    """

    def __init__(self, kernel: Kernel, members: list[tuple]) -> None:
        self.kernel = kernel
        self.members = members
        self.count = len(members)
        self.entries = kernel.ffi.new(kernel.jobs_type, self.count)
        self.held = [[None, None, None] for _ in members]
        self.columns = (
            tuple(router for router, _, _ in members),
            tuple(collector for _, collector, _ in members),
            tuple(stream for _, _, stream in members if stream is not None),
        )
        self.objects, self.settings = [], None

    def _current(self) -> list:
        """Every object the entries would be made from now, part by part."""
        routers, collectors, streams = self.columns
        return [
            *chain.from_iterable(map(_ROUTER_PART, routers)),
            *chain.from_iterable(map(_COLLECTOR_PART, collectors)),
            *chain.from_iterable(map(_STREAM_PART, streams)),
        ]

    def sync(self) -> None:
        """Fill again each part of an entry made from an object since
        replaced, or from a router whose settings changed."""
        objects, settings = self._current(), list(map(_SETTINGS, self.columns[0]))
        if settings == self.settings and all(map(operator.is_, objects, self.objects)):
            return
        old = self.settings or [None] * self.count
        for j, (router, collector, stream) in enumerate(self.members):
            held = self.held[j]
            if settings[j] != old[j] or _replaced(_ROUTER_PART(router), held[0]):
                self._router(j)
            if _replaced(_COLLECTOR_PART(collector), held[1]):
                self._collector(j)
            if stream is not None and _replaced(_STREAM_PART(stream), held[2]):
                self._stream(j)
        self.objects, self.settings = objects, settings

    def _router(self, j: int) -> None:
        kernel, entry, router = self.kernel, self.entries[j], self.members[j][0]
        view, doubles, longs = kernel.ffi.from_buffer, kernel.doubles, kernel.longs
        views = (
            view(doubles, router._free_at), view(doubles, router._ready_at),
            view(longs, router._ids), view(longs, router._served),
            view(doubles, router._pending), view(longs, router._queue),
            view(longs, router._tallies),
        )
        (entry.free_at, entry.ready_at, entry.ids, entry.served,
         entry.pending, entry.queue, entry.tallies) = views
        # The generator's address through ctypes: numpy builds its cffi
        # interface with a fresh FFI and a cdef parse on first access.
        address = router._rng.bit_generator.ctypes.bit_generator.value
        entry.bitgen = kernel.ffi.cast(kernel.pointer, address)
        entry.replicas = router._ids.shape[0]
        entry.ring_capacity = router._pending.shape[0]
        entry.drop_rate = router.drop_rate
        entry.proc_time = router.proc_time
        entry.jitter = router.model.proc_jitter
        entry.threshold = router.queue_threshold
        self.held[j][0] = (_ROUTER_PART(router), views)

    def _collector(self, j: int) -> None:
        kernel, entry, collector = self.kernel, self.entries[j], self.members[j][1]
        view, doubles, longs = kernel.ffi.from_buffer, kernel.doubles, kernel.longs
        prefix = collector.history_prefix
        prefix = np.zeros(0) if prefix is None else np.ascontiguousarray(prefix, dtype=float)
        views = (
            view(longs, collector._counts), view(doubles, collector._proc_sums),
            view(longs, collector._minutes), view(doubles, collector._latencies),
            view(longs, collector._fill), view(doubles, prefix),
        )
        (entry.counts, entry.proc_sums, entry.minutes, entry.latencies,
         entry.fill, entry.prefix) = views
        entry.bin_capacity = collector._counts.shape[0]
        entry.latency_capacity = collector._latencies.shape[0]
        entry.bin_seconds = collector.bin_seconds
        entry.bins_per_minute = collector.bins_per_minute
        entry.slo_target = collector.slo.target
        entry.quantile = collector.slo.quantile
        entry.record_proc_time = collector.proc_time
        entry.prefix_length = prefix.shape[0]
        self.held[j][1] = (_COLLECTOR_PART(collector), views)

    def _stream(self, j: int) -> None:
        kernel, entry, stream = self.kernel, self.entries[j], self.members[j][2]
        views = (
            kernel.ffi.from_buffer(kernel.doubles, stream._buffer),
            kernel.ffi.from_buffer(kernel.longs, stream._taken),
        )
        entry.arrivals, entry.taken = views
        entry.length = stream._buffer.shape[0]
        self.held[j][2] = (_STREAM_PART(stream), views)


class Kernel:
    """``dispatch.c``, bound: routing and observation over cached tables.

    ``route_jobs`` and ``observe_jobs`` are the library's two functions;
    every call of the kernel goes through these attributes.
    """

    def __init__(self, ffi, library) -> None:
        try:
            generator = ffi.dlopen(np.random._generator.__file__)
            self.draws = (generator.random_standard_uniform, generator.random_normal)
        except (AttributeError, OSError) as exc:
            raise native.KernelUnavailable(
                f"numpy does not export its random C API: {exc}"
            ) from exc
        self.ffi = ffi
        self.route_jobs = library.route_jobs
        self.observe_jobs = library.observe_jobs
        #: Whether ``sum`` of floats is compensated (CPython 3.12 and later)
        #: or adds left to right, as ``observation_fields`` sums.
        self.compensated = sum([1.0, 1e100, 1.0, -1e100]) != 0.0
        # Types resolved once: a type given by name is re-parsed on every call.
        self.doubles, self.longs = ffi.typeof("double[]"), ffi.typeof("int64_t[]")
        self.pointer, self.jobs_type = ffi.typeof("void *"), ffi.typeof("Job[]")
        self._tables = weakref.WeakKeyDictionary()

    def offer(self, router, collector, arrivals: np.ndarray) -> None:
        """Route ``arrivals`` (a contiguous float array) through ``router``
        and record them in ``collector``, in place."""
        table = self._tables.get(router)
        if table is None or table.members[0][1] is not collector:
            # A proxy: a table that held its key would keep it alive.
            member = (weakref.proxy(router), collector, None)
            table = self._tables[router] = _Table(self, [member])
            table.taken = np.zeros(1, dtype=np.int64)
            table.taken_view = self.ffi.from_buffer(self.longs, table.taken)
            table.entries[0].taken = table.taken_view
        table.sync()
        chunk = self.ffi.from_buffer(self.doubles, arrivals)
        entry = table.entries[0]
        entry.arrivals, entry.length = chunk, arrivals.shape[0]
        table.taken[0] = 0
        self._route(table, math.inf)

    def route(self, cluster, streams, until: float) -> None:
        """Route every arrival up to ``until`` of each of ``cluster``'s jobs,
        taken from its stream in ``streams`` (job name -> PoissonArrivals)."""
        table = self._table(cluster, streams)
        if until > table.drawn:
            self._draw(table, until)
        table.sync()
        self._route(table, until)

    def observe(self, cluster, now: float, window: float):
        """Each of ``cluster``'s jobs' observation at ``now`` over the
        trailing ``window`` seconds, in router order, as three arrays: per
        job the arrival rate, SLO-percentile latency, violation rate, mean
        ``proc_time`` and drop rate; the window's served requests, the
        ready replicas and the router queue; and the rate history, less
        its backfill.  The arrays are the table's, overwritten next call."""
        table = self._table(cluster)
        table.sync()
        if self.observe_jobs(
            table.entries, table.count, now, window, table.history,
            self.compensated, *table.outputs,
        ):
            raise MemoryError("no memory for the dispatch kernel's percentile")
        return table.reals, table.wholes, table.rates

    def _table(self, cluster, streams=None) -> _Table:
        """``cluster``'s table, made again when its jobs or collectors are
        not the table's, or ``streams`` (when given) not its streams."""
        roster = (
            list(cluster.routers.values()),
            list(cluster.metrics.values()),
            cluster.history_minutes,
        )
        stream_roster = None if streams is None else list(streams.values())
        table = self._tables.get(cluster)
        if table is not None and table.roster == roster and (
            streams is None or table.stream_roster == stream_roster
        ):
            return table
        table = _Table(self, [
            (router, cluster.metrics[name], None if streams is None else streams[name])
            for name, router in cluster.routers.items()
        ])
        table.roster, table.stream_roster = roster, stream_roster
        table.drawn = -math.inf
        table.history = cluster.history_minutes
        table.reals = np.zeros((table.count, 5))
        table.wholes = np.zeros((table.count, 3), dtype=np.int64)
        table.rates = np.zeros((table.count, table.history))
        table.outputs = (
            self.ffi.from_buffer(self.doubles, table.reals),
            self.ffi.from_buffer(self.longs, table.wholes),
            self.ffi.from_buffer(self.doubles, table.rates),
        )
        self._tables[cluster] = table
        return table

    @staticmethod
    def _draw(table: _Table, until: float) -> None:
        """Draw the minutes each stream needs up to ``until`` and make room
        for all its arrivals not taken yet, so routing needs none."""
        drawn = math.inf
        for router, collector, stream in table.members:
            seconds = stream.minute_seconds
            if stream._next_minute * seconds < until:
                stream._generate_minutes(until)
                waiting = stream._buffer[int(stream._taken[0]):]
                if waiting.shape[0]:
                    router._reserve_queue(waiting.shape[0])
                    collector._reserve(float(waiting[-1]), waiting.shape[0])
            drawn = min(drawn, stream._next_minute * seconds)
        table.drawn = drawn

    def _route(self, table: _Table, until: float) -> None:
        """``route_jobs`` on ``table``; the jobs whose buffers need room get
        it, and one more call routes them."""
        for attempt in range(2):
            if not self.route_jobs(table.entries, table.count, until, *self.draws):
                return
            for j, (router, collector, _) in enumerate(table.members):
                entry = table.entries[j]
                if entry.status == 2:
                    raise MemoryError("no memory for the dispatch kernel's replica heap")
                if entry.status == -1:
                    raise ValueError(
                        "a chunk must hold finite, nondecreasing arrivals from t=0 "
                        "that do not precede the collector's latest bin"
                    )
                if entry.status == 1 and not attempt:
                    cut = entry.cut
                    router._reserve_queue(cut)
                    collector._reserve(entry.arrivals[entry.taken[0] + cut - 1], cut)
            table.sync()
        raise RuntimeError("the dispatch kernel needs room its buffers were grown to give")


def snapshot(router=None, collector=None) -> dict:
    """The state on which the compiled and the scalar path must agree.

    A ``router``'s pool, pending starts, totals and generator state; a
    ``collector``'s bins, per-minute arrivals, ``proc_time`` sums and
    latencies, the float arrays as bytes.  Buffer capacities are left out:
    the two paths grow their buffers at different times.
    """
    state = {}
    if router is not None:
        state.update(
            pool=list(zip(
                router._ids.tolist(), router._ready_at.tolist(),
                router._free_at.tolist(), router._served.tolist(),
            )),
            pending=router.pending_starts(),
            totals=dict(vars(router.totals)),
            rng=router._rng.bit_generator.state,
        )
    if collector is not None:
        opened, stored = collector._fill.tolist()
        minutes = -(-opened // collector.bins_per_minute)
        state.update(
            bins=collector._counts[:opened].tolist(),
            proc_sums=collector._proc_sums[:opened].tobytes(),
            minutes=collector._minutes[:minutes].tolist(),
            latencies=collector._latencies[:stored].tobytes(),
        )
    return state


def _self_check(kernel: Kernel) -> None:
    """Raise unless ``kernel`` reproduces the references.

    Two fixed chunks go through :meth:`Kernel.offer` and the scalar loop.
    In both, one replica is still cold-starting, the queue overflows its
    threshold, and the collector's bins are 0.1 s long, where Python's
    float floor division and ``floor(a / b)`` disagree (``1.0 // 0.1`` is
    9.0).  In the first, drops and jitter interleave their draws; in the
    second, service is exact in binary, so requests arrive at the very
    instants earlier ones start and some latencies equal the SLO target.

    Then :func:`_check_cluster`'s jobs tick through :meth:`Kernel.route`
    and :meth:`Kernel.observe`, and a copy of them through the scalar loop
    and the Python references.  One of its windows sums ``proc_time`` to
    different doubles left to right and compensated, so a kernel that sums
    unlike this interpreter's ``sum`` is refused.
    """
    from repro.cluster.metrics import MetricsCollector
    from repro.cluster.models import ModelProfile
    from repro.cluster.router import JobRouter
    from repro.core.utility import SLO

    def make(proc_time, jitter, threshold, drop_rate):
        model = ModelProfile(name="check", proc_time=proc_time, proc_jitter=jitter)
        router = JobRouter("check", model, initial_replicas=2, queue_threshold=threshold,
                           cold_start_range=(0.5, 1.5), seed=20250330)
        router.scale_to(3, now=0.0)
        router.drop_rate = drop_rate
        collector = MetricsCollector("check", SLO(0.5), proc_time, bin_seconds=0.1)
        return router, collector

    cases = (
        ((0.2, 0.3, 4, 0.1), np.linspace(0.0, 3.0, 96)),
        ((0.25, 0.0, 2, 0.0), np.repeat(np.arange(0.0, 3.0, 0.125), 3)),
    )
    for settings, arrivals in cases:
        (router, collector), compiled = make(*settings), make(*settings)
        for arrival in arrivals.tolist():
            collector.record(arrival, router.offer(arrival))
        kernel.offer(*compiled, arrivals)
        if snapshot(*compiled) != snapshot(router, collector):
            raise native.KernelUnavailable(
                "the load-time check disagrees with the scalar loop"
            )

    (cluster, streams), (reference, reference_streams) = _check_cluster(), _check_cluster()
    for now in np.arange(10.0, 70.0, 10.0).tolist():
        kernel.route(cluster, streams, now)
        reals, wholes, rates = kernel.observe(cluster, now, 60.0)
        for j, name in enumerate(reference.routers):
            router, collector = reference.routers[name], reference.metrics[name]
            for arrival in reference_streams[name].take_until_array(now).tolist():
                collector.record(arrival, router.offer(arrival))
            fields = collector.observation_fields(max(now - 60.0, 0.0), now)
            expected = [
                fields["arrival_rate"], fields["latency"], fields["slo_violation_rate"],
                fields["mean_proc_time"], fields["drop_rate"],
            ]
            counts = [router.ready_replica_count(now), router.queue_length(now)]
            if (
                snapshot(cluster.routers[name], cluster.metrics[name])
                != snapshot(router, collector)
                or reals[j].tolist() != expected
                or wholes[j, 1:].tolist() != counts
                or rates[j].tobytes() != collector.rate_history(now, 15).tobytes()
            ):
                raise native.KernelUnavailable(
                    "the load-time check disagrees with the scalar loop "
                    "or the Python observation"
                )


def _check_cluster():
    """Three jobs for the load-time check, and their arrival streams.

    A backlogged job with jitter, drops and cold starts; a job whose
    history prefix fills its first minutes; and a job with 1 s bins whose
    ``proc_time`` of 0.1 s sums to different doubles left to right and
    compensated over its 60 or 61 bins of a window.
    """
    from repro.cluster.job import InferenceJobSpec
    from repro.cluster.models import ModelProfile
    from repro.cluster.rayserve import RayServeCluster
    from repro.core.utility import SLO
    from repro.sim.workload import PoissonArrivals

    jobs = [
        InferenceJobSpec("backlog", ModelProfile("a", 0.3, proc_jitter=0.2), SLO(0.9)),
        InferenceJobSpec("prefix", ModelProfile("b", 0.2, proc_jitter=0.0), SLO(0.5, 90.0)),
    ]
    cluster = RayServeCluster(
        jobs, initial_replicas={"backlog": 2, "prefix": 3}, queue_threshold=6,
        cold_start_range=(5.0, 25.0), history_prefix={"prefix": np.array([0.5, 2.0, 1.5])},
        seed=7,
    )
    cluster.routers["backlog"].scale_to(4, 0.0)
    cluster.routers["backlog"].drop_rate = 0.1
    sums = InferenceJobSpec("sums", ModelProfile("c", 0.1, proc_jitter=0.0), SLO(0.4))
    cluster.metrics_bin_seconds = 1.0
    cluster.add_job(sums, 2, seed=11)
    streams = {
        name: PoissonArrivals(np.array([rate, rate * 1.5]), seed=index)
        for index, (name, rate) in enumerate((("backlog", 360.0), ("prefix", 240.0),
                                              ("sums", 700.0)))
    }
    return cluster, streams
