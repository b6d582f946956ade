/* Compiled request dispatch and observation for a table of jobs.
 *
 * A Job is one request-level job: its router's state, its metrics
 * collector's bins, and a run of its arrivals.  Both entry points loop over
 * a table of them; jobs share no state, so each is served exactly as if it
 * were alone.
 *
 * route_jobs takes each job's arrivals up to `until` (nondecreasing times)
 * and routes them through the router's state, recording every outcome in
 * the collector's bins, performing for each request, in order, exactly the
 * steps of the scalar references JobRouter.offer and
 * MetricsCollector.record:
 *
 *   1. the drop lottery: one uniform draw when a drop directive is active;
 *   2. the tail drop of an empty pool;
 *   3. pending-start expiry, then the tail drop at the queue threshold;
 *   4. the pick of the replica with the smallest (free_at, id);
 *   5. start = max(arrival, free_at, ready_at) with Python's max semantics;
 *   6. the service time, jittered by one normal draw clipped to [0.5, 1.5];
 *   7. the bin arrival // bin_seconds, with Python's float floor division;
 *   8. one arrival in the bin and its minute; a drop counts as a drop and a
 *      violation; a served request is a violation when its latency exceeds
 *      the SLO target, appends its latency and adds the collector's
 *      proc_time to the bin's sum, one addition per request.
 *
 * observe_jobs computes what RayServeCluster.observations reads at `now`
 * from each job, exactly as the Python references do: the bin totals, the
 * proc_time sum and the SLO-percentile latency of the trailing window
 * (MetricsCollector.observation_fields), the per-minute rate history
 * (MetricsCollector.rate_history, less its backfill), the router queue
 * after expiry (JobRouter.queue_length) and the ready replicas
 * (JobRouter.ready_replica_count).
 *
 * Random variates come from each router's own generator through numpy's
 * exported C entry points (random_standard_uniform, random_normal), so the
 * generator advances draw for draw as under the scalar loop.  The file
 * must be compiled without floating-point contraction or fast-math: every
 * result is the same IEEE double the Python code computes.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef double (*uniform_fn)(void *bitgen);
typedef double (*normal_fn)(void *bitgen, double loc, double scale);

/* The columns of a collector's per-bin counts. */
enum { ARRIVALS, DROPS, VIOLATIONS, LATENCY_END, COLUMNS };

/* A router's tallies: requests served, tail-dropped, explicitly dropped,
 * failed replicas (never touched here) and requests routed here. */
enum { SERVED, TAIL_DROPPED, EXPLICIT_DROPPED, FAILURES, ROUTED };

/* observe_jobs' outputs per job. */
enum { ARRIVAL_RATE, LATENCY, VIOLATION_RATE, MEAN_PROC_TIME, DROP_RATE, REALS };
enum { WINDOW_SERVED, READY, QUEUED, WHOLES };

typedef struct {
    /* The router: a pool of `replicas` entries of free_at (updated),
     * ready_at, ids and served (updated), in id order.  The pending starts
     * of accepted requests that have not started form a ring of
     * `ring_capacity` entries in pending, queue[0] its head and queue[1]
     * its length (both updated). */
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
    /* The collector: per bin, `counts` holds COLUMNS int64 values
     * (arrivals, drops, violations, and the number of latencies stored up
     * to and including the bin) and `proc_sums` the summed proc_time;
     * `minutes` holds the arrivals per minute of `bins_per_minute` bins.
     * Served latencies are appended to `latencies`.  fill[0] is the number
     * of bins opened (every bin below it has its latency end set) and
     * fill[1] the number of latencies stored (both updated).  The history
     * prefix holds the rates of the minutes before t=0, most recent last. */
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
    /* The arrivals: arrivals[*taken : length] are not routed yet (*taken
     * updated). */
    const double *arrivals;
    int64_t length;
    int64_t *taken;
    /* Set by route_jobs: why it left the job alone (see there), and the
     * number of arrivals up to `until`. */
    int64_t status, cut;
} Job;

/* Python's float floor division a // b for b > 0 (Objects/floatobject.c):
 * the remainder comes from fmod, and the quotient is snapped to the
 * nearest integer.  floor(a / b) differs where a / b rounds up to an
 * integer: 1.0 // 0.1 is 9.0, floor(1.0 / 0.1) is 10.0. */
static double floor_div(double a, double b)
{
    double mod = fmod(a, b);
    double div = (a - mod) / b;
    if (mod && (mod < 0) != (b < 0))
        div -= 1.0;
    if (!div)
        return copysign(0.0, a / b);
    double floordiv = floor(div);
    if (div - floordiv > 0.5)
        floordiv += 1.0;
    return floordiv;
}

/* A double below every real number that rounds to x > 0: two steps down
 * from x. */
static double below(double x)
{
    return nextafter(nextafter(x, 0.0), 0.0);
}

/* The order of the smallest (free_at, id) pick. */
static int precedes(const double *free_at, const int64_t *ids, int64_t a, int64_t b)
{
    return free_at[a] < free_at[b] || (free_at[a] == free_at[b] && ids[a] < ids[b]);
}

static void sift_down(int64_t *heap, int64_t size, int64_t pos,
                      const double *free_at, const int64_t *ids)
{
    int64_t item = heap[pos];
    for (;;) {
        int64_t child = 2 * pos + 1;
        if (child >= size)
            break;
        if (child + 1 < size && precedes(free_at, ids, heap[child + 1], heap[child]))
            child++;
        if (!precedes(free_at, ids, heap[child], item))
            break;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
}

/* Route and record one job's arrivals up to `until`; `heap` has room for
 * its pool.  Returns the job's status (see route_jobs). */
static int64_t route(Job *job, double until, int64_t *heap,
                     uniform_fn uniform, normal_fn normal)
{
    const double *arrivals = job->arrivals + *job->taken;
    int64_t n = 0, available = job->length - *job->taken;
    while (n < available && !(arrivals[n] > until))
        n++;
    job->cut = n;
    if (n == 0)
        return 0;

    int64_t head = job->queue[0], length = job->queue[1];
    int64_t opened = job->fill[0], stored = job->fill[1];
    double bin_seconds = job->bin_seconds;
    if (!(arrivals[0] >= 0.0) || !(arrivals[n - 1] < INFINITY))
        return -1;
    for (int64_t i = 1; i < n; i++)
        if (!(arrivals[i] >= arrivals[i - 1]))
            return -1;
    if (floor_div(arrivals[0], bin_seconds) < (double)(opened - 1))
        return -1;
    if (floor_div(arrivals[n - 1], bin_seconds) >= (double)job->bin_capacity
        || stored + n > job->latency_capacity
        || (job->ring_capacity < job->threshold && length + n > job->ring_capacity))
        return 1;

    double *free_at = job->free_at, *pending = job->pending;
    const double *ready_at = job->ready_at;
    const int64_t *ids = job->ids;
    int64_t replicas = job->replicas, ring_capacity = job->ring_capacity;
    int64_t accepted = 0, tail_dropped = 0, explicit_dropped = 0;
    for (int64_t k = 0; k < replicas; k++)
        heap[k] = k;
    for (int64_t k = replicas / 2 - 1; k >= 0; k--)
        sift_down(heap, replicas, k, free_at, ids);
    /* For arrivals >= 0, a // b is the exact floor of the real quotient,
     * so an arrival at or after one in `bin` and below the real bin edge
     * (bin + 1) * b lies in `bin` too: the division runs only at or just
     * below an edge. */
    int64_t bin = -1, *row = job->counts, *minute = job->minutes;
    double in_bin_below = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double arrival = arrivals[i];
        if (!(arrival < in_bin_below)) {
            bin = (int64_t)floor_div(arrival, bin_seconds);
            in_bin_below = below((double)(bin + 1) * bin_seconds);
            row = job->counts + COLUMNS * bin;
            minute = job->minutes + bin / job->bins_per_minute;
            for (; opened <= bin; opened++)
                job->counts[COLUMNS * opened + LATENCY_END] = stored;
        }
        row[ARRIVALS]++;
        (*minute)++;

        int dropped = 1;
        if (job->drop_rate > 0.0 && uniform(job->bitgen) < job->drop_rate) {
            explicit_dropped++;
        } else if (replicas == 0) {
            tail_dropped++;
        } else {
            while (length > 0 && pending[head] <= arrival) {
                head = head + 1 == ring_capacity ? 0 : head + 1;
                length--;
            }
            if (length >= job->threshold)
                tail_dropped++;
            else
                dropped = 0;
        }
        if (dropped) {
            row[DROPS]++;
            row[VIOLATIONS]++;
            continue;
        }

        int64_t pick = heap[0];
        double start = arrival;
        if (free_at[pick] > start)
            start = free_at[pick];
        if (ready_at[pick] > start)
            start = ready_at[pick];
        double service = job->proc_time;
        if (job->jitter != 0.0) {
            double factor = normal(job->bitgen, 1.0, job->jitter);
            if (0.5 > factor)
                factor = 0.5;
            if (1.5 < factor)
                factor = 1.5;
            service = job->proc_time * factor;
        }
        double completion = start + service;
        free_at[pick] = completion;
        job->served[pick]++;
        sift_down(heap, replicas, 0, free_at, ids);
        if (start > arrival) {
            int64_t slot = head + length;
            pending[slot < ring_capacity ? slot : slot - ring_capacity] = start;
            length++;
        }
        accepted++;

        double latency = completion - arrival;
        if (latency > job->slo_target)
            row[VIOLATIONS]++;
        job->latencies[stored++] = latency;
        row[LATENCY_END] = stored;
        job->proc_sums[bin] += job->record_proc_time;
    }
    job->queue[0] = head;
    job->queue[1] = length;
    job->fill[0] = opened;
    job->fill[1] = stored;
    *job->taken += n;
    job->tallies[SERVED] += accepted;
    job->tallies[TAIL_DROPPED] += tail_dropped;
    job->tallies[EXPLICIT_DROPPED] += explicit_dropped;
    job->tallies[ROUTED] += n;
    return 0;
}

/* Route and record the arrivals up to `until` of jobs[0:count], each
 * job's in place; its tallies count the outcomes.  Returns the number of
 * jobs left alone, each with a status saying why (no state of such a job
 * is touched, and job->cut holds its arrivals up to `until`):
 *   1: a buffer needs room first: the bins up to the last arrival's, `cut`
 *      more latencies, or min(threshold, queue[1] + cut) pending starts;
 *   2: the heap of the pool cannot be allocated;
 *  -1: the arrivals cannot be recorded in order: one is negative, not
 *      finite, earlier than the one before it, or in a bin before the last
 *      one opened. */
int64_t route_jobs(Job *jobs, int64_t count, double until,
                   uniform_fn uniform, normal_fn normal)
{
    int64_t largest = 1, left = 0;
    for (int64_t j = 0; j < count; j++)
        if (jobs[j].replicas > largest)
            largest = jobs[j].replicas;
    int64_t *heap = malloc(sizeof *heap * largest);
    for (int64_t j = 0; j < count; j++) {
        Job *job = &jobs[j];
        job->status = heap == NULL ? 2 : route(job, until, heap, uniform, normal);
        left += job->status != 0;
    }
    free(heap);
    return left;
}

/* The k-th smallest of values[0:n] (k from 0), the order statistic a full
 * sort would put at index k: the smallest of the n - k largest values,
 * kept in a min-heap of n - k entries in `heap`.  values is only read.
 * An SLO percentile lies near the top, so the heap is small and most
 * values are only compared with its root. */
static double select_kth(const double *values, int64_t n, int64_t k, double *heap)
{
    int64_t m = n - k, size = 0;
    for (int64_t i = 0; i < n; i++) {
        double x = values[i];
        int64_t pos;
        if (size < m) {
            for (pos = size++; pos > 0 && heap[(pos - 1) / 2] > x; pos = (pos - 1) / 2)
                heap[pos] = heap[(pos - 1) / 2];
        } else if (x > heap[0]) {
            for (pos = 0;;) {
                int64_t child = 2 * pos + 1;
                if (child >= m)
                    break;
                if (child + 1 < m && heap[child + 1] < heap[child])
                    child++;
                if (!(heap[child] < x))
                    break;
                heap[pos] = heap[child];
                pos = child;
            }
        } else {
            continue;
        }
        heap[pos] = x;
    }
    return heap[0];
}

/* Python's sum(list) of values[0:n], nonnegative doubles: left to right
 * from 0 (CPython 3.11 and earlier), or with Neumaier's compensation, as
 * CPython 3.12 and later sum floats. */
static double python_sum(const double *values, int64_t n, int64_t compensated)
{
    double total = 0.0, compensation = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double x = values[i];
        double t = total + x;
        if (compensated) {
            if (fabs(total) >= fabs(x))
                compensation += (total - t) + x;
            else
                compensation += (x - t) + total;
        }
        total = t;
    }
    if (compensation && isfinite(compensation))
        total += compensation;
    return total;
}

/* Observe jobs[0:count] at `now` over the trailing `window` seconds: per
 * job, REALS doubles in reals (the arrival rate, the SLO-percentile
 * latency, the violation and the drop rate, the mean proc_time), WHOLES
 * int64 values in wholes (the window's served requests, the ready
 * replicas, the router queue, whose expired head is dropped in place) and
 * `history` per-minute rates in rates.  Returns 0, or 2 when no scratch
 * memory can be allocated for a percentile. */
int64_t observe_jobs(Job *jobs, int64_t count, double now, double window,
                     int64_t history, int64_t compensated,
                     double *reals, int64_t *wholes, double *rates)
{
    double *scratch = NULL;
    int64_t room = 0;
    double start = now - window;
    if (0.0 > start)
        start = 0.0;
    double duration = now - start;
    if (1e-9 > duration)
        duration = 1e-9;
    int64_t current = (int64_t)floor_div(now, 60.0);
    int64_t lo = current - history;
    for (int64_t j = 0; j < count; j++) {
        const Job *job = &jobs[j];
        double *real = reals + REALS * j, *rate = rates + history * j;
        int64_t *whole = wholes + WHOLES * j;

        /* The window's bins [first, last), widened outward. */
        int64_t first = (int64_t)floor_div(start, job->bin_seconds);
        if (first < 0)
            first = 0;
        int64_t last = (int64_t)ceil(now / job->bin_seconds);
        if (last < first)
            last = first;
        int64_t stop = last < job->bin_capacity ? last : job->bin_capacity;
        int64_t arrivals = 0, drops = 0, violations = 0;
        for (int64_t b = first; b < stop; b++) {
            arrivals += job->counts[COLUMNS * b + ARRIVALS];
            drops += job->counts[COLUMNS * b + DROPS];
            violations += job->counts[COLUMNS * b + VIOLATIONS];
        }
        int64_t served = arrivals - drops, total = served + drops;
        double proc_sum = first < stop
            ? python_sum(job->proc_sums + first, stop - first, compensated) : 0.0;

        double latency = 0.0;
        if (total) {
            double rank = job->quantile * (double)total;
            if (rank > (double)served) {
                latency = INFINITY;
            } else {
                int64_t hi = job->fill[1];
                if (last < job->fill[0])
                    hi = last ? job->counts[COLUMNS * (last - 1) + LATENCY_END] : 0;
                int64_t index = (int64_t)ceil(rank) - 1;
                if (index < 0)
                    index = 0;
                if (index > served - 1)
                    index = served - 1;
                if (served - index > room) {
                    free(scratch);
                    room = served - index;
                    scratch = malloc(sizeof *scratch * room);
                    if (scratch == NULL)
                        return 2;
                }
                latency = select_kth(job->latencies + hi - served, served, index, scratch);
            }
        }
        real[ARRIVAL_RATE] = (double)arrivals / duration;
        real[LATENCY] = latency;
        real[VIOLATION_RATE] = arrivals ? (double)violations / (double)arrivals : 0.0;
        real[MEAN_PROC_TIME] = served ? proc_sum / (double)served : job->record_proc_time;
        real[DROP_RATE] = arrivals ? (double)drops / (double)arrivals : 0.0;

        int64_t head = job->queue[0], length = job->queue[1];
        while (length && job->pending[head] <= now) {
            head = head + 1 < job->ring_capacity ? head + 1 : 0;
            length--;
        }
        job->queue[0] = head;
        job->queue[1] = length;
        int64_t ready = 0;
        for (int64_t k = 0; k < job->replicas; k++)
            ready += job->ready_at[k] <= now;
        whole[WINDOW_SERVED] = served;
        whole[READY] = ready;
        whole[QUEUED] = length;

        /* Minutes [lo, current): the history prefix before t=0, then the
         * minutes recorded so far. */
        for (int64_t m = 0; m < history; m++)
            rate[m] = 0.0;
        int64_t m = lo > -job->prefix_length ? lo : -job->prefix_length;
        for (; m < current && m < 0; m++)
            rate[m - lo] = job->prefix[job->prefix_length + m];
        int64_t recorded = job->bin_capacity / job->bins_per_minute;
        for (m = lo > 0 ? lo : 0; m < current && m < recorded; m++)
            rate[m - lo] = (double)job->minutes[m] / 60.0;
    }
    free(scratch);
    return 0;
}
