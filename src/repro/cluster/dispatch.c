/* Compiled request dispatch for one job: route a chunk and record it.
 *
 * dispatch_chunk routes a chunk of arrivals (nondecreasing times) through
 * one router's state and records every outcome in one metrics collector's
 * bins, performing for each request, in order, exactly the steps of the
 * scalar references JobRouter.offer and MetricsCollector.record:
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
 * Random variates come from the router's own generator through numpy's
 * exported C entry points (random_standard_uniform, random_normal), so the
 * generator advances draw for draw as under the scalar loop.  The file
 * must be compiled without floating-point contraction or fast-math: every
 * result is the same IEEE double the Python loop computes.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef double (*uniform_fn)(void *bitgen);
typedef double (*normal_fn)(void *bitgen, double loc, double scale);

/* The columns of a collector's per-bin counts. */
enum { ARRIVALS, DROPS, VIOLATIONS, LATENCY_END, COLUMNS };

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

/* Route and record arrivals[0:n].
 *
 * The router: a pool of `replicas` entries of free_at (updated), ready_at,
 * ids and served (updated), in id order.  The pending starts of accepted
 * requests that have not started form a ring of `ring_capacity` entries
 * in pending, queue[0] its head and queue[1] its length (both updated).
 *
 * The collector: per bin, `counts` holds COLUMNS int64 values (arrivals,
 * drops, violations, and the number of latencies stored up to and
 * including the bin) and `proc_sums` the summed proc_time; `minutes`
 * holds the arrivals per minute of `bins_per_minute` bins.  Served
 * latencies are appended to `latencies`.  fill[0] is the number of bins
 * opened (every bin below it has its latency end set) and fill[1] the
 * number of latencies stored (both updated).
 *
 * totals[] receives the requests served, tail-dropped and explicitly
 * dropped.  Returns 0 when the chunk is done.  Otherwise no state is
 * touched, and the return value says why:
 *   1: a buffer needs room first: the bins up to the last arrival's, n
 *      more latencies, or min(threshold, queue[1] + n) pending starts;
 *   2: the heap of the pool cannot be allocated;
 *  -1: the chunk cannot be recorded in order: an arrival is negative, not
 *      finite, earlier than the one before it, or in a bin before the
 *      last one opened. */
int64_t dispatch_chunk(void *bitgen, uniform_fn uniform, normal_fn normal,
                       const double *arrivals, int64_t n,
                       double *free_at, const double *ready_at, const int64_t *ids,
                       int64_t *served, int64_t replicas,
                       double *pending, int64_t ring_capacity, int64_t *queue,
                       double drop_rate, double proc_time, double jitter,
                       int64_t threshold,
                       int64_t *counts, double *proc_sums, int64_t *minutes,
                       int64_t bin_capacity, double *latencies,
                       int64_t latency_capacity, int64_t *fill,
                       double bin_seconds, int64_t bins_per_minute,
                       double slo_target, double record_proc_time,
                       int64_t *totals)
{
    int64_t head = queue[0], length = queue[1];
    int64_t opened = fill[0], stored = fill[1];
    int64_t accepted = 0, tail_dropped = 0, explicit_dropped = 0;

    if (n == 0)
        return 0;
    if (!(arrivals[0] >= 0.0) || !(arrivals[n - 1] < INFINITY))
        return -1;
    for (int64_t i = 1; i < n; i++)
        if (!(arrivals[i] >= arrivals[i - 1]))
            return -1;
    if (floor_div(arrivals[0], bin_seconds) < (double)(opened - 1))
        return -1;
    if (floor_div(arrivals[n - 1], bin_seconds) >= (double)bin_capacity
        || stored + n > latency_capacity
        || (ring_capacity < threshold && length + n > ring_capacity))
        return 1;
    int64_t *heap = malloc(sizeof *heap * (replicas > 0 ? replicas : 1));
    if (heap == NULL)
        return 2;

    for (int64_t k = 0; k < replicas; k++)
        heap[k] = k;
    for (int64_t k = replicas / 2 - 1; k >= 0; k--)
        sift_down(heap, replicas, k, free_at, ids);
    /* For arrivals >= 0, a // b is the exact floor of the real quotient,
     * so an arrival at or after one in `bin` and below the real bin edge
     * (bin + 1) * b lies in `bin` too: the division runs only at or just
     * below an edge. */
    int64_t bin = -1, *row = counts, *minute = minutes;
    double in_bin_below = 0.0;
    for (int64_t i = 0; i < n; i++) {
        double arrival = arrivals[i];
        if (!(arrival < in_bin_below)) {
            bin = (int64_t)floor_div(arrival, bin_seconds);
            in_bin_below = below((double)(bin + 1) * bin_seconds);
            row = counts + COLUMNS * bin;
            minute = minutes + bin / bins_per_minute;
            for (; opened <= bin; opened++)
                counts[COLUMNS * opened + LATENCY_END] = stored;
        }
        row[ARRIVALS]++;
        (*minute)++;

        int dropped = 1;
        if (drop_rate > 0.0 && uniform(bitgen) < drop_rate) {
            explicit_dropped++;
        } else if (replicas == 0) {
            tail_dropped++;
        } else {
            while (length > 0 && pending[head] <= arrival) {
                head = head + 1 == ring_capacity ? 0 : head + 1;
                length--;
            }
            if (length >= threshold)
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
        double service = proc_time;
        if (jitter != 0.0) {
            double factor = normal(bitgen, 1.0, jitter);
            if (0.5 > factor)
                factor = 0.5;
            if (1.5 < factor)
                factor = 1.5;
            service = proc_time * factor;
        }
        double completion = start + service;
        free_at[pick] = completion;
        served[pick]++;
        sift_down(heap, replicas, 0, free_at, ids);
        if (start > arrival) {
            int64_t slot = head + length;
            pending[slot < ring_capacity ? slot : slot - ring_capacity] = start;
            length++;
        }
        accepted++;

        double latency = completion - arrival;
        if (latency > slo_target)
            row[VIOLATIONS]++;
        latencies[stored++] = latency;
        row[LATENCY_END] = stored;
        proc_sums[bin] += record_proc_time;
    }
    free(heap);
    queue[0] = head;
    queue[1] = length;
    fill[0] = opened;
    fill[1] = stored;
    totals[0] = accepted;
    totals[1] = tail_dropped;
    totals[2] = explicit_dropped;
    return 0;
}
