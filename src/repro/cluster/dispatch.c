/* Compiled request dispatch for one job's router.
 *
 * dispatch_chunk routes a chunk of arrivals (nondecreasing times) through
 * the router state it is handed, performing for each request, in order,
 * exactly the steps of the scalar reference JobRouter.offer:
 *
 *   1. the drop lottery: one uniform draw when a drop directive is active;
 *   2. the tail drop of an empty pool;
 *   3. pending-start expiry, then the tail drop at the queue threshold;
 *   4. the pick of the replica with the smallest (free_at, id);
 *   5. start = max(arrival, free_at, ready_at) with Python's max semantics;
 *   6. the service time, jittered by one normal draw clipped to [0.5, 1.5].
 *
 * Random variates come from the router's own generator through numpy's
 * exported C entry points (random_standard_uniform, random_normal), so the
 * generator advances draw for draw as under the scalar loop.  The file
 * must be compiled without floating-point contraction or fast-math: every
 * result is the same IEEE double the Python loop computes.
 */

#include <math.h>
#include <stdint.h>

typedef double (*uniform_fn)(void *bitgen);
typedef double (*normal_fn)(void *bitgen, double loc, double scale);

/* The heap order of JobRouter._free_heap: (free_at, id) tuples. */
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

/* Route arrivals[0:n]; latencies[i] receives request i's latency (INFINITY
 * for a drop).
 *
 * The pool is replicas entries of free_at (updated), ready_at, ids and
 * served (updated); heap is scratch space for replicas indices.
 * pending[queue[0]:queue[1]] holds the start times of accepted requests
 * that have not started; the buffer has room for n more and queue[] is
 * updated on return.  counts[] receives the requests served, tail-dropped
 * and explicitly dropped. */
void dispatch_chunk(void *bitgen, uniform_fn uniform, normal_fn normal,
                    const double *arrivals, double *latencies, int64_t n,
                    double *free_at, const double *ready_at, const int64_t *ids,
                    int64_t *served, int64_t *heap, int64_t replicas,
                    double *pending, int64_t *queue,
                    double drop_rate, double proc_time, double jitter,
                    int64_t threshold, int64_t *counts)
{
    int64_t head = queue[0], tail = queue[1];
    int64_t accepted = 0, tail_dropped = 0, explicit_dropped = 0;

    for (int64_t k = 0; k < replicas; k++)
        heap[k] = k;
    for (int64_t k = replicas / 2 - 1; k >= 0; k--)
        sift_down(heap, replicas, k, free_at, ids);
    for (int64_t i = 0; i < n; i++) {
        double arrival = arrivals[i];
        if (drop_rate > 0.0 && uniform(bitgen) < drop_rate) {
            latencies[i] = INFINITY;
            explicit_dropped++;
            continue;
        }
        if (replicas == 0) {
            latencies[i] = INFINITY;
            tail_dropped++;
            continue;
        }
        while (head < tail && pending[head] <= arrival)
            head++;
        if (tail - head >= threshold) {
            latencies[i] = INFINITY;
            tail_dropped++;
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
        if (start > arrival)
            pending[tail++] = start;
        accepted++;
        latencies[i] = completion - arrival;
    }
    queue[0] = head;
    queue[1] = tail;
    counts[0] = accepted;
    counts[1] = tail_dropped;
    counts[2] = explicit_dropped;
}
