/* Compiled M/D/c latency tables for repro.queueing.vectorized.
 *
 * erlang_c_table runs the Erlang-B recurrence over a vector of offered
 * loads and writes Erlang-C for every (server count, load) pair, row by
 * row: k in the outer loop, the loads in the inner one.
 *
 * mdc_latency forms the elementwise part of mdc_latency_table around the
 * tail term log(C / (1 - quantile)), which numpy computes between the two
 * calls for the rows that need it: the half-wait M/D/c quantile latency,
 * inf where unstable, the service time for zero rates and, when
 * latency_at_rho is given, the relaxed form's overload replacement.
 *
 * Each element goes through the same + - * / and comparisons, in the same
 * order, as the numpy reference code, so the file must be compiled
 * without floating-point contraction or fast-math: every result is then
 * the IEEE double numpy computes.  Both passes work on two elements at a
 * time (GCC/Clang vector extensions; SSE2 on x86-64), whose lanes round
 * exactly like scalar doubles, and select between results with masks
 * instead of branches.  Inputs are finite and non-negative.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef double pair __attribute__((vector_size(16)));
/* A comparison's lane masks, seen as 32-bit lanes: selects on 64-bit lanes
 * compile to scalar code on plain SSE2. */
typedef int32_t lanes __attribute__((vector_size(16)));

static inline pair select(lanes mask, pair yes, pair no)
{
    return (pair)(((lanes)yes & mask) | ((lanes)no & ~mask));
}

/* np.where(condition, yes, no), lane by lane. */
#define WHERE(condition, yes, no) select((lanes)(condition), (yes), (no))

static inline pair both(double x)
{
    return (pair){x, x};
}

/* Elements j and j + 1, or element j twice when it is the last one. */
static inline pair load(const double *p, int64_t j, int64_t n)
{
    pair v;
    if (j + 1 < n)
        memcpy(&v, p + j, sizeof v);
    else
        v = both(p[j]);
    return v;
}

static inline void store(double *p, int64_t j, int64_t n, pair v)
{
    if (j + 1 < n)
        memcpy(p + j, &v, sizeof v);
    else
        p[j] = v[0];
}

/* table[(k - 1) * n + j] = C(k, loads[j]) for k = 1..max_servers, clipped
 * to [0, 1]; 1.0 where loads[j] >= k.  scratch holds n doubles: the
 * Erlang-B blocking probability of each load at the current k.  Returns the
 * number of leading rows that hold a stable entry above cut: below them no
 * request waits past the quantile, so mdc_latency reads no tail there. */
int64_t erlang_c_table(const double *loads, int64_t n, int64_t max_servers,
                       double cut, double *scratch, double *table)
{
    const pair zero = both(0.0), one = both(1.0), cuts = both(cut);
    int64_t tail_rows = 0;
    for (int64_t j = 0; j < n; j++)
        scratch[j] = 1.0;
    for (int64_t k = 1; k <= max_servers; k++) {
        const pair kd = both((double)k);
        double *row = table + (k - 1) * n;
        lanes waits = {0, 0, 0, 0};
        for (int64_t j = 0; j < n; j += 2) {
            const pair a = load(loads, j, n);
            pair blocking = load(scratch, j, n), value;
            blocking = a * blocking / (kd + a * blocking);
            store(scratch, j, n, blocking);
            value = kd * blocking / (kd - a * (one - blocking));
            value = WHERE(a < kd, value, one);
            /* np.clip(value, 0.0, 1.0) */
            value = WHERE(value < zero, zero, WHERE(value > one, one, value));
            waits |= (lanes)(a < kd) & (lanes)(value > cuts);
            store(row, j, n, value);
        }
        if (waits[0] | waits[1] | waits[2] | waits[3])
            tail_rows = k;
    }
    return tail_rows;
}

/* latency[(k - 1) * n + j]: the quantile latency with k servers at
 * rates[j], given wait_probs from erlang_c_table and, for its first
 * tail_rows rows, tails = log(wait_probs / (1 - quantile)); cut = 1 -
 * quantile, mu = 1 / proc_time.  latency_at_rho is NULL for the precise
 * form.  latency may be wait_probs: each element's wait probability is read
 * before its latency is written. */
void mdc_latency(const double *rates, const double *loads, int64_t n,
                 int64_t max_servers, const double *wait_probs,
                 const double *tails, int64_t tail_rows, double cut, double mu,
                 double proc_time, const double *latency_at_rho, double rho_max,
                 double *latency)
{
    const pair zero = both(0.0), half = both(0.5), cuts = both(cut);
    const pair service = both(proc_time), unstable = both(INFINITY);
    for (int64_t k = 1; k <= max_servers; k++) {
        const pair kd = both((double)k);
        const pair capacity = kd * both(mu), overload = both(rho_max) * kd;
        const pair pinned = both(latency_at_rho != NULL ? latency_at_rho[k - 1] : 0.0);
        const int64_t row = (k - 1) * n;
        for (int64_t j = 0; j < n; j += 2) {
            const pair rate = load(rates, j, n), a = load(loads, j, n);
            const pair tail = k <= tail_rows ? load(tails + row, j, n) : zero;
            pair wait = half * WHERE(tail > zero, tail, zero) / (capacity - rate);
            pair value;
            wait = WHERE(load(wait_probs + row, j, n) <= cuts, zero, wait);
            value = WHERE(a < kd, wait + service, unstable);
            value = WHERE(rate == zero, service, value);
            if (latency_at_rho != NULL)
                value = WHERE(a > overload, a / overload * pinned, value);
            store(latency + row, j, n, value);
        }
    }
}
