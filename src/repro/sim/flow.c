/* Compiled analytic-job step for repro.sim.flow.
 *
 * flow_step advances every listed row of a FlowTable by one control tick
 * and folds the tick into that minute's buckets: FlowJob.step and then
 * accumulate_flow_tick, row by row.  Rows are independent, so one call
 * serves the whole tick whatever the job count.
 *
 * Every result is the double the Python reference computes: the same
 * + - * / and comparisons in the same order (the file must be compiled
 * without floating-point contraction or fast-math), Python's min and max
 * (the first operand unless the second is strictly smaller or larger),
 * and the libm exp and log that CPython's math module calls.  Erlang-C is
 * evaluated twice, as the reference does: with the load lam / (1 / p) for
 * the latency quantile and lam * p for the violation tail.
 *
 * A row whose inputs could make the reference raise (a quantile outside
 * (0, 1), a processing time that is not finite and positive, a negative
 * rate, an exp that overflows) is not written: the call returns its index
 * and the reference steps it and every listed row after it.
 */

#include <math.h>
#include <stdint.h>

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

/* Python's min(a, b) and max(a, b). */
static inline double py_min(double a, double b)
{
    return b < a ? b : a;
}

static inline double py_max(double a, double b)
{
    return b > a ? b : a;
}

/* repro.queueing.mmc.erlang_c; load >= 0 and servers >= 1. */
static double erlang_c(int64_t servers, double load)
{
    const double c = (double)servers;
    if (load >= c)
        return 1.0;
    double blocking = 1.0;
    for (int64_t k = 1; k <= servers; k++)
        blocking = load * blocking / ((double)k + load * blocking);
    return c * blocking / (c - load * (1.0 - blocking));
}

/* repro.queueing.mdc.mdc_latency_percentile (half-wait rule, unrefined). */
static double latency_quantile(double q, double lam, double p, int64_t servers)
{
    const double mu = 1.0 / p;
    if (lam / ((double)servers * mu) >= 1.0)
        return INFINITY;
    double wait = 0.0;
    if (lam != 0.0) {
        const double wait_probability = erlang_c(servers, lam / mu);
        if (!(q <= 1.0 - wait_probability))
            wait = log(wait_probability / (1.0 - q)) / ((double)servers * mu - lam);
    }
    wait = 0.5 * wait;
    if (isinf(wait))
        return INFINITY;
    return wait + p;
}

/* FlowJob._deterministic_violation. */
static double deterministic_violation(double queue_start, double queue_end,
                                      double service_rate, double dt,
                                      double slo, double p)
{
    const double budget = (slo - p) * service_rate;
    if (budget <= 0)
        return 1.0;
    const double slope = (queue_end - queue_start) / dt;
    if (fabs(slope) < 1e-12)
        return queue_start > budget ? 1.0 : 0.0;
    const double crossing = (budget - queue_start) / slope;
    if (slope > 0)
        return 1.0 - py_min(py_max(crossing / dt, 0.0), 1.0);
    return py_min(py_max(crossing / dt, 0.0), 1.0);
}

/* Steps every listed row; -1 when all were stepped, else the first row
 * left to the reference (no row from it on was written). */
int64_t flow_step(const FlowTable *t, int64_t minute, double dt)
{
    if (!(dt > 0.0))
        return 0;
    for (int64_t r = 0; r < t->rows; r++) {
        if (!t->listed[r])
            continue;
        const double p = t->proc_time[r], drop_rate = t->drop_rate[r];
        const double q = t->quantile[r], slo = t->slo[r];
        const int64_t running = t->ready[r], threshold = t->threshold[r];
        const double lam = t->rates[r * t->stride + minute];
        if (!(q > 0.0 && q < 1.0) || !(p > 0.0 && isfinite(p)))
            return r;

        const double arrivals = lam * dt;
        const double explicit_drops = arrivals * drop_rate;
        const double kept_rate = lam * (1.0 - drop_rate);
        if (kept_rate < 0.0)
            return r;
        const double inflow = kept_rate * dt;
        const double service_rate = running ? (double)running / p : 0.0;
        const double capacity = service_rate * dt;

        const double queue_start = t->queue[r];
        const double processed = py_min(queue_start + inflow, capacity);
        double queue_end = queue_start + inflow - processed;
        double tail_drops = 0.0;
        if (queue_end > (double)threshold) {
            tail_drops = queue_end - (double)threshold;
            queue_end = (double)threshold;
        }
        const double accepted = py_max(inflow - tail_drops, 0.0);
        const double drops = explicit_drops + tail_drops;
        const double queue_mid = 0.5 * (queue_start + queue_end);

        double latency, fraction;
        if (running == 0) {
            latency = INFINITY;
            fraction = 1.0;
        } else if (kept_rate * p / (double)running < 1.0 && queue_mid < 1.0) {
            latency = latency_quantile(q, kept_rate, p, running);
            /* FlowJob._stochastic_violation */
            if (slo <= p) {
                fraction = 1.0;
            } else if (kept_rate <= 0.0) {
                fraction = 0.0;
            } else {
                const double mu = 1.0 / p;
                const double offered = kept_rate * p;
                if (offered >= (double)running) {
                    fraction = 1.0;
                } else {
                    const double wait_probability = erlang_c(running, offered);
                    const double drain = (double)running * mu - kept_rate;
                    const double exponent = -2.0 * drain * (slo - p);
                    const double tail = exp(exponent);
                    if (isinf(tail) && isfinite(exponent))
                        return r; /* math.exp raises OverflowError */
                    fraction = py_min(wait_probability * tail, 1.0);
                }
            }
        } else {
            latency = queue_mid / service_rate + p;
            fraction = deterministic_violation(queue_start, queue_end,
                                               service_rate, dt, slo, p);
        }
        const double violations = py_min(fraction * accepted + drops, arrivals);

        t->queue[r] = queue_end;
        t->last_arrivals[r] = arrivals;
        t->last_violations[r] = violations;
        t->last_latency[r] = latency;
        const int64_t at = r * t->minutes + minute;
        t->arrivals[at] += arrivals;
        t->drops[at] += drops;
        t->violations[at] += violations;
        if (isfinite(latency)) {
            t->lat_sum[at] += latency * arrivals;
            t->lat_weight[at] += arrivals;
            t->lat_max[at] = py_max(t->lat_max[at], latency);
        } else {
            t->lat_max[at] = INFINITY;
        }
    }
    return -1;
}
