/* Faro's objective and constraints for repro.core.objective, compiled.
 *
 * One entry point, objective_evaluate, answers one request of the compiled
 * COBYLA driver (repro.core.trstlp) at its point z.  With NEED_F it writes
 * f = -AllocationProblem.evaluate(z[:n], z[n:] or zeros), what
 * optimizer._negative_objective's fun returns, and counts the evaluation;
 * with NEED_C it writes the m slacks of optimizer._constraint_functions, in
 * that function's order.  It reads the problem's flat tables and vectors
 * in place, through the Problem struct repro.core.objective builds once
 * per solve.
 *
 * Bit for bit, not just close: every operation is the numpy reference's,
 * per element and in its order.
 *
 * - interp is interp_flat_numpy: x clipped to [0, max_row_f] and floored,
 *   x_hi = min(x_lo + 1, max_rows), xf = x - x_lo; along the drop axis d
 *   clipped to the grid, a left searchsorted clipped to [1, len - 1] and
 *   df with its span == 0 guard; the drop axis is interpolated first, and
 *   every lerp is (1.0 - t) * a + t * b.
 * - Cold-start blending, for a job whose weight w is above 0, interpolates
 *   again at np.minimum(cold_cur, x) and takes w * warm + (1.0 - w) * value.
 * - Penalty objectives multiply by penalty_multipliers at np.clip(d, 0, 1):
 *   the relaxed knots or the step brackets, whose tables come in from
 *   repro.core.penalty.
 * - The objective sums U * priority in numpy's pairwise order after the
 *   reduction's 0.0 start, then takes max - min over the row.
 * - The capacity slacks' dot products call the ddot numpy calls (through
 *   repro.native's BLAS table), after a 0.0 start; a one-element dot is a
 *   plain product, as in numpy's DOUBLE_dot.
 *
 * The sign of a zero the clips return never reaches f: a clipped replica
 * count of zero reads row 0 of its table, which is +0.0.  The driver hands
 * out no NaN point and clips every other point to +-REALMAX, so the kernel
 * matches the reference on finite points; the slacks overflow to +-inf
 * through the same ddot.
 *
 * The helpers repeat trstlp.c's rather than sharing a header, since
 * repro.native keys each build by its one source file.
 */

#include <math.h>
#include <stdint.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);

/* repro.native's table, which every BLAS-calling kernel receives; this
 * kernel calls its first entry only. */
typedef struct {
    ddot_fn ddot;
} Blas;

/* cobyla_resume's requests. */
enum { NEED_F = 1, NEED_C = 2 };

/* The objective's reduction: sum/penaltysum, fair, fairsum/penaltyfairsum. */
enum { SUM = 0, FAIR = 1, FAIRSUM = 2 };

typedef struct {
    const Blas *blas;
    int64_t n, kind, drops, relaxed;
    int64_t stride, grid_len, knots, steps;
    double gamma, cpus, mem, drop_max;
    const double *flat;            /* AllocationProblem._flat_tables */
    const int64_t *offsets;        /* _table_offsets */
    const double *max_row_f;       /* _max_row_f, also the slacks' maxs */
    const int64_t *max_rows;       /* max_replicas */
    const int64_t *mins;           /* _mins_vec */
    const double *grid;            /* drop_grid */
    const double *cold_w, *cold_cur, *priorities, *cpu, *memory;
    const double *knot_avail, *knot_credit, *step_lowers, *step_credits;
    double *work;                  /* 2 n doubles: utilities, products */
    const double *z;               /* the driver's point */
    double *f, *c;                 /* the driver's f and slacks */
    int64_t nfev;                  /* requests that asked for f */
} Problem;

/* ---------------------------------------------------------- numpy calls */

/* np.dot of two 1-D vectors: one-element vectors are multiplied, longer
 * ones go to ddot after a 0.0 start (numpy's DOUBLE_dot). */
static double np_dot(const Blas *blas, int64_t n, const double *x,
                     int64_t incx, const double *y, int64_t incy)
{
    double sum = 0.0;
    if (n == 1)
        return x[0] * y[0];
    sum += blas->ddot(n, x, incx, y, incy);
    return sum;
}

/* numpy's pairwise summation of x[:n], as its add loop runs it. */
static double pairwise(const double *x, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += x[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = x[j];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += x[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += x[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise(x, half) + pairwise(x + half, n - half);
}

/* np.sum(x) of a contiguous vector: the reduction's 0.0, plus the pairwise sum. */
static double np_sum(const double *x, int64_t n)
{
    return 0.0 + pairwise(x, n);
}

/* np.max and np.min of a row: NaN propagates, a tie gives the later entry. */
static double np_max_of(const double *x, int64_t n)
{
    double best = x[0];
    for (int64_t i = 1; i < n && !isnan(best); i++)
        if (isnan(x[i]) || x[i] >= best)
            best = x[i];
    return best;
}

static double np_min_of(const double *x, int64_t n)
{
    double best = x[0];
    for (int64_t i = 1; i < n && !isnan(best); i++)
        if (isnan(x[i]) || x[i] <= best)
            best = x[i];
    return best;
}

/* np.minimum(a, b): NaN propagates, a tie gives b. */
static inline double np_minimum(double a, double b)
{
    if (isnan(a))
        return a;
    return a < b ? a : b;
}

/* np.clip(x, lo, hi) with scalar bounds: NaN stays, a tie gives x. */
static inline double clip(double x, double lo, double hi)
{
    return x < lo ? lo : (x > hi ? hi : x);
}

static inline int64_t clip_index(int64_t i, int64_t lo, int64_t hi)
{
    return i < lo ? lo : (i > hi ? hi : i);
}

/* numpy's sort order: NaN after every number. */
static inline int np_less(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* np.searchsorted(a[:len], key, side="left") and side="right". */
static int64_t searchsorted_left(const double *a, int64_t len, double key)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        const int64_t mid = lo + ((hi - lo) >> 1);
        if (np_less(a[mid], key))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

static int64_t searchsorted_right(const double *a, int64_t len, double key)
{
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        const int64_t mid = lo + ((hi - lo) >> 1);
        if (!np_less(key, a[mid]))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* ------------------------------------------------------------ objective */

static inline double lerp(double a, double b, double t)
{
    return (1.0 - t) * a + t * b;
}

/* interp_flat_numpy for job j at replicas r and drop d. */
static double interp(const Problem *p, int64_t j, double r, double d)
{
    const double x = clip(r, 0.0, p->max_row_f[j]);
    const int64_t x_lo = (int64_t)floor(x);
    const int64_t x_hi = x_lo + 1 < p->max_rows[j] ? x_lo + 1 : p->max_rows[j];
    const double xf = x - (double)x_lo;
    const double *table = p->flat + p->offsets[j];
    if (p->stride == 1)
        return lerp(table[x_lo], table[x_hi], xf);
    const double *grid = p->grid;
    const int64_t last = p->grid_len - 1;
    const double dc = clip(d, grid[0], grid[last]);
    const int64_t d_hi = clip_index(searchsorted_left(grid, p->grid_len, dc), 1, last);
    const int64_t d_lo = d_hi - 1;
    const double span = grid[d_hi] - grid[d_lo];
    const double df = span == 0 ? 0.0 : (dc - grid[d_lo]) / span;
    const double *row_lo = table + x_lo * p->stride;
    const double *row_hi = table + x_hi * p->stride;
    const double lo = lerp(row_lo[d_lo], row_lo[d_hi], df);
    const double hi = lerp(row_hi[d_lo], row_hi[d_hi], df);
    return lerp(lo, hi, xf);
}

/* penalty_multipliers at one drop rate d in [0, 1]. */
static double penalty(const Problem *p, double d)
{
    const double availability = 1.0 - d;
    if (!p->relaxed) {
        const int64_t idx = clip_index(
            searchsorted_right(p->step_lowers, p->steps, availability) - 1, 0, p->steps - 1);
        return 1.0 - p->step_credits[idx];
    }
    const int64_t hi = clip_index(
        searchsorted_left(p->knot_avail, p->knots, availability), 1, p->knots - 1);
    const int64_t lo = hi - 1;
    const double a_lo = p->knot_avail[lo], a_hi = p->knot_avail[hi];
    const double c_lo = p->knot_credit[lo], c_hi = p->knot_credit[hi];
    const double span = a_hi - a_lo;
    const double frac = span == 0.0 ? 0.0 : (availability - a_lo) / span;
    const double credit = c_lo + frac * (c_hi - c_lo);
    return 1.0 - credit;
}

/* AllocationProblem.evaluate(z[:n], z[n:] or zeros). */
static double evaluate(const Problem *p)
{
    const int64_t n = p->n;
    const double *z = p->z;
    double *utility = p->work, *products = p->work + n;
    for (int64_t j = 0; j < n; j++) {
        const double r = z[j], d = p->drops ? z[n + j] : 0.0;
        double value = interp(p, j, r, d);
        const double w = p->cold_w[j];
        if (w > 0.0) {
            const double warm = interp(p, j, np_minimum(p->cold_cur[j], r), d);
            value = w * warm + (1.0 - w) * value;
        }
        if (p->drops)
            value = value * penalty(p, clip(d, 0.0, 1.0));
        utility[j] = value;
        products[j] = value * p->priorities[j];
    }
    const double weighted = np_sum(products, n);
    if (p->kind == SUM)
        return weighted;
    const double spread = np_max_of(utility, n) - np_min_of(utility, n);
    if (p->kind == FAIR)
        return -spread;
    return weighted - p->gamma * spread;
}

/* _constraint_functions' slacks: cpu, memory, then each job's
 * x - min and max - x, then each job's d and drop_max - d. */
static void slacks(const Problem *p)
{
    const int64_t n = p->n;
    const double *z = p->z;
    double *c = p->c;
    c[0] = p->cpus - np_dot(p->blas, n, z, 1, p->cpu, 1);
    c[1] = p->mem - np_dot(p->blas, n, z, 1, p->memory, 1);
    for (int64_t j = 0; j < n; j++) {
        c[2 + 2 * j] = z[j] - (double)p->mins[j];
        c[3 + 2 * j] = p->max_row_f[j] - z[j];
    }
    if (p->drops)
        for (int64_t j = 0; j < n; j++) {
            c[2 + 2 * n + 2 * j] = z[n + j];
            c[3 + 2 * n + 2 * j] = p->drop_max - z[n + j];
        }
}

void objective_evaluate(Problem *p, int code)
{
    if (code & NEED_F) {
        p->nfev++;
        p->f[0] = -evaluate(p);
    }
    if (code & NEED_C)
        slacks(p);
}
