/* Compiled stacked training step and forward pass of N-HiTS for
 * repro.forecast.nhits.
 *
 * A stacked model holds J jobs' parameters with a leading job axis (see
 * _fit_stack in nhits.py).  One training step is two calls, with numpy's
 * transcendentals between them:
 *
 *   nhits_step_forward   each job's minibatch rows, read in place from its
 *                        stacked windows by its permutation; every block's
 *                        average pooling, MLP (matmul, bias, ReLU as
 *                        z * (z > 0)) and interpolation, up to the summed
 *                        forecast mu and the summed sigma knots;
 *   (numpy)              softplus, log(var) and exp(-sigma_sum), whose bits
 *                        numpy's own loops pick by CPU, with the exact
 *                        sigma floor add and var = sigma * sigma between;
 *   nhits_step_backward  the loss head (each job's mean loss and the
 *                        gradients losses.sum().backward() leaves at mu and
 *                        sigma_sum), the whole backward pass, each job's
 *                        gradient clipping, then Adam.
 *
 * nhits_forward alone is inference: one job's forward pass on one window.
 *
 * All state is numpy memory the caller owns: parameters, gradients and
 * Adam's moments as one flat buffer each (parameter by parameter in
 * network.parameters() order, each (J, in, out) or (J, 1, out)), the
 * interpolation matrices, the stacked windows, the head's buffers, and a
 * workspace holding the activations.
 *
 * Bit for bit with the tape, not just close.  Every product of matrices
 * is the BLAS call numpy's matmul makes for that operand layout, through
 * the table of numpy's own bundled routines (repro.native.blas): gemm,
 * gemv for one-row batches and one-column operands, a dot product or
 * numpy's plain loop where its matmul takes them.  Every operand that is a
 * fresh numpy array on the tape starts 16 bytes aligned here too (each
 * parameter, matrix and workspace region at an even offset from a numpy
 * allocation), since some BLAS kernels (OpenBLAS's Prescott ddot) sum in
 * an order set by their operands' alignment.  Sums are numpy's: a
 * reduction starts at 0.0, runs numpy's pairwise order along a contiguous
 * axis and left to right along a strided one.  Everything else is
 * elementwise + - * / and sqrt, which round the same everywhere as long as
 * the file is compiled without floating-point contraction; the clip's
 * root is libm's pow(x, 0.5), as Python's float ** 0.5 takes it.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>
#if defined(__SSE2__)
#include <emmintrin.h>
#endif

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);
typedef void (*dgemv_fn)(int order, int trans, int64_t m, int64_t n,
                         double alpha, const double *a, int64_t lda,
                         const double *x, int64_t incx, double beta, double *y,
                         int64_t incy);
typedef void (*dgemm_fn)(int order, int transa, int transb, int64_t m,
                         int64_t n, int64_t k, double alpha, const double *a,
                         int64_t lda, const double *b, int64_t ldb, double beta,
                         double *c, int64_t ldc);

/* repro.native's table; the LAPACK entry is not used here. */
typedef struct {
    ddot_fn ddot;
    dgemv_fn dgemv;
    dgemm_fn dgemm;
    void *dgelsd;
} Blas;

enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };

/* The losses of nhits.py's _loss, as Model.loss names them. */
enum { NLL = 0, MSE = 1, MAE = 2 };

/* numpy's pairwise summation blocks at this many elements. */
#define PW_BLOCKSIZE 128

/* Two lanes of doubles, as in erlang.c: each lane rounds as a scalar. */
typedef double pair __attribute__((vector_size(16)));
typedef int64_t lanes __attribute__((vector_size(16)));

static inline pair load(const double *p)
{
    pair v;
    memcpy(&v, p, sizeof v);
    return v;
}

static inline void store(double *p, pair v) { memcpy(p, &v, sizeof v); }

/* Both lanes' square roots, correctly rounded like sqrt(). */
static inline pair root(pair x)
{
#if defined(__SSE2__)
    return (pair)_mm_sqrt_pd((__m128d)x);
#else
    return (pair){sqrt(x[0]), sqrt(x[1])};
#endif
}

/* n doubles rounded up to 16 bytes: where the next aligned buffer starts. */
static inline int64_t padded(int64_t n) { return n + (n & 1); }

/* row[c] = row[c] + add[c] over n values. */
static void add_into(double *row, const double *add, int64_t n)
{
    int64_t c = 0;
    for (; c + 2 <= n; c += 2)
        store(row + c, load(row + c) + load(add + c));
    for (; c < n; c++)
        row[c] = row[c] + add[c];
}

/* x * (test > 0), the mask a double as numpy multiplies by it: 1.0, or
 * 0.0, which leaves -0.0 for a negative x.  A mask, not a branch. */
static inline pair times_positive(pair x, pair test)
{
    const pair one = {1.0, 1.0}, zero = {0.0, 0.0};
    return x * (pair)((lanes)one & (test > zero));
}

/* value[c] = value[c] * (test[c] > 0) over n values: ReLU's gradient. */
static void mask_positive(double *value, const double *test, int64_t n)
{
    int64_t c = 0;
    for (; c + 2 <= n; c += 2)
        store(value + c, times_positive(load(value + c), load(test + c)));
    for (; c < n; c++)
        value[c] = value[c] * (test[c] > 0 ? 1.0 : 0.0);
}

/* Each of `rows` rows of n values plus the bias row, then ReLU
 * (z * (z > 0)) when relu is set: x @ W + b and its activation. */
static void add_bias(double *z, const double *bias, int64_t rows, int64_t n,
                     int relu)
{
    for (int64_t r = 0; r < rows; r++, z += n) {
        int64_t c = 0;
        for (; c + 2 <= n; c += 2) {
            const pair sum = load(z + c) + load(bias + c);
            store(z + c, relu ? times_positive(sum, sum) : sum);
        }
        for (; c < n; c++) {
            const double sum = z[c] + bias[c];
            z[c] = relu ? sum * (sum > 0 ? 1.0 : 0.0) : sum;
        }
    }
}

/* ------------------------------------------------------ numpy's matmul */

/* numpy's is_blasable2d, in element strides: a unit second stride and a
 * first one that spans the row. */
static int blasable(int64_t stride1, int64_t stride2, int64_t d2)
{
    return stride2 == 1 && stride1 >= d2;
}

/* numpy's DOUBLE_gemv: op = ip1 @ ip2 for ip1 of m rows and n columns. */
static void np_gemv(const Blas *blas, const double *ip1, int64_t is1_m,
                    int64_t is1_n, const double *ip2, int64_t is2_n, double *op,
                    int64_t os_m, int64_t m, int64_t n)
{
    if (blasable(is1_m, is1_n, n))
        blas->dgemv(COL_MAJOR, TRANS, n, m, 1.0, ip1, is1_m, ip2, is2_n, 0.0,
                    op, os_m);
    else
        blas->dgemv(ROW_MAJOR, TRANS, n, m, 1.0, ip1, is1_n, ip2, is2_n, 0.0,
                    op, os_m);
}

/* numpy's matmul inner loop for one (dm x dn) @ (dn x dp) product into a
 * contiguous dm x dp output, operands given by numpy's element strides.
 * The branches are numpy's, in numpy's order.  No product here multiplies
 * a buffer by itself, so numpy's syrk case never arises. */
static void np_matmul(const Blas *blas, int64_t dm, int64_t dn, int64_t dp,
                      const double *ip1, int64_t is1_m, int64_t is1_n,
                      const double *ip2, int64_t is2_n, int64_t is2_p,
                      double *op)
{
    const int i1 = blasable(is1_m, is1_n, dn) || blasable(is1_n, is1_m, dm);
    const int i2 = blasable(is2_n, is2_p, dp) || blasable(is2_p, is2_n, dn);

    if (dm == 0 || dn == 0 || dp == 0) {
        /* the plain loop below */
    } else if (dm == 1 || dn == 1 || dp == 1) {
        if (dm == 1 && dp == 1) {
            /* DOUBLE_dot: a 0.0 start plus one ddot */
            double sum = 0.0;
            sum += blas->ddot(dn, ip1, is1_n, ip2, is2_n);
            op[0] = sum;
            return;
        }
        if (dn == 1 && (dp == 1 || dm == 1)) {
            /* the plain loop below */
        } else if (dm == 1 && i2 && is1_n >= 1) {
            /* vector @ matrix */
            np_gemv(blas, ip2, is2_p, is2_n, ip1, is1_n, op, 1, dp, dn);
            return;
        } else if (dp == 1 && i1 && is2_n >= 1) {
            /* matrix @ vector */
            np_gemv(blas, ip1, is1_m, is1_n, ip2, is2_n, op, 1, dm, dn);
            return;
        }
    } else if (i1 && i2) {
        const int t1 = blasable(is1_m, is1_n, dn) ? NO_TRANS : TRANS;
        const int t2 = blasable(is2_n, is2_p, dp) ? NO_TRANS : TRANS;
        blas->dgemm(ROW_MAJOR, t1, t2, dm, dp, dn, 1.0, ip1,
                    t1 == NO_TRANS ? is1_m : is1_n, ip2,
                    t2 == NO_TRANS ? is2_n : is2_p, 0.0, op, dp);
        return;
    }
    for (int64_t m = 0; m < dm; m++)
        for (int64_t p = 0; p < dp; p++) {
            double sum = 0.0;
            for (int64_t n = 0; n < dn; n++)
                sum += ip1[m * is1_m + n * is1_n] * ip2[n * is2_n + p * is2_p];
            op[m * dp + p] = sum;
        }
}

/* One numpy matmul over the job axis: job j multiplies ip1 + j * job1 by
 * ip2 + j * job2 (job2 == 0 broadcasts one matrix) into op + j * dm * dp. */
static void stacked_matmul(const Blas *blas, int64_t jobs, int64_t dm,
                           int64_t dn, int64_t dp, const double *ip1,
                           int64_t job1, int64_t is1_m, int64_t is1_n,
                           const double *ip2, int64_t job2, int64_t is2_n,
                           int64_t is2_p, double *op)
{
    for (int64_t j = 0; j < jobs; j++)
        np_matmul(blas, dm, dn, dp, ip1 + j * job1, is1_m, is1_n,
                  ip2 + j * job2, is2_n, is2_p, op + j * dm * dp);
}

/* -------------------------------------------------------- numpy's sums */

/* numpy's DOUBLE_pairwise_sum over n contiguous values, or their squares;
 * its eight partial sums run as four pairs. */
static double pairwise(const double *a, int64_t n, int square)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += square ? a[i] * a[i] : a[i];
        return res;
    }
    if (n <= PW_BLOCKSIZE) {
        pair r[4];
        int64_t i;
        for (int q = 0; q < 4; q++) {
            r[q] = load(a + 2 * q);
            if (square)
                r[q] *= r[q];
        }
        for (i = 8; i < n - (n % 8); i += 8)
            for (int q = 0; q < 4; q++) {
                const pair x = load(a + i + 2 * q);
                r[q] += square ? x * x : x;
            }
        double res = ((r[0][0] + r[0][1]) + (r[1][0] + r[1][1]))
                     + ((r[2][0] + r[2][1]) + (r[3][0] + r[3][1]));
        for (; i < n; i++)
            res += square ? a[i] * a[i] : a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2, square) + pairwise(a + n2, n - n2, square);
}

/* ---------------------------------------------------------- the network */

/* The architecture: shape holds jobs, input_size, horizon, blocks, depth,
 * hidden and probabilistic, then kernel, backcast knots and forecast knots
 * of every block. */
typedef struct {
    int64_t jobs, input, horizon, blocks, depth, hidden, probabilistic;
    const int64_t *block;
} Net;

static Net net_of(const int64_t *shape)
{
    Net net = {shape[0], shape[1], shape[2], shape[3], shape[4], shape[5],
               shape[6], shape + 7};
    return net;
}

static int64_t kernel_of(const Net *net, int64_t i) { return net->block[3 * i]; }
static int64_t backcast_of(const Net *net, int64_t i) { return net->block[3 * i + 1]; }
static int64_t forecast_of(const Net *net, int64_t i) { return net->block[3 * i + 2]; }

/* Width of block i's theta: backcast, forecast and (probabilistic) sigma knots. */
static int64_t theta_of(const Net *net, int64_t i)
{
    return backcast_of(net, i) + forecast_of(net, i) * (1 + net->probabilistic);
}

static int64_t fan_in(const Net *net, int64_t i, int64_t l)
{
    return l == 0 ? backcast_of(net, i) : net->hidden;
}

static int64_t fan_out(const Net *net, int64_t i, int64_t l)
{
    return l == net->depth ? theta_of(net, i) : net->hidden;
}

/* Offset of layer l of block i's weight in the flat parameter buffer; its
 * bias follows the weight, from the next even offset. */
static int64_t weight_at(const Net *net, int64_t i, int64_t l)
{
    int64_t offset = 0;
    for (int64_t bi = 0; bi <= i; bi++)
        for (int64_t bl = 0; bl <= net->depth; bl++) {
            if (bi == i && bl == l)
                return offset;
            offset += padded(net->jobs * fan_in(net, bi, bl) * fan_out(net, bi, bl))
                      + padded(net->jobs * fan_out(net, bi, bl));
        }
    return offset;
}

static int64_t bias_at(const Net *net, int64_t i, int64_t l)
{
    return weight_at(net, i, l) + padded(net->jobs * fan_in(net, i, l) * fan_out(net, i, l));
}

/* Offset of block i's backcast matrix (input x backcast knots, C order) in
 * the interpolation buffer; its forecast matrix (horizon x forecast knots)
 * follows, from the next even offset. */
static int64_t interp_at(const Net *net, int64_t i)
{
    int64_t offset = 0;
    for (int64_t bi = 0; bi < i; bi++)
        offset += padded(net->input * backcast_of(net, bi))
                  + padded(net->horizon * forecast_of(net, bi));
    return offset;
}

/* The workspace of one step of `rows` rows per job. */
typedef struct {
    double *pooled;          /* per block: pooled input, then depth ReLU outputs */
    double *residual, *grad_residual, *vector, *theta, *grad_theta, *knots;
    double *layer[2];        /* gradients of one layer's output and input */
    double *mu, *grad_mu, *grad_sigma, *terms;  /* the loss head's */
} Work;

static int64_t max_theta(const Net *net)
{
    int64_t widest = 0;
    for (int64_t i = 0; i < net->blocks; i++)
        if (theta_of(net, i) > widest)
            widest = theta_of(net, i);
    return widest;
}

/* Doubles block i keeps from the forward pass to the backward pass: its
 * pooled input, then one ReLU output per hidden layer, each aligned. */
static int64_t kept_of(const Net *net, int64_t rows, int64_t i)
{
    const int64_t stride = net->jobs * rows;
    return padded(stride * backcast_of(net, i)) + net->depth * padded(stride * net->hidden);
}

/* Lay out the workspace of a step of `rows` rows per job: what every block
 * keeps, then the scratch of one block, then the loss head's buffers.
 * Fills w when base is given; returns the size in doubles. */
static int64_t work_of(const Net *net, int64_t rows, double *base, Work *w)
{
    const int64_t stride = net->jobs * rows, theta = max_theta(net);
    const int64_t wide = theta > net->hidden ? theta : net->hidden;
    const int64_t series = net->input > net->horizon ? net->input : net->horizon;
    double **region[] = {&w->residual, &w->grad_residual, &w->vector, &w->knots,
                         &w->theta, &w->grad_theta, &w->layer[0], &w->layer[1],
                         &w->mu, &w->grad_mu, &w->grad_sigma, &w->terms};
    const int64_t width[] = {net->input, net->input, series, series, theta, theta,
                             wide, wide, net->horizon, net->horizon, net->horizon,
                             net->horizon};
    int64_t at = 0;

    for (int64_t i = 0; i < net->blocks; i++)
        at += kept_of(net, rows, i);
    w->pooled = base;
    for (int r = 0; r < 12; r++) {
        if (base != NULL)
            *region[r] = base + at;
        at += padded(stride * width[r]);
    }
    return at;
}

/* Block i's pooled input. */
static double *pooled_of(const Net *net, const Work *w, int64_t rows, int64_t i)
{
    double *at = w->pooled;
    for (int64_t bi = 0; bi < i; bi++)
        at += kept_of(net, rows, bi);
    return at;
}

/* Block i's ReLU output of hidden layer l, given its pooled input. */
static double *relu_of(const Net *net, double *pooled, int64_t rows, int64_t i,
                       int64_t l)
{
    const int64_t stride = net->jobs * rows;
    return pooled + padded(stride * backcast_of(net, i)) + l * padded(stride * net->hidden);
}

int64_t nhits_workspace(const int64_t *shape, int64_t rows)
{
    const Net net = net_of(shape);
    Work w;
    return work_of(&net, rows, NULL, &w);
}

/* dst[r, offset:offset + width] = 0.0 + src[r, :] over `count` rows of a
 * theta gradient of `cols` columns: np.add.at into zeros, the getitem
 * backward of one knot slice. */
static void into_slice(double *dst, int64_t cols, int64_t offset,
                       const double *src, int64_t width, int64_t count)
{
    for (int64_t r = 0; r < count; r++)
        for (int64_t c = 0; c < width; c++)
            dst[r * cols + offset + c] = 0.0 + src[r * width + c];
}

/* Row `row` (job-major) of a step's rows: row r of job j is window
 * order[j][start + r] of that job's `windows` rows of `width` values. */
static const double *window_of(const double *stacked, const int64_t *order,
                               int64_t windows, int64_t start, int64_t rows,
                               int64_t width, int64_t row)
{
    const int64_t j = row / rows, r = row % rows;
    return stacked + (j * windows + order[j * windows + start + r]) * width;
}

/* ------------------------------------------------------------- forward */

/* The forward pass on `rows` rows per job, each read in place from the
 * stacked windows by its job's order; writes mu and, for a probabilistic
 * net, sigma_sum (J x rows x horizon each). */
void nhits_forward(const Blas *blas, const int64_t *shape, int64_t rows,
                   const double *params, const double *interp,
                   const double *inputs, const int64_t *order, int64_t windows,
                   int64_t start, double *work, double *mu, double *sigma_sum)
{
    const Net net = net_of(shape);
    const int64_t J = net.jobs, B = rows, L = net.input, H = net.horizon;
    const int64_t cells = J * B * H;
    Work w;

    work_of(&net, rows, work, &w);
    for (int64_t i = 0; i < net.blocks; i++) {
        const int64_t k = kernel_of(&net, i), kb = backcast_of(&net, i);
        const int64_t kf = forecast_of(&net, i), width = theta_of(&net, i);
        const double *backcast_m = interp + interp_at(&net, i);
        const double *forecast_m = backcast_m + padded(L * kb);
        double *pooled = pooled_of(&net, &w, B, i);
        const double inv_k = 1.0 / (double)k;

        /* avg_pool1d: reshape(..., kb, k).sum(-1) * (1.0 / k); below 8
         * values numpy's pairwise sum adds left to right from 0.0. */
        for (int64_t row = 0; row < J * B; row++) {
            const double *in = i == 0
                ? window_of(inputs, order, windows, start, B, L, row)
                : w.residual + row * L;
            for (int64_t q = 0; q < kb; q++) {
                const double *cell = in + q * k;
                double sum = 0.0;
                if (k < 8)
                    for (int64_t s = 0; s < k; s++)
                        sum += cell[s];
                else
                    sum = pairwise(cell, k, 0);
                pooled[row * kb + q] = (0.0 + sum) * inv_k;
            }
        }

        /* the MLP: x @ W + b, ReLU between layers */
        const double *input = pooled;
        for (int64_t l = 0; l <= net.depth; l++) {
            const int64_t in = fan_in(&net, i, l), out = fan_out(&net, i, l);
            const double *weight = params + weight_at(&net, i, l);
            const double *bias = params + bias_at(&net, i, l);
            double *z = l == net.depth ? w.theta : relu_of(&net, pooled, B, i, l);

            stacked_matmul(blas, J, B, in, out, input, B * in, in, 1, weight,
                           in * out, out, 1, z);
            for (int64_t j = 0; j < J; j++)
                add_bias(z + j * B * out, bias + j * out, B, out, l < net.depth);
            input = z;
        }

        /* theta's knot slices @ the interpolation matrices (F order views) */
        if (i < net.blocks - 1) {
            stacked_matmul(blas, J, B, kb, L, w.theta, B * width, width, 1,
                           backcast_m, 0, 1, kb, w.vector);
            for (int64_t row = 0; row < J * B; row++) {
                const double *in = i == 0
                    ? window_of(inputs, order, windows, start, B, L, row)
                    : w.residual + row * L;
                for (int64_t c = 0; c < L; c++)
                    w.residual[row * L + c] = in[c] - w.vector[row * L + c];
            }
        }
        stacked_matmul(blas, J, B, kf, H, w.theta + kb, B * width, width, 1,
                       forecast_m, 0, 1, kf, i == 0 ? mu : w.vector);
        if (i > 0)
            add_into(mu, w.vector, cells);
        if (net.probabilistic) {
            stacked_matmul(blas, J, B, kf, H, w.theta + kb + kf, B * width,
                           width, 1, forecast_m, 0, 1, kf,
                           i == 0 ? sigma_sum : w.vector);
            if (i > 0)
                add_into(sigma_sum, w.vector, cells);
        }
    }
}

/* ------------------------------------------------------------ backward */

/* The bias gradient: the layer-output gradient summed over the batch as
 * numpy's _unbroadcast sums it.  One row is not summed; one column is a
 * contiguous reduction (pairwise); wider ones add row by row. */
static void bias_gradient(const double *dz, int64_t J, int64_t B, int64_t out,
                          double *grad)
{
    for (int64_t j = 0; j < J; j++) {
        const double *rows = dz + j * B * out;
        if (B == 1) {
            memcpy(grad + j * out, rows, (size_t)out * sizeof(double));
        } else if (out == 1) {
            grad[j] = 0.0 + pairwise(rows, B, 0);
        } else {
            memset(grad + j * out, 0, (size_t)out * sizeof(double));
            for (int64_t r = 0; r < B; r++)
                add_into(grad + j * out, rows + r * out, out);
        }
    }
}

/* The backward pass from the gradients at mu and (NULL: none reached it)
 * sigma_sum, into the gradient buffer. */
static void backward(const Blas *blas, const Net *net, int64_t rows,
                     const double *params, const double *interp, const Work *wp,
                     const double *grad_mu, const double *grad_sigma,
                     double *grads)
{
    const int64_t J = net->jobs, B = rows, L = net->input, H = net->horizon;
    const Work w = *wp;

    for (int64_t i = net->blocks - 1; i >= 0; i--) {
        const int64_t k = kernel_of(net, i), kb = backcast_of(net, i);
        const int64_t kf = forecast_of(net, i), width = theta_of(net, i);
        const double *backcast_m = interp + interp_at(net, i);
        const double *forecast_m = backcast_m + padded(L * kb);
        double *pooled = pooled_of(net, &w, B, i);
        double *dz = w.grad_theta;

        /* theta's gradient: zeros but for the knot slices a loss reaches;
         * the last block's backcast feeds nothing. */
        memset(dz, 0, (size_t)(J * B * width) * sizeof(double));
        if (i < net->blocks - 1) {
            /* residual - backcast: the backcast's gradient is -G */
            for (int64_t c = 0; c < J * B * L; c++)
                w.vector[c] = -w.grad_residual[c];
            stacked_matmul(blas, J, B, L, kb, w.vector, B * L, L, 1,
                           backcast_m, 0, kb, 1, w.knots);
            into_slice(dz, width, 0, w.knots, kb, J * B);
        }
        stacked_matmul(blas, J, B, H, kf, grad_mu, B * H, H, 1, forecast_m, 0,
                       kf, 1, w.knots);
        into_slice(dz, width, kb, w.knots, kf, J * B);
        if (grad_sigma != NULL) {
            stacked_matmul(blas, J, B, H, kf, grad_sigma, B * H, H, 1,
                           forecast_m, 0, kf, 1, w.knots);
            into_slice(dz, width, kb + kf, w.knots, kf, J * B);
        }

        /* the MLP, last layer first */
        for (int64_t l = net->depth; l >= 0; l--) {
            const int64_t in = fan_in(net, i, l), out = fan_out(net, i, l);
            const int64_t at = weight_at(net, i, l);
            const double *input = l == 0 ? pooled : relu_of(net, pooled, B, i, l - 1);
            double *da = dz == w.layer[0] ? w.layer[1] : w.layer[0];

            if (l < net->depth) {
                /* ReLU: grad * (z > 0); the output is positive exactly where z is */
                mask_positive(dz, relu_of(net, pooled, B, i, l), J * B * out);
            }
            bias_gradient(dz, J, B, out, grads + bias_at(net, i, l));
            /* x.swapaxes(-1, -2) @ grad */
            stacked_matmul(blas, J, in, B, out, input, B * in, 1, in, dz,
                           B * out, out, 1, grads + at);
            if (l == 0 && i == 0)
                break; /* block 0 pools the input, which needs no gradient */
            /* grad @ W.swapaxes(-1, -2) */
            stacked_matmul(blas, J, B, out, in, dz, B * out, out, 1,
                           params + at, in * out, 1, out, da);
            dz = da;
        }
        if (i == 0)
            break;

        /* avg_pool1d's backward, plus the gradient through the residual */
        const double inv_k = 1.0 / (double)k;
        for (int64_t c = 0; c < J * B * kb; c++) {
            const double spread = dz[c] * inv_k;
            double *cell = w.grad_residual + c * k;
            for (int64_t s = 0; s < k; s++)
                cell[s] = i < net->blocks - 1 ? spread + cell[s] : spread;
        }
    }
}

/* -------------------------------------------------------------- update */

/* Each job's gradients scaled to norm at most clip_norm (the squared norm
 * summed parameter by parameter, each a numpy sum over the job's block),
 * then one Adam step over every parameter, moments in place.  The scalars
 * are Adam's, computed by the caller as Adam computes them; the padding
 * between parameters stays zero. */
void nhits_update(const int64_t *shape, double *params, double *grads,
                  double *m, double *v, double clip_norm, double lr,
                  double beta1, double beta2, double one_minus_beta1,
                  double one_minus_beta2, double correction1,
                  double correction2, double eps)
{
    const Net net = net_of(shape);
    const int64_t J = net.jobs, total = weight_at(&net, net.blocks, 0);

    for (int64_t j = 0; j < J; j++) {
        double sum = 0.0, norm;
        for (int64_t i = 0; i < net.blocks; i++)
            for (int64_t l = 0; l <= net.depth; l++) {
                const int64_t in = fan_in(&net, i, l), out = fan_out(&net, i, l);
                sum += 0.0 + pairwise(grads + weight_at(&net, i, l) + j * in * out,
                                      in * out, 1);
                sum += 0.0 + pairwise(grads + bias_at(&net, i, l) + j * out, out, 1);
            }
        norm = pow(sum, 0.5);
        if (norm > clip_norm && norm > 0) {
            const double scale = clip_norm / norm;
            for (int64_t i = 0; i < net.blocks; i++)
                for (int64_t l = 0; l <= net.depth; l++) {
                    const int64_t in = fan_in(&net, i, l), out = fan_out(&net, i, l);
                    double *grad = grads + weight_at(&net, i, l) + j * in * out;
                    for (int64_t c = 0; c < in * out; c++)
                        grad[c] *= scale;
                    grad = grads + bias_at(&net, i, l) + j * out;
                    for (int64_t c = 0; c < out; c++)
                        grad[c] *= scale;
                }
        }
    }
    int64_t c = 0;
    for (; c + 2 <= total; c += 2) {
        const pair g = load(grads + c);
        pair m_c = load(m + c) * beta1, v_c = load(v + c) * beta2;
        m_c += one_minus_beta1 * g;
        v_c += one_minus_beta2 * (g * g);
        store(m + c, m_c);
        store(v + c, v_c);
        const pair m_hat = m_c / correction1, v_hat = v_c / correction2;
        store(params + c, load(params + c) - lr * m_hat / (root(v_hat) + eps));
    }
    for (; c < total; c++) {
        const double g = grads[c];
        m[c] *= beta1;
        m[c] += one_minus_beta1 * g;
        v[c] *= beta2;
        v[c] += one_minus_beta2 * (g * g);
        const double m_hat = m[c] / correction1;
        const double v_hat = v[c] / correction2;
        params[c] -= lr * m_hat / (sqrt(v_hat) + eps);
    }
}

/* ------------------------------------------------------ a training step */

/* A stacked model's training state: numpy memory nhits.py owns, set once
 * per model.  sigma_sum is written here and read by numpy; sigma, var,
 * log_var and exp_neg (exp(-sigma_sum)) are numpy's, read here. */
typedef struct {
    const Blas *blas;
    const int64_t *shape;
    const double *interp;
    const double *inputs;    /* J x windows x input_size */
    const double *targets;   /* J x windows x horizon */
    int64_t windows;
    int64_t loss;            /* NLL, MSE or MAE */
    double *params, *grads, *m, *v, *work;
    double *sigma_sum;
    const double *sigma, *var, *log_var, *exp_neg;
    double *losses;          /* J */
    double clip_norm, lr, beta1, beta2, one_minus_beta1, one_minus_beta2, eps;
} Model;

void nhits_step_forward(const Model *model, const int64_t *order,
                        int64_t start, int64_t rows)
{
    const Net net = net_of(model->shape);
    Work w;

    work_of(&net, rows, model->work, &w);
    nhits_forward(model->blas, model->shape, rows, model->params, model->interp,
                  model->inputs, order, model->windows, start, model->work,
                  w.mu, model->sigma_sum);
}

/* np.sign: 1, -1, or the value itself (0 for either zero, NaN for NaN). */
static inline double sign_of(double x)
{
    return x > 0 ? 1.0 : x < 0 ? -1.0 : x == 0 ? 0.0 : x;
}

/* The loss head of nhits.py's _loss on the tape, element by element in the
 * tape's operations: each job's loss, the mean over its rows and horizon
 * (a pairwise sum times 1.0 / count), into model->losses, and the
 * gradients losses.sum().backward() leaves at mu and sigma_sum.  Where a
 * node's gradient arrives by two paths the tape adds them in its order:
 * diff * diff gives g * diff twice, and var takes log's share before
 * (var * 2.0)'s. */
static void loss_head(const Model *model, const Net *net, const Work *w,
                      const int64_t *order, int64_t start, int64_t rows)
{
    const int64_t H = net->horizon, cells = rows * H;
    const double scale = 1.0 / (double)cells;

    for (int64_t j = 0; j < net->jobs; j++) {
        for (int64_t r = 0; r < rows; r++) {
            const int64_t row = j * rows + r;
            const double *target = window_of(model->targets, order, model->windows,
                                             start, rows, H, row);
            for (int64_t h = 0; h < H; h++) {
                const int64_t c = row * H + h;
                const double diff = w->mu[c] - target[h];
                if (model->loss == MSE) {
                    const double grad = scale * diff;
                    w->terms[c] = diff * diff;
                    w->grad_mu[c] = grad + grad;
                } else if (model->loss == MAE) {
                    w->terms[c] = fabs(diff);
                    w->grad_mu[c] = scale * sign_of(diff);
                } else {
                    const double var = model->var[c], sigma = model->sigma[c];
                    const double square = diff * diff, twice = var * 2.0;
                    const double grad_square = scale / twice;
                    const double grad_twice = -scale * square / (twice * twice);
                    const double grad_var = scale * 0.5 / var + grad_twice * 2.0;
                    const double grad_sigma = grad_var * sigma + grad_var * sigma;
                    w->terms[c] = model->log_var[c] * 0.5 + square / twice;
                    w->grad_mu[c] = grad_square * diff + grad_square * diff;
                    w->grad_sigma[c] = grad_sigma / (1.0 + model->exp_neg[c]);
                }
            }
        }
        model->losses[j] = (0.0 + pairwise(w->terms + j * cells, cells, 0)) * scale;
    }
}

void nhits_step_backward(const Model *model, const int64_t *order,
                         int64_t start, int64_t rows, double correction1,
                         double correction2)
{
    const Net net = net_of(model->shape);
    Work w;

    work_of(&net, rows, model->work, &w);
    loss_head(model, &net, &w, order, start, rows);
    backward(model->blas, &net, rows, model->params, model->interp, &w,
             w.grad_mu, model->loss == NLL ? w.grad_sigma : NULL, model->grads);
    nhits_update(model->shape, model->params, model->grads, model->m, model->v,
                 model->clip_norm, model->lr, model->beta1, model->beta2,
                 model->one_minus_beta1, model->one_minus_beta2, correction1,
                 correction2, model->eps);
}
