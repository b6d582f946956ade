/* Compiled trust-region step of COBYLA for repro.core.trstlp.
 *
 * trstlp computes the step d that scipy's PRIMA port computes in
 * scipy/_lib/pyprima/cobyla/trustregion.py (trstlp and trstlp_sub, with
 * qradd_Rdiag, qrexc_Rdiag, planerot, isminor and lsqr from
 * pyprima/common): stage 1 shortens the largest violation of the
 * linearized constraints A.T @ d <= b inside the trust region |d| <= delta,
 * stage 2 then lowers g.T @ d without raising it.  The statements keep the
 * reference's order and names, so the two read side by side.
 *
 * Bit for bit, not just close: numpy's dot products and matrix products do
 * not sum left to right, so this file never sums a product itself.  Every
 * np.dot, @ and np.linalg.lstsq of the reference is a call to the BLAS or
 * LAPACK routine numpy calls there, through repro.native's table of numpy's
 * own bundled routines, with numpy's memory layout and strides: views of
 * A_aug keep its row stride, fancy-indexed copies such as A[:, iact[:nact]]
 * are column-major, and np.dot of one-element vectors is a plain product.
 * The remaining arithmetic is elementwise + - * / and sqrt, which round the
 * same everywhere as long as the file is compiled without floating-point
 * contraction.  Python's max and min, numpy's NaN-propagating max, argmin
 * and maximum, and np.sum's pairwise order are spelled out below.
 *
 * Inputs: A is num_vars x m, row-major; b has m entries; g has num_vars.
 * trstlp returns 0 and writes d, or a nonzero code when the reference
 * would raise (numpy's lstsq reports a LAPACK failure, or an assertion of
 * qrexc_Rdiag fails) or memory runs out; the caller then runs the
 * reference, which raises or answers the same way.
 */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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
typedef void (*dgelsd_fn)(const int64_t *m, const int64_t *n,
                          const int64_t *nrhs, double *a, const int64_t *lda,
                          double *b, const int64_t *ldb, double *s,
                          const double *rcond, int64_t *rank, double *work,
                          const int64_t *lwork, int64_t *iwork, int64_t *info);

enum { ROW_MAJOR = 101, COL_MAJOR = 102, TRANS = 112 };

enum { OK = 0, LSTSQ_FAILED = 1, NO_MEMORY = 2, BAD_QREXC = 3 };

#define EPS DBL_EPSILON
#define REALMIN DBL_MIN
#define REALMAX DBL_MAX

/* repro.native's table, which every BLAS-calling kernel receives. */
typedef struct {
    ddot_fn ddot;
    dgemv_fn dgemv;
    dgemm_fn dgemm;
    dgelsd_fn dgelsd;
} Blas;

/* Scratch of one trstlp call; every array is 64-byte aligned. */
typedef struct {
    int64_t n, cols;           /* num_vars, and m + 1 columns of A_aug */
    double *vmultd, *zdota, *sdirn, *dnew, *dold, *cq, *cqa;
    double *absx, *absz, *act, *absact, *prod, *prod2, *fracs;
    double *pair_in, *pair_out, *ls_a, *ls_b, *ls_s;
    int64_t *lwork;            /* dgelsd's queried workspace per column count */
} Work;

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

/* out = x @ M as numpy's matmul runs it, for x of dn entries at stride
 * incx and M of dn rows and dp columns at element strides rs and cs: one
 * column is a dot product, one row a plain product, otherwise a transposed
 * gemv whose order follows M's layout.  Every matrix here is either
 * row-major (cs == 1) or column-major (rs == 1). */
static void np_vecmat(const Blas *blas, int64_t dn, int64_t dp, const double *x,
                      int64_t incx, const double *M, int64_t rs, int64_t cs,
                      double *out)
{
    if (dp == 0)
        return;
    if (dp == 1) {
        out[0] = 0.0;
        out[0] += blas->ddot(dn, x, incx, M, rs);
    } else if (dn == 1) {
        for (int64_t p = 0; p < dp; p++) {
            out[p] = 0.0;
            out[p] += x[0] * M[p * cs];
        }
    } else if (rs == 1 && cs >= dn) {
        blas->dgemv(COL_MAJOR, TRANS, dn, dp, 1.0, M, cs, x, incx, 0.0, out, 1);
    } else {
        blas->dgemv(ROW_MAJOR, TRANS, dn, dp, 1.0, M, rs, x, incx, 0.0, out, 1);
    }
}

/* Q[:, [k, k + 1]] = Q[:, [from0, from1]] @ G.T for the n x n row-major Q:
 * the fancy-indexed copy is column-major, G is the 2 x 2 row-major
 * [[c, s], [-s, c]] and the product comes out row-major (numpy's gemm). */
static void np_rotate(const Blas *blas, Work *w, double *Q, int64_t k,
                      int64_t from0, int64_t from1, const double G[4])
{
    const int64_t n = w->n;
    for (int64_t i = 0; i < n; i++) {
        w->pair_in[i] = Q[i * n + from0];
        w->pair_in[n + i] = Q[i * n + from1];
    }
    blas->dgemm(ROW_MAJOR, TRANS, TRANS, n, 2, 2, 1.0, w->pair_in, n, G, 2,
                0.0, w->pair_out, 2);
    for (int64_t i = 0; i < n; i++) {
        Q[i * n + k] = w->pair_out[2 * i];
        Q[i * n + k + 1] = w->pair_out[2 * i + 1];
    }
}

/* x = np.linalg.lstsq(M, rhs, rcond=None)[0] for the n x ncols column-major
 * M, called as numpy calls dgelsd: a workspace query first, M and rhs
 * copied in Fortran order, ldb = max(n, ncols), rcond = eps * max(n, ncols). */
static int np_lstsq(const Blas *blas, Work *w, int64_t ncols, const double *M,
                    const double *rhs, int64_t incr, double *x)
{
    const int64_t n = w->n, nrhs = 1, ld = n > ncols ? n : ncols;
    const double rcond = EPS * (double)ld;
    int64_t lwork, rank, info, iwork_query;
    double work_query, *work;
    if (ncols == 0)
        return OK;
    memcpy(w->ls_a, M, (size_t)(n * ncols) * sizeof(double));
    for (int64_t i = 0; i < n; i++)
        w->ls_b[i] = rhs[i * incr];
    if (w->lwork[2 * ncols] < 0) {
        lwork = -1;
        blas->dgelsd(&n, &ncols, &nrhs, w->ls_a, &n, w->ls_b, &ld, w->ls_s,
                     &rcond, &rank, &work_query, &lwork, &iwork_query, &info);
        if (info != 0)
            return LSTSQ_FAILED;
        w->lwork[2 * ncols] = (int64_t)work_query;
        w->lwork[2 * ncols + 1] = iwork_query;
    }
    lwork = w->lwork[2 * ncols];
    work = malloc((size_t)(lwork + w->lwork[2 * ncols + 1] + 1) * sizeof(double));
    if (work == NULL)
        return NO_MEMORY;
    blas->dgelsd(&n, &ncols, &nrhs, w->ls_a, &n, w->ls_b, &ld, w->ls_s, &rcond,
                 &rank, work, &lwork, (int64_t *)(work + lwork), &info);
    free(work);
    if (info != 0)
        return LSTSQ_FAILED;
    memcpy(x, w->ls_b, (size_t)ncols * sizeof(double));
    return OK;
}

/* A[:, idx[:k]] of the row-major n x cols A, as numpy's fancy indexing lays
 * it out: column-major. */
static void take_columns(const Work *w, const double *A, const int64_t *idx,
                         int64_t k, double *out)
{
    const int64_t n = w->n;
    for (int64_t j = 0; j < k; j++)
        for (int64_t i = 0; i < n; i++)
            out[j * n + i] = A[i * w->cols + idx[j]];
}

/* ------------------------------------------------------ scalar semantics */

/* Python's max(a, b): a unless b > a. */
static inline double py_max(double a, double b)
{
    return b > a ? b : a;
}

/* Python's min(a, b): a unless b < a. */
static inline double py_min(double a, double b)
{
    return b < a ? b : a;
}

/* np.maximum(a, b): NaN propagates, a tie gives b. */
static inline double np_maximum(double a, double b)
{
    if (isnan(a))
        return a;
    if (isnan(b))
        return b;
    return a > b ? a : b;
}

/* np.minimum(a, b): NaN propagates. */
static inline double np_minimum(double a, double b)
{
    if (isnan(a))
        return a;
    if (isnan(b))
        return b;
    return b < a ? b : a;
}

/* np.max(np.append(0, x[:k])): NaN propagates. */
static double np_max0(const double *x, int64_t k)
{
    double best = 0.0;
    for (int64_t i = 0; i < k; i++) {
        if (isnan(x[i]))
            return x[i];
        if (x[i] >= best)
            best = x[i];
    }
    return best;
}

static inline double np_sign(double x)
{
    return x > 0 ? 1.0 : (x < 0 ? -1.0 : (x == 0 ? 0.0 : x));
}

static inline int isminor(double x, double ref)
{
    const double sensitivity = 0.1;
    const double refa = fabs(ref) + sensitivity * fabs(x);
    const double refb = fabs(ref) + 2 * sensitivity * fabs(x);
    return fabs(ref) >= refa || refa >= refb;
}

/* numpy's pairwise summation of |x[:n]| (np.sum(abs(x))). */
static double pairwise_abs(const double *x, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += fabs(x[i]);
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = fabs(x[j]);
        for (i = 8; i < n - (n % 8); i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += fabs(x[i + j]);
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += fabs(x[i]);
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_abs(x, half) + pairwise_abs(x + half, n - half);
}

static int all_finite_sum(const double *x, int64_t n)
{
    return isfinite(0.0 + pairwise_abs(x, n));
}

/* ---------------------------------------------------- pyprima's helpers */

/* planerot(x): the Givens matrix G = [[c, s], [-s, c]], row-major.  Where
 * the reference sets c or s to the integer 0, -s is +0.0. */
static void planerot(const Blas *blas, double x0, double x1, double G[4])
{
    double c, s, minus_s;
    if (isnan(x0) || isnan(x1)) {
        c = 1.0, s = 0.0, minus_s = 0.0;
    } else if (isinf(x0) && isinf(x1)) {
        c = 1 / sqrt(2.0) * np_sign(x0);
        s = 1 / sqrt(2.0) * np_sign(x1);
        minus_s = -s;
    } else if (fabs(x0) <= 0 && fabs(x1) <= 0) {
        c = 1.0, s = 0.0, minus_s = 0.0;
    } else if (fabs(x1) <= EPS * fabs(x0)) {
        c = np_sign(x0), s = 0.0, minus_s = 0.0;
    } else if (fabs(x0) <= EPS * fabs(x1)) {
        c = 0.0, s = np_sign(x1), minus_s = -s;
    } else {
        const double lo = sqrt(REALMIN), hi = sqrt(REALMAX / 2.1);
        if (lo < fabs(x0) && fabs(x0) < hi && lo < fabs(x1) && fabs(x1) < hi) {
            const double x[2] = {x0, x1};
            const double r = sqrt(np_dot(blas, 2, x, 1, x, 1));
            c = x0 / r;
            s = x1 / r;
        } else if (fabs(x0) > fabs(x1)) {
            const double t = x1 / x0;
            double u = py_max(py_max(1.0, fabs(t)), sqrt(1 + t * t));
            u *= np_sign(x0);
            c = 1 / u;
            s = t / u;
        } else {
            const double t = x0 / x1;
            double u = py_max(py_max(1.0, fabs(t)), sqrt(1 + t * t));
            u *= np_sign(x1);
            c = t / u;
            s = 1 / u;
        }
        minus_s = -s;
    }
    G[0] = c, G[1] = s, G[2] = minus_s, G[3] = c;
}

/* qradd_Rdiag(c, Q, Rdiag, n) for the column c of A_aug (stride cols);
 * returns the new n. */
static int64_t qradd_Rdiag(const Blas *blas, Work *w, const double *c,
                           double *Q, double *Rdiag, int64_t n)
{
    const int64_t m = w->n;
    double G[4];
    np_vecmat(blas, m, m, c, w->cols, Q, m, 1, w->cq);
    for (int64_t i = 0; i < m; i++)
        w->absx[i] = fabs(c[i * w->cols]);
    for (int64_t i = 0; i < m * m; i++)
        w->absz[i] = fabs(Q[i]);
    np_vecmat(blas, m, m, w->absx, 1, w->absz, m, 1, w->cqa);
    for (int64_t i = 0; i < m; i++)
        if (isminor(w->cq[i], w->cqa[i]))
            w->cq[i] = 0.0;
    for (int64_t k = m - 2; k >= n; k--) {
        if (fabs(w->cq[k + 1]) > 0) {
            planerot(blas, w->cq[k], w->cq[k + 1], G);
            np_rotate(blas, w, Q, k, k, k + 1, G);
            w->cq[k] = hypot(w->cq[k], w->cq[k + 1]);
        }
    }
    if (n < m)
        if (fabs(w->cq[n]) > EPS * EPS && !isminor(w->cq[n], w->cqa[n]))
            n += 1;
    if (n - 1 >= 0 && n - 1 < m)
        Rdiag[n - 1] = w->cq[n - 1];
    return n;
}

/* qrexc_Rdiag(A, Q, Rdiag, i) for the column-major copy act = A[:, iact[:k]]. */
static int qrexc_Rdiag(const Blas *blas, Work *w, const double *act, int64_t k,
                       double *Q, double *Rdiag, int64_t i)
{
    const int64_t m = w->n;
    double G[4];
    if (!(k >= 1 && k <= m && i >= 0 && i < k))
        return BAD_QREXC;
    for (int64_t j = i; j < k - 1; j++) {
        planerot(blas, Rdiag[j + 1], np_dot(blas, m, Q + j, m, act + (j + 1) * m, 1), G);
        np_rotate(blas, w, Q, j, j + 1, j, G);
    }
    for (int64_t j = i; j < k - 1; j++)
        Rdiag[j] = np_dot(blas, m, Q + j, m, act + (j + 1) * m, 1);
    Rdiag[k - 1] = np_dot(blas, m, Q + k - 1, m, act + i * m, 1);
    return OK;
}

static inline void swap_doubles(double *x, int64_t i, int64_t j)
{
    const double t = x[i];
    x[i] = x[j];
    x[j] = t;
}

static inline void swap_ints(int64_t *x, int64_t i, int64_t j)
{
    const int64_t t = x[i];
    x[i] = x[j];
    x[j] = t;
}

/* x[-1] in Python: index k of a size-long array, wrapping below 0. */
static inline int64_t wrap(int64_t k, int64_t size)
{
    return k < 0 ? k + size : k;
}

/* ------------------------------------------------------------ trstlp_sub */

/* One stage over the first mcon columns of A (row stride w->cols).  iact,
 * vmultc, d and z are updated in place; *nact_io is nact. */
static int trstlp_sub(const Blas *blas, Work *w, int64_t *iact, int64_t *nact_io,
                      int stage, const double *A, const double *b, int64_t mcon,
                      double delta, double *d, double *vmultc, double *z)
{
    const int64_t n = w->n, cols = w->cols;
    double *const zdota = w->zdota, *const vmultd = w->vmultd;
    double *const sdirn = w->sdirn, *const dnew = w->dnew;
    int64_t nact = *nact_io, num_constraints, icon, nactold, nfail, maxiter;
    double cviol, optold;
    int status = OK;

    memset(zdota, 0, (size_t)n * sizeof(double));
    memset(vmultd, 0, (size_t)mcon * sizeof(double));
    if (stage == 1) {
        int all_nan = 1;
        for (int64_t i = 0; i < mcon; i++)
            iact[i] = i;
        nact = 0;
        memset(d, 0, (size_t)n * sizeof(double));
        for (int64_t i = 0; i < mcon; i++)
            w->prod[i] = -b[i];
        cviol = np_max0(w->prod, mcon);
        for (int64_t i = 0; i < mcon; i++)
            vmultc[i] = cviol + b[i];
        for (int64_t i = 0; i < n * n; i++)
            z[i] = 0.0;
        for (int64_t i = 0; i < n; i++)
            z[i * n + i] = 1.0;
        *nact_io = nact;
        if (mcon == 0 || cviol <= 0)
            return OK;
        for (int64_t i = 0; i < mcon; i++)
            all_nan = all_nan && isnan(b[i]);
        if (all_nan)
            return OK;
        /* np.nanargmax(-b): NaN reads as -inf, the first maximum wins. */
        icon = 0;
        for (int64_t i = 1; i < mcon; i++) {
            const double best = isnan(b[icon]) ? -INFINITY : -b[icon];
            const double value = isnan(b[i]) ? -INFINITY : -b[i];
            if (value > best)
                icon = i;
        }
        num_constraints = mcon;
        memset(sdirn, 0, (size_t)n * sizeof(double));
    } else {
        if (np_dot(blas, n, d, 1, d, 1) >= delta * delta)
            return OK;
        iact[mcon - 1] = mcon - 1;
        vmultc[mcon - 1] = 0;
        num_constraints = mcon - 1;
        icon = mcon - 1;
        np_vecmat(blas, n, num_constraints, d, 1, A, cols, 1, w->prod);
        for (int64_t i = 0; i < num_constraints; i++)
            w->prod[i] -= b[i];
        cviol = np_max0(w->prod, num_constraints);
    }
    for (int64_t k = 0; k < nact; k++)
        zdota[k] = np_dot(blas, n, z + k, n, A + iact[k], cols);

    optold = REALMAX;
    nactold = nact;
    nfail = 0;
    maxiter = 100 * (num_constraints > n ? num_constraints : n);
    if (maxiter > 10000)
        maxiter = 10000;
    for (int64_t iter = 0; iter < maxiter; iter++) {
        double optnew, dd, ss, sd, sqrtd, step, frac;
        optnew = stage == 1 ? cviol : np_dot(blas, n, d, 1, A + mcon - 1, cols);
        if (optnew < optold || nact > nactold) {
            nactold = nact;
            nfail = 0;
        } else {
            nfail += 1;
        }
        optold = np_minimum(optold, optnew);
        if (nfail == 3)
            break;

        if (icon >= nact) {
            const int64_t nactsav = nact;
            nact = qradd_Rdiag(blas, w, A + iact[icon], z, zdota, nact);
            if (nact == nactsav + 1) {
                if (nact != icon + 1) {
                    vmultc[icon] = vmultc[nact - 1];
                    vmultc[nact - 1] = 0;
                    swap_ints(iact, icon, nact - 1);
                } else {
                    vmultc[nact - 1] = 0;
                }
            } else {
                int any = 0;
                take_columns(w, A, iact, nact, w->act);
                status = np_lstsq(blas, w, nact, w->act, A + iact[icon], cols, vmultd);
                if (status != OK)
                    break;
                for (int64_t i = 0; i < nact; i++)
                    any = any || (vmultd[i] > 0 && iact[i] <= num_constraints);
                if (!any)
                    break;
                for (int64_t i = nact; i < mcon; i++)
                    vmultd[i] = -1;
                for (int64_t i = 0; i < nact; i++)
                    w->fracs[i] = vmultd[i] > 0 && iact[i] <= num_constraints
                                      ? vmultc[i] / vmultd[i] : REALMAX;
                frac = w->fracs[0];
                for (int64_t i = 1; i < nact; i++)
                    frac = py_min(frac, w->fracs[i]);
                for (int64_t i = 0; i < nact; i++)
                    vmultc[i] = np_maximum(0.0, vmultc[i] - frac * vmultd[i]);
                if (isnan(zdota[nact - 1]) || fabs(zdota[nact - 1]) <= EPS * EPS)
                    break;
                vmultc[icon] = 0;
                vmultc[nact - 1] = frac;
                swap_ints(iact, icon, nact - 1);
            }

            if (stage == 2 && iact[nact - 1] != mcon - 1) {
                if (nact <= 1)
                    break;
                take_columns(w, A, iact, nact, w->act);
                status = qrexc_Rdiag(blas, w, w->act, nact, z, zdota, nact - 2);
                if (status != OK)
                    break;
                swap_ints(iact, nact - 2, nact - 1);
                swap_doubles(vmultc, nact - 2, nact - 1);
            }

            if (isnan(zdota[nact - 1]) || fabs(zdota[nact - 1]) <= EPS * EPS)
                break;

            if (stage == 1) {
                const double t = (np_dot(blas, n, sdirn, 1, A + iact[nact - 1], cols) + 1)
                                 / zdota[nact - 1];
                for (int64_t j = 0; j < n; j++)
                    sdirn[j] -= t * z[j * n + nact - 1];
            } else {
                const double t = -1 / zdota[nact - 1];
                for (int64_t j = 0; j < n; j++)
                    sdirn[j] = t * z[j * n + nact - 1];
            }
        } else {
            const int64_t moved = iact[icon];
            const double moved_mult = vmultc[icon];
            take_columns(w, A, iact, nact, w->act);
            status = qrexc_Rdiag(blas, w, w->act, nact, z, zdota, icon);
            if (status != OK)
                break;
            for (int64_t i = icon; i < nact - 1; i++) {
                iact[i] = iact[i + 1];
                vmultc[i] = vmultc[i + 1];
            }
            iact[nact - 1] = moved;
            vmultc[nact - 1] = moved_mult;
            nact -= 1;

            if (stage == 2 && nact < 0)
                break;
            if (nact > 0)
                if (isnan(zdota[nact - 1]) || fabs(zdota[nact - 1]) <= EPS * EPS)
                    break;

            if (stage == 1) {
                const double t = np_dot(blas, n, sdirn, 1, z + nact, n);
                for (int64_t j = 0; j < n; j++)
                    sdirn[j] -= t * z[j * n + nact];
            } else {
                const int64_t last = wrap(nact - 1, n);
                const double t = -1 / zdota[last];
                for (int64_t j = 0; j < n; j++)
                    sdirn[j] = t * z[j * n + last];
            }
        }

        dd = delta * delta - np_dot(blas, n, d, 1, d, 1);
        ss = np_dot(blas, n, sdirn, 1, sdirn, 1);
        sd = np_dot(blas, n, sdirn, 1, d, 1);
        if (dd <= 0 || ss <= EPS * delta * delta || isnan(sd))
            break;
        sqrtd = py_max(py_max(sqrt(ss * dd + sd * sd), fabs(sd)), sqrt(ss * dd));
        if (sd > 0)
            step = dd / (sqrtd + sd);
        else
            step = (sqrtd - sd) / ss;
        if (step <= 0 || !isfinite(step))
            break;

        if (stage == 1) {
            if (isminor(cviol, step))
                break;
            step = py_min(step, cviol);
        }

        for (int64_t j = 0; j < n; j++)
            dnew[j] = d[j] + step * sdirn[j];
        take_columns(w, A, iact, nact, w->act);
        if (stage == 1) {
            np_vecmat(blas, n, nact, dnew, 1, w->act, 1, n, w->prod);
            for (int64_t i = 0; i < nact; i++)
                w->prod[i] -= b[iact[i]];
            cviol = np_max0(w->prod, nact);
        }

        status = np_lstsq(blas, w, nact, w->act, dnew, 1, vmultd);
        if (status != OK)
            break;
        for (int64_t i = 0; i < nact; i++)
            vmultd[i] = -vmultd[i];
        if (stage == 2) {
            const int64_t last = wrap(nact - 1, mcon);
            vmultd[last] = py_max(0.0, vmultd[last]);
        }
        /* cvshift = cviol - (dnew @ A[:, iact] - b[iact]), and cvsabs from
         * the absolute values, over every constraint. */
        take_columns(w, A, iact, mcon, w->act);
        np_vecmat(blas, n, mcon, dnew, 1, w->act, 1, n, w->prod);
        for (int64_t j = 0; j < n; j++)
            w->absx[j] = fabs(dnew[j]);
        for (int64_t i = 0; i < n * mcon; i++)
            w->absact[i] = fabs(w->act[i]);
        np_vecmat(blas, n, mcon, w->absx, 1, w->absact, 1, n, w->prod2);
        for (int64_t i = nact; i < mcon; i++) {
            double cvshift = cviol - (w->prod[i] - b[iact[i]]);
            const double cvsabs = (w->prod2[i] + fabs(b[iact[i]])) + cviol;
            if (isminor(cvshift, cvsabs))
                cvshift = 0;
            vmultd[i] = cvshift;
        }

        /* fracmult, then icon = np.argmin([1, *fracmult]) - 1 (the first
         * NaN, else the first minimum) and frac = min([1, *fracmult]). */
        w->fracs[0] = 1.0;
        for (int64_t i = 0; i < mcon; i++)
            w->fracs[i + 1] = vmultd[i] < 0 ? vmultc[i] / (vmultc[i] - vmultd[i]) : REALMAX;
        icon = 0;
        frac = w->fracs[0];
        for (int64_t i = 1; i <= mcon; i++) {
            if (!isnan(w->fracs[icon]) && (isnan(w->fracs[i]) || w->fracs[i] < w->fracs[icon]))
                icon = i;
            frac = py_min(frac, w->fracs[i]);
        }
        icon -= 1;

        memcpy(w->dold, d, (size_t)n * sizeof(double));
        for (int64_t j = 0; j < n; j++)
            d[j] = (1 - frac) * d[j] + frac * dnew[j];
        for (int64_t i = 0; i < mcon; i++)
            vmultc[i] = np_maximum(0.0, (1 - frac) * vmultc[i] + frac * vmultd[i]);
        if (!(all_finite_sum(d, n) && all_finite_sum(vmultc, mcon))) {
            memcpy(d, w->dold, (size_t)n * sizeof(double));
            break;
        }

        if (stage == 1) {
            np_vecmat(blas, n, mcon, d, 1, A, cols, 1, w->prod);
            for (int64_t i = 0; i < mcon; i++)
                w->prod[i] -= b[i];
            cviol = np_max0(w->prod, mcon);
        }

        if (icon < 0 || icon >= mcon)
            break;
    }
    *nact_io = nact;
    return status;
}

/* ---------------------------------------------------------------- trstlp */

/* Room for count doubles, rounded up to whole 64-byte lines. */
#define PAD(count) (((count) + 7) / 8 * 8)

static double *take(double **cursor, int64_t count)
{
    double *start = *cursor;
    *cursor += PAD(count);
    return start;
}

int trstlp(const Blas *blas, int64_t num_vars, int64_t m, const double *A,
           const double *b, double delta, const double *g, double *d)
{
    const int64_t n = num_vars, cols = m + 1;
    const int64_t total = 4 * PAD(n * cols) + 2 * PAD(n * n) + 6 * PAD(cols)
                          + PAD(cols + 1) + 9 * PAD(n) + 2 * PAD(2 * n)
                          + PAD(2 * (n + 1));
    double *block, *cursor, *A_aug, *b_aug, *z, *vmultc;
    int64_t *iact, nact = 0;
    Work w;
    int status;

    block = aligned_alloc(64, (size_t)total * sizeof(double));
    if (block == NULL)
        return NO_MEMORY;
    cursor = block;
    w.n = n, w.cols = cols;
    A_aug = take(&cursor, n * cols);
    b_aug = take(&cursor, cols);
    z = take(&cursor, n * n);
    vmultc = take(&cursor, cols);
    w.vmultd = take(&cursor, cols);
    w.zdota = take(&cursor, n);
    w.sdirn = take(&cursor, n);
    w.dnew = take(&cursor, n);
    w.dold = take(&cursor, n);
    w.cq = take(&cursor, n);
    w.cqa = take(&cursor, n);
    w.absx = take(&cursor, n);
    w.absz = take(&cursor, n * n);
    w.act = take(&cursor, n * cols);
    w.absact = take(&cursor, n * cols);
    w.prod = take(&cursor, cols);
    w.prod2 = take(&cursor, cols);
    w.fracs = take(&cursor, cols + 1);
    w.pair_in = take(&cursor, 2 * n);
    w.pair_out = take(&cursor, 2 * n);
    w.ls_a = take(&cursor, n * cols);
    w.ls_b = take(&cursor, n);
    w.ls_s = take(&cursor, n);
    w.lwork = (int64_t *)take(&cursor, 2 * (n + 1));
    iact = (int64_t *)take(&cursor, cols);
    for (int64_t i = 0; i < 2 * (n + 1); i++)
        w.lwork[i] = -1;

    /* A_aug = np.hstack([A, g[:, None]]), b_aug = np.hstack([b, 0]). */
    for (int64_t i = 0; i < n; i++) {
        memcpy(A_aug + i * cols, A + i * m, (size_t)m * sizeof(double));
        A_aug[i * cols + m] = g[i];
    }
    memcpy(b_aug, b, (size_t)m * sizeof(double));
    b_aug[m] = 0.0;
    memset(vmultc, 0, (size_t)cols * sizeof(double));
    memset(iact, 0, (size_t)cols * sizeof(int64_t));

    /* Scale the columns whose largest entry (Python's max) exceeds 1e12. */
    for (int64_t i = 0; i < cols; i++) {
        double maxval = fabs(A_aug[i]);
        for (int64_t j = 1; j < n; j++)
            maxval = py_max(maxval, fabs(A_aug[j * cols + i]));
        if (maxval > 1e12) {
            const double modscal = py_max(2 * REALMIN, 1 / maxval);
            for (int64_t j = 0; j < n; j++)
                A_aug[j * cols + i] *= modscal;
            b_aug[i] *= modscal;
        }
    }

    status = trstlp_sub(blas, &w, iact, &nact, 1, A_aug, b_aug, m, delta, d,
                        vmultc, z);
    if (status == OK)
        status = trstlp_sub(blas, &w, iact, &nact, 2, A_aug, b_aug, cols, delta,
                            d, vmultc, z);
    free(block);
    return status;
}
