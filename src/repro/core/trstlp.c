/* COBYLA for repro.core.trstlp: scipy's PRIMA port (pyprima) compiled.
 *
 * Two entry points share this file.  trstlp computes the step d that
 * scipy/_lib/pyprima/cobyla/trustregion.py computes (trstlp and trstlp_sub,
 * with qradd_Rdiag, qrexc_Rdiag, planerot, isminor and lsqr from
 * pyprima/common): stage 1 shortens the largest violation of the
 * linearized constraints A.T @ d <= b inside the trust region |d| <= delta,
 * stage 2 then lowers g.T @ d without raising it.  cobyla_new and
 * cobyla_resume run the whole of pyprima's cobylb driver around it, as
 * scipy 1.17's minimize(method="COBYLA") runs it for one call shape:
 * nonlinear inequality constraints c(x) >= 0 and no bounds.  The
 * statements keep the reference's order and names, so the two read side
 * by side.
 *
 * The driver never calls back into Python.  It is a reverse-communication
 * loop: cobyla_resume returns NEED_F and/or NEED_C with the point in the
 * caller's buffer, the caller writes f and the constraint values c(x)
 * next to it and resumes, until it returns 0 with the result written.
 * What scipy adds around pyprima lives here too: ScalarFunction evaluates
 * f at x0 first and caches f at its last point (a repeated point costs no
 * f, only the constraints), and NonlinearConstraint(lb=0, ub=inf) hands
 * pyprima 0.0 - c.
 *
 * Bit for bit, not just close: numpy's dot products and matrix products do
 * not sum left to right, so this file never sums a product itself.  Every
 * np.dot, @, np.linalg.lstsq and np.linalg.inv of the reference is a call
 * to the BLAS or LAPACK routine numpy calls there, through repro.native's
 * table of numpy's own bundled routines, with numpy's memory layout and
 * strides: views of A_aug keep its row stride, fancy-indexed copies such
 * as A[:, iact[:nact]] are column-major, and np.dot of one-element vectors
 * is a plain product.  The remaining arithmetic is elementwise + - * / and
 * sqrt, which round the same everywhere as long as the file is compiled
 * without floating-point contraction.  Python's max, min and sum, numpy's
 * NaN-propagating max, min, argmin and maximum, np.sum's pairwise order
 * over a vector and its row-by-row order over axis 0 are spelled out below.
 *
 * trstlp's inputs: A is num_vars x m, row-major; b has m entries; g has
 * num_vars.  trstlp returns 0 and writes d, or a nonzero code when the
 * reference would raise (numpy's lstsq reports a LAPACK failure, or an
 * assertion of qrexc_Rdiag fails) or memory runs out.  The driver returns
 * a negative code in those cases, and when np.linalg.inv would raise.
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
typedef void (*dgesv_fn)(const int64_t *n, const int64_t *nrhs, double *a,
                         const int64_t *lda, int64_t *ipiv, double *b,
                         const int64_t *ldb, int64_t *info);

enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };

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
    dgesv_fn dgesv;
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

/* ============================================================ the driver */

/* cobyla_resume's requests; the caller answers each and resumes. */
enum { NEED_F = 1, NEED_C = 2 };

/* cobyla_resume's failures, each where the reference raises: numpy's
 * lstsq or inv fails (LinAlgError), an assertion of qrexc_Rdiag fails,
 * memory runs out, a reduction over an empty selection (ValueError), and
 * the driver's end reached before any step was taken (UnboundLocalError). */
enum {
    FAIL_MEMORY = -1, FAIL_LSTSQ = -2, FAIL_QREXC = -3, FAIL_SINGULAR = -4,
    FAIL_EMPTY = -5, FAIL_NO_STEP = -6
};

/* pyprima's exit flags (common/infos.py). */
enum {
    INFO_DEFAULT = 0, SMALL_TR_RADIUS = 0, FTARGET_ACHIEVED = 1,
    MAXFUN_REACHED = 3, MAXTR_REACHED = 20, NAN_INF_X = -1, NAN_INF_F = -2,
    DAMAGING_ROUNDING = 7
};

/* Where cobyla_resume picks up again. */
enum {
    START, AT_X0_F, AT_X0, AT_X0_MODERATED, AT_INIT, AT_TRUST_REGION,
    AT_GEOMETRY, AT_LAST, FINISHED
};

#define FUNCMAX 1e30
#define CONSTRMAX 1e30

/* SIM, SIMI, FVAL, CVAL and CONMAT of cobylb, row-major like numpy's:
 * sim is n x (n + 1), simi n x n, conmat m x (n + 1). */
typedef struct {
    double *sim, *simi, *fval, *cval, *conmat;
} Simplex;

typedef struct {
    const Blas *blas;
    int64_t n, m, maxfun, maxfilt;
    double rhobeg, rhoend, ctol, cweight, eta1, eta2, gamma1, gamma2, ftarget;
    /* The caller's buffers: the point to evaluate, f and c(x) there, and
     * the result. */
    double *point, *f_io, *c_io, *x_out;
    int where, pending, status;
    /* ScalarFunction's last point and its f, as the caller returned it. */
    double *x0, *last_x, f_sf;
    /* cobylb's state */
    Simplex main, copy;
    double *g, *A, *b, *d, *d_cpen, *x, *constr, *dA, *distsq;
    double f, cstrv, rho, delta, cpen, dnorm, prerem, ratio, gamma3;
    int64_t nf, tr, maxtr, k, jdrop_tr, nfilt, *evaluated;
    int info, shortd, trfail, adequate_geo, has_d;
    /* the filter */
    double *xfilt, *ffilt, *cfilt, *shifted, *phi_filt;
    int64_t *keep;
    /* scratch */
    double *tmp_n, *tmp_m, *C, *P, *phi, *sim_old, *simi_old, *prod;
    double *simi_test, *lu, *identity, *colsum, *score, *weight, *simid;
    int64_t *ipiv;
    double *block;
} Driver;

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
 * contiguous dm x dp output, operands given by numpy's element strides (a
 * vector operand's missing dimension has stride 0).  The branches are
 * numpy's, in numpy's order; no product here multiplies a buffer by its
 * own transpose, so numpy's syrk case never arises. */
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
    for (int64_t i = 0; i < dm; i++)
        for (int64_t p = 0; p < dp; p++) {
            double sum = 0.0;
            for (int64_t j = 0; j < dn; j++)
                sum += ip1[i * is1_m + j * is1_n] * ip2[j * is2_n + p * is2_p];
            op[i * dp + p] = sum;
        }
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

/* np.sum(M, axis=0) of a C-contiguous rows x cols matrix (cols >= 2, or
 * one row): numpy adds it row by row onto 0.0. */
static void np_sum_rows(const double *M, int64_t rows, int64_t cols,
                        int64_t stride, double *out)
{
    for (int64_t j = 0; j < cols; j++)
        out[j] = 0.0;
    for (int64_t i = 0; i < rows; i++)
        for (int64_t j = 0; j < cols; j++)
            out[j] += M[i * stride + j];
}

/* np.sum(sim[:, :n] ** 2, axis=0): the squared distance of each vertex
 * from the pole.  (primapow2 is x * x.) */
static void vertex_distsq(const Driver *s, const double *sim, double *out)
{
    const int64_t n = s->n, cols = n + 1;
    for (int64_t j = 0; j < n; j++)
        out[j] = 0.0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++)
            out[j] += sim[i * cols + j] * sim[i * cols + j];
}

/* Python's min(x) and max(x) over a numpy vector: the first element
 * unless a later one compares smaller (greater). */
static double py_min_of(const double *x, int64_t n)
{
    double best = x[0];
    for (int64_t i = 1; i < n; i++)
        if (x[i] < best)
            best = x[i];
    return best;
}

static double py_max_of(const double *x, int64_t n)
{
    double best = x[0];
    for (int64_t i = 1; i < n; i++)
        if (x[i] > best)
            best = x[i];
    return best;
}

/* np.argmin and np.argmax: the first NaN, else the first extremum. */
static int64_t np_argmin(const double *x, int64_t n)
{
    int64_t best = 0;
    for (int64_t i = 1; i < n && !isnan(x[best]); i++)
        if (isnan(x[i]) || x[i] < x[best])
            best = i;
    return best;
}

static int64_t np_argmax(const double *x, int64_t n)
{
    int64_t best = 0;
    for (int64_t i = 1; i < n && !isnan(x[best]); i++)
        if (isnan(x[i]) || x[i] > x[best])
            best = i;
    return best;
}

/* np.linalg.norm of a contiguous vector: sqrt(x.dot(x)). */
static double np_norm(const Blas *blas, const double *x, int64_t n)
{
    return sqrt(np_dot(blas, n, x, 1, x, 1));
}

static inline double clip(double x, double lo, double hi)
{
    return x < lo ? lo : (x > hi ? hi : x);
}

static inline void swap_columns(double *M, int64_t rows, int64_t cols,
                                int64_t i, int64_t j)
{
    for (int64_t r = 0; r < rows; r++)
        swap_doubles(M + r * cols, i, j);
}

/* ------------------------------------------------------- linear algebra */

/* out = np.linalg.inv(sim[:, :n]), called as numpy calls dgesv: the matrix
 * copied column-major, an identity right-hand side, the answer read back. */
static int np_inv(Driver *s, const double *sim, double *out)
{
    const int64_t n = s->n, cols = n + 1;
    int64_t info;
    for (int64_t j = 0; j < n; j++)
        for (int64_t i = 0; i < n; i++) {
            s->lu[j * n + i] = sim[i * cols + j];
            s->identity[j * n + i] = i == j ? 1.0 : 0.0;
        }
    s->blas->dgesv(&n, &n, s->lu, &n, s->ipiv, s->identity, &n, &info);
    if (info != 0)
        return FAIL_SINGULAR;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++)
            out[i * n + j] = s->identity[j * n + i];
    return OK;
}

/* np.max(abs(matprod(simi, sim[:, :n]) - np.eye(n))), NaN if any is NaN. */
static double inverse_error(Driver *s, const double *simi, const double *sim)
{
    const int64_t n = s->n;
    double worst = -INFINITY;
    np_matmul(s->blas, n, n, n, simi, n, 1, sim, n + 1, 1, s->prod);
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++) {
            const double e = fabs(s->prod[i * n + j] - (i == j ? 1.0 : 0.0));
            if (isnan(e))
                return e;
            if (e > worst)
                worst = e;
        }
    return worst;
}

/* The check updatepole and updatexfc end with: erri, and when SIMI looks
 * damaged (erri > 0.1 or NaN) a SIMI recomputed from scratch in
 * s->simi_test, kept (*better) if its error is lower. */
static int check_inverse(Driver *s, const Simplex *S, double *erri, int *better)
{
    double erri_test;
    int status;
    *better = 0;
    *erri = inverse_error(s, S->simi, S->sim);
    if (*erri > 0.1 || isnan(*erri)) {
        status = np_inv(s, S->sim, s->simi_test);
        if (status != OK)
            return status;
        erri_test = inverse_error(s, s->simi_test, S->sim);
        if (erri_test < *erri || (isnan(*erri) && !isnan(erri_test))) {
            *better = 1;
            *erri = erri_test;
        }
    }
    return OK;
}

/* g = matprod(fval[:n] - fval[n], simi) and
 * A = matprod(conmat[:, :n] - conmat[:, n], simi).T, the linear models of
 * f and the constraints around the pole. */
static void models(Driver *s, const Simplex *S, double *g, double *A)
{
    const int64_t n = s->n, m = s->m, cols = n + 1;
    for (int64_t j = 0; j < n; j++)
        s->tmp_n[j] = S->fval[j] - S->fval[n];
    np_matmul(s->blas, 1, n, n, s->tmp_n, 0, 1, S->simi, n, 1, g);
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < n; j++)
            s->C[i * n + j] = S->conmat[i * cols + j] - S->conmat[i * cols + n];
    np_matmul(s->blas, m, n, n, s->C, n, 1, S->simi, n, 1, s->P);
    for (int64_t i = 0; i < m; i++)
        for (int64_t j = 0; j < n; j++)
            A[j * m + i] = s->P[i * n + j];
}

/* d = trstlp(A, -conmat[:, n], delta, g) */
static int step(Driver *s, const Simplex *S, const double *g, const double *A,
                double *d)
{
    const int64_t n = s->n, m = s->m;
    for (int64_t i = 0; i < m; i++)
        s->b[i] = -S->conmat[i * (n + 1) + n];
    switch (trstlp(s->blas, n, m, A, s->b, s->delta, g, d)) {
    case OK:
        return OK;
    case LSTSQ_FAILED:
        return FAIL_LSTSQ;
    case BAD_QREXC:
        return FAIL_QREXC;
    default:
        return FAIL_MEMORY;
    }
}

/* np.max(np.append(0, conmat[:, n] + sign * matprod(d, A))): the
 * violation of the linearized constraints after the step sign * d. */
static double linear_violation(Driver *s, const Simplex *S, const double *A,
                               const double *d, double sign)
{
    const int64_t n = s->n, m = s->m;
    np_matmul(s->blas, 1, n, m, d, 0, 1, A, m, 1, s->dA);
    for (int64_t i = 0; i < m; i++)
        s->tmp_m[i] = sign > 0 ? S->conmat[i * (n + 1) + n] + s->dA[i]
                               : S->conmat[i * (n + 1) + n] - s->dA[i];
    return np_max0(s->tmp_m, m);
}

/* ------------------------------------------------------- update.py */

/* findpole: the best vertex for the merit function fval + cpen * cval,
 * n unless another is strictly better; among equals, the least cval. */
static int64_t findpole(double *phi, int64_t n, double cpen, const double *cval,
                        const double *fval)
{
    int64_t jopt = n;
    double phimin, best;
    int any = 0;
    for (int64_t j = 0; j <= n; j++)
        phi[j] = fval[j] + cpen * cval[j];
    phimin = py_min_of(phi, n + 1);
    for (int64_t j = 0; j <= n; j++)
        any = any || (cval[j] < cval[jopt] && phi[j] <= phi[jopt]);
    if (phimin < phi[jopt] || any) {
        /* np.ma.array(cval, mask=(phi > phimin)).argmin(): masked reads +inf */
        jopt = 0;
        best = phi[0] > phimin ? INFINITY : cval[0];
        for (int64_t j = 1; j <= n && !isnan(best); j++) {
            const double value = phi[j] > phimin ? INFINITY : cval[j];
            if (isnan(value) || value < best) {
                jopt = j;
                best = value;
            }
        }
    }
    return jopt;
}

/* updatepole: move the best vertex to the pole sim[:, n].  On damaging
 * rounding, SIM and SIMI are restored and *info says so. */
static int updatepole(Driver *s, Simplex *S, double cpen, int *info)
{
    const int64_t n = s->n, m = s->m, cols = n + 1;
    const int64_t jopt = findpole(s->phi, n, cpen, S->cval, S->fval);
    double erri;
    int better, status;

    memcpy(s->sim_old, S->sim, (size_t)(n * cols) * sizeof(double));
    memcpy(s->simi_old, S->simi, (size_t)(n * n) * sizeof(double));
    if (jopt < n) {
        for (int64_t i = 0; i < n; i++) {
            S->sim[i * cols + n] += S->sim[i * cols + jopt];
            s->tmp_n[i] = S->sim[i * cols + jopt];
            S->sim[i * cols + jopt] = 0.0;
        }
        for (int64_t i = 0; i < n; i++)
            for (int64_t j = 0; j < n; j++)
                S->sim[i * cols + j] -= s->tmp_n[i];
        np_sum_rows(S->simi, n, n, n, s->colsum);
        for (int64_t j = 0; j < n; j++)
            S->simi[jopt * n + j] = -s->colsum[j];
    }
    status = check_inverse(s, S, &erri, &better);
    if (status != OK)
        return status;
    if (erri <= 1) {
        if (better)
            memcpy(S->simi, s->simi_test, (size_t)(n * n) * sizeof(double));
        if (jopt < n) {
            swap_doubles(S->fval, jopt, n);
            swap_columns(S->conmat, m, cols, jopt, n);
            swap_doubles(S->cval, jopt, n);
        }
        *info = INFO_DEFAULT;
    } else {
        memcpy(S->sim, s->sim_old, (size_t)(n * cols) * sizeof(double));
        memcpy(S->simi, s->simi_old, (size_t)(n * n) * sizeof(double));
        *info = DAMAGING_ROUNDING;
    }
    return OK;
}

/* updatexfc: replace vertex jdrop (-1 for None) with the pole plus d.  On
 * damaging rounding, pyprima keeps the updated SIM and SIMI (its "old"
 * copies alias them), and so does this. */
static int updatexfc(Driver *s, Simplex *S, int64_t jdrop, const double *constr,
                     double cpen, double cstrv, const double *d, double f,
                     int *info)
{
    const int64_t n = s->n, m = s->m, cols = n + 1;
    double erri, denom;
    int better, status;

    *info = INFO_DEFAULT;
    if (jdrop < 0)
        return OK;
    np_matmul(s->blas, n, n, 1, S->simi, n, 1, d, 1, 0, s->simid);
    if (jdrop < n) {
        for (int64_t i = 0; i < n; i++)
            S->sim[i * cols + jdrop] = d[i];
        denom = np_dot(s->blas, n, S->simi + jdrop * n, 1, d, 1);
        for (int64_t j = 0; j < n; j++)
            s->tmp_n[j] = S->simi[jdrop * n + j] / denom;
        for (int64_t i = 0; i < n; i++)
            for (int64_t j = 0; j < n; j++)
                S->simi[i * n + j] -= s->simid[i] * s->tmp_n[j];
        memcpy(S->simi + jdrop * n, s->tmp_n, (size_t)n * sizeof(double));
    } else {
        double total = 0.0;
        for (int64_t i = 0; i < n; i++) {
            S->sim[i * cols + n] += d[i];
            for (int64_t j = 0; j < n; j++)
                S->sim[i * cols + j] -= d[i];
        }
        np_sum_rows(S->simi, n, n, n, s->colsum);
        /* Python's sum(simid): 0 + simid[0] + simid[1] + ... */
        for (int64_t i = 0; i < n; i++)
            total += s->simid[i];
        denom = 1 - total;
        for (int64_t j = 0; j < n; j++)
            s->tmp_n[j] = s->colsum[j] / denom;
        for (int64_t i = 0; i < n; i++)
            for (int64_t j = 0; j < n; j++)
                S->simi[i * n + j] += s->simid[i] * s->tmp_n[j];
    }
    status = check_inverse(s, S, &erri, &better);
    if (status != OK)
        return status;
    if (!(erri <= 1)) {
        *info = DAMAGING_ROUNDING;
        return OK;
    }
    if (better)
        memcpy(S->simi, s->simi_test, (size_t)(n * n) * sizeof(double));
    S->fval[jdrop] = f;
    for (int64_t i = 0; i < m; i++)
        S->conmat[i * cols + jdrop] = constr[i];
    S->cval[jdrop] = cstrv;
    return updatepole(s, S, cpen, info);
}

/* ------------------------------------------------------- cobylb.py */

/* fcratio: the ratio of the typical change of f to that of the constraints. */
static double fcratio(const Driver *s, const Simplex *S)
{
    const int64_t n = s->n, m = s->m, cols = n + 1;
    const double fmin = py_min_of(S->fval, n + 1), fmax = py_max_of(S->fval, n + 1);
    double denom = INFINITY;
    int any = 0;
    for (int64_t i = 0; i < m; i++) {
        const double *row = S->conmat + i * cols;
        double cmin = -row[0], cmax = -row[0];
        for (int64_t j = 1; j < cols; j++) {
            const double c = -row[j];
            if (!isnan(cmin) && (isnan(c) || c < cmin))
                cmin = c;
            if (!isnan(cmax) && (isnan(c) || c > cmax))
                cmax = c;
        }
        if (cmin < 0.5 * cmax) {
            any = 1;
            denom = np_minimum(denom, np_maximum(cmax, 0.0) - cmin);
        }
    }
    if (any && fmin < fmax)
        return (fmax - fmin) / denom;
    return 0.0;
}

/* getcpen: raise cpen until the predicted merit reduction is positive, on
 * a copy of the simplex.  Its steps go to d_cpen, not d: after damaging
 * rounding in the next updatepole, the last-step check reads the d of the
 * iteration before. */
static int getcpen(Driver *s)
{
    const int64_t n = s->n, m = s->m, cols = n + 1;
    Simplex *S = &s->copy;
    double cpen = s->cpen;
    int info, status;

    memcpy(S->sim, s->main.sim, (size_t)(n * cols) * sizeof(double));
    memcpy(S->simi, s->main.simi, (size_t)(n * n) * sizeof(double));
    memcpy(S->fval, s->main.fval, (size_t)cols * sizeof(double));
    memcpy(S->cval, s->main.cval, (size_t)cols * sizeof(double));
    memcpy(S->conmat, s->main.conmat, (size_t)(m * cols) * sizeof(double));
    for (int64_t iter = 0; iter < n + 1; iter++) {
        double preref, prerec;
        status = updatepole(s, S, cpen, &info);
        if (status != OK)
            return status;
        if (info == DAMAGING_ROUNDING)
            break;
        models(s, S, s->g, s->A);
        status = step(s, S, s->g, s->A, s->d_cpen);
        if (status != OK)
            return status;
        preref = -np_dot(s->blas, n, s->d_cpen, 1, s->g, 1);
        prerec = S->cval[n] - linear_violation(s, S, s->A, s->d_cpen, 1.0);
        if (!(prerec > 0 && preref < 0))
            break;
        cpen = py_max(cpen, py_min(-2 * preref / prerec, REALMAX));
        if (findpole(s->phi, n, cpen, S->cval, S->fval) == n)
            break;
    }
    s->cpen = cpen;
    return OK;
}

/* setdrop_tr: the vertex the trust-region point replaces, -1 for None. */
static int64_t setdrop_tr(Driver *s, const Simplex *S, int ximproved,
                          const double *d)
{
    const int64_t n = s->n, cols = n + 1;
    double *distsq = s->distsq, scale;
    int64_t jdrop = -1;
    int any = 0;

    if (ximproved) {
        for (int64_t j = 0; j < n; j++)
            distsq[j] = 0.0;
        for (int64_t i = 0; i < n; i++)
            for (int64_t j = 0; j < n; j++) {
                const double v = S->sim[i * cols + j] - d[i];
                distsq[j] += v * v;
            }
        for (int64_t i = 0; i < n; i++)
            s->tmp_n[i] = d[i] * d[i];
        distsq[n] = np_sum(s->tmp_n, n);
    } else {
        vertex_distsq(s, S->sim, distsq);
        distsq[n] = 0;
    }
    scale = np_maximum(s->rho, s->delta / 10);
    scale = scale * scale;
    for (int64_t j = 0; j <= n; j++)
        s->weight[j] = np_maximum(1, distsq[j] / scale);
    np_matmul(s->blas, n, n, 1, S->simi, n, 1, d, 1, 0, s->simid);
    for (int64_t j = 0; j < n; j++)
        s->score[j] = s->weight[j] * fabs(s->simid[j]);
    s->score[n] = s->weight[n] * fabs(1 - np_sum(s->simid, n));
    if (!ximproved)
        s->score[n] = -1;
    for (int64_t j = 0; j <= n; j++) {
        if (isnan(s->score[j]))
            s->score[j] = -1;
        any = any || s->score[j] > 0;
    }
    if (any)
        jdrop = np_argmax(s->score, n + 1);
    if (ximproved && jdrop < 0)
        jdrop = np_argmax(distsq, n + 1);
    return jdrop;
}

/* geostep: a step of length delbar that improves the geometry when it
 * replaces vertex jdrop. */
static void geostep(Driver *s, const Simplex *S, int64_t jdrop, double delbar,
                    double *d)
{
    const int64_t n = s->n;
    const double *row = S->simi + jdrop * n;
    const double norm = np_norm(s->blas, row, n);
    double cvpd, cvnd, dg;
    for (int64_t i = 0; i < n; i++)
        d[i] = delbar * (row[i] / norm);
    models(s, S, s->g, s->A);
    cvpd = linear_violation(s, S, s->A, d, 1.0);
    cvnd = linear_violation(s, S, s->A, d, -1.0);
    dg = np_dot(s->blas, n, d, 1, s->g, 1);
    if (-dg + s->cpen * cvnd < dg + s->cpen * cvpd)
        for (int64_t i = 0; i < n; i++)
            d[i] *= -1;
}

static double redrat(double ared, double pred, double rshrink)
{
    if (isnan(ared))
        return -REALMAX;
    if (isnan(pred) || pred <= 0)
        return ared > 0 ? rshrink / 2 : -REALMAX;
    if (isinf(pred) && pred > 0 && isinf(ared) && ared > 0)
        return 1;
    if (isinf(pred) && pred > 0 && isinf(ared) && ared < 0)
        return -REALMAX;
    return ared / pred;
}

static double trrad(const Driver *s, double delta_in, double dnorm, double ratio)
{
    if (ratio <= s->eta1)
        return s->gamma1 * dnorm;
    if (ratio <= s->eta2)
        return py_max(s->gamma1 * delta_in, dnorm);
    return py_max(s->gamma1 * delta_in, s->gamma2 * dnorm);
}

static double redrho(double rho_in, double rhoend)
{
    const double rho_ratio = rho_in / rhoend;
    if (rho_ratio > 250)
        return 0.1 * rho_in;
    if (rho_ratio <= 16)
        return rhoend;
    return sqrt(rho_ratio) * rhoend;
}

static int checkbreak_con(const Driver *s, double cstrv, double f, const double *x)
{
    int info = INFO_DEFAULT;
    for (int64_t i = 0; i < s->n; i++)
        if (isnan(x[i]) || isinf(x[i]))
            info = NAN_INF_X;
    if (isnan(f) || (isinf(f) && f > 0) || isnan(cstrv) || (isinf(cstrv) && cstrv > 0))
        info = NAN_INF_F;
    if (cstrv <= s->ctol && f <= s->ftarget)
        info = FTARGET_ACHIEVED;
    if (s->nf >= s->maxfun)
        info = MAXFUN_REACHED;
    return info;
}

/* ------------------------------------------------------- selectx.py */

static int isbetter(double f1, double c1, double f2, double c2, double ctol)
{
    const int bad1 = isnan(f1) || isnan(c1) || (isinf(f1) && f1 > 0) || (isinf(c1) && c1 > 0);
    const int bad2 = isnan(f2) || isnan(c2) || (isinf(f2) && f2 > 0) || (isinf(c2) && c2 > 0);
    const double cref = 10 * py_max(EPS, py_min(ctol, 1.0e-2 * CONSTRMAX));
    return (bad1 && !bad2) || (f1 < f2 && c1 <= c2) || (f1 <= f2 && c1 < c2)
           || (f1 < REALMAX && c1 <= ctol && (c2 > py_max(ctol, cref) || isnan(c2)));
}

/* savefilt: keep (x, f, cstrv) unless a filter entry is better, dropping
 * the entries it is better than (and, in a full filter, the worst one). */
static int savefilt(Driver *s, double cstrv, double f, const double *x)
{
    const int64_t n = s->n, maxfilt = s->maxfilt;
    double *const ffilt = s->ffilt, *const cfilt = s->cfilt;
    int64_t kept = 0, k = 0;

    for (int64_t i = 0; i < s->nfilt; i++)
        if (isbetter(ffilt[i], cfilt[i], f, cstrv, s->ctol))
            return OK;
    for (int64_t i = 0; i < s->nfilt; i++)
        if (ffilt[i] <= f && cfilt[i] <= cstrv)
            return OK;
    for (int64_t i = 0; i < s->nfilt; i++) {
        s->keep[i] = !isbetter(f, cstrv, ffilt[i], cfilt[i], s->ctol);
        kept += s->keep[i];
    }
    if (kept == maxfilt) {
        double *const shifted = s->shifted, *const phi = s->phi_filt;
        double phimax, cref = 0, fref = 0, best;
        int64_t kworst = 0;
        int found = 0;
        for (int64_t i = 0; i < maxfilt; i++) {
            shifted[i] = np_maximum(cfilt[i] - s->ctol, 0);
            if (s->cweight <= 0) {
                phi[i] = ffilt[i];
            } else if (isinf(s->cweight) && s->cweight > 0) {
                phi[i] = shifted[i];
            } else {
                /* np.maximum, then np.nan_to_num(nan=-REALMAX) */
                double v = np_maximum(ffilt[i], -REALMAX);
                v = isnan(v) ? -REALMAX : clip(v, -REALMAX, REALMAX);
                phi[i] = v + s->cweight * shifted[i];
            }
        }
        phimax = py_max_of(phi, maxfilt);
        for (int64_t i = 0; i < maxfilt; i++)
            if (phi[i] >= phimax && (!found++ || shifted[i] > cref))
                cref = shifted[i];
        if (!found)
            return FAIL_EMPTY;
        found = 0;
        for (int64_t i = 0; i < maxfilt; i++)
            if (shifted[i] >= cref && (!found++ || ffilt[i] > fref))
                fref = ffilt[i];
        if (!found)
            return FAIL_EMPTY;
        /* np.ma.array(cfilt, mask=(ffilt > fref)).argmax(): masked reads -inf */
        best = ffilt[0] > fref ? -INFINITY : cfilt[0];
        for (int64_t i = 1; i < maxfilt && !isnan(best); i++) {
            const double value = ffilt[i] > fref ? -INFINITY : cfilt[i];
            if (isnan(value) || value > best) {
                kworst = i;
                best = value;
            }
        }
        s->keep[kworst] = 0;
    }
    for (int64_t i = 0; i < s->nfilt; i++)
        if (s->keep[i]) {
            if (k != i) {
                memmove(s->xfilt + k * n, s->xfilt + i * n, (size_t)n * sizeof(double));
                ffilt[k] = ffilt[i];
                cfilt[k] = cfilt[i];
            }
            k++;
        }
    memcpy(s->xfilt + k * n, x, (size_t)n * sizeof(double));
    ffilt[k] = f;
    cfilt[k] = cstrv;
    s->nfilt = k + 1;
    return OK;
}

/* The smallest value of x[i] over the i with select(i), NaN if any is NaN
 * (np.min of a boolean selection); FAIL_EMPTY when none is selected. */
#define NP_MIN_WHERE(out, count, cond, value)                                  \
    do {                                                                       \
        int found_ = 0;                                                        \
        for (int64_t i = 0; i < (count); i++)                                  \
            if (cond) {                                                        \
                const double v_ = (value);                                     \
                if (!found_++ || (!isnan(out) && (isnan(v_) || v_ < out)))     \
                    out = v_;                                                  \
            }                                                                  \
        if (!found_)                                                           \
            return FAIL_EMPTY;                                                 \
    } while (0)

/* selectx: the filter entry to return. */
static int selectx(Driver *s, double cweight, int64_t *kopt)
{
    const int64_t nhist = s->nfilt;
    const double *const fh = s->ffilt, *const ch = s->cfilt;
    double *const shifted = s->shifted, *const phi = s->phi_filt;
    double fref = REALMAX, cref = REALMAX, cmin = 0, phimin = 0, best;
    int any = 0;

    for (int64_t i = 0; i < nhist && !any; i++)
        any = fh[i] < FUNCMAX && ch[i] < CONSTRMAX;
    if (any) {
        fref = FUNCMAX, cref = CONSTRMAX;
    } else {
        for (int64_t i = 0; i < nhist && !any; i++)
            any = fh[i] < REALMAX && ch[i] < CONSTRMAX;
        if (any) {
            fref = REALMAX, cref = CONSTRMAX;
        } else {
            for (int64_t i = 0; i < nhist && !any; i++)
                any = fh[i] < FUNCMAX && ch[i] < REALMAX;
            if (any)
                fref = FUNCMAX, cref = REALMAX;
        }
    }
    any = 0;
    for (int64_t i = 0; i < nhist && !any; i++)
        any = fh[i] < fref && ch[i] < cref;
    if (!any) {
        *kopt = nhist - 1;
        return OK;
    }
    for (int64_t i = 0; i < nhist; i++) {
        shifted[i] = np_maximum(ch[i] - s->ctol, 0);
        if (cweight <= 0)
            phi[i] = fh[i];
        else if (isinf(cweight) && cweight > 0)
            phi[i] = shifted[i];
        else
            phi[i] = np_maximum(fh[i], -REALMAX) + cweight * shifted[i];
    }
    NP_MIN_WHERE(cmin, nhist, fh[i] < fref, shifted[i]);
    cref = np_maximum(EPS, 2 * cmin);
    NP_MIN_WHERE(phimin, nhist, fh[i] < fref && shifted[i] <= cref, phi[i]);
    NP_MIN_WHERE(cref, nhist, fh[i] < fref && phi[i] <= phimin, shifted[i]);
    NP_MIN_WHERE(fref, nhist, shifted[i] <= cref, fh[i]);
    /* np.ma.array(chist, mask=(fhist > fref)).argmin(): masked reads +inf */
    *kopt = 0;
    best = fh[0] > fref ? INFINITY : ch[0];
    for (int64_t i = 1; i < nhist && !isnan(best); i++) {
        const double value = fh[i] > fref ? INFINITY : ch[i];
        if (isnan(value) || value < best) {
            *kopt = i;
            best = value;
        }
    }
    return OK;
}

/* ------------------------------------------------------- evaluation */

/* ScalarFunction's last-point cache: the constraints at the caller's
 * point, and f too unless the point equals the last one f was taken at
 * (np.array_equal). */
static int ask(Driver *s)
{
    int same = 1;
    for (int64_t i = 0; i < s->n; i++)
        same = same && s->point[i] == s->last_x[i];
    s->pending = same ? NEED_C : NEED_F | NEED_C;
    return s->pending;
}

/* pyprima's evaluate up to the call.  NaN in x gives f = np.sum(x) and
 * every constraint f, with no call (returns 0).  Otherwise the caller
 * evaluates the moderated x (np.clip to +-REALMAX); ScalarFunction skips
 * f when that point equals its last one. */
static int request(Driver *s)
{
    const int64_t n = s->n;
    for (int64_t i = 0; i < n; i++)
        if (isnan(s->x[i])) {
            s->f = np_sum(s->x, n);
            for (int64_t j = 0; j < s->m; j++)
                s->constr[j] = 1.0 * s->f;
            return 0;
        }
    for (int64_t i = 0; i < n; i++)
        s->point[i] = clip(s->x[i], -REALMAX, REALMAX);
    return ask(s);
}

/* The answer to a request: f (ScalarFunction's, when asked) and the
 * constraints 0.0 - c, moderated (moderatef, moderatec). */
static void receive(Driver *s)
{
    if (s->pending & NEED_F) {
        s->f_sf = *s->f_io;
        memcpy(s->last_x, s->point, (size_t)s->n * sizeof(double));
    }
    s->f = isnan(s->f_sf) ? FUNCMAX : clip(s->f_sf, -REALMAX, FUNCMAX);
    for (int64_t i = 0; i < s->m; i++) {
        const double c = 0.0 - s->c_io[i];
        s->constr[i] = isnan(c) ? CONSTRMAX : clip(c, -CONSTRMAX, CONSTRMAX);
    }
}

/* x = sim[:, n] + d and the index of the simplex point nearest to it
 * (distsq as cobylb computes it). */
static int64_t nearest(Driver *s, const double *d)
{
    const int64_t n = s->n, cols = n + 1;
    const double *sim = s->main.sim;
    double *distsq = s->distsq;
    for (int64_t i = 0; i < n; i++) {
        s->x[i] = sim[i * cols + n] + d[i];
        s->tmp_n[i] = s->x[i] - sim[i * cols + n];
        s->tmp_n[i] = s->tmp_n[i] * s->tmp_n[i];
    }
    distsq[n] = np_sum(s->tmp_n, n);
    for (int64_t j = 0; j < n; j++)
        distsq[j] = 0.0;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++) {
            const double v = s->x[i] - (sim[i * cols + n] + sim[i * cols + j]);
            distsq[j] += v * v;
        }
    return np_argmin(distsq, n + 1);
}

/* Take f, constr and cstrv of simplex point j instead of evaluating x. */
static void take_vertex(Driver *s, int64_t j)
{
    const int64_t cols = s->n + 1;
    s->f = s->main.fval[j];
    for (int64_t i = 0; i < s->m; i++)
        s->constr[i] = s->main.conmat[i * cols + j];
    s->cstrv = s->main.cval[j];
}

/* ------------------------------------------------------- the loop */

static int fail(Driver *s, int status)
{
    s->where = FINISHED;
    s->status = status;
    return status;
}

static int finish(Driver *s, double cweight)
{
    int64_t kopt;
    const int status = selectx(s, cweight, &kopt);
    if (status != OK)
        return fail(s, status);
    memcpy(s->x_out, s->xfilt + kopt * s->n, (size_t)s->n * sizeof(double));
    *s->f_io = s->ffilt[kopt];
    s->where = FINISHED;
    s->status = 0;
    return 0;
}

/* Run the solve up to the next point to evaluate (returns NEED_F and/or
 * NEED_C), to its end (0) or to a failure (< 0).  Each call is a new frame
 * that jumps to the label of the last return: whatever must outlive a
 * return lives in the Driver, and no local is read after a label before
 * it is set again. */
int cobyla_resume(Driver *s)
{
    const int64_t n = s->n, m = s->m, cols = n + 1;
    Simplex *const S = &s->main;
    const double rhobeg = s->rhobeg;
    int code, status, subinfo;

    switch (s->where) {
    case START:
        break;
    case AT_X0_F:
        s->f_sf = *s->f_io;
        goto at_x0_f;
    case AT_X0:
        receive(s);
        goto at_x0;
    case AT_X0_MODERATED:
        receive(s);
        goto at_x0_moderated;
    case AT_INIT:
        receive(s);
        goto at_init;
    case AT_TRUST_REGION:
        receive(s);
        goto at_trust_region;
    case AT_GEOMETRY:
        receive(s);
        goto at_geometry;
    case AT_LAST:
        receive(s);
        goto at_last;
    default:
        return s->status;
    }

    /* ScalarFunction evaluates f at x0 as given. */
    memcpy(s->point, s->x0, (size_t)n * sizeof(double));
    memcpy(s->last_x, s->x0, (size_t)n * sizeof(double));
    s->pending = NEED_F;
    s->where = AT_X0_F;
    return NEED_F;
at_x0_f:
    /* pyprima's minimize: f0, nlconstr0 = calcfc(x0), f through the cache. */
    memcpy(s->point, s->x0, (size_t)n * sizeof(double));
    s->where = AT_X0;
    return ask(s);
at_x0:
    /* cobyla: a finite x0 keeps f0 and constr0, otherwise x = moderatex(x0)
     * is evaluated. */
    memcpy(s->x, s->x0, (size_t)n * sizeof(double));
    for (int64_t i = 0; i < n; i++)
        if (!isfinite(s->x0[i])) {
            for (int64_t j = 0; j < n; j++)
                s->x[j] = isnan(s->x0[j]) ? 0.0 : clip(s->x0[j], -REALMAX, REALMAX);
            if ((code = request(s)) > 0) {
                s->where = AT_X0_MODERATED;
                return code;
            }
            break;
        }
at_x0_moderated:

    /* initxfc */
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < cols; j++)
            S->sim[i * cols + j] = i == j ? 1.0 * rhobeg : 0.0 * rhobeg;
    for (int64_t i = 0; i < n; i++) {
        S->sim[i * cols + n] = s->x[i];
        for (int64_t j = 0; j < n; j++)
            S->simi[i * n + j] = (i == j ? 1.0 : 0.0) / rhobeg;
    }
    for (int64_t j = 0; j < cols; j++) {
        S->fval[j] = REALMAX;
        S->cval[j] = REALMAX;
        s->evaluated[j] = 0;
        for (int64_t i = 0; i < m; i++)
            S->conmat[i * cols + j] = REALMAX;
    }
    s->info = INFO_DEFAULT;
    for (s->k = 0; s->k < cols; s->k++) {
        int64_t j;
        for (int64_t i = 0; i < n; i++)
            s->x[i] = S->sim[i * cols + n];
        if (s->k > 0) {
            s->x[s->k - 1] += rhobeg;
            if ((code = request(s)) > 0) {
                s->where = AT_INIT;
                return code;
            }
        }
    at_init:
        j = s->k == 0 ? n : s->k - 1;
        s->cstrv = np_max0(s->constr, m);
        s->evaluated[j] = 1;
        S->fval[j] = s->f;
        for (int64_t i = 0; i < m; i++)
            S->conmat[i * cols + j] = s->constr[i];
        S->cval[j] = s->cstrv;
        s->nf = s->k;
        subinfo = checkbreak_con(s, s->cstrv, s->f, s->x);
        if (subinfo != INFO_DEFAULT) {
            s->info = subinfo;
            break;
        }
        if (j < n && S->fval[j] < S->fval[n]) {
            swap_doubles(S->fval, j, n);
            swap_doubles(S->cval, j, n);
            swap_columns(S->conmat, m, cols, j, n);
            for (int64_t i = 0; i < n; i++)
                S->sim[i * cols + n] = s->x[i];
            for (int64_t c = 0; c <= j; c++)
                S->sim[j * cols + c] = -rhobeg;
        }
    }
    s->nf = 0;
    for (int64_t j = 0; j < cols; j++)
        s->nf += s->evaluated[j];
    if (s->nf == cols) {
        status = np_inv(s, S->sim, S->simi);
        if (status != OK)
            return fail(s, status);
    }

    /* initfilt */
    s->nfilt = 0;
    for (int64_t i = 0; i < cols; i++)
        if (s->evaluated[i]) {
            for (int64_t r = 0; r < n; r++)
                s->tmp_n[r] = i < n ? S->sim[r * cols + i] + S->sim[r * cols + n]
                                    : S->sim[r * cols + n];
            status = savefilt(s, S->cval[i], S->fval[i], s->tmp_n);
            if (status != OK)
                return fail(s, status);
        }
    if (s->info != INFO_DEFAULT)
        return finish(s, s->cweight);

    s->rho = rhobeg;
    s->delta = rhobeg;
    s->cpen = np_maximum(EPS, np_minimum(1.0e3, fcratio(s, S)));
    s->shortd = 0;
    s->ratio = -1;
    s->jdrop_tr = 0;
    s->has_d = 0;
    s->gamma3 = np_maximum(1, np_minimum(0.75 * s->gamma2, 1.5));
    s->maxtr = 10 * s->maxfun;
    s->info = MAXTR_REACHED;
    for (s->tr = 0; s->tr < s->maxtr; s->tr++) {
        int improve_geo, reduce_rho, bad_trstep;
        status = getcpen(s);
        if (status != OK)
            return fail(s, status);
        status = updatepole(s, S, s->cpen, &subinfo);
        if (status != OK)
            return fail(s, status);
        if (subinfo == DAMAGING_ROUNDING) {
            s->info = subinfo;
            break;
        }
        vertex_distsq(s, S->sim, s->tmp_n);
        s->adequate_geo = 1;
        for (int64_t j = 0; j < n; j++)
            s->adequate_geo = s->adequate_geo && s->tmp_n[j] <= 4 * (s->delta * s->delta);
        models(s, S, s->g, s->A);
        status = step(s, S, s->g, s->A, s->d);
        if (status != OK)
            return fail(s, status);
        s->has_d = 1;
        s->dnorm = py_min(s->delta, np_norm(s->blas, s->d, n));
        s->shortd = s->dnorm <= 0.1 * s->rho;
        {
            const double preref = -np_dot(s->blas, n, s->d, 1, s->g, 1);
            const double prerec = S->cval[n] - linear_violation(s, S, s->A, s->d, 1.0);
            s->prerem = preref + s->cpen * prerec;
        }
        s->trfail = !(s->prerem > 1.0e-6 * py_min(s->cpen, 1) * s->rho);

        if (s->shortd || s->trfail) {
            s->delta *= 0.1;
            if (s->delta <= s->gamma3 * s->rho)
                s->delta = s->rho;
        } else {
            const int64_t j = nearest(s, s->d);
            double actrem;
            if (s->distsq[j] <= (1e-4 * s->rhoend) * (1e-4 * s->rhoend)) {
                take_vertex(s, j);
            } else {
                if ((code = request(s)) > 0) {
                    s->where = AT_TRUST_REGION;
                    return code;
                }
            at_trust_region:
                s->cstrv = np_max0(s->constr, m);
                s->nf += 1;
                status = savefilt(s, s->cstrv, s->f, s->x);
                if (status != OK)
                    return fail(s, status);
            }
            actrem = (S->fval[n] + s->cpen * S->cval[n]) - (s->f + s->cpen * s->cstrv);
            s->ratio = redrat(actrem, s->prerem, s->eta1);
            s->delta = trrad(s, s->delta, s->dnorm, s->ratio);
            if (s->delta <= s->gamma3 * s->rho)
                s->delta = s->rho;
            s->jdrop_tr = setdrop_tr(s, S, actrem > 0, s->d);
            status = updatexfc(s, S, s->jdrop_tr, s->constr, s->cpen, s->cstrv,
                               s->d, s->f, &subinfo);
            if (status != OK)
                return fail(s, status);
            if (subinfo == DAMAGING_ROUNDING) {
                s->info = subinfo;
                break;
            }
            subinfo = checkbreak_con(s, s->cstrv, s->f, s->x);
            if (subinfo != INFO_DEFAULT) {
                s->info = subinfo;
                break;
            }
        }

        bad_trstep = s->shortd || s->trfail || s->ratio <= 0 || s->jdrop_tr < 0;
        improve_geo = bad_trstep && !s->adequate_geo;
        reduce_rho = bad_trstep && s->adequate_geo && py_max(s->delta, s->dnorm) <= s->rho;

        if (improve_geo) {
            int adequate = 1;
            vertex_distsq(s, S->sim, s->tmp_n);
            for (int64_t j = 0; j < n; j++)
                adequate = adequate && s->tmp_n[j] <= 4 * (s->delta * s->delta);
            if (!adequate) {
                const int64_t jdrop_geo = np_argmax(s->tmp_n, n);
                int64_t j;
                geostep(s, S, jdrop_geo, s->delta / 2, s->d);
                j = nearest(s, s->d);
                s->k = jdrop_geo;
                if (s->distsq[j] <= (1e-4 * s->rhoend) * (1e-4 * s->rhoend)) {
                    take_vertex(s, j);
                } else {
                    if ((code = request(s)) > 0) {
                        s->where = AT_GEOMETRY;
                        return code;
                    }
                at_geometry:
                    s->cstrv = np_max0(s->constr, m);
                    s->nf += 1;
                    status = savefilt(s, s->cstrv, s->f, s->x);
                    if (status != OK)
                        return fail(s, status);
                }
                status = updatexfc(s, S, s->k, s->constr, s->cpen, s->cstrv, s->d,
                                   s->f, &subinfo);
                if (status != OK)
                    return fail(s, status);
                if (subinfo == DAMAGING_ROUNDING) {
                    s->info = subinfo;
                    break;
                }
                subinfo = checkbreak_con(s, s->cstrv, s->f, s->x);
                if (subinfo != INFO_DEFAULT) {
                    s->info = subinfo;
                    break;
                }
            }
        } else if (reduce_rho) {
            /* pyprima never sets improve_geo and reduce_rho together, so
             * this is its "if reduce_rho"; the else also keeps a resume at
             * at_geometry, a new call, off this call's unset reduce_rho. */
            if (s->rho <= s->rhoend) {
                s->info = SMALL_TR_RADIUS;
                break;
            }
            s->delta = py_max(0.5 * s->rho, redrho(s->rho, s->rhoend));
            s->rho = redrho(s->rho, s->rhoend);
            s->cpen = np_maximum(EPS, np_minimum(s->cpen, fcratio(s, S)));
            status = updatepole(s, S, s->cpen, &subinfo);
            if (status != OK)
                return fail(s, status);
            if (subinfo == DAMAGING_ROUNDING) {
                s->info = subinfo;
                break;
            }
        }
    }

    /* Try the last trust-region step if it was short and not yet tried. */
    if (!s->has_d)
        return fail(s, FAIL_NO_STEP);
    for (int64_t i = 0; i < n; i++) {
        s->x[i] = S->sim[i * cols + n] + s->d[i];
        s->tmp_n[i] = s->x[i] - S->sim[i * cols + n];
    }
    if (s->info == SMALL_TR_RADIUS && s->shortd
        && np_norm(s->blas, s->tmp_n, n) > 1.0e-3 * s->rhoend && s->nf < s->maxfun) {
        if ((code = request(s)) > 0) {
            s->where = AT_LAST;
            return code;
        }
    at_last:
        s->cstrv = np_max0(s->constr, m);
        s->nf += 1;
        status = savefilt(s, s->cstrv, s->f, s->x);
        if (status != OK)
            return fail(s, status);
    }
    return finish(s, py_max(s->cpen, s->cweight));
}

/* ------------------------------------------------------- allocation */

/* The driver for n variables, m constraints and a filter of maxfilt; NULL
 * when memory runs out.  The caller's buffers are attached by cobyla_new. */
static Driver *driver_alloc(const Blas *blas, int64_t n, int64_t m, int64_t maxfilt)
{
    const int64_t cols = n + 1;
    const int64_t total = 10 * PAD(n) + 3 * PAD(n * m) + 4 * PAD(m)
                          + 9 * PAD(cols) + 3 * PAD(n * cols) + 7 * PAD(n * n)
                          + 2 * PAD(m * cols) + PAD(maxfilt * n) + 5 * PAD(maxfilt);
    Driver *s = calloc(1, sizeof(Driver));
    double *cursor;
    if (s == NULL)
        return NULL;
    s->block = aligned_alloc(64, (size_t)total * sizeof(double));
    if (s->block == NULL) {
        free(s);
        return NULL;
    }
    cursor = s->block;
    s->blas = blas;
    s->n = n, s->m = m, s->maxfilt = maxfilt;
    s->x0 = take(&cursor, n);
    s->last_x = take(&cursor, n);
    s->g = take(&cursor, n);
    s->d = take(&cursor, n);
    s->d_cpen = take(&cursor, n);
    s->x = take(&cursor, n);
    s->tmp_n = take(&cursor, n);
    s->colsum = take(&cursor, n);
    s->simid = take(&cursor, n);
    s->A = take(&cursor, n * m);
    s->C = take(&cursor, n * m);
    s->P = take(&cursor, n * m);
    s->b = take(&cursor, m);
    s->constr = take(&cursor, m);
    s->dA = take(&cursor, m);
    s->tmp_m = take(&cursor, m);
    s->distsq = take(&cursor, cols);
    s->score = take(&cursor, cols);
    s->weight = take(&cursor, cols);
    s->phi = take(&cursor, cols);
    s->main.fval = take(&cursor, cols);
    s->main.cval = take(&cursor, cols);
    s->copy.fval = take(&cursor, cols);
    s->copy.cval = take(&cursor, cols);
    s->main.sim = take(&cursor, n * cols);
    s->copy.sim = take(&cursor, n * cols);
    s->sim_old = take(&cursor, n * cols);
    s->main.simi = take(&cursor, n * n);
    s->copy.simi = take(&cursor, n * n);
    s->simi_old = take(&cursor, n * n);
    s->prod = take(&cursor, n * n);
    s->simi_test = take(&cursor, n * n);
    s->lu = take(&cursor, n * n);
    s->identity = take(&cursor, n * n);
    s->main.conmat = take(&cursor, m * cols);
    s->copy.conmat = take(&cursor, m * cols);
    s->xfilt = take(&cursor, maxfilt * n);
    s->ffilt = take(&cursor, maxfilt);
    s->cfilt = take(&cursor, maxfilt);
    s->shifted = take(&cursor, maxfilt);
    s->phi_filt = take(&cursor, maxfilt);
    s->keep = (int64_t *)take(&cursor, maxfilt);
    s->evaluated = (int64_t *)take(&cursor, cols);
    s->ipiv = (int64_t *)take(&cursor, n);
    return s;
}

void cobyla_free(Driver *s)
{
    if (s != NULL) {
        free(s->block);
        free(s);
    }
}

/* A COBYLA solve from x0, to be run by cobyla_resume.  options holds
 * rhobeg, rhoend, ctol, cweight, eta1, eta2, gamma1, gamma2 and ftarget as
 * pyprima's preproc returns them.  point (n), f (1), c (m) and x (n) are
 * the caller's: the point to evaluate, f and c(x) there, and the result
 * (x, with its f in f). */
Driver *cobyla_new(const Blas *blas, int64_t n, int64_t m, const double *x0,
                   const double *options, int64_t maxfun, int64_t maxfilt,
                   double *point, double *f, double *c, double *x)
{
    Driver *s = driver_alloc(blas, n, m, maxfilt);
    if (s == NULL)
        return NULL;
    memcpy(s->x0, x0, (size_t)n * sizeof(double));
    s->rhobeg = options[0], s->rhoend = options[1], s->ctol = options[2];
    s->cweight = options[3], s->eta1 = options[4], s->eta2 = options[5];
    s->gamma1 = options[6], s->gamma2 = options[7], s->ftarget = options[8];
    s->maxfun = maxfun;
    s->point = point, s->f_io = f, s->c_io = c, s->x_out = x;
    s->where = START;
    return s;
}

/* ------------------------------------------------------- for the checks */

/* findpole, updatepole and updatexfc alone, in place on the caller's
 * arrays, so the load-time check can hold them against pyprima's. */
int64_t cobyla_findpole(int64_t n, double cpen, const double *cval,
                        const double *fval, double *phi)
{
    return findpole(phi, n, cpen, cval, fval);
}

static int with_simplex(const Blas *blas, int64_t n, int64_t m, double *conmat,
                        double *cval, double *fval, double *sim, double *simi,
                        int64_t jdrop, const double *constr, double cpen,
                        double cstrv, const double *d, double f, int *info)
{
    Driver *s = driver_alloc(blas, n, m, 1);
    Simplex S = {sim, simi, fval, cval, conmat};
    int status;
    if (s == NULL)
        return FAIL_MEMORY;
    status = d == NULL ? updatepole(s, &S, cpen, info)
                       : updatexfc(s, &S, jdrop, constr, cpen, cstrv, d, f, info);
    cobyla_free(s);
    return status;
}

int cobyla_updatepole(const Blas *blas, int64_t n, int64_t m, double cpen,
                      double *conmat, double *cval, double *fval, double *sim,
                      double *simi, int *info)
{
    return with_simplex(blas, n, m, conmat, cval, fval, sim, simi, -1, NULL, cpen,
                        0.0, NULL, 0.0, info);
}

int cobyla_updatexfc(const Blas *blas, int64_t n, int64_t m, int64_t jdrop,
                     const double *constr, double cpen, double cstrv,
                     const double *d, double f, double *conmat, double *cval,
                     double *fval, double *sim, double *simi, int *info)
{
    return with_simplex(blas, n, m, conmat, cval, fval, sim, simi, jdrop, constr,
                        cpen, cstrv, d, f, info);
}
