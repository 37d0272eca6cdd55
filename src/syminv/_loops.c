/* The package's compiled loops, bound through ctypes by _loops.py.
 *
 * Every matrix is a row-major float64 array whose row length is passed
 * beside it; the Python wrappers check dtype, contiguity and bounds
 * before a pointer gets here.  Built with -ffp-contract=off and without
 * -ffast-math, so each a - b * c rounds its product and its difference
 * apart, and each sum runs in index order, as numpy's elementwise
 * operations and the scalar transcriptions in tests/oracles.py do.
 */

#include <math.h>
#include <string.h>

/* The LDL^T column loop on the diagonal block [s, e) of the n x n matrix
 * a: pivot j = a[j][j], the column below it divided by the pivot, and
 * the lower triangle of the block's trailing part less the product of
 * that column with the unscaled one.  Pivots go to d[s:e].  Returns the
 * first j with lo <= pivot j <= tol, the block left as it was before
 * step j, or -1 once every pivot cleared the threshold. */
long syminv_ldl_block(double *a, long n, long s, long e, double *d,
                      double lo, double tol)
{
    double col[e - s];
    for (long j = s; j < e; j++) {
        double dj = a[j * n + j];
        if (lo <= dj && dj <= tol)
            return j;
        d[j] = dj;
        for (long r = j + 1; r < e; r++)
            col[r - s] = a[r * n + j];
        for (long r = j + 1; r < e; r++) {
            double *ar = a + r * n;
            double l = col[r - s] / dj;
            for (long c = j + 1; c <= r; c++)
                ar[c] -= l * col[c - s];
            ar[j] = l;
        }
    }
    return -1;
}

/* Elimination step k on the m sorted rows of f (row length ldf) against
 * column k of a (row length lda); the rows are the required ones below
 * k and every row from k on.  The multiplier of row i is
 * f[i][:k] . a[:k][k], plus a[i][k] for an unpivoted row (i >= k), and
 * goes to d.  A pivot with |pivot| <= tol is rejected: with swaps, the
 * row from k on with the largest multiplier (the first of equals) takes
 * its place if it clears tol, exchanging rows k and j of a and f[k][:k]
 * with f[j][:k].  Then row k is scaled by the pivot's reciprocal r, with
 * f[k][k] = r, and every other row takes its multiplier times row k.
 * Returns the pivot row, or -1, having touched nothing, when no pivot
 * clears tol. */
long syminv_step(double *a, long lda, double *f, long ldf, long k,
                 const long *rows, long m, double *d, double tol, int swaps)
{
    long kp = 0;
    for (long t = 0; t < m; t++) {
        const double *fi = f + rows[t] * ldf;
        double sum = 0.0;
        for (long j = 0; j < k; j++)
            sum += fi[j] * a[j * lda + k];
        if (rows[t] < k)
            kp = t + 1;
        else
            sum += a[rows[t] * lda + k];
        d[t] = sum;
    }
    long jp = kp;
    if (fabs(d[kp]) <= tol) {
        if (!swaps)
            return -1;
        for (long t = kp + 1; t < m; t++)
            if (fabs(d[t]) > fabs(d[jp]))
                jp = t;
        if (fabs(d[jp]) <= tol)
            return -1;
        double *ak = a + k * lda, *aj = a + rows[jp] * lda;
        double *fk = f + k * ldf, *fj = f + rows[jp] * ldf;
        for (long c = 0; c < lda; c++) {
            double x = ak[c]; ak[c] = aj[c]; aj[c] = x;
        }
        for (long c = 0; c < k; c++) {
            double x = fk[c]; fk[c] = fj[c]; fj[c] = x;
        }
        double g = d[kp]; d[kp] = d[jp]; d[jp] = g;
    }
    double *fk = f + k * ldf, r = 1.0 / d[kp];
    for (long c = 0; c < k; c++)
        fk[c] *= r;
    fk[k] = r;
    for (long t = 0; t < m; t++) {
        double *fi = f + rows[t] * ldf;
        if (t != kp)
            for (long c = 0; c <= k; c++)
                fi[c] -= d[t] * fk[c];
    }
    return rows[jp];
}

/* A panel's steps without swaps on its m x m matrices: c, from the
 * identity, against p, every step on the live rows.  Row k stops being
 * live after step k unless keep[k].  rows and d are scratch of length m.
 * Returns the step whose pivot was rejected, or m. */
long syminv_panel(double *p, double *c, long m, const unsigned char *keep,
                  long *rows, double *d, double tol)
{
    long live = m;
    for (long t = 0; t < m; t++)
        rows[t] = t;
    for (long k = 0; k < m; k++) {
        if (syminv_step(p, m, c, m, k, rows, live, d, tol, 0) < 0)
            return k;
        if (!keep[k]) {
            long at = live - (m - k);  /* rows k..m-1 end the live rows */
            memmove(rows + at, rows + at + 1, (live - at - 1) * sizeof *rows);
            live--;
        }
    }
    return m;
}
