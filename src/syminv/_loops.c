/* The package's compiled loops and its CSV parser, bound through ctypes
 * by _loops.py.
 *
 * Every matrix is a row-major float64 array whose row length is passed
 * beside it; the Python wrappers check dtype, contiguity and bounds
 * before a pointer gets here.  Built with -ffp-contract=off and without
 * -ffast-math, so each a - b * c rounds its product and its difference
 * apart, and each sum runs in index order, as numpy's elementwise
 * operations and the scalar transcriptions in tests/oracles.py do.
 */

#include <float.h>
#include <math.h>
#include <stdlib.h>
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

/* Overwrite the m x m block x (row length ld) with the inverse M of the
 * unit lower-triangular matrix whose strict lower part it holds: row i
 * of M is -L[i][:i] . M[:i][:i], each entry summed in index order, with
 * a one on the diagonal and zeros to its right.  Row i needs only its
 * own factor entries and the rows of M above it, so it is summed in
 * scratch and then written over those entries. */
void syminv_unit_lower_inverse(double *x, long ld, long m)
{
    double row[m];
    for (long i = 0; i < m; i++) {
        double *xi = x + i * ld;
        for (long t = 0; t < i; t++) {
            const double *mt = x + t * ld, l = xi[t];
            for (long j = 0; j < t; j++)
                row[j] += l * mt[j];
            row[t] = l;  /* the first term of entry t: l times M[t][t] = 1 */
        }
        for (long j = 0; j < i; j++)
            xi[j] = -row[j];
        xi[i] = 1.0;
        for (long j = i + 1; j < m; j++)
            xi[j] = 0.0;
    }
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

/* Powers of ten that a 64-bit mantissa holds exactly: 5^27 < 2^64. */
static const long double p10[] = {
    1e0L, 1e1L, 1e2L, 1e3L, 1e4L, 1e5L, 1e6L, 1e7L, 1e8L, 1e9L, 1e10L,
    1e11L, 1e12L, 1e13L, 1e14L, 1e15L, 1e16L, 1e17L, 1e18L, 1e19L, 1e20L,
    1e21L, 1e22L, 1e23L, 1e24L, 1e25L, 1e26L, 1e27L};
#define P10_MAX ((long)(sizeof p10 / sizeof *p10) - 1)

static int is_digit(const char *p, const char *end)
{
    return p < end && (unsigned char)(*p - '0') < 10;
}

/* The float64 nearest the JSON number that starts at s, before end, to
 * *v.  Returns the byte after the number, or NULL, leaving *v unset, if
 * none starts there or its value overflows.  A value of at most 19
 * significant digits w with a decimal exponent q, |q| <= P10_MAX, is
 * w * 10^q in long double, one correctly rounded operation (Clinger
 * 1990), then rounded to double.  That second rounding is exact unless
 * the first landed on a midpoint m of two doubles, the case where
 * m + (m - d) is the double beyond m; it goes to strtod with every
 * other value.  strtod must take the number whole, so a locale whose
 * decimal point is not '.' refuses instead of misreading. */
static const char *parse_number(const char *s, const char *end, double *v)
{
    const char *p = s;
    int neg = p < end && *p == '-';
    unsigned long long w = 0;  /* wraps past 19 digits, which then go to strtod */
    long digits = 0, q = 0;
    p += neg;
    if (!is_digit(p, end))
        return NULL;
    if (*p == '0')
        p++;
    else
        for (; is_digit(p, end); p++, digits++)
            w = 10 * w + (unsigned)(*p - '0');
    if (p < end && *p == '.') {
        if (!is_digit(++p, end))
            return NULL;
        const char *f = p;
        if (!digits)  /* zeros ahead of the first digit are not significant */
            while (p < end && *p == '0')
                p++;
        const char *g = p;
        for (; is_digit(p, end); p++)
            w = 10 * w + (unsigned)(*p - '0');
        digits += p - g;
        q -= p - f;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        int eneg = ++p < end && *p == '-';
        long e = 0;
        p += p < end && (*p == '-' || *p == '+');
        if (!is_digit(p, end))
            return NULL;
        for (; is_digit(p, end); p++)
            if (e < 100000)  /* far past any float64 exponent, and no overflow */
                e = 10 * e + (*p - '0');
        q += eneg ? -e : e;
    }
    if (LDBL_MANT_DIG >= 64 && digits <= 19 && -P10_MAX <= q && q <= P10_MAX) {
        long double r = q < 0 ? (long double)w / p10[-q] : (long double)w * p10[q];
        double d = (double)r;
        long double beyond = r + (r - d);
        if (r == d || beyond != (double)beyond) {
            *v = neg ? -d : d;
            return p;
        }
    }
    char cell[128], *stop;
    if (p - s >= (long)sizeof cell)
        return NULL;
    memcpy(cell, s, (size_t)(p - s));
    cell[p - s] = '\0';
    *v = strtod(cell, &stop);
    return stop == cell + (p - s) && isfinite(*v) ? p : NULL;
}

/* The LF-terminated rows of text[0, len) (the last row's LF may be
 * missing), each of width comma-separated JSON numbers with spaces or
 * tabs around them, to out, at most cap values.  Empty lines are
 * skipped.  Returns the number of values written, or -1 for a row of
 * another width, any other text, a value strtod overflows, or a value
 * past cap. */
long syminv_parse_csv(const char *text, long len, double *out, long cap, long width)
{
    const char *p = text, *end = text + len;
    long filled = 0;
    while (p < end) {
        if (*p == '\n') {
            p++;
            continue;
        }
        for (long cells = 1;; cells++) {
            while (p < end && (*p == ' ' || *p == '\t'))
                p++;
            if (filled == cap || !(p = parse_number(p, end, out + filled)))
                return -1;
            filled++;
            while (p < end && (*p == ' ' || *p == '\t'))
                p++;
            if (p == end || *p == '\n') {
                if (cells != width)
                    return -1;
                break;
            }
            if (*p++ != ',' || cells == width)
                return -1;
        }
        p += p < end;  /* the row's LF */
    }
    return filled;
}
