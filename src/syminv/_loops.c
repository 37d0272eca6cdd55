/* The package's compiled loops and its CSV parser, bound through ctypes
 * by _loops.py.
 *
 * Every matrix is a row-major float64 array whose row length is passed
 * beside it, and every row mask one byte per row; the Python wrappers
 * check dtype, contiguity and bounds before a pointer gets here.  Built
 * with -ffp-contract=off and without -ffast-math, so each a - b * c
 * rounds its product and its difference apart, and each sum runs in
 * index order, as numpy's elementwise operations and the scalar
 * transcriptions in tests/oracles.py do.
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

/* Elimination step k on the live rows of the n-row f (row length ldf)
 * against column k of a (row length lda): row i is live when i >= k or
 * keep[i], that is the required rows above k and every row from k on.
 * The multiplier of row i is f[i][:k] . a[:k][k], plus a[i][k] for an
 * unpivoted row (i >= k), and goes to d[i].  A pivot with
 * |pivot| <= tol is rejected: with swaps, the row j from k on with the
 * largest multiplier (the first of equals) takes its place if it clears
 * tol, exchanging f[k][:k] with f[j][:k].  a is only read; a caller that
 * goes on exchanges its rows k and j.  Then row k is scaled by the
 * pivot's reciprocal r, with f[k][k] = r, and every other live row takes
 * its multiplier times row k.  Returns the pivot row, or -1, having
 * touched nothing, when no pivot clears tol. */
long syminv_step(const double *a, long lda, double *f, long ldf, long n, long k,
                 const unsigned char *keep, double *d, double tol, int swaps)
{
    for (long i = 0; i < n; i++) {
        if (i < k && !keep[i])
            continue;
        const double *fi = f + i * ldf;
        double sum = 0.0;
        for (long j = 0; j < k; j++)
            sum += fi[j] * a[j * lda + k];
        if (i >= k)
            sum += a[i * lda + k];
        d[i] = sum;
    }
    long jp = k;
    if (fabs(d[k]) <= tol) {
        if (!swaps)
            return -1;
        for (long i = k + 1; i < n; i++)
            if (fabs(d[i]) > fabs(d[jp]))
                jp = i;
        if (fabs(d[jp]) <= tol)
            return -1;
        double *fk = f + k * ldf, *fj = f + jp * ldf;
        for (long c = 0; c < k; c++) {
            double x = fk[c]; fk[c] = fj[c]; fj[c] = x;
        }
        double g = d[k]; d[k] = d[jp]; d[jp] = g;
    }
    double *fk = f + k * ldf, r = 1.0 / d[k];
    for (long c = 0; c < k; c++)
        fk[c] *= r;
    fk[k] = r;
    for (long i = 0; i < n; i++) {
        double *fi = f + i * ldf;
        if (i != k && (i > k || keep[i]))
            for (long c = 0; c <= k; c++)
                fi[c] -= d[i] * fk[c];
    }
    return jp;
}

/* A panel's steps without swaps on its m x m matrices: c, from the
 * identity, against p.  Row k stops taking steps after its own unless
 * keep[k].  Returns the step whose pivot was rejected, or m. */
long syminv_panel(const double *p, double *c, long m, const unsigned char *keep,
                  double tol)
{
    double d[m];
    for (long k = 0; k < m; k++)
        if (syminv_step(p, m, c, m, m, k, keep, d, tol, 0) < 0)
            return k;
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
