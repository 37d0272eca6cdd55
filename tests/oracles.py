"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than
the code under test: determinants by Laplace expansion over column
subsets, inverses by the cofactor/adjugate formula, the LDL^T factor one
column at a time from the left, the Cholesky and LDL^T inverses by their
row-by-row solves over whole rows, and eigenvalues by cyclic Jacobi
rotations.
They are exponential or cubic with large constants, so callers keep the
orders small (n <= 12 for determinants, n <= 8 in bulk).

The scalar transcriptions of the v2 sweep, of the row-profile
elimination, of v1's stage two and of the Cholesky, LDL^T and
Krishnamoorthy-Menon inversions check operation counts by execution: every multiplication, division and square root goes through
one ``Tally``, one Python float at a time, and no numpy product is used,
so a count is what the arithmetic did rather than a formula for it.
"""

import math

import numpy as np


def determinant(a):
    """Determinant by Laplace expansion with subset memoization."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("square matrix required")
    if n == 0:
        return 1.0
    # dp[mask] = determinant of the submatrix taken from rows
    # 0..popcount(mask)-1 and the column set encoded by mask.
    dp = {0: 1.0}
    for mask in range(1, 1 << n):
        cols = [j for j in range(n) if mask >> j & 1]
        k = len(cols) - 1  # expanding along row k
        total = 0.0
        sign = -1.0 if k % 2 else 1.0
        for pos, j in enumerate(cols):
            total += sign * a[k, j] * dp[mask ^ (1 << j)]
            sign = -sign
        dp[mask] = total
    return dp[(1 << n) - 1]


def _row_deleted(a, r):
    return np.delete(np.asarray(a, dtype=float), r, axis=0)


def inverse_bruteforce(a):
    """Inverse by the cofactor/adjugate formula (exponential; n <= 12)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    det = determinant(a)
    if det == 0.0:
        raise ZeroDivisionError("singular matrix")
    if n == 1:
        return np.array([[1.0 / a[0, 0]]])
    cof = np.empty((n, n))
    for r in range(n):
        rows = _row_deleted(a, r)
        for c in range(n):
            minor = determinant(np.delete(rows, c, axis=1))
            cof[r, c] = (-1.0) ** (r + c) * minor
    return cof.T / det


def ldl_columns(a):
    """Unit-lower l and diagonal d with a = l diag(d) l^T, left-looking by column."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    l = np.eye(n)
    d = np.empty(n)
    for j in range(n):
        d[j] = a[j, j] - (l[j, :j] * l[j, :j]) @ d[:j]
        l[j + 1:, j] = (a[j + 1:, j] - l[j + 1:, :j] @ (l[j, :j] * d[:j])) / d[j]
    return l, d


def cholesky_inverse_rows(l):
    """Lower triangle of (l l^T)^-1 by the row formulas of the two solves.

    Forward solve l b = I one row at a time over the whole leading block
    (row i is -(l[i, :i] @ b[:i, :i]) / l_ii, zeros included), then the
    back solve l^T x = b bottom-up, restricted to the lower triangle.
    """
    l = np.asarray(l, dtype=float)
    n = l.shape[0]
    b = np.zeros((n, n))
    for i in range(n):
        b[i, :i] = -(l[i, :i] @ b[:i, :i]) / l[i, i]
        b[i, i] = 1.0 / l[i, i]
    x = np.zeros((n, n))
    for i in range(n - 1, -1, -1):
        x[i, :i + 1] = (b[i, :i + 1] - l[i + 1:, i] @ x[i + 1:, :i + 1]) / l[i, i]
    return x


def ldl_inverse_rows(l, d):
    """Lower triangle of (l diag(d) l^T)^-1 by the row formulas of the three solves.

    Unit forward solve l x = I one row at a time over the whole leading
    block (row i is -(l[i, :i] @ x[:i, :i]), unit diagonal), diagonal
    solve y = diag(d)^-1 x, then the unit back solve l^T r = y bottom-up,
    restricted to the lower triangle.  Only l's strict lower triangle is
    read.
    """
    l = np.asarray(l, dtype=float)
    d = np.asarray(d, dtype=float)
    n = l.shape[0]
    x = np.eye(n)
    for i in range(n):
        x[i, :i] = -(l[i, :i] @ x[:i, :i])
    y = x / d[:, None]
    r = np.zeros((n, n))
    for i in range(n - 1, -1, -1):
        r[i, :i + 1] = y[i, :i + 1] - l[i + 1:, i] @ r[i + 1:, :i + 1]
    return r


def jacobi_eigenvalues(a, sweeps=60, tol=1e-14):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    m = np.array(a, dtype=float)
    n = m.shape[0]
    if not np.allclose(m, m.T, atol=1e-12 * (1 + np.abs(m).max())):
        raise ValueError("symmetric matrix required")
    for _ in range(sweeps):
        off = math.sqrt(max(0.0, (m * m).sum() - (np.diag(m) ** 2).sum()))
        if off <= tol * (1.0 + np.abs(np.diag(m)).max()):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if m[p, q] == 0.0:
                    continue
                theta = (m[q, q] - m[p, p]) / (2.0 * m[p, q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                m = rot.T @ m @ rot
    return np.sort(np.diag(m))


def spectral_norm(a, sweeps=60):
    """2-norm of any matrix via Jacobi eigenvalues of a^T a."""
    a = np.asarray(a, dtype=float)
    eigs = jacobi_eigenvalues(a.T @ a, sweeps=sweeps)
    return math.sqrt(max(0.0, float(eigs[-1])))


def random_symmetric(rng, n, spread=1.0):
    """Dense symmetric matrix with uniform entries in [-spread, spread]."""
    m = rng.uniform(-spread, spread, size=(n, n))
    return np.tril(m) + np.tril(m, -1).T


class Tally:
    """Counts the multiplications, divisions and square roots made through it."""

    def __init__(self):
        self.muldiv = 0
        self.sqrt = 0

    def mul(self, x, y):
        self.muldiv += 1
        return x * y

    def div(self, x, y):
        self.muldiv += 1
        return x / y

    def root(self, x):
        self.sqrt += 1
        return math.sqrt(x)


class PivotRejected(ArithmeticError):
    """A pivot rejected against 1e-12 * max|a_ij| at elimination step *step*."""

    def __init__(self, step):
        super().__init__(f"pivot rejected at step {step}")
        self.step = step


def _scalar_rows(a):
    rows = [[float(x) for x in row] for row in np.asarray(a, dtype=float)]
    tol = 1e-12 * max(abs(x) for row in rows for x in row)
    return rows, tol


def _identity(n):
    return [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]


def _dot(tally, xs, ys):
    total = 0.0
    for x, y in zip(xs, ys):
        total += tally.mul(x, y)
    return total


def v2_sweep_scalar(a, tally):
    """The single sweep, one scalar at a time; returns the mirrored inverse.

    Step k: the multipliers d_i = f[i, :k] . a[k, :k] + a[k, i] for rows
    i >= k, the pivot test, the reciprocal r of d_k, column k of f
    (f[c, k] = f[k, c] r above, r on, -d_i r below), then the rank-one
    corrections f[i, j] += f[i, k] f[k, j] (old row k) on the leading
    block's lower triangle and on the rows below k, and row k mirrored
    from column k.
    """
    a, tol = _scalar_rows(a)
    n = len(a)
    f = _identity(n)
    for k in range(n):
        old = f[k][:k]
        d = [_dot(tally, f[i][:k], a[k][:k]) + a[k][i] for i in range(k, n)]
        if abs(d[0]) <= tol:
            raise PivotRejected(k)
        r = tally.div(1.0, d[0])
        for c in range(k):
            f[c][k] = tally.mul(old[c], r)
        f[k][k] = r
        for i in range(k + 1, n):
            f[i][k] = tally.mul(d[i - k], -r)
        for i in range(n):
            if i == k:
                continue
            for j in range(min(i + 1, k)):
                f[i][j] += tally.mul(f[i][k], old[j])
        for c in range(k):
            f[k][c] = f[c][k]
    return _mirrored(f)


def eliminate_scalar(a, required, tally, allow_swaps=True):
    """The row-profile elimination, one scalar at a time; returns F.

    *required* holds the 0-based rows to keep; row i takes step k while
    i >= k or i is required.  A pivoted row has nonzeros in the pivoted
    columns only, an unpivoted row also its identity entry, so the
    multiplier of row i at step k is f[i, :k] . a[:k, k], plus a[i, k]
    for an unpivoted row.  A rejected pivot swaps in the row from k on
    with the largest multiplier: the working a's rows k and j and the
    pivoted parts f[k, :k] and f[j, :k] change places, so every row keeps
    its profile; F's columns are swapped back at the end.
    """
    a, tol = _scalar_rows(a)
    n = len(a)
    f = _identity(n)
    swaps = []
    for k in range(n):
        rows = [i for i in range(n) if i >= k or i in required]
        d = {i: _dot(tally, f[i][:k], [a[j][k] for j in range(k)])
             + (a[i][k] if i >= k else 0.0) for i in rows}
        if abs(d[k]) <= tol:
            j = max(range(k, n), key=lambda i: (abs(d[i]), -i))
            if not allow_swaps or abs(d[j]) <= tol:
                raise PivotRejected(k)
            a[k], a[j] = a[j], a[k]
            f[k][:k], f[j][:k] = f[j][:k], f[k][:k]
            d[k], d[j] = d[j], d[k]
            swaps.append((k, j))
        r = tally.div(1.0, d[k])
        f[k][:k] = [tally.mul(x, r) for x in f[k][:k]]
        f[k][k] = r
        for i in rows:
            if i != k:
                for j in range(k + 1):
                    f[i][j] -= tally.mul(d[i], f[k][j])
    for k, j in reversed(swaps):
        for row in f:
            row[k], row[j] = row[j], row[k]
    return np.array(f)


def _mirrored(x):
    """The symmetric matrix whose lower triangle is that of the nested list x."""
    n = len(x)
    return np.array([[x[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)])


def _cholesky_columns(a, tally):
    """The Cholesky factor of ``cholesky_scalar``, column by column, as nested lists."""
    a, tol = _scalar_rows(a)
    n = len(a)
    l = [[0.0] * n for _ in range(n)]
    for j in range(n):
        d = a[j][j] - _dot(tally, l[j][:j], l[j][:j])
        if d <= tol:
            raise PivotRejected(j)
        l[j][j] = tally.root(d)
        for i in range(j + 1, n):
            l[i][j] = tally.div(a[i][j] - _dot(tally, l[i][:j], l[j][:j]), l[j][j])
    return l


def cholesky_scalar(a, tally):
    """The classical Cholesky inversion, one scalar at a time; returns the inverse.

    The factor column by column: l_jj = sqrt(d_j) with
    d_j = a_jj - sum_k l_jk l_jk, rejected when d_j is at most
    1e-12 * max|a_ij|, then l_ij = (a_ij - sum_k l_ik l_jk) / l_jj below
    it.  The forward solve L B = I row by row: b_ic =
    -(sum_{c <= k < i} l_ik b_kc) / l_ii, and b_ii = 1 / l_ii.  The back
    solve L^T X = B bottom-up, on the lower triangle only:
    x_ic = (b_ic - sum_{k > i} l_ki x_kc) / l_ii for c <= i.
    """
    l = _cholesky_columns(a, tally)
    n = len(l)
    b = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for c in range(i):
            b[i][c] = -tally.div(_dot(tally, l[i][c:i], [b[k][c] for k in range(c, i)]), l[i][i])
        b[i][i] = tally.div(1.0, l[i][i])
    x = [[0.0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for c in range(i + 1):
            s = b[i][c] - _dot(tally, [l[k][i] for k in range(i + 1, n)],
                               [x[k][c] for k in range(i + 1, n)])
            x[i][c] = tally.div(s, l[i][i])
    return _mirrored(x)


def ldl_scalar(a, tally):
    """The classical LDL^T inversion, one scalar at a time; returns the inverse.

    The factor column by column without cached subproducts:
    d_j = a_jj - sum_k (l_jk d_k) l_jk, rejected when |d_j| is at most
    1e-12 * max|a_ij|, then l_ij = (a_ij - sum_k l_ik (l_jk d_k)) / d_j
    below it, recomputing each l_jk d_k.  The unit forward solve
    L X = I row by row: x_ic = -(l_ic + sum_{c < k < i} l_ik x_kc),
    never multiplying a unit diagonal.  The diagonal solve
    y_ic = x_ic / d_i on the lower triangle.  The unit back solve
    L^T R = Y bottom-up, on the lower triangle only:
    r_ic = y_ic - sum_{k > i} l_ki r_kc for c <= i.
    """
    a, tol = _scalar_rows(a)
    n = len(a)
    l = [[0.0] * n for _ in range(n)]
    d = [0.0] * n
    for j in range(n):
        d[j] = a[j][j] - sum(tally.mul(tally.mul(l[j][k], d[k]), l[j][k]) for k in range(j))
        if abs(d[j]) <= tol:
            raise PivotRejected(j)
        for i in range(j + 1, n):
            s = a[i][j] - sum(tally.mul(l[i][k], tally.mul(l[j][k], d[k])) for k in range(j))
            l[i][j] = tally.div(s, d[j])
    x = _identity(n)
    for i in range(n):
        for c in range(i):
            x[i][c] = -(l[i][c] + _dot(tally, l[i][c + 1:i], [x[k][c] for k in range(c + 1, i)]))
    y = [[tally.div(x[i][c], d[i]) for c in range(i + 1)] for i in range(n)]
    r = [[0.0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        for c in range(i + 1):
            r[i][c] = y[i][c] - _dot(tally, [l[k][i] for k in range(i + 1, n)],
                                     [r[k][c] for k in range(i + 1, n)])
    return _mirrored(r)


def complete_lower_scalar(f, tally):
    """v1's stage two, one scalar at a time; returns the completed lower triangle.

    Step k = 1..n-1 divides row k of the lower-triangular F by f_kk
    (k divisions, u_c = f_kc / f_kk for c < k) and adds u_i f_kj to
    entry (i, j) of the leading k-block's lower triangle
    (k(k+1)/2 products).
    """
    g = [[float(x) for x in row] for row in np.asarray(f, dtype=float)]
    n = len(g)
    for k in range(1, n):
        u = [tally.div(g[k][c], g[k][k]) for c in range(k)]
        for i in range(k):
            for j in range(i + 1):
                g[i][j] += tally.mul(u[i], g[k][j])
    return np.tril(np.array(g))


def km_scalar(a, tally):
    """The Krishnamoorthy-Menon inversion as its docstring states it; returns the inverse.

    The Cholesky factor as in ``cholesky_scalar``, then R = L^-1 row by
    row with reciprocal diagonals: r_ii = 1 / l_ii and
    r_ic = -(sum_{c <= k < i} l_ik r_kc) r_ii, then the lower triangle
    of R^T R over whole columns: x_ic = sum_{k >= i} r_ki r_kc.  Counted
    by execution, the triangular inverse takes n(n-1)/2 more muldiv than
    the library's model (the scaling of each off-diagonal r_ic by r_ii)
    and the product n(n+1)/2 more (the k = i term r_ii r_ic): n^2 in
    all, so this transcription costs n^3/2 + 3n^2/2, Cholesky's count.
    """
    l = _cholesky_columns(a, tally)
    n = len(l)
    r = [[0.0] * n for _ in range(n)]
    for i in range(n):
        r[i][i] = tally.div(1.0, l[i][i])
        for c in range(i):
            s = _dot(tally, l[i][c:i], [r[k][c] for k in range(c, i)])
            r[i][c] = -tally.mul(s, r[i][i])
    x = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for c in range(i + 1):
            x[i][c] = _dot(tally, [r[k][i] for k in range(i, n)], [r[k][c] for k in range(i, n)])
    return _mirrored(x)
