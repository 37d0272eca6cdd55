"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with a different algorithm than
the code under test: determinants by Laplace expansion over column
subsets, inverses by the cofactor/adjugate formula, matrix products by
the literal triple loop, the LDL^T factor one column at a time from the
left, and eigenvalues by cyclic Jacobi rotations.
They are exponential or cubic with large constants, so callers keep the
orders small (n <= 12 for determinants, n <= 8 in bulk).
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


def matmul_triple(a, b):
    """Matrix product by the literal triple loop."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, m = a.shape
    m2, p = b.shape
    if m != m2:
        raise ValueError("inner dimensions differ")
    out = np.zeros((n, p))
    for i in range(n):
        for j in range(p):
            s = 0.0
            for k in range(m):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


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
