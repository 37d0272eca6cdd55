"""Baseline symmetric inversion methods: Cholesky, LDL, and Krishnamoorthy-Menon.

All three factor the input and then solve triangular systems against the
identity, computing only the lower triangle of the inverse and mirroring
it.  The operation tallies follow each method's classical cost model:

- Cholesky inversion (factor, forward solve L B = I, symmetric back
  solve L^T X = B): n^3/2 + 3n^2/2 muldiv and n square roots.
- LDL inversion (factor without caching the scaled subproducts, unit
  forward solve, diagonal solve, unit back solve): 2n^3/3 + n^2/2 - n/6
  muldiv and no square roots.
- Krishnamoorthy-Menon (Cholesky factor, in-place triangular inverse
  with reciprocal diagonals, product of the inverse factor with itself):
  n^3/2 + n^2/2 muldiv and n square roots.

Tallies are incremented per algorithmic model, not per vectorized numpy
instruction: a triangular matrix-vector product is tallied without the
structural zeros above the diagonal even though the vectorized kernel
multiplies them, and the Krishnamoorthy-Menon row scalings are absorbed
into its classical total.  Counts are integer-exact for every order n.

The LDL^T factor and the solve phases of the LDL and Krishnamoorthy-
Menon inversions are evaluated by 64-column blocks, each a matrix
product (the kernels below are shared with ``symmetric``); their counts
are still the per-row models above, each phase added as one sum.  The
Cholesky factor and the Cholesky inversion's solves run row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefinite, ZeroPivot
from .matcore import _BLOCK, OpCounter, _checked_symmetric, mirror_lower
from .modgauss import default_pivot_tol


@dataclass(frozen=True)
class CholFactor:
    """Lower-triangular factor with positive diagonal: L @ L.T == input."""

    l: np.ndarray


@dataclass(frozen=True)
class LdlFactor:
    """Unit lower-triangular factor and diagonal: L @ diag(d) @ L.T == input."""

    l: np.ndarray
    d: np.ndarray


def cholesky_factor(a, counter=None) -> CholFactor:
    """Factor a symmetric positive definite matrix as L L^T.

    Column j costs j multiplications for the diagonal, one square root,
    and (n-1-j)(j+1) multiplications and divisions below it.  Raises
    NotPositiveDefinite when the quantity under the square root is not
    safely positive.
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    cnt = counter if counter is not None else OpCounter()
    tol = default_pivot_tol(a)
    l = np.zeros((n, n))
    for j in range(n):
        under = float(a[j, j]) - float(l[j, :j] @ l[j, :j])
        cnt.add_muldiv(j)
        if under <= tol * tol:
            raise NotPositiveDefinite(j)
        ljj = math.sqrt(under)
        cnt.add_sqrt(1)
        l[j, j] = ljj
        l[j + 1:, j] = (a[j + 1:, j] - l[j + 1:, :j] @ l[j, :j]) / ljj
        cnt.add_muldiv((n - 1 - j) * (j + 1))
    return CholFactor(l=l)


def invert_cholesky(a, counter=None) -> np.ndarray:
    """Invert a symmetric positive definite matrix via its Cholesky factor.

    Costs n^3/2 + 3n^2/2 multiplications and divisions plus n square
    roots: factor, then row-wise forward solve of L B = I (row i costs
    (i+1)(i+2)/2), then bottom-up back solve of L^T X = B restricted to
    the lower triangle (row i costs (i+1)(n-i)).
    """
    cnt = counter if counter is not None else OpCounter()
    l = cholesky_factor(a, cnt).l
    n = l.shape[0]
    b = np.zeros((n, n))
    for i in range(n):
        b[i, :i] = -(l[i, :i] @ b[:i, :i]) / l[i, i]
        b[i, i] = 1.0 / l[i, i]
        cnt.add_muldiv((i + 1) * (i + 2) // 2)
    x = np.zeros((n, n))
    for i in range(n - 1, -1, -1):
        x[i, :i + 1] = (b[i, :i + 1] - l[i + 1:, i] @ x[i + 1:, :i + 1]) / l[i, i]
        cnt.add_muldiv((i + 1) * (n - i))
    return mirror_lower(x)


def _unit_lower_inverse(l):
    """Inverse of the unit lower-triangular matrix with l's strict lower triangle.

    Only the strict lower triangle of *l* is read.  Row loop on each
    64x64 diagonal block, one product per block for the rows to its left.
    """
    n = l.shape[0]
    m = np.zeros((n, n))
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        blk = np.eye(e - s)
        for i in range(1, e - s):
            blk[i, :i] = -(l[s + i, s:s + i] @ blk[:i, :i])
        m[s:e, s:e] = blk
        if s:
            m[s:e, :s] = -blk @ (l[s:e, :s] @ m[:s, :s])
    return m


def _lower_gram(x, y):
    """Lower triangle of x^T y for lower-triangular x and y, upper part zero.

    One product per 64-column block [c, e) of x: rows c..e-1 of the
    result, up to column e-1, are x[c:, c:e]^T y[c:, :e], since the rows
    of x[:, c:e] above c are zero.
    """
    n = x.shape[0]
    out = np.zeros((n, n))
    for c in range(0, n, _BLOCK):
        e = min(c + _BLOCK, n)
        out[c:e, :e] = x[c:, c:e].T @ y[c:, :e]
        out[c:e, c:e] = np.tril(out[c:e, c:e])
    return out


def _ldl_nopiv_blocked(a):
    """Unit-lower/diagonal factorization, no pivoting, no square roots.

    Right-looking by 64-column panels; overwrites *a*, the caller's
    private checked copy.  The column loop runs on the panel's diagonal
    block only.  The rows below it are W = A21 M11^T (M11 the block's
    unit-lower inverse) and L21 = W / d, and the trailing matrix takes
    L21 W^T in its lower part only, one 64-column block at a time.
    Raises ZeroPivot(j) when pivot j, the ratio of the leading (j+1)-
    and j-minors, is within ``default_pivot_tol(a)`` of zero.  Returns
    (strictly lower factor, diagonal vector).
    """
    n = a.shape[0]
    tol = default_pivot_tol(a)
    d = np.empty(n)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        for j in range(s, e):
            dj = float(a[j, j])
            if abs(dj) <= tol:
                raise ZeroPivot(j)
            d[j] = dj
            w = a[j + 1:e, j].copy()
            a[j + 1:e, j] /= dj
            a[j + 1:e, j + 1:e] -= np.outer(a[j + 1:e, j], w)
        if e < n:
            w21 = a[e:, s:e] @ _unit_lower_inverse(a[s:e, s:e]).T
            l21 = w21 / d[s:e]
            a[e:, s:e] = l21
            for c in range(0, n - e, _BLOCK):
                a[e + c:, e + c:e + c + _BLOCK] -= l21[c:] @ w21[c:c + _BLOCK].T
    return np.tril(a, -1), d


def ldl_factor(a, counter=None) -> LdlFactor:
    """Factor a symmetric matrix as L D L^T with unit lower-triangular L.

    The tally follows the column-wise model without cached subproducts:
    column j costs 2j multiplications for the diagonal and (n-1-j)(2j+1)
    multiplications and divisions below it.  Works for indefinite
    matrices; raises ZeroPivot when a diagonal entry of D is numerically
    zero (a zero leading principal minor).
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    cnt = counter if counter is not None else OpCounter()
    l, d = _ldl_nopiv_blocked(a)
    l[np.diag_indices(n)] = 1.0
    cnt.add_muldiv(sum(2 * j + (n - 1 - j) * (2 * j + 1) for j in range(n)))
    return LdlFactor(l=l, d=d)


def invert_ldl(a, counter=None) -> np.ndarray:
    """Invert a symmetric matrix via L D L^T, square-root-free.

    Costs 2n^3/3 + n^2/2 - n/6 multiplications and divisions: factor,
    unit forward solve of L X = I (row i costs i(i-1)/2; unit diagonals
    are never multiplied), diagonal solve (row i costs i+1 divisions),
    and unit back solve of L^T R = D^-1 X (row i costs (n-1-i)(i+1)).
    The forward solve is X = L^-1; the back solve runs by 64-row blocks
    from the bottom, each a product with the block's diagonal block of
    L^-1.
    """
    cnt = counter if counter is not None else OpCounter()
    fac = ldl_factor(a, cnt)
    l = fac.l
    n = l.shape[0]
    x = _unit_lower_inverse(l)
    cnt.add_muldiv(sum(i * (i - 1) // 2 for i in range(n)))
    y = x / fac.d[:, None]
    cnt.add_muldiv(n * (n + 1) // 2)
    r = np.zeros((n, n))
    for s in reversed(range(0, n, _BLOCK)):
        e = min(s + _BLOCK, n)
        r[s:e, :e] = x[s:e, s:e].T @ (y[s:e, :e] - l[e:, s:e].T @ r[e:, :e])
    cnt.add_muldiv(sum((n - 1 - i) * (i + 1) for i in range(n)))
    return mirror_lower(r)


def invert_km(a, counter=None) -> np.ndarray:
    """Invert a symmetric positive definite matrix the Krishnamoorthy-Menon way.

    Cholesky factor, triangular inverse R = L^-1 with reciprocal
    diagonals (row i costs one reciprocal plus i(i+1)/2 dot
    multiplications), then the lower triangle of R^T R (row i costs
    (i+1)(n-1-i)).  Total: n^3/2 + n^2/2 muldiv and n square roots.
    R is evaluated as diag(1/l_ii) times the unit-lower inverse of L with
    its columns divided by their diagonal entries.
    """
    cnt = counter if counter is not None else OpCounter()
    l = cholesky_factor(a, cnt).l
    n = l.shape[0]
    lii = np.diag(l)
    r = _unit_lower_inverse(l / lii) / lii[:, None]
    cnt.add_muldiv(sum(1 + i * (i + 1) // 2 for i in range(n)))
    cnt.add_muldiv(sum((i + 1) * (n - 1 - i) for i in range(n)))
    return mirror_lower(_lower_gram(r, r))
