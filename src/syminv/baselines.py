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


def cholesky_factor(a, counter=None, pivot_tol=None) -> CholFactor:
    """Factor a symmetric positive definite matrix as L L^T.

    Column j costs j multiplications for the diagonal, one square root,
    and (n-1-j)(j+1) multiplications and divisions below it.  Raises
    NotPositiveDefinite when the quantity under the square root is not
    safely positive.
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    cnt = counter if counter is not None else OpCounter()
    tol = default_pivot_tol(a) if pivot_tol is None else float(pivot_tol)
    tol2 = tol * tol
    l = np.zeros((n, n))
    for j in range(n):
        under = float(a[j, j]) - float(l[j, :j] @ l[j, :j])
        cnt.add_muldiv(j)
        if under <= tol2:
            raise NotPositiveDefinite(j)
        ljj = math.sqrt(under)
        cnt.add_sqrt(1)
        l[j, j] = ljj
        l[j + 1:, j] = (a[j + 1:, j] - l[j + 1:, :j] @ l[j, :j]) / ljj
        cnt.add_muldiv((n - 1 - j) * (j + 1))
    return CholFactor(l=l)


def invert_cholesky(a, counter=None, pivot_tol=None) -> np.ndarray:
    """Invert a symmetric positive definite matrix via its Cholesky factor.

    Costs n^3/2 + 3n^2/2 multiplications and divisions plus n square
    roots: factor, then row-wise forward solve of L B = I (row i costs
    (i+1)(i+2)/2), then bottom-up back solve of L^T X = B restricted to
    the lower triangle (row i costs (i+1)(n-i)).
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    cnt = counter if counter is not None else OpCounter()
    l = cholesky_factor(a, cnt, pivot_tol).l
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


def _ldl_nopiv_blocked(a, tol):
    """Unit-lower/diagonal factorization, no pivoting, no square roots.

    Right-looking with blocked trailing updates; does not modify *a*.
    Raises ZeroPivot(j) when pivot j, the ratio of the leading (j+1)- and
    j-minors, is within *tol* of zero.  Returns (strictly lower factor,
    diagonal vector).
    """
    n = a.shape[0]
    work = a.copy()
    d = np.empty(n)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        for j in range(s, e):
            dj = float(work[j, j])
            if abs(dj) <= tol:
                raise ZeroPivot(j)
            d[j] = dj
            w = work[j + 1:e, j].copy()
            work[j + 1:, j] /= dj
            if j + 1 < e:
                work[j + 1:, j + 1:e] -= np.outer(work[j + 1:, j], w)
        if e < n:
            panel = work[e:, s:e]
            work[e:, e:] -= (panel * d[s:e]) @ panel.T
    return np.tril(work, -1), d


def ldl_factor(a, counter=None, pivot_tol=None) -> LdlFactor:
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
    tol = default_pivot_tol(a) if pivot_tol is None else float(pivot_tol)
    l, d = _ldl_nopiv_blocked(a, tol)
    l[np.diag_indices(n)] = 1.0
    cnt.add_muldiv(sum(2 * j + (n - 1 - j) * (2 * j + 1) for j in range(n)))
    return LdlFactor(l=l, d=d)


def invert_ldl(a, counter=None, pivot_tol=None) -> np.ndarray:
    """Invert a symmetric matrix via L D L^T, square-root-free.

    Costs 2n^3/3 + n^2/2 - n/6 multiplications and divisions: factor,
    unit forward solve of L X = I (row i costs i(i-1)/2; unit diagonals
    are never multiplied), diagonal solve (row i costs i+1 divisions),
    and unit back solve of L^T R = D^-1 X (row i costs (n-1-i)(i+1)).
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    cnt = counter if counter is not None else OpCounter()
    fac = ldl_factor(a, cnt, pivot_tol)
    l, d = fac.l, fac.d
    x = np.eye(n)
    for i in range(1, n):
        x[i, :i] = -(l[i, :i] @ x[:i, :i])
        cnt.add_muldiv(i * (i - 1) // 2)
    for i in range(n):
        x[i, :i + 1] /= d[i]
        cnt.add_muldiv(i + 1)
    r = np.zeros((n, n))
    for i in range(n - 1, -1, -1):
        r[i, :i + 1] = x[i, :i + 1] - l[i + 1:, i] @ r[i + 1:, :i + 1]
        cnt.add_muldiv((n - 1 - i) * (i + 1))
    return mirror_lower(r)


def invert_km(a, counter=None, pivot_tol=None) -> np.ndarray:
    """Invert a symmetric positive definite matrix the Krishnamoorthy-Menon way.

    Cholesky factor, triangular inverse R = L^-1 with reciprocal
    diagonals (row i costs one reciprocal plus i(i+1)/2 dot
    multiplications), then the lower triangle of R^T R (row i costs
    (i+1)(n-1-i)).  Total: n^3/2 + n^2/2 muldiv and n square roots.
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    cnt = counter if counter is not None else OpCounter()
    l = cholesky_factor(a, cnt, pivot_tol).l
    r = np.zeros((n, n))
    for i in range(n):
        rii = 1.0 / l[i, i]
        cnt.add_muldiv(1)
        r[i, i] = rii
        if i:
            r[i, :i] = -rii * (l[i, :i] @ r[:i, :i])
            cnt.add_muldiv(i * (i + 1) // 2)
    inv = np.zeros((n, n))
    for i in range(n):
        inv[i, :i + 1] = r[i:, i] @ r[i:, :i + 1]
        cnt.add_muldiv((i + 1) * (n - 1 - i))
    return mirror_lower(inv)
