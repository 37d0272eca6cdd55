"""Baseline symmetric inversion methods: Cholesky, LDL, and Krishnamoorthy-Menon.

All three factor the input, form a lower-triangular inverse factor, and
recombine it into the lower triangle of the inverse, which is mirrored.
The operation tallies follow each method's classical cost model:

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
into its classical total (a plain scalar transcription of that
description executes n^2 more: n(n-1)/2 row scalings in the triangular
inverse and n(n+1)/2 diagonal terms in the product).  Counts are
integer-exact for every order n.  Each phase adds its model through
``matcore._tally`` once its arithmetic is done, so a method that
raises, on a rejected pivot or a floating-point error, has counted only
the phases it completed: a rejected pivot in the factor leaves the
counter untouched.

Every method here, like v2 in ``symmetric``, ends in one shared finish,
``_gram_inverse``: ``_lower_gram``, the lower triangle of M^T D^-1 M by
64-column blocks, then the tally of the phase that formed it, one check
that the inverse did not overflow, and the mirroring.  The methods
differ only in their factor, their triangular inverse and their cost
model.  The LDL^T factor and the unit-lower inverse of the LDL and
Krishnamoorthy-Menon inversions run by 64-column blocks, each a matrix
product; the Cholesky factor runs on the same LDL^T kernel, with
Cholesky's pivot test, and scales its columns by sqrt(d).  The back
solves of LDL and Cholesky are evaluated as that recombination
product; their counts are still the per-row models above, each phase
added as one sum.  The one row-by-row solve left is Cholesky's forward
solve: it keeps the Cholesky inversion a classical baseline for v2 to
be timed against (see ``invert_cholesky``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite, ZeroPivot
from .matcore import _BLOCK, _checked_symmetric, _finite_inverse, _mirror, _tally
from .modgauss import default_pivot_tol


@dataclass(frozen=True)
class CholFactor:
    """Lower-triangular factor with positive diagonal: L @ L.T == input.

    Also keeps what the LDL^T kernel formed on the way, for invert_km:
    the strict lower part of the unit factor L~ = L diag(L)^-1 and the
    inverses of its leading 64x64 diagonal blocks.
    """

    l: np.ndarray
    _unit: np.ndarray | None = field(default=None, repr=False, compare=False)
    _blocks: tuple = field(default=(), repr=False, compare=False)


@dataclass(frozen=True)
class LdlFactor:
    """Unit lower-triangular factor and diagonal: L @ diag(d) @ L.T == input.

    Also keeps the inverses of L's leading 64x64 diagonal blocks, which
    the kernel formed, for invert_ldl.
    """

    l: np.ndarray
    d: np.ndarray
    _blocks: tuple = field(default=(), repr=False, compare=False)


def cholesky_factor(a, counter=None) -> CholFactor:
    """Factor a symmetric positive definite matrix as L L^T.

    Column j costs j multiplications for the diagonal, one square root,
    and (n-1-j)(j+1) multiplications and divisions below it.  Evaluated
    on the LDL^T kernel, whose pivot d_j is the quantity under the
    square root: L = L~ diag(sqrt(d)), n square roots.  Raises
    NotPositiveDefinite(j), having counted nothing, at the first
    d_j <= ``default_pivot_tol(a)``, the threshold every method judges
    its pivots against.
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    unit, d, blocks = _ldl_nopiv_blocked(a, cholesky=True)
    root = np.sqrt(d)
    l = unit * root
    l[np.diag_indices(n)] = root
    _tally(counter, sum(j + (n - 1 - j) * (j + 1) for j in range(n)), n)
    return CholFactor(l=l, _unit=unit, _blocks=tuple(blocks))


def invert_cholesky(a, counter=None) -> np.ndarray:
    """Invert a symmetric positive definite matrix via its Cholesky factor.

    Costs n^3/2 + 3n^2/2 multiplications and divisions plus n square
    roots: factor, then row-wise forward solve of L B = I (row i costs
    (i+1)(i+2)/2), then the back solve of L^T X = B restricted to the
    lower triangle (row i costs (i+1)(n-i)).  The back solve is
    evaluated as X = B^T B by the shared finish ``_gram_inverse``; its
    tally is still the per-row model, added as one sum.  The forward
    solve is the package's one solve left row by row: it is the
    classical part of this baseline, which v2 is timed against, and
    moving it onto the blocked unit-lower inverse as well would leave v2
    too thin a measured margin over it.  Row i reads, for each 128-column block
    c < i of B, only the rows c..i-1 of that block, since B is lower
    triangular and the rows above c are zero there.
    """
    l = cholesky_factor(a, counter).l
    n = l.shape[0]
    b = np.zeros((n, n))
    for i in range(n):
        bi = b[i]
        for c in range(0, i, 128):
            e = min(c + 128, i)
            bi[c:e] = l[i, c:i] @ b[c:i, c:e]
        bi[:i] /= -l[i, i]
        bi[i] = 1.0 / l[i, i]
        _tally(counter, (i + 1) * (i + 2) // 2)
    return _gram_inverse(b, None, counter, sum((i + 1) * (n - i) for i in range(n)))


def _unit_lower_inverse(l, blocks=()):
    """Inverse of the unit lower-triangular matrix with l's strict lower triangle.

    Only the strict lower triangle of *l* is read.  Row loop on each
    64x64 diagonal block, one product per block for the rows to its
    left, where the inverse so far is zero above its diagonal blocks.
    *blocks* holds the inverses of leading diagonal blocks that the
    LDL^T kernel already formed; they are the row loop's result.
    """
    n = l.shape[0]
    m = np.zeros((n, n))
    for b, s in enumerate(range(0, n, _BLOCK)):
        e = min(s + _BLOCK, n)
        if b < len(blocks):
            blk = blocks[b]
        else:
            blk = np.eye(e - s)
            for i in range(1, e - s):
                blk[i, :i] = -(l[s + i, s:s + i] @ blk[:i, :i])
        m[s:e, s:e] = blk
        if s:
            t = np.empty((e - s, s))
            for c in range(0, s, _BLOCK):
                t[:, c:c + _BLOCK] = l[s:e, c:s] @ m[c:s, c:c + _BLOCK]
            m[s:e, :s] = -blk @ t
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


def _gram_inverse(x, d, counter, muldiv):
    """The inverse whose lower triangle is x^T D^-1 x: the methods' shared finish.

    Forms that lower triangle by ``_lower_gram``, with D = diag(d), or
    the identity when *d* is None, then tallies the phase that produced
    it as *muldiv*, checks that it did not overflow, and mirrors it.
    D^-1 x is formed here, so it is freed before the mirror allocates.
    """
    f = _lower_gram(x, x if d is None else x / d[:, None])
    _tally(counter, muldiv)
    return _mirror(_finite_inverse(f))


def _ldl_nopiv_blocked(a, cholesky=False):
    """Unit-lower/diagonal factorization, no pivoting, no square roots.

    Right-looking by 64-column panels; overwrites *a*, the caller's
    private checked copy.  The column loop runs on the panel's diagonal
    block only.  The rows below it are W = A21 M11^T (M11 the block's
    unit-lower inverse) and L21 = W / d, and the trailing matrix takes
    L21 W^T in its lower part only, one 64-column block at a time.
    Pivot j, the ratio of the leading (j+1)- and j-minors, is judged
    against the one threshold tol = ``default_pivot_tol(a)``: it raises
    ZeroPivot(j) when |pivot j| <= tol, or with *cholesky*
    NotPositiveDefinite(j) when pivot j <= tol, negatives included.
    Returns (strictly lower factor, diagonal vector, the M11 of every
    panel but the last); the factor is *a* itself, its diagonal and
    upper part zeroed panel by panel.
    """
    n = a.shape[0]
    tol = default_pivot_tol(a)
    lo, reject = (-np.inf, NotPositiveDefinite) if cholesky else (-tol, ZeroPivot)
    d = np.empty(n)
    blocks = []
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        for j in range(s, e):
            dj = float(a[j, j])
            if lo <= dj <= tol:
                raise reject(j)
            d[j] = dj
            col = a[j + 1:e, j]
            lj = col / dj
            a[j + 1:e, j + 1:e] -= lj[:, None] * col
            col[:] = lj
        if e < n:
            blocks.append(_unit_lower_inverse(a[s:e, s:e]))
            w21 = a[e:, s:e] @ blocks[-1].T
            l21 = w21 / d[s:e]
            a[e:, s:e] = l21
            for c in range(0, n - e, _BLOCK):
                a[e + c:, e + c:e + c + _BLOCK] -= l21[c:] @ w21[c:c + _BLOCK].T
        # The panel's rows are final: clear their diagonal and upper part.
        a[s:e, e:] = 0.0
        a[s:e, s:e] = np.tril(a[s:e, s:e], -1)
    return a, d, blocks


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
    l, d, blocks = _ldl_nopiv_blocked(a)
    l[np.diag_indices(n)] = 1.0
    _tally(counter, sum(2 * j + (n - 1 - j) * (2 * j + 1) for j in range(n)))
    return LdlFactor(l=l, d=d, _blocks=tuple(blocks))


def invert_ldl(a, counter=None) -> np.ndarray:
    """Invert a symmetric matrix via L D L^T, square-root-free.

    Costs 2n^3/3 + n^2/2 - n/6 multiplications and divisions: factor,
    unit forward solve of L X = I (row i costs i(i-1)/2; unit diagonals
    are never multiplied), diagonal solve (row i costs i+1 divisions),
    and unit back solve of L^T R = D^-1 X (row i costs (n-1-i)(i+1)).
    The forward solve is X = L^-1 by ``_unit_lower_inverse``, reusing
    the diagonal-block inverses the factor's kernel formed, and the
    diagonal and back solves are R = X^T (D^-1 X) by ``_gram_inverse``;
    the forward solve is tallied once X is formed and the other two
    together once R is, each by its per-row model, added as one sum.
    This is v2's evaluation step for step, so the output is bitwise
    ``invert_v2``'s; the two differ only in their cost models.
    """
    fac = ldl_factor(a, counter)
    n = fac.l.shape[0]
    x = _unit_lower_inverse(fac.l, fac._blocks)
    _tally(counter, sum(i * (i - 1) // 2 for i in range(n)))
    return _gram_inverse(x, fac.d, counter, n * (n + 1) // 2
                         + sum((n - 1 - i) * (i + 1) for i in range(n)))


def invert_km(a, counter=None) -> np.ndarray:
    """Invert a symmetric positive definite matrix the Krishnamoorthy-Menon way.

    Cholesky factor, triangular inverse R = L^-1 with reciprocal
    diagonals (row i costs one reciprocal plus i(i+1)/2 dot
    multiplications), then the lower triangle of R^T R (row i costs
    (i+1)(n-1-i)).  Total: n^3/2 + n^2/2 muldiv and n square roots.
    R is evaluated as diag(1/l_ii) times the inverse of the unit factor
    L diag(L)^-1, which the factor keeps from its kernel together with
    the kernel's diagonal-block inverses.
    """
    fac = cholesky_factor(a, counter)
    n = fac.l.shape[0]
    r = _unit_lower_inverse(fac._unit, fac._blocks) / np.diag(fac.l)[:, None]
    _tally(counter, sum(1 + i * (i + 1) // 2 for i in range(n)))
    return _gram_inverse(r, None, counter, sum((i + 1) * (n - 1 - i) for i in range(n)))
