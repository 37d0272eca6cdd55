"""Square-root-free inversion of symmetric matrices.

Both variants exploit symmetry so that only the lower triangle of the
inverse is ever computed; the upper triangle is mirrored at the end.
Neither variant evaluates a square root.

Write A = L D L^T with unit lower-triangular L and M = L^-1.  Row i of
D^-1 M is the last row of the inverse of the leading (i+1)-block of A,
and A^-1 = M^T D^-1 M is the sum of the rank-one corrections the paper's
sweeps accumulate.

Variant 1 works in two stages.  Stage one runs the modified Gaussian
elimination of ``modgauss`` with only the last solution component
required, freezing each row right after its pivot step; this yields
F = D^-1 M, exactly lower triangular.  The elimination runs in
64-column panels: the rows below a panel take its steps as one matrix
product, and each panel adds the per-step model of its steps in one
sum (``modgauss.eliminate_step`` measures it).  Stage two adds the
rank-one corrections outer(row_k / f_kk, row_k), k = 1..n-1, to the
leading blocks, i.e. forms the lower triangle of F^T diag(F)^-1 F.  Cost:
n^3/3 + n^2/2 + n/6 plus n^3/6 + n^2/2 - 2n/3, i.e. n^3/2 + n^2 - n/2
multiplications and divisions.

Variant 2 fuses the two stages into a single sweep: at step k the pivot
row is normalized, the rows below are updated through the column of
coefficients written into column k, and the same rank-one correction is
accumulated into the leading k-block immediately.  Cost: n^3/2 + n^2/2.
``invert_v2`` evaluates the sweep's result through its factors (the
LDL^T kernel shared with ``baselines.ldl_factor``, the unit-lower
inverse, and the recombination M^T D^-1 M) and tallies the sweep's cost
model; ``invert_v2_reference`` runs the sweep step by step and adds the
same per-step model as each step completes.

Neither variant swaps rows (a swap would break the symmetric structure
the rank-one corrections rely on), so a numerically zero leading minor
raises ZeroPivot; ``invert_symmetric_robust`` falls back to the
swapping elimination in that case.
"""

from __future__ import annotations

import numpy as np

from . import modgauss
from .baselines import _gram_inverse, _ldl_nopiv_blocked, _lower_gram, _unit_lower_inverse
from .errors import InvalidArgument, ZeroPivot
from .matcore import (
    RequiredSet,
    SymmetryCheck,
    _checked_symmetric,
    _finite_inverse,
    _fp_context,
    _mirror,
    _tally,
    _validated,
    as_integer,
    frobenius_norm,
)


@_fp_context
def lower_stage(a, counter=None) -> np.ndarray:
    """Stage one of variant 1: elimination with only the last row required.

    Returns an exactly lower-triangular F whose row i is the last row of
    the inverse of the leading (i+1) x (i+1) block of a.  Costs
    n^3/3 + n^2/2 + n/6 multiplications and divisions, modelled by the
    elimination's panel driver.
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    return modgauss.eliminate(a, RequiredSet.trailing(n, 1), counter, allow_swaps=False)


@_fp_context
def complete_lower(f, counter=None) -> np.ndarray:
    """Stage two of variant 1: rank-one completion of the stage-one rows.

    Adds outer(row_k / f_kk, row_k) to the leading k-block for
    k = 1..n-1.  Since f_kk / f_kk is exactly one, the completed entries
    are the lower triangle of F^T diag(F)^-1 F, which
    ``baselines._lower_gram`` forms over a copy of F's lower triangle,
    the only part of *f* read.  Mutates nothing; returns an exactly
    lower-triangular matrix whose lower triangle is that of the full
    inverse.  Tallies the per-step model
    (k divisions and k(k+1)/2 products at step k), n^3/6 + n^2/2 - 2n/3,
    once that product is formed.
    """
    f = _validated(f)
    n = f.shape[0]
    lower = _lower_gram(np.tril(f), np.diag(f))
    _tally(counter, sum(k + k * (k + 1) // 2 for k in range(1, n)))
    return lower


@_fp_context
def invert_v1_parts(a, counter=None):
    """Variant 1 with its intermediates: (stage-one F, completed F, inverse).

    The completed F is exactly lower triangular; the inverse equals
    F + (F - diag(F))^T.
    """
    stage1 = lower_stage(a, counter)
    final = complete_lower(stage1, counter)
    return stage1, final, _mirror(_finite_inverse(final).copy())


@_fp_context
def invert_v1(a, counter=None) -> np.ndarray:
    """Two-stage square-root-free symmetric inversion.

    Costs n^3/2 + n^2 - n/2 multiplications and divisions, no square
    roots.  Raises ZeroPivot when a leading principal minor is
    numerically zero (no row swaps are attempted).  Stage one's F is
    freed once stage two returns, and the inverse is the completed F,
    mirrored in place.
    """
    return _mirror(_finite_inverse(complete_lower(lower_stage(a, counter), counter)))


def _sweep_step_cost(n, k) -> int:
    """Muldiv of step k of the order-n sweep.

    The (n - k) k multiplier products, the reciprocal, the k + (n - k - 1)
    scalings of column k, and the rank-one updates: (n - k - 1) k for the
    rows below k and k (k + 1) / 2 for the leading block's lower triangle.
    """
    return n + (2 * (n - k) - 1) * k + k * (k + 1) // 2


@_fp_context
def invert_v2(a, counter=None) -> np.ndarray:
    """Single-sweep square-root-free symmetric inversion.

    Evaluates the sweep's result through its factors: A = L D L^T, then
    M = L^-1 (the sweep's normalized pivot rows are the rows of D^-1 M),
    then the lower triangle of M^T D^-1 M (the sum of the sweep's
    rank-one completions), mirrored.  Same pivots and failure step as
    the sweep, same inverse up to rounding.  Raises ZeroPivot when a
    leading principal minor is numerically zero.

    The tally is the sweep's cost model, n^3/2 + n^2/2 multiplications
    and divisions and no square roots, added as one sum of its per-step
    terms by the shared finish ``baselines._gram_inverse`` once the
    recombination is formed; invert_v2_reference adds the same terms
    step by step.  The factor, M and the inverse are formed in turn in
    one array, the checked copy of *a*.
    """
    a = _checked_symmetric(a)
    n = a.shape[0]
    l_strict, d, blocks = _ldl_nopiv_blocked(a)
    m = _unit_lower_inverse(l_strict, blocks)
    return _gram_inverse(m, d, counter, sum(_sweep_step_cost(n, k) for k in range(n)))


@_fp_context
def invert_v2_reference(a, counter=None) -> np.ndarray:
    """Step-by-step single sweep.

    Runs the sweep one pivot at a time, writing the normalized pivot
    values into column k first and mirroring them into row k at the end
    of the step, and tallies each step once it completes, so a rejected
    pivot leaves none of its step's multipliers on the counter.  Kept as
    the cross-check of invert_v2: it agrees with invert_v2 up to
    rounding.  Its tally per step is ``_sweep_step_cost(n, k)``, the
    per-step model whose sum invert_v2 adds, so its count tells which
    steps completed but is not independent of that model; the execution
    count of the scalar sweep in the tests' oracles is.
    """
    a = _checked_symmetric(a)
    tol = modgauss.default_pivot_tol(a)
    n = a.shape[0]
    f = np.eye(n)
    for k in range(n):
        old = f[k, :k].copy()
        d = f[k:, :k] @ a[k, :k] + a[k, k:]
        g = float(d[0])
        if abs(g) <= tol:
            raise ZeroPivot(k)
        r = 1.0 / g
        f[:k, k] = old * r
        f[k, k] = r
        f[k + 1:, k] = d[1:] * (-r)
        # The rank-one corrections: column c of the leading k-block's
        # lower triangle and of the rows below k takes column k times
        # old[c] (the block's upper part, never read again, takes +0.0).
        f[:k, :k] += np.tril(np.outer(f[:k, k], old))
        f[k + 1:, :k] += np.outer(f[k + 1:, k], old)
        f[k, :k] = f[:k, k]
        _tally(counter, _sweep_step_cost(n, k))
    return _mirror(_finite_inverse(f))


def _steps_around(a, m):
    """Validated a and the elimination states before and after step m (no swaps)."""
    a = _validated(a)
    n = a.shape[0]
    m = as_integer(m, "step index")
    if not 0 <= m < n:
        raise InvalidArgument(f"step index {m} out of range [0, {n - 1}]")
    state = modgauss.EliminationState.start(a)
    for _ in range(m):
        state = modgauss.eliminate_step(state, allow_swaps=False)
    return a, state, modgauss.eliminate_step(state, allow_swaps=False)


@_fp_context
def lemma1_check(a, m) -> bool:
    """Leading-block inverse property of the elimination.

    Runs m+1 full-required steps (no swaps) and checks that the leading
    (m+1)-block of F inverts the leading (m+1)-block of a within
    1e-9 * (1 + frobenius_norm(block of a)); for symmetric input the
    F block must itself be symmetric within the same tolerance.
    """
    a, _, after = _steps_around(a, m)
    size = after.step
    block = after.f[:size, :size]
    sub = a[:size, :size]
    tol = 1e-9 * (1.0 + frobenius_norm(sub))
    if frobenius_norm(block @ sub - np.eye(size)) > tol:
        return False
    if SymmetryCheck().passes(a) and frobenius_norm(block - block.T) > tol:
        return False
    return True


@_fp_context
def lemma2_check(a, m) -> bool:
    """Rank-one structure of one elimination step.

    Checks that F^{m+1} minus (F^m with row m zeroed) equals
    outer(column m of F^{m+1}, row m of F^m), entrywise within
    1e-10 * (1 + |expected entry|).
    """
    _, state, after = _steps_around(a, m)
    m = state.step
    zeroed = state.f.copy()
    zeroed[m, :] = 0.0
    delta = after.f - zeroed
    expected = np.outer(after.f[:, m], state.f[m, :])
    dev = np.abs(delta - expected)
    return bool((dev <= 1e-10 * (1.0 + np.abs(expected))).all())


@_fp_context
def invert_symmetric_robust(a, counter=None) -> np.ndarray:
    """Symmetric inversion that survives zero leading minors.

    Tries the single-sweep variant first; if a leading minor is
    numerically zero, falls back to the row-swapping elimination (n^3,
    since its swaps keep the row profile) and symmetrizes its result R
    as H + H^T with H = R / 2, which costs n^2 extra multiplications:
    n^3 + n^2 in all.  Halving first keeps every entry of a finite R
    finite, where (R + R^T) / 2 could overflow; it is exact for normal
    entries, so the two agree bitwise there, and is counted once done.
    Both steps run in place in R's array, by blocks.
    invert_v2 counts nothing before it can raise ZeroPivot, so the
    counter holds only the operations of the path that produced the
    result.  The fallback runs only after invert_v2 has checked the
    input's symmetry.
    """
    try:
        return invert_v2(a, counter)
    except ZeroPivot:
        pass
    h = modgauss.invert(a, counter)
    h *= 0.5
    n = h.shape[0]
    _tally(counter, n * n)
    # H + H^T in place by 128-column blocks: each diagonal block whole,
    # each block left of it plus the transpose of its mirror, copied up.
    for c in range(0, n, 128):
        e = min(c + 128, n)
        h[c:e, c:e] += h[c:e, c:e].T
        h[c:e, :c] += h[:c, c:e].T
        h[:c, c:e] = h[c:e, :c].T
    return h
