"""Matrix inversion and partial solves by a modified Gaussian elimination.

Instead of reducing A, the elimination evolves an auxiliary matrix F
(starting from the identity) so that after step k every still-active row
i of F satisfies F[i] @ A[:, j] == delta_ij for the pivoted columns
j <= k.  After all n steps F is A^-1.  Rows whose solution component the
caller never asked for are frozen right after their own pivot step,
which is where the savings of the partial solve come from.

``eliminate`` runs the steps in panels of 64 pivot columns [s, e).  Let
F_s be the state before a panel.  Every active row's multipliers for
the panel are D = F_s[rows] @ A[:, s:e], one matrix product.  The steps
themselves run on the panel's own rows only, one at a time, and 64
wide: those rows stay combinations C F_s[s:e] of their values before
the panel, and their multipliers are C P with P = F_s[s:e] @ A[:, s:e],
so the steps run on C (from the identity) against P, with the same
row profile, and the panel rows become C F_s[s:e] in one product.
Every other active row then takes all of the panel's steps at once:
F[i] -= D[i] @ P^-1 F_s[s:e].  This holds because P^-1 F_s[s:e] is the
only combination of the panel rows that satisfies their row identities
for columns s..e-1, so it is what the panel rows become.  No solve
forms it: by Lemma 1 (``symmetric.lemma1_check``) C is P^-1 once every
panel row has taken every step, so P^-1 F_s[s:e] is the panel rows
C F_s[s:e] themselves.  A panel row frozen inside the panel keeps its
value from right after its own step; the other rows then take
P^-1 F_s[s:e] from P^-1, formed once.  Either way it takes one
refinement step against P (C comes from steps without pivoting, and
P^-1 is rounded too) before the other rows inherit its error.
A pivot at or below the tolerance ends the panel: the other rows first
take the steps already done, then the step searches all active rows
for a swap.  A run of at most 64 steps is one panel with no other rows
and P = A, so it is the stepwise arithmetic exactly; ``eliminate_step``
always runs one step on every active row.

A swap at step k with row j exchanges rows k and j of a working copy
of A and the pivoted parts F[k, :k] and F[j, :k], and logs (k, j).
Every row keeps its profile, and the row identities now hold against
the row-swapped A, so F ends as the inverse of Q A, Q the product of
the logged swaps.  ``eliminate`` applies the log to F's columns once at
the end: the required rows of F Q are rows of A^-1.  ``eliminate_step``
maps every state the same way, so a state's F is always in the
caller's coordinates.

Cost model: only scalar multiplications and divisions are tallied
(additions and subtractions are free).  Tallies follow the row-profile
structure of F — a pivoted row carries nonzeros in the pivoted columns
only, an unpivoted row additionally carries its untouched identity entry
— so a full inversion costs exactly n^3 and a trailing-p partial solve
costs n^3/3 + n^2/2 + n/6 + p^2 n − p n − p^3/3 + p^2/2 − p/6 for the
elimination, with or without pivot swaps, since a swap keeps every
row's profile.  Step k on m rows costs ``_step_cost(m, k)``, and step k
updates the required rows above k and every row from k on.  The
stepwise ``eliminate_step`` measures the count, adding each step once
it is done.  ``eliminate`` models it: each panel adds the per-step
model of the steps it ran in one sum once its arithmetic is done, and
a swap step adds its own.  The two counts are equal, and a run that
raises has counted exactly the steps and panels it completed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, SingularMatrix, ZeroPivot
from .matcore import (
    _BLOCK,
    RequiredSet,
    _finite_inverse,
    _real,
    _tally,
    _validated,
    as_matrix,
    as_vector,
    frobenius_norm,
)


def default_pivot_tol(a) -> float:
    """Near-zero pivot threshold, relative to the largest entry magnitude.

    The one threshold every method judges its pivots against: a pivot j
    with |pivot j| <= 1e-12 * max|a_ij| is rejected, and Cholesky, whose
    pivot is the quantity under its square root, also rejects every
    negative one.  It has no absolute part, so scaling a by a power of
    two scales every pivot and the threshold alike and leaves each
    decision unchanged; a zero matrix rejects its first pivot.
    max|a_ij| is taken as |max(max a, -min a)|, two reductions with no
    n^2 temporary; the outer abs turns the -0.0 that max(-0.0, 0.0)
    returns into 0.0.
    """
    a = _real(a)
    return 1e-12 * abs(max(float(a.max()), -float(a.min())))


def _coerce_required(required, n: int) -> RequiredSet:
    if required is None:
        req = RequiredSet.full(n)
    elif isinstance(required, RequiredSet):
        req = required
    else:
        req = RequiredSet(required)
    req.mask(n)  # raises IndexOutOfRange if any index exceeds n
    return req


def _active_rows(mask, k) -> np.ndarray:
    """Rows updated at step k: the required rows above k and every row from k on."""
    act = mask.copy()
    act[k:] = True
    return np.flatnonzero(act)


def _step_cost(m, k) -> int:
    """Muldiv of elimination step k on m rows.

    The m k products of the multipliers, the reciprocal, the k products
    scaling the pivot row and the (m - 1)(k + 1) of the rank-one update
    of the other rows: m (2k + 1) in all.
    """
    return m * (2 * k + 1)


def _run_step(a, f, k, rows, pivot_tol, allow_swaps, swaps) -> None:
    """Apply elimination step k to f in place; the caller counts it.

    rows holds the sorted indices of the rows to update: the active rows,
    or in the panel driver the live rows of the panel's C against P;
    either way every row from k to rows[-1].  A swap with row j
    exchanges rows k and j of the working copy a and the pivoted parts
    f[k, :k] and f[j, :k], so every row keeps its profile, and logs
    (k, j) in swaps.  A rejected pivot raises before a or f is touched.
    """
    acol = a[:, k]
    m = int(rows.size)
    lo = int(rows[0])
    block = int(rows[-1]) - lo + 1 == m  # the rows form one contiguous block
    if block:
        idx = slice(lo, lo + m)
        kpos = k - lo
    else:
        idx = rows
        kpos = int(np.searchsorted(rows, k))

    window = f[idx]
    d = window[:, :k] @ acol[:k]
    # Unpivoted rows still hold their identity entry at (i, i), which
    # contributes 1 * A[i, k]: an uncounted addition, not a multiply.
    d[kpos:] += acol[k:k + m - kpos]

    g = float(d[kpos])
    if abs(g) <= pivot_tol:
        if not allow_swaps:
            raise ZeroPivot(k)
        # The rejected pivot wins only when no candidate clears the threshold.
        jrel = kpos + int(np.argmax(np.abs(d[kpos:])))
        if abs(float(d[jrel])) <= pivot_tol:
            raise SingularMatrix(
                f"no usable pivot at elimination step {k}: matrix is singular"
            )
        j = int(rows[jrel])
        a[[k, j]] = a[[j, k]]
        f[[k, j], :k] = f[[j, k], :k]
        d[kpos], d[jrel] = float(d[jrel]), g
        swaps.append((k, j))
        g = float(d[kpos])

    r = 1.0 / g
    f[k, :k] *= r
    f[k, k] = r  # the identity entry becomes the reciprocal: no multiply

    # One rank-one update of all the rows, row k included, which then
    # gets its scaled values back.
    pivot_row = f[k, :k + 1].copy()
    f[idx, :k + 1] -= d[:, None] * pivot_row
    f[k, :k + 1] = pivot_row


def _run_panel(a, f, s, mask, pivot_tol, counter, allow_swaps, swaps) -> int:
    """Apply the steps of the panel starting at step s to f in place.

    Returns the step the next panel starts at: the panel's end, or the
    step after a pivot swap, which ends the panel early.  Counts the
    panel's steps once they are done, then the swap step.
    """
    n = a.shape[0]
    e = min(s + _BLOCK, n)
    above = np.flatnonzero(mask[:s])  # active rows already pivoted
    up = slice(0, s) if above.size == s else above  # a view when all are active
    # Multipliers of the panel's steps with respect to the state F_s before
    # it: D = F_s[rows] @ A[:, s:e], by the row profile of F_s, plus the
    # identity entries of the unpivoted rows.
    d_up = f[up, :s] @ a[:s, s:e]
    d_low = f[s:, :s] @ a[:s, s:e] + a[s:, s:e]
    f_s = f[s:e, :e].copy()

    # The panel rows stay combinations C F_s[s:e] of their rows before it,
    # with multipliers C P, P = D[s:e]: the steps run 64 wide on C and P.
    c = np.eye(e - s)
    rows = np.arange(e - s)  # the live rows
    stop = e
    for k in range(s, e):
        try:
            _run_step(d_low[:e - s], c, k - s, rows, pivot_tol, False, swaps)
        except ZeroPivot:
            if not allow_swaps:
                raise ZeroPivot(k) from None
            stop = k
            break
        if not mask[k]:  # row k freezes
            rows = rows[rows != k - s]
    f[s:e, :e] = c @ f_s

    # Every other active row takes the panel's steps s..stop-1 at once,
    # by W = P[:j, :j]^-1 F_s[s:stop].  When no panel row froze, the
    # rows s..stop-1 just formed are W (Lemma 1: C[:j, :j] inverts
    # P[:j, :j], and C[:j, j:] is zero); otherwise W is formed from
    # P[:j, :j]^-1 and a frozen row keeps its own value.  C comes from
    # steps without pivoting and P^-1 is rounded, so W takes one
    # refinement step against P before every other row inherits its
    # error.
    outside = above.size + n - e
    j = stop - s
    if j and outside:
        p = d_low[:j, :j]
        if mask[s:stop].all():
            pinv = c[:j, :j]
            w = f[s:stop, :stop]
        else:
            pinv = np.linalg.inv(p)
            w = pinv @ f_s[:j, :stop]
        w += pinv @ (f_s[:j, :stop] - p @ w)
        f[up, :stop] -= d_up[:, :j] @ w
        f[e:, :stop] -= d_low[e - s:, :j] @ w
    # Step k's rows: the required rows above k, then every row from k on.
    ahead = above.size + np.cumsum(mask[s:stop]) - mask[s:stop]
    _tally(counter, sum(_step_cost(int(r) + n - k, k)
                        for k, r in zip(range(s, stop), ahead)))
    if stop == e:
        return e
    rows = _active_rows(mask, stop)
    _run_step(a, f, stop, rows, pivot_tol, True, swaps)
    _tally(counter, _step_cost(rows.size, stop))
    return stop + 1


def _to_caller(f, swaps) -> None:
    """Map f's columns from the row-swapped working A back to the caller's A."""
    for k, j in reversed(swaps):
        f[:, [k, j]] = f[:, [j, k]]


def eliminate(a, required=None, counter=None, allow_swaps=True) -> np.ndarray:
    """Run the elimination to completion and return the final F.

    With every index required (the default) the result is A^-1.  With a
    partial required set only the required rows of the result are rows of
    A^-1; the other rows were frozen early to save operations, and
    ``symmetric.complete_lower`` reads them all.  Raises InvalidArgument
    when any row is not finite: every pivot cleared the threshold, but
    the inverse overflows float64.
    """
    a = _validated(a)
    if allow_swaps:
        a = a.copy()  # the working copy whose rows the swaps exchange
    n = a.shape[0]
    mask = _coerce_required(required, n).mask(n)
    tol = default_pivot_tol(a)
    f = np.eye(n)
    swaps: list[tuple[int, int]] = []
    s = 0
    while s < n:
        s = _run_panel(a, f, s, mask, tol, counter, allow_swaps, swaps)
    _finite_inverse(f)
    _to_caller(f, swaps)
    return f


def invert(a, counter=None, allow_swaps=True) -> np.ndarray:
    """Invert a square matrix; costs exactly n^3 muldiv when no swap occurs."""
    return eliminate(a, None, counter, allow_swaps)


def solve(a, b, required, counter=None, allow_swaps=True) -> dict[int, float]:
    """Solve A x = b for the required solution components only.

    Returns {index: value} keyed by the 1-based required indices.  On top
    of the elimination cost, each returned component pays one length-n
    dot product (n multiplications).
    """
    a = _validated(a)  # eliminate makes the one copy it needs
    n = a.shape[0]
    bv = as_vector(b, n)
    req = _coerce_required(required, n)
    f = eliminate(a, req, counter, allow_swaps)
    out = {i: float(f[i - 1] @ bv) for i in req}
    _tally(counter, n * len(out))
    return out


@dataclass(frozen=True)
class EliminationState:
    """Snapshot of an elimination in progress.

    f evolves from the identity toward A^-1, in the caller's
    coordinates; step counts completed steps; perm records the swaps as
    (step, swapped_row) pairs.  States are immutable: eliminate_step
    returns a new snapshot and leaves a as given.
    """

    a: np.ndarray
    f: np.ndarray
    step: int
    required: RequiredSet
    perm: tuple

    @classmethod
    def start(cls, a, required=None) -> "EliminationState":
        a = as_matrix(a)
        n = a.shape[0]
        req = _coerce_required(required, n)
        return cls(a=a, f=np.eye(n), step=0, required=req, perm=())

    def active_rows(self) -> np.ndarray:
        """Indices of rows still being updated at the current step."""
        return _active_rows(self.required.mask(self.a.shape[0]), self.step)


def eliminate_step(state: EliminationState, counter=None, allow_swaps=True) -> EliminationState:
    """Apply one elimination step, returning a new state (input unchanged)."""
    n = state.a.shape[0]
    if state.step >= n:
        raise InvalidArgument(f"elimination already complete after {state.step} steps")
    a = state.a.copy()
    f = state.f.copy()
    swaps = list(state.perm)
    for k, j in swaps:  # into the working coordinates of the run so far
        a[[k, j]] = a[[j, k]]
        f[:, [k, j]] = f[:, [j, k]]
    rows = state.active_rows()
    _run_step(a, f, state.step, rows, default_pivot_tol(state.a), allow_swaps, swaps)
    _tally(counter, _step_cost(rows.size, state.step))
    _to_caller(f, swaps)
    return dataclasses.replace(state, f=f, step=state.step + 1, perm=tuple(swaps))


def row_identities_check(a, f_final, required=None) -> bool:
    """Check F[i] @ A[:, j] == delta_ij for every required row i, all j.

    Each identity must hold within 1e-10 * (1 + frobenius_norm(a)).
    """
    a = _validated(a)
    f = _validated(f_final)
    if f.shape != a.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {f.shape}")
    n = a.shape[0]
    mask = _coerce_required(required, n).mask(n)
    dev = f[mask] @ a - np.eye(n)[mask]
    return bool(np.abs(dev).max() <= 1e-10 * (1.0 + frobenius_norm(a)))
