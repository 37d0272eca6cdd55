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
themselves run on the panel's own rows only, one at a time.  Every
other active row then takes all of the panel's steps at once:
F[i] -= D[i] @ P^-1 F_s[s:e], where P = F_s[s:e] @ A[:, s:e].  This
holds because P^-1 F_s[s:e] is the only combination of the panel rows
that satisfies their row identities for columns s..e-1, so it is what
the panel rows become.  A panel row frozen inside the panel keeps its
value from right after its own step.  A pivot at or below the
tolerance ends the panel: the other rows first take the steps already
done, then the step searches all active rows for a swap.  A run of at
most 64 steps is one panel with no other rows, so it is the stepwise
arithmetic exactly; ``eliminate_step`` always runs one step on every
active row.

Cost model: only scalar multiplications and divisions are tallied
(additions and subtractions are free).  Tallies follow the row-profile
structure of F — a pivoted row carries nonzeros in the pivoted columns
only, an unpivoted row additionally carries its untouched identity entry
— so a full inversion costs exactly n^3 and a trailing-p partial solve
costs n^3/3 + n^2/2 + n/6 + p^2 n − p n − p^3/3 + p^2/2 − p/6 for the
elimination, provided no pivot swap occurs.  After a swap the profile
structure is gone; the remaining steps run (and are tallied) at full row
width, so swap-bearing runs are excluded from count validation.  The
panel rows' steps are tallied as they run; the other rows' share of
each step is the per-step model, added once per panel.  The stepwise
``eliminate_step`` measures the whole count, and it equals the panel
driver's exactly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, SingularMatrix, ZeroPivot
from .matcore import _BLOCK, OpCounter, RequiredSet, as_matrix, as_vector, frobenius_norm


def default_pivot_tol(a) -> float:
    """Near-zero pivot threshold, scaled by the largest entry magnitude."""
    a = np.asarray(a, dtype=np.float64)
    return 1e-12 * (1.0 + float(np.abs(a).max()))


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


def _run_step(a, f, k, rows, pivot_tol, counter, allow_swaps, swaps) -> None:
    """Apply elimination step k to f in place.

    rows holds the sorted indices of the rows to update: the active rows,
    or in the panel driver the panel's active rows; either way every row
    from k to rows[-1].  swaps is the mutable swap log; a non-empty log
    means the profile structure is broken and full-width arithmetic is
    used and tallied.  A rejected pivot raises before f or the counter
    is touched.
    """
    n = a.shape[0]
    acol = a[:, k]
    m = int(rows.size)
    lo = int(rows[0])
    block = int(rows[-1]) - lo + 1 == m  # the rows form one contiguous block
    dense = bool(swaps)
    kpos = int(np.searchsorted(rows, k))

    window = f[lo:lo + m] if block else f[rows]
    if dense:
        d = window @ acol
        width = n
    else:
        d = window[:, :k] @ acol[:k]
        # Unpivoted rows still hold their identity entry at (i, i), which
        # contributes 1 * A[i, k]: an uncounted addition, not a multiply.
        d[kpos:] += acol[k:k + m - kpos]
        width = k

    g = float(d[kpos])
    if abs(g) <= pivot_tol:
        if not allow_swaps:
            raise ZeroPivot(k)
        jrel = -1
        if kpos + 1 < m:
            jrel = kpos + 1 + int(np.argmax(np.abs(d[kpos + 1:])))
            if abs(float(d[jrel])) <= pivot_tol:
                jrel = -1
        if jrel < 0:
            raise SingularMatrix(
                f"no usable pivot at elimination step {k}: matrix is singular"
            )
        j = int(rows[jrel])
        f[[k, j]] = f[[j, k]]
        d[kpos], d[jrel] = float(d[jrel]), g
        swaps.append((k, j))
        dense = True
        g = float(d[kpos])
    counter.add_muldiv(m * width)

    r = 1.0 / g
    counter.add_muldiv(1)
    if dense:
        f[k, :] *= r
        counter.add_muldiv(n)
        hi = n
    else:
        f[k, :k] *= r
        f[k, k] = r  # the identity entry becomes the reciprocal: no multiply
        counter.add_muldiv(k)
        hi = k + 1

    pivot_row = f[k, :hi]
    if block:
        f[lo:k, :hi] -= np.outer(d[:kpos], pivot_row)
        f[k + 1:lo + m, :hi] -= np.outer(d[kpos + 1:], pivot_row)
    else:
        others = np.delete(rows, kpos)
        f[others, :hi] -= np.outer(np.delete(d, kpos), pivot_row)
    counter.add_muldiv((m - 1) * hi)


def _run_panel(a, f, s, mask, pivot_tol, counter, allow_swaps, swaps) -> int:
    """Apply the steps of the panel starting at step s to f in place.

    Returns the step the next panel starts at: the panel's end, or the
    step after a pivot swap, which ends the panel early.
    """
    n = a.shape[0]
    e = min(s + _BLOCK, n)
    dense = bool(swaps)
    width = n if dense else s
    above = np.flatnonzero(mask[:s])  # active rows already pivoted
    up = slice(0, s) if above.size == s else above  # a view when all are active
    # Multipliers of the panel's steps with respect to the state F_s before
    # it: D = F_s[rows] @ A[:, s:e], by the row profile of F_s.
    d_up = f[up, :width] @ a[:width, s:e]
    d_low = f[s:, :width] @ a[:width, s:e]
    if not dense:
        d_low += a[s:, s:e]  # identity entries of the unpivoted rows
    f_s = f[s:e, :n if dense else e].copy()

    live = np.ones(e - s, dtype=bool)
    stop = e
    for k in range(s, e):
        try:
            _run_step(a, f, k, s + np.flatnonzero(live), pivot_tol, counter,
                      False, swaps)
        except ZeroPivot:
            if not allow_swaps:
                raise
            stop = k
            break
        live[k - s] = mask[k]

    # Every other active row takes the panel's steps s..stop-1 at once.
    outside = above.size + n - e
    j = stop - s
    if j and outside:
        hi = n if dense else stop
        w = np.linalg.solve(d_low[:j, :j], f_s[:j, :hi])  # P^-1 F_s[s:stop]
        f[up, :hi] -= d_up[:, :j] @ w
        f[e:, :hi] -= d_low[e - s:, :j] @ w
        counter.add_muldiv(outside * (2 * n * j if dense else stop * stop - s * s))
    if stop == e:
        return e
    _run_step(a, f, stop, _active_rows(mask, stop), pivot_tol, counter, True, swaps)
    return stop + 1


def eliminate(a, required=None, counter=None, pivot_tol=None, allow_swaps=True) -> np.ndarray:
    """Run the elimination to completion and return the final F.

    With every index required (the default) the result is A^-1.  With a
    partial required set only the required rows of the result are rows of
    A^-1; the other rows were frozen early to save operations.
    """
    a = as_matrix(a)
    n = a.shape[0]
    mask = _coerce_required(required, n).mask(n)
    cnt = counter if counter is not None else OpCounter()
    tol = default_pivot_tol(a) if pivot_tol is None else float(pivot_tol)
    f = np.eye(n)
    swaps: list[tuple[int, int]] = []
    s = 0
    while s < n:
        s = _run_panel(a, f, s, mask, tol, cnt, allow_swaps, swaps)
    return f


def invert(a, counter=None, pivot_tol=None, allow_swaps=True) -> np.ndarray:
    """Invert a square matrix; costs exactly n^3 muldiv when no swap occurs."""
    return eliminate(a, None, counter, pivot_tol, allow_swaps)


def solve(a, b, required, counter=None, pivot_tol=None, allow_swaps=True) -> dict[int, float]:
    """Solve A x = b for the required solution components only.

    Returns {index: value} keyed by the 1-based required indices.  On top
    of the elimination cost, each returned component pays one length-n
    dot product (n multiplications).
    """
    a = as_matrix(a)
    n = a.shape[0]
    bv = as_vector(b, n)
    req = _coerce_required(required, n)
    cnt = counter if counter is not None else OpCounter()
    f = eliminate(a, req, cnt, pivot_tol, allow_swaps)
    out = {}
    for i in req:
        out[i] = float(f[i - 1] @ bv)
        cnt.add_muldiv(n)
    return out


@dataclass(frozen=True)
class EliminationState:
    """Snapshot of an elimination in progress.

    f evolves from the identity toward A^-1; step counts completed
    steps; perm records row swaps as (step, swapped_row) pairs.  States
    are immutable: eliminate_step returns a new snapshot.
    """

    a: np.ndarray
    f: np.ndarray
    step: int
    required: RequiredSet
    perm: tuple
    pivot_tol: float

    @classmethod
    def start(cls, a, required=None, pivot_tol=None) -> "EliminationState":
        a = as_matrix(a)
        n = a.shape[0]
        req = _coerce_required(required, n)
        tol = default_pivot_tol(a) if pivot_tol is None else float(pivot_tol)
        return cls(a=a, f=np.eye(n), step=0, required=req, perm=(), pivot_tol=tol)

    def active_rows(self) -> np.ndarray:
        """Indices of rows still being updated at the current step."""
        return _active_rows(self.required.mask(self.a.shape[0]), self.step)


def eliminate_step(state: EliminationState, counter=None, allow_swaps=True) -> EliminationState:
    """Apply one elimination step, returning a new state (input unchanged)."""
    n = state.a.shape[0]
    if state.step >= n:
        raise InvalidArgument(f"elimination already complete after {state.step} steps")
    f = state.f.copy()
    swaps = list(state.perm)
    cnt = counter if counter is not None else OpCounter()
    _run_step(state.a, f, state.step, state.active_rows(), state.pivot_tol,
              cnt, allow_swaps, swaps)
    return dataclasses.replace(state, f=f, step=state.step + 1, perm=tuple(swaps))


def row_identities_check(a, f_final, required=None, tolerance=None) -> bool:
    """Check F[i] @ A[:, j] == delta_ij for every required row i, all j.

    The tolerance defaults to 1e-10 * (1 + frobenius_norm(a)).
    """
    a = as_matrix(a)
    f = as_matrix(f_final)
    if f.shape != a.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {f.shape}")
    n = a.shape[0]
    req = _coerce_required(required, n)
    mask = req.mask(n)
    tol = 1e-10 * (1.0 + frobenius_norm(a)) if tolerance is None else float(tolerance)
    dev = f[mask] @ a - np.eye(n)[mask]
    return bool(np.abs(dev).max() <= tol)
