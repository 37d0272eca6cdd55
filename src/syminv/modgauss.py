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

The step itself, and a panel's loop over its steps on C and P, are
compiled loops (``_loops.c``, built at import), given the live rows as
the mask of required rows: the multipliers, the pivot test, the
profile-keeping swap of F, the reciprocal and the rank-one update, on
F only, with each multiplier summed in index order and each update
rounded as the scalar transcription of the elimination rounds it, so
a stepwise run is that transcription's arithmetic bit for bit.  The
products between panels stay matrix products in numpy's BLAS, and the
rank-64 update of the rows outside a panel accumulates into F in place
through the same BLAS's dgemm (``_loops.gemm_update``), with the
bytes of ``F -= D @ W``.

A swap at step k with row j exchanges the pivoted parts F[k, :k] and
F[j, :k], logs (k, j), and then exchanges rows k and j of a working
copy of A.  Every row keeps its profile, and the row identities now
hold against the row-swapped A, so F ends as the inverse of Q A, Q the
product of the logged swaps.  ``eliminate`` applies the log to F's
columns once at the end: the required rows of F Q are rows of A^-1.
``eliminate_step`` maps every state the same way, so a state's F is
always in the caller's coordinates.  The step itself only reads A, so
both drivers follow one rule, ``_run_step``'s: A is copied only when a
swap has to exchange its rows, at the first swap in the log the step is
handed.  ``eliminate`` hands the run's log, so it copies A once;
``eliminate_step`` hands a log of its own step, since states share the
run's A.  That A, with the logged swaps applied, the required mask and
the pivot threshold are derived once per run and carried by every
``EliminationState``, so a step copies only F unless it swaps.

Cost model: only scalar multiplications and divisions are tallied
(additions and subtractions are free).  Tallies follow the row-profile
structure of F — a pivoted row carries nonzeros in the pivoted columns
only, an unpivoted row additionally carries its untouched identity entry
— so a full inversion costs exactly n^3 and a trailing-p partial solve
costs n^3/3 + n^2/2 + n/6 + p^2 n − p n − p^3/3 + p^2/2 − p/6 for the
elimination, with or without pivot swaps, since a swap keeps every
row's profile.  Step k on m rows costs ``_step_cost(m, k)``, and step k
updates ``_live_rows(mask, k)`` rows: the required rows above k and
every row from k on.  The stepwise ``eliminate_step`` measures the
count, adding each step once it is done.  ``eliminate`` models it:
each panel adds the per-step model of the steps it ran in one sum once
its arithmetic is done, and a swap step adds its own.  The two counts
are equal, and a run that raises has counted exactly the steps and
panels it completed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import _loops
from .errors import DimensionMismatch, InvalidArgument, SingularMatrix, ZeroPivot
from .matcore import (
    _BLOCK,
    RequiredSet,
    _finite_inverse,
    _fp_context,
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
    """*required* as a RequiredSet, every index when None; its ``mask(n)`` checks the indices."""
    if required is None:
        return RequiredSet.full(n)
    return required if isinstance(required, RequiredSet) else RequiredSet(required)


def _live_rows(mask, k) -> int:
    """Rows step k updates: the required rows above k and every row from k on."""
    return int(np.count_nonzero(mask[:k])) + mask.size - k


def _step_cost(m, k) -> int:
    """Muldiv of elimination step k on m rows.

    The m k products of the multipliers, the reciprocal, the k products
    scaling the pivot row and the (m - 1)(k + 1) of the rank-one update
    of the other rows: m (2k + 1) in all.
    """
    return m * (2 * k + 1)


def _run_step(a, f, k, mask, pivot_tol, allow_swaps, swaps) -> np.ndarray:
    """Apply elimination step k to f in place and return the A to go on with; the caller counts it.

    The step updates the live rows: the rows *mask* requires above k
    and every row from k on.  The compiled step sums each multiplier in
    index order and only reads a.  A swap with row j exchanges the
    pivoted parts f[k, :k] and f[j, :k], so every row keeps its
    profile, logs (k, j) in swaps and exchanges rows k and j of A: of a
    copy when it is the first swap in *swaps*, since a is then not the
    caller's own, and of a itself after that.  A rejected pivot raises
    before f is touched.
    """
    j = _loops.step(a, f, k, mask, pivot_tol, allow_swaps)
    if j < 0:
        if not allow_swaps:
            raise ZeroPivot(k)
        raise SingularMatrix(f"no usable pivot at elimination step {k}: matrix is singular")
    if j != k:
        swaps.append((k, j))
        a = _real(a, copy=len(swaps) == 1)
        a[[k, j]] = a[[j, k]]
    return a


def _run_panel(a, f, s, mask, pivot_tol, counter, allow_swaps, swaps):
    """Apply the steps of the panel starting at step s to f in place.

    Returns (the step the next panel starts at, the A to run it on).
    The next step is the panel's end, or the step after a pivot step,
    which ends the panel early; a swap there exchanges two rows of A,
    in the working copy ``_run_step`` makes at the run's first swap.
    Counts the panel's steps once they are done, then the pivot step.
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
    # with multipliers C P, P = D[s:e]: the steps run 64 wide on C and P,
    # a row freezing after its own step unless it is required.
    c = np.eye(e - s)
    stop = s + _loops.panel(d_low[:e - s], c, mask[s:e], pivot_tol)
    if stop < e and not allow_swaps:
        raise ZeroPivot(stop)
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
        # Both updates accumulate in place; rows that are not a slice are
        # gathered, updated and written back.
        rest = f[up, :stop]
        _loops.gemm_update(rest, d_up[:, :j], w)
        f[up, :stop] = rest
        _loops.gemm_update(f[e:, :stop], d_low[e - s:, :j], w)
    # Step k's rows: the required rows above k, then every row from k on.
    ahead = above.size + np.cumsum(mask[s:stop]) - mask[s:stop]
    _tally(counter, sum(_step_cost(int(r) + n - k, k)
                        for k, r in zip(range(s, stop), ahead)))
    if stop == e:
        return e, a
    a = _run_step(a, f, stop, mask, pivot_tol, True, swaps)
    _tally(counter, _step_cost(_live_rows(mask, stop), stop))
    return stop + 1, a


def _to_caller(f, swaps) -> None:
    """Map f's columns from the row-swapped working A back to the caller's A."""
    for k, j in reversed(swaps):
        f[:, [k, j]] = f[:, [j, k]]


@_fp_context
def eliminate(a, required=None, counter=None, allow_swaps=True) -> np.ndarray:
    """Run the elimination to completion and return the final F.

    With every index required (the default) the result is A^-1.  With a
    partial required set only the required rows of the result are rows of
    A^-1; the other rows were frozen early to save operations, and
    ``symmetric.complete_lower`` reads them all.  Raises InvalidArgument
    when any row is not finite: every pivot cleared the threshold, but
    the inverse overflows float64.  Allocates F and, only once a swap
    is logged, the working copy of A whose rows the swaps exchange; *a*
    itself is only read.
    """
    a = _validated(a)
    n = a.shape[0]
    mask = _coerce_required(required, n).mask(n)
    tol = default_pivot_tol(a)
    f = np.eye(n)
    swaps: list[tuple[int, int]] = []
    s = 0
    while s < n:
        s, a = _run_panel(a, f, s, mask, tol, counter, allow_swaps, swaps)
    _finite_inverse(f)
    _to_caller(f, swaps)
    return f


@_fp_context
def invert(a, counter=None, allow_swaps=True) -> np.ndarray:
    """Invert a square matrix; costs exactly n^3 muldiv when no swap occurs."""
    return eliminate(a, None, counter, allow_swaps)


@_fp_context
def solve(a, b, required, counter=None, allow_swaps=True) -> dict[int, float]:
    """Solve A x = b for the required solution components only.

    Returns {index: value} keyed by the 1-based required indices.  On top
    of the elimination cost, each returned component pays one length-n
    dot product (n multiplications).
    """
    a = _validated(a)  # eliminate copies it only if a swap is logged
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
    returns a new snapshot and leaves a as given.  A state also carries
    what its run fixes, derived once when a state is built without it
    and handed on by every step: A with the logged swaps applied to its
    rows, the mask of required rows and the pivot threshold.
    """

    a: np.ndarray
    f: np.ndarray
    step: int
    required: RequiredSet
    perm: tuple
    _run: tuple = dataclasses.field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._run is None:
            a = _real(self.a, copy=bool(self.perm))
            for k, j in self.perm:  # into the working coordinates of the run so far
                a[[k, j]] = a[[j, k]]
            run = a, self.required.mask(a.shape[0]), default_pivot_tol(a)
            object.__setattr__(self, "_run", run)

    @classmethod
    def start(cls, a, required=None) -> "EliminationState":
        a = as_matrix(a)
        n = a.shape[0]
        return cls(a=a, f=np.eye(n), step=0, required=_coerce_required(required, n), perm=())


@_fp_context
def eliminate_step(state: EliminationState, counter=None, allow_swaps=True) -> EliminationState:
    """Apply one elimination step, returning a new state (input unchanged).

    Copies F, and A only when the step swaps: states share the run's A,
    so the step hands ``_run_step`` a log of its own.
    """
    a, mask, tol = state._run
    k = state.step
    if k >= mask.size:
        raise InvalidArgument(f"elimination already complete after {k} steps")
    f = _real(state.f, copy=True)
    for i, j in state.perm:  # into the working coordinates of the run so far
        f[:, [i, j]] = f[:, [j, i]]
    swaps: list[tuple[int, int]] = []
    a = _run_step(a, f, k, mask, tol, allow_swaps, swaps)
    _tally(counter, _step_cost(_live_rows(mask, k), k))
    perm = (*state.perm, *swaps)
    _to_caller(f, perm)
    return dataclasses.replace(state, f=f, step=k + 1, perm=perm, _run=(a, mask, tol))


@_fp_context
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
