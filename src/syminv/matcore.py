"""Core matrix plumbing: validation, symmetry checks, operation counters, norms.

Matrices are plain square ``numpy.ndarray`` objects of dtype float64.
``as_matrix`` is the single entry point that enforces the shared
invariants (square, at least 1x1, all entries real and finite) and
returns a fresh buffer, so no routine in this package ever mutates
caller-owned data.  Routines that only read their input, or hold an
array they have just made, check it with ``_validated``, the same checks
without the copy.  Both, and every other routine here that reads a
caller's array, convert it with ``_real``, the one real-number rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidArgument, NotSymmetric

# Column-block width of the blocked kernels: the LDL^T factor, the
# unit-lower inverse, the lower-triangle product and the elimination's
# panels; also the row blocks of the generators' row sums.
_BLOCK = 64


def as_matrix(data) -> np.ndarray:
    """Validate *data* as a dense square float64 matrix and copy it.

    Raises DimensionMismatch for anything that is not a square 2-d array
    and InvalidArgument when entries are complex, not numbers, NaN or
    infinite.
    """
    return _validated(_real(data, copy=True))


def _validated(data) -> np.ndarray:
    """``as_matrix`` without the copy, for routines that only read *data*."""
    a = _real(data)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidArgument("matrix entries must be finite")
    return a


def as_integer(value, what: str) -> int:
    """*value* as an int; InvalidArgument unless it is a finite integral number.

    The one integer rule for matrix orders, seeds and indices: 2.0 and
    numpy integers pass, while 2.5, NaN, infinities and non-numbers
    such as "2" or None are rejected rather than truncated.
    """
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidArgument(f"{what} must be an integer, got {value!r}")


def _real(data, copy=False) -> np.ndarray:
    """*data* as a C-contiguous float64 array, copied if *copy*: the one real-number input rule.

    Complex input raises InvalidArgument rather than losing its
    imaginary part, and so does input numpy cannot convert, such as a
    ragged list or a non-numeric string.  A C-contiguous float64 array
    is returned as it is, with no pass over its entries, unless *copy*
    is set; any other layout is copied, so the compiled loops, which
    index rows, can take what it returns.
    """
    try:
        a = np.asarray(data)
        if a.dtype.kind != "c":
            return a.astype(np.float64, order="C", copy=copy)
    except (TypeError, ValueError) as exc:
        raise InvalidArgument(f"entries must be real numbers: {exc}") from None
    raise InvalidArgument("entries must be real numbers, got complex input")


def as_vector(data, n: int) -> np.ndarray:
    """Validate *data* as a length-*n* float64 vector and copy it.

    Complex or non-numeric entries raise InvalidArgument, as in ``as_matrix``.
    """
    b = _real(data, copy=True)
    if b.ndim != 1 or b.shape[0] != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise InvalidArgument("vector entries must be finite")
    return b


class SymmetryCheck:
    """Exact entrywise symmetry predicate: a_ij == a_ji for every i, j.

    Every matrix the built-in generators produce passes it, and so does a
    CSV round trip of one.  Anything that is not 2-D and square fails it.
    Compared by 128-row blocks, each against the transpose of its column
    block up to its own last column, which keeps the transposed reads in
    cache and stops at the first block that differs.
    """

    def passes(self, a) -> bool:
        a = _real(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            return False
        for s in range(0, a.shape[0], 128):
            e = s + 128
            if not np.array_equal(a[s:e, :e], a[:e, s:e].T):
                return False
        return True


def _fp_context(func):
    """*func* run under the package's one floating-point context.

    Every public routine that computes an inverse, a factor, an
    elimination or a norm or residual check is wrapped: inside it numpy
    neither warns nor raises on a floating-point condition, whatever the
    caller's ``np.errstate``, as the compiled loops never do.  So a call
    completes the same phases and counts them in every mode, and an
    overflowing result reaches ``_finite_inverse``, its one judge.
    """
    @functools.wraps(func)
    def run(*args, **kwargs):
        with np.errstate(all="ignore"):
            return func(*args, **kwargs)
    return run


def _checked_symmetric(a) -> np.ndarray:
    """``as_matrix`` copy of *a*; raises NotSymmetric unless exactly symmetric."""
    a = as_matrix(a)
    if not SymmetryCheck().passes(a):
        raise NotSymmetric("input matrix is not symmetric")
    return a


@dataclass(slots=True, eq=False)
class OpCounter:
    """Tallies multiplications+divisions and square roots for one run.

    Counters are plain mutable tallies that start at zero; hand a fresh
    instance to each invocation rather than sharing one across threads.
    Additions and subtractions are deliberately not counted anywhere in
    this package.
    """

    muldiv: int = field(default=0, init=False)
    sqrt: int = field(default=0, init=False)

    def add_muldiv(self, count: int) -> None:
        if count < 0:
            raise InvalidArgument("cannot add a negative operation count")
        self.muldiv += int(count)

    def add_sqrt(self, count: int = 1) -> None:
        if count < 0:
            raise InvalidArgument("cannot add a negative operation count")
        self.sqrt += int(count)


def _tally(counter, muldiv, sqrt=0) -> None:
    """Add a phase's muldiv and square roots to *counter*; no-op when it is None.

    The one place the package's routines count through.  Each calls it
    once the phase's arithmetic is done, so a call that raises has
    counted exactly the phases it completed.
    """
    if counter is not None:
        counter.add_muldiv(muldiv)
        if sqrt:
            counter.add_sqrt(sqrt)


@dataclass(frozen=True, slots=True)
class RequiredSet:
    """Sorted set of 1-based indices of the solution components to keep."""

    indices: tuple[int, ...]

    def __post_init__(self):
        try:
            idx = sorted({as_integer(i, "a required index") for i in self.indices})
        except TypeError as exc:
            raise InvalidArgument(f"required indices must be integers: {exc}") from None
        if not idx:
            raise InvalidArgument("at least one index must be required")
        if idx[0] < 1:
            raise IndexOutOfRange(f"required index {idx[0]} is below 1")
        object.__setattr__(self, "indices", tuple(idx))

    @classmethod
    def full(cls, n: int) -> "RequiredSet":
        return cls(range(1, as_integer(n, "matrix order") + 1))

    @classmethod
    def trailing(cls, n: int, p: int) -> "RequiredSet":
        """The trailing block {n-p+1, ..., n}."""
        n, p = as_integer(n, "matrix order"), as_integer(p, "trailing block size")
        if not 1 <= p <= n:
            raise InvalidArgument(f"trailing block size {p} must lie in [1, {n}]")
        return cls(range(n - p + 1, n + 1))

    def mask(self, n: int) -> np.ndarray:
        """0-based boolean mask of length *n*; raises if any index exceeds *n*."""
        n = as_integer(n, "matrix order")
        if self.indices[-1] > n:
            raise IndexOutOfRange(
                f"required index {self.indices[-1]} exceeds matrix order {n}"
            )
        m = np.zeros(n, dtype=bool)
        m[[i - 1 for i in self.indices]] = True
        return m

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


@_fp_context
def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries.

    The entries are scaled by the largest magnitude before they are
    squared, so the result neither overflows nor underflows unless the
    norm itself does.  A non-finite entry gives inf, or NaN for a NaN.
    """
    m = _real(m)
    scale = float(np.abs(m).max(initial=0.0))
    if not 0.0 < scale < math.inf:
        return scale
    m = m / scale
    return scale * math.sqrt(float((m * m).sum()))


@_fp_context
def norm2_estimate(m) -> float:
    """Largest singular value of *m*, estimated by power iteration on m^T m.

    Starts from a fixed deterministic vector and runs at most 200
    iterations, stopping early once the estimate is stable to 1e-12
    (relative).  The estimate converges from below, so it never exceeds
    ``frobenius_norm(m)`` beyond rounding.  The iteration runs on *m*
    scaled by its largest magnitude, as ``frobenius_norm`` does, so it
    neither overflows nor underflows unless the norm itself does.  *m*
    is checked as by ``as_matrix``.
    """
    a = _validated(m)
    scale = float(np.abs(a).max()) or 1.0  # a zero matrix stays zero
    a = a / scale
    v = np.linspace(1.0, 2.0, a.shape[0])
    v /= math.sqrt(float(v @ v))
    prev = -1.0
    for _ in range(200):
        w = a @ v
        est = math.sqrt(float(w @ w))
        z = a.T @ w
        zn = math.sqrt(float(z @ z))
        if zn == 0.0:
            break
        v = z / zn
        if abs(est - prev) <= 1e-12 * est:
            break
        prev = est
    return scale * est


@_fp_context
def mirror_lower(f) -> np.ndarray:
    """Symmetric matrix built from the lower triangle of *f* (diagonal kept).

    Bitwise ``np.tril(f) + np.tril(f, -1).T``: every entry is its lower
    value plus 0.0, so a -0.0 comes out as 0.0.  Evaluated by 128-column
    blocks: each diagonal block by that formula, each block left of it
    plus 0.0 in one pass and copied up transposed, which keeps the
    transposed reads in cache.  *f* is copied as by ``as_matrix``.
    """
    return _mirror(as_matrix(f))


def _mirror(f) -> np.ndarray:
    """``mirror_lower`` written over *f*, a matrix just formed, which it returns.

    No block reads the upper part that an earlier block has written.
    """
    n = f.shape[0]
    for c in range(0, n, 128):
        e = min(c + 128, n)
        blk = f[c:e, c:e]
        blk[:] = np.tril(blk) + np.tril(blk, -1).T
        np.add(f[c:e, :c], 0.0, out=f[c:e, :c])
        f[:c, c:e] = f[c:e, :c].T
    return f


def _finite_inverse(f) -> np.ndarray:
    """*f*, an inverse just formed; raises InvalidArgument unless it is finite.

    Every pivot cleared the threshold, so a non-finite entry means the
    inverse overflows float64.  Each method makes this one finiteness
    pass over its result.
    """
    # By row blocks, so that the test's boolean temporary is one block's.
    for s in range(0, f.shape[0], _BLOCK):
        if not np.isfinite(f[s:s + _BLOCK]).all():
            raise InvalidArgument("the inverse overflows float64")
    return f


@_fp_context
def inverse_residual(a, inv) -> float:
    """Frobenius norm of ``a @ inv - I`` (not an instrumented operation).

    Both operands are checked as by ``as_matrix`` and must agree in shape.
    """
    a = _validated(a)
    inv = _validated(inv)
    if a.shape != inv.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {inv.shape}")
    return frobenius_norm(a @ inv - np.eye(a.shape[0]))
