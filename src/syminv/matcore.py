"""Core matrix plumbing: validation, symmetry checks, operation counters, norms.

Matrices are plain square ``numpy.ndarray`` objects of dtype float64.
``as_matrix`` is the single entry point that enforces the shared
invariants (square, at least 1x1, all entries finite) and returns a fresh
buffer, so no routine in this package ever mutates caller-owned data.
Routines that only read their input check it with ``_validated``, the
same checks without the copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, InvalidArgument, NotSymmetric

# Column-block width of the blocked kernels: the LDL^T factor, the
# unit-lower inverse, the lower-triangle product, the LDL back solve and
# the elimination's panels.
_BLOCK = 64


def as_matrix(data) -> np.ndarray:
    """Validate *data* as a dense square float64 matrix and copy it.

    Raises DimensionMismatch for anything that is not a square 2-d array
    and InvalidArgument when entries are NaN or infinite.
    """
    return _validated(np.array(data, dtype=np.float64, copy=True))


def _validated(data) -> np.ndarray:
    """``as_matrix`` without the copy, for routines that only read *data*."""
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidArgument("matrix entries must be finite")
    return a


def as_vector(data, n: int) -> np.ndarray:
    """Validate *data* as a length-*n* float64 vector and copy it."""
    b = np.array(data, dtype=np.float64, copy=True)
    if b.ndim != 1 or b.shape[0] != n:
        raise DimensionMismatch(f"expected a vector of length {n}, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise InvalidArgument("vector entries must be finite")
    return b


@dataclass(frozen=True)
class SymmetryCheck:
    """Entrywise symmetry predicate: |a_ij - a_ji| <= tolerance * max(1, |a_ij|).

    The default tolerance of 0 demands exact symmetry, which every matrix
    produced by the built-in generators and file readers satisfies.
    """

    tolerance: float = 0.0

    def __post_init__(self):
        if not (self.tolerance >= 0.0):
            raise InvalidArgument("symmetry tolerance must be nonnegative")

    def passes(self, a) -> bool:
        a = np.asarray(a, dtype=np.float64)
        if self.tolerance == 0.0:  # the same predicate on finite input
            return bool(np.array_equal(a, a.T))
        diff = np.abs(a - a.T)
        ref = np.maximum(1.0, np.abs(a))
        return bool((diff <= self.tolerance * ref).all())


def _checked_symmetric(a) -> np.ndarray:
    """``as_matrix`` copy of *a*; raises NotSymmetric unless exactly symmetric."""
    a = as_matrix(a)
    if not SymmetryCheck().passes(a):
        raise NotSymmetric("input matrix is not symmetric")
    return a


class OpCounter:
    """Tallies multiplications+divisions and square roots for one run.

    Counters are plain mutable tallies; hand a fresh instance to each
    invocation rather than sharing one across threads.  Additions and
    subtractions are deliberately not counted anywhere in this package.
    """

    __slots__ = ("muldiv", "sqrt")

    def __init__(self, muldiv: int = 0, sqrt: int = 0):
        if muldiv < 0 or sqrt < 0:
            raise InvalidArgument("counter values must be nonnegative")
        self.muldiv = int(muldiv)
        self.sqrt = int(sqrt)

    def add_muldiv(self, count: int) -> None:
        if count < 0:
            raise InvalidArgument("cannot add a negative operation count")
        self.muldiv += int(count)

    def add_sqrt(self, count: int = 1) -> None:
        if count < 0:
            raise InvalidArgument("cannot add a negative operation count")
        self.sqrt += int(count)

    def merge(self, other: "OpCounter") -> None:
        self.add_muldiv(other.muldiv)
        self.add_sqrt(other.sqrt)

    def __repr__(self):
        return f"OpCounter(muldiv={self.muldiv}, sqrt={self.sqrt})"


class RequiredSet:
    """Sorted set of 1-based indices of the solution components to keep."""

    __slots__ = ("indices",)

    def __init__(self, indices):
        try:
            idx = sorted({int(i) for i in indices})
        except (TypeError, ValueError) as exc:
            raise InvalidArgument(f"required indices must be integers: {exc}") from None
        if not idx:
            raise InvalidArgument("at least one index must be required")
        if idx[0] < 1:
            raise IndexOutOfRange(f"required index {idx[0]} is below 1")
        object.__setattr__(self, "indices", tuple(idx))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("RequiredSet is immutable")

    @classmethod
    def full(cls, n: int) -> "RequiredSet":
        return cls(range(1, n + 1))

    @classmethod
    def trailing(cls, n: int, p: int) -> "RequiredSet":
        """The trailing block {n-p+1, ..., n}."""
        if not 1 <= p <= n:
            raise InvalidArgument(f"trailing block size {p} must lie in [1, {n}]")
        return cls(range(n - p + 1, n + 1))

    def mask(self, n: int) -> np.ndarray:
        """0-based boolean mask of length *n*; raises if any index exceeds *n*."""
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

    def __contains__(self, i):
        return i in self.indices

    def __eq__(self, other):
        return isinstance(other, RequiredSet) and self.indices == other.indices

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return f"RequiredSet({list(self.indices)})"


def matmul(a, b, counter: OpCounter | None = None) -> np.ndarray:
    """Square matrix product with an optional instrumented count of n^3 multiplies."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"left operand is not square: {a.shape}")
    if b.shape != a.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {b.shape}")
    if counter is not None:
        counter.add_muldiv(a.shape[0] ** 3)
    return a @ b


def frobenius_norm(m) -> float:
    """Square root of the sum of squared entries."""
    m = np.asarray(m, dtype=np.float64)
    return float(math.sqrt(float((m * m).sum())))


def norm2_estimate(m) -> float:
    """Largest singular value of *m*, estimated by power iteration on m^T m.

    Starts from a fixed deterministic vector and runs at most 200
    iterations, stopping early once the estimate is stable to 1e-12
    (relative).  The estimate converges from below, so it never exceeds
    ``frobenius_norm(m)`` beyond rounding.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    v = np.linspace(1.0, 2.0, n)
    v /= math.sqrt(float(v @ v))
    est = 0.0
    prev = -1.0
    for _ in range(200):
        w = a @ v
        est = math.sqrt(float(w @ w))
        z = a.T @ w
        zn = math.sqrt(float(z @ z))
        if zn == 0.0:
            return est
        v = z / zn
        if abs(est - prev) <= 1e-12 * max(est, 1.0):
            break
        prev = est
    return est


def mirror_lower(f) -> np.ndarray:
    """Symmetric matrix built from the lower triangle of *f* (diagonal kept).

    Bitwise ``np.tril(f) + np.tril(f, -1).T``: every entry is its lower
    value plus 0.0, so a -0.0 comes out as 0.0.  Evaluated by 128-column
    blocks: each diagonal block by that formula, each block left of it
    plus 0.0 in one pass and copied up transposed, which keeps the
    transposed reads in cache.
    """
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    out = np.empty((n, n))
    for c in range(0, n, 128):
        e = min(c + 128, n)
        blk = f[c:e, c:e]
        out[c:e, c:e] = np.tril(blk) + np.tril(blk, -1).T
        if c:
            np.add(f[c:e, :c], 0.0, out=out[c:e, :c])
            out[:c, c:e] = out[c:e, :c].T
    return out


def inverse_residual(a, inv) -> float:
    """Frobenius norm of ``a @ inv - I`` (not an instrumented operation)."""
    a = np.asarray(a, dtype=np.float64)
    inv = np.asarray(inv, dtype=np.float64)
    if a.shape != inv.shape:
        raise DimensionMismatch(f"operand shapes differ: {a.shape} vs {inv.shape}")
    return frobenius_norm(a @ inv - np.eye(a.shape[0]))
