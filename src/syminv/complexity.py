"""Closed-form operation-count formulas, evaluated exactly.

Each method's multiplication+division and square-root totals are
polynomials in the matrix order n (and, for the partial solve, the
trailing required-block size p).  They are evaluated over exact
rationals and asserted integral, so terms like n^3/3 never suffer
floating-point rounding.  These are the reference values the runtime
counters are validated against on pivot-free inputs.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidArgument
from .matcore import as_integer

TABLE_METHODS = ("cholesky", "ldl", "km", "v1", "v2")

_MULDIV = {
    "cholesky": lambda n, p: Fraction(n**3, 2) + Fraction(3 * n**2, 2),
    "ldl": lambda n, p: Fraction(2 * n**3, 3) + Fraction(n**2, 2) - Fraction(n, 6),
    "km": lambda n, p: Fraction(n**3, 2) + Fraction(n**2, 2),
    "v1": lambda n, p: Fraction(n**3, 2) + n**2 - Fraction(n, 2),
    "v1_stage1": lambda n, p: Fraction(n**3, 3) + Fraction(n**2, 2) + Fraction(n, 6),
    "v1_stage2": lambda n, p: Fraction(n**3, 6) + Fraction(n**2, 2) - Fraction(2 * n, 3),
    "v2": lambda n, p: Fraction(n**3, 2) + Fraction(n**2, 2),
    "modgauss_full": lambda n, p: Fraction(n**3),
    "modgauss_p": lambda n, p: (
        Fraction(n**3, 3) + Fraction(n**2, 2) + Fraction(n, 6)
        + p**2 * n - p * n
        - Fraction(p**3, 3) + Fraction(p**2, 2) - Fraction(p, 6)
    ),
}

METHODS = tuple(_MULDIV)

_SQRT_METHODS = frozenset({"cholesky", "km"})


def _check_method(method) -> str:
    if method not in _MULDIV:
        raise InvalidArgument(
            f"unknown method {method!r}; expected one of {', '.join(METHODS)}"
        )
    return method


def _check_order(n) -> int:
    n = as_integer(n, "matrix order")
    if n < 1:
        raise InvalidArgument(f"matrix order must be positive, got {n}")
    return n


def q_theor(method, n, p=None) -> int:
    """Exact multiplication+division total for one run of *method* at order n.

    modgauss_p is the elimination-only cost of a partial solve with the
    trailing p components required; the n*p final dot products are not
    included.  All other methods take no p.
    """
    _check_method(method)
    n = _check_order(n)
    if method == "modgauss_p":
        if p is None:
            raise InvalidArgument("method 'modgauss_p' requires the block size p")
        p = as_integer(p, "block size p")
        if not 0 <= p <= n:
            raise InvalidArgument(f"block size p={p} out of range [0, {n}]")
    elif p is not None:
        raise InvalidArgument(f"method {method!r} does not take a block size p")
    value = _MULDIV[method](n, 0 if p is None else p)
    assert value.denominator == 1 and value >= 0, (method, n, p, value)
    return int(value)


def s_theor(method, n) -> int:
    """Exact square-root total for one run of *method* at order n."""
    _check_method(method)
    n = _check_order(n)
    return n if method in _SQRT_METHODS else 0


def count_table(sizes, methods=None) -> list[dict]:
    """Rows of {method, n, muldiv, sqrt} for each method and order.

    Defaults to the five inversion methods; the rows are grouped by
    order, preserving the given method order.
    """
    if methods is None:
        methods = TABLE_METHODS
    rows = []
    for n in sizes:
        for method in methods:
            rows.append({
                "method": method,
                "n": _check_order(n),
                "muldiv": q_theor(method, n),
                "sqrt": s_theor(method, n),
            })
    if not rows:
        raise InvalidArgument("no sizes given")
    return rows
