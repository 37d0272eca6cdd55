"""Test-matrix generators and the benchmark/verification harness.

Three deterministic matrix families drive the experiments:

- diag_dominant: symmetric with uniform [-1, 1] off-diagonals and each
  diagonal entry set to its row's absolute off-diagonal sum plus a
  uniform [1, 2] margin — strictly diagonally dominant with a positive
  diagonal, hence positive definite.
- non_dominant: symmetric with all entries uniform in [-1, 1]; draws are
  re-seeded (seed+1, seed+2, ...) until at least one row violates
  dominance and every leading principal minor is numerically nonzero, so
  the pivot-free methods all run to completion.
- zero_leading_minor: [[0, c], [c, 0]] in the top-left corner (c uniform
  in [1, 2]) glued to a diagonally dominant bulk — symmetric and
  nonsingular but with a zero leading 1x1 minor.

Every experiment reports the same columns: the operation counts against
the closed-form formulas, the residual, the distance to a reference
inverse from the row-swapping elimination, and the wall time.  The
experiments differ only in their family and default sizes: 1 and 2 run
on diag_dominant, 3 on non_dominant.  Every experiment times the methods
of one order together (``time_methods``: one warm-up call each, then
five rounds that call every method once, counting disabled), so a
cell's time is the median of five calls interleaved with the other
methods'.  Methods that reject an input (e.g. Cholesky on an indefinite
matrix) are reported as inapplicable, and untimed, instead of aborting
the run.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, complexity, modgauss, symmetric
from .errors import GenerationFailed, InvalidArgument, LinAlgError, ZeroPivot
from .matcore import (
    _BLOCK,
    OpCounter,
    RequiredSet,
    _mirror,
    as_integer,
    frobenius_norm,
    inverse_residual,
    norm2_estimate,
)

FAMILY_KINDS = ("diag_dominant", "non_dominant", "zero_leading_minor")

METHOD_FUNCS = {
    "cholesky": baselines.invert_cholesky,
    "ldl": baselines.invert_ldl,
    "km": baselines.invert_km,
    "v1": symmetric.invert_v1,
    "v2": symmetric.invert_v2,
    "gauss": modgauss.invert,
    "robust": symmetric.invert_symmetric_robust,
}

DEFAULT_METHODS = complexity.TABLE_METHODS

# complexity-formula name for each runnable method (robust has no formula:
# its cost depends on which path succeeds)
_FORMULA_NAME = {m: m for m in DEFAULT_METHODS}
_FORMULA_NAME["gauss"] = "modgauss_full"

DEFAULT_SIZES = {1: (100, 500), 2: (100, 300, 500, 1000), 3: (100, 300, 500, 1000)}

_EXPERIMENT_FAMILY = {1: "diag_dominant", 2: "diag_dominant", 3: "non_dominant"}

DEFAULT_SEED = 42

# The families that need order 2, and why.
_NEEDS_TWO_ROWS = {"non_dominant": "a dominance violation needs order at least 2",
                   "zero_leading_minor": "the zero-minor corner block needs order at least 2"}


@dataclass(frozen=True)
class MatrixFamily:
    """Generator descriptor: family kind, matrix order, and base seed.

    The order must be positive, and at least 2 for the two families
    whose defining structure needs two rows; the seed must be
    non-negative.
    """

    kind: str
    n: int
    seed: int

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise InvalidArgument(
                f"unknown family kind {self.kind!r}; expected one of {FAMILY_KINDS}"
            )
        object.__setattr__(self, "n", as_integer(self.n, "matrix order"))
        object.__setattr__(self, "seed", as_integer(self.seed, "seed"))
        if self.n < 1:
            raise InvalidArgument(f"matrix order must be positive, got {self.n}")
        if self.n < 2 and self.kind in _NEEDS_TWO_ROWS:
            raise InvalidArgument(_NEEDS_TWO_ROWS[self.kind])
        if self.seed < 0:
            raise InvalidArgument(f"seed must be non-negative, got {self.seed}")


def _symmetric_uniform(rng, n):
    """Symmetric, from the lower triangle of one uniform [-1, 1] draw, mirrored in place."""
    return _mirror(rng.uniform(-1.0, 1.0, size=(n, n)))


def _diag_dominant(rng, n):
    a = _symmetric_uniform(rng, n)
    a[np.diag_indices(n)] = 0.0  # so that the row sums are off-diagonal
    sums = [np.abs(a[i:i + _BLOCK]).sum(axis=1) for i in range(0, n, _BLOCK)]
    a[np.diag_indices(n)] = np.concatenate(sums) + rng.uniform(1.0, 2.0, size=n)
    return a


def _non_dominant(seed, n):
    for attempt in range(100):
        rng = np.random.default_rng(seed + attempt)
        a = _symmetric_uniform(rng, n)
        off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        if not (np.abs(np.diag(a)) <= off).any():
            continue  # accidentally dominant in every row
        try:
            baselines.ldl_factor(a)  # certifies numerically nonzero leading minors
        except ZeroPivot:
            continue
        return a
    raise GenerationFailed(
        f"no usable non-dominant matrix of order {n} after 100 reseeds"
    )


def _zero_leading_minor(rng, n):
    a = np.zeros((n, n))
    c = float(rng.uniform(1.0, 2.0))
    a[0, 1] = a[1, 0] = c
    if n > 2:
        a[2:, 2:] = _diag_dominant(rng, n - 2)
    return a


def generate(family: MatrixFamily) -> np.ndarray:
    """Deterministically generate one matrix of the described family."""
    if not isinstance(family, MatrixFamily):
        raise InvalidArgument(f"expected a MatrixFamily, got {type(family).__name__}")
    if family.kind == "non_dominant":
        return _non_dominant(family.seed, family.n)
    rng = np.random.default_rng(family.seed)
    if family.kind == "diag_dominant":
        return _diag_dominant(rng, family.n)
    return _zero_leading_minor(rng, family.n)


@dataclass(frozen=True)
class InversionReport:
    """One benchmark cell: a method applied to one generated matrix.

    A measured field is None when the cell has no value for it: a method
    without a closed form (robust) has no ``q_theor``, an inapplicable
    cell has no practical counts, residual or time.
    """

    method: str
    family: MatrixFamily
    q_theor: int | None = None
    q_pract: int | None = None
    s_theor: int | None = None
    s_pract: int | None = None
    residual_fro: float | None = None
    dist2_vs_reference: float | None = None
    elapsed_seconds: float | None = None
    status: str = "ok"


def _call_seconds(func, a) -> float:
    t0 = time.perf_counter()
    func(a)
    return time.perf_counter() - t0


def time_methods(funcs, a) -> list[float]:
    """Median wall time of five uncounted calls of each function on *a*.

    Runs six rounds that call every function once, in the given order: a
    warm-up round, then five timed ones, so that a burst of load lands
    on all of the functions rather than on one.  Returns one median per
    function.
    """
    rounds = [[_call_seconds(func, a) for func in funcs] for _ in range(6)]
    return [statistics.median(spent) for spent in zip(*rounds[1:])]


def _run_cell(method, family, a, reference) -> InversionReport:
    """Count and check one method on *a*; the cell's time is left to the caller."""
    formula = _FORMULA_NAME.get(method)
    q_t = complexity.q_theor(formula, family.n) if formula else None
    s_t = complexity.s_theor(formula, family.n) if formula else None
    counter = OpCounter()
    try:
        inv = METHOD_FUNCS[method](a, counter)
    except LinAlgError as exc:
        return InversionReport(method, family, q_theor=q_t, s_theor=s_t,
                               status=f"inapplicable:{type(exc).__name__}")
    return InversionReport(
        method, family, q_theor=q_t, q_pract=counter.muldiv,
        s_theor=s_t, s_pract=counter.sqrt,
        residual_fro=inverse_residual(a, inv),
        dist2_vs_reference=norm2_estimate(inv - reference),
    )


def run_experiment(exp_id, sizes=None, methods=None, seed=DEFAULT_SEED) -> list[InversionReport]:
    """Run one benchmark experiment and return its report rows.

    Experiments 1 and 2 run on diagonally dominant matrices, at
    different default sizes, and experiment 3 on non-dominant ones.
    Every cell records its counts, the residual of the computed inverse
    and its spectral distance to the reference inverse from the
    row-swapping elimination, and every applicable cell its time from
    ``time_methods``.  *methods* is "all" (the default), one method
    name, or a sequence of them.  Every argument is checked before any
    matrix is generated: an empty *methods*, an unknown method name, an
    experiment, order or seed that ``as_integer`` rejects and a
    negative seed raise InvalidArgument.  Matrices are seeded with
    seed + n, so identical arguments reproduce identical counts and
    accuracy columns.
    """
    exp_id = as_integer(exp_id, "experiment")
    if exp_id not in (1, 2, 3):
        raise InvalidArgument(f"experiment must be 1, 2, or 3, got {exp_id!r}")
    sizes = [as_integer(n, "matrix order")
             for n in (DEFAULT_SIZES[exp_id] if sizes is None else sizes)]
    if not sizes:
        raise InvalidArgument("at least one matrix order is required")
    seed = as_integer(seed, "seed")
    if seed < 0:
        raise InvalidArgument(f"seed must be non-negative, got {seed}")
    if methods is None or methods == "all":
        methods = DEFAULT_METHODS
    methods = (methods,) if isinstance(methods, str) else tuple(methods)
    if not methods:
        raise InvalidArgument("at least one method is required")
    for m in methods:
        if m not in METHOD_FUNCS:
            raise InvalidArgument(f"unknown method {m!r}; expected one of "
                                  f"{', '.join(sorted(METHOD_FUNCS))}")
    families = [MatrixFamily(_EXPERIMENT_FAMILY[exp_id], n, seed + n) for n in sizes]
    reports = []
    for family in families:
        a = generate(family)
        reference = modgauss.invert(a)
        cells = [_run_cell(method, family, a, reference) for method in methods]
        ok = [i for i, cell in enumerate(cells) if cell.status == "ok"]
        seconds = time_methods([METHOD_FUNCS[cells[i].method] for i in ok], a)
        for i, elapsed in zip(ok, seconds):
            cells[i] = replace(cells[i], elapsed_seconds=elapsed)
        reports += cells
    return reports


REPORT_COLUMNS = (
    "method", "n", "family", "q_theor", "q_pract", "s_theor", "s_pract",
    "residual_fro", "dist2", "seconds", "status", "seed",
)


def _format_cell(value, fmt=None):
    if value is None:
        return ""
    if fmt is not None:
        return fmt % value
    return str(value)


def _report_row(rep: InversionReport) -> list[str]:
    return [
        rep.method,
        str(rep.family.n),
        rep.family.kind,
        _format_cell(rep.q_theor),
        _format_cell(rep.q_pract),
        _format_cell(rep.s_theor),
        _format_cell(rep.s_pract),
        _format_cell(rep.residual_fro, "%.17g"),
        _format_cell(rep.dist2_vs_reference, "%.17g"),
        _format_cell(rep.elapsed_seconds, "%.6f"),
        rep.status,
        str(rep.family.seed),
    ]


def render_table(columns, rows, format="csv") -> str:
    """Render rows of string cells as CSV or a markdown pipe table.

    CSV uses RFC-4180 quoting; an empty markdown cell is written as one
    space.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        return buf.getvalue()
    if format == "markdown":
        lines = [
            "| " + " | ".join(columns) + " |",
            "|" + "|".join(" --- " for _ in columns) + "|",
        ]
        for row in rows:
            lines.append("| " + " | ".join(cell or " " for cell in row) + " |")
        return "\n".join(lines) + "\n"
    raise InvalidArgument(f"unknown format {format!r}; expected csv or markdown")


def emit_report(reports, format="csv") -> str:
    """Render reports as CSV or a markdown pipe table (stable column order)."""
    if not reports:
        raise InvalidArgument("no reports to emit")
    return render_table(REPORT_COLUMNS, [_report_row(r) for r in reports], format)


# ---------------------------------------------------------------------------
# Invariant suite behind the `verify` CLI subcommand.

def _verify_counts(max_n, seed):
    checked = 0
    for n in range(2, max_n + 1):
        a = generate(MatrixFamily("diag_dominant", n, seed + n))
        for method, formula in _FORMULA_NAME.items():
            cnt = OpCounter()
            METHOD_FUNCS[method](a, cnt)
            if cnt.muldiv != complexity.q_theor(formula, n):
                return False, f"{method} muldiv mismatch at n={n}: {cnt.muldiv}"
            if cnt.sqrt != complexity.s_theor(formula, n):
                return False, f"{method} sqrt mismatch at n={n}: {cnt.sqrt}"
            checked += 1
        stage1_cnt = OpCounter()
        stage1 = symmetric.lower_stage(a, stage1_cnt)
        if stage1_cnt.muldiv != complexity.q_theor("v1_stage1", n):
            return False, f"stage-1 muldiv mismatch at n={n}: {stage1_cnt.muldiv}"
        stage2_cnt = OpCounter()
        symmetric.complete_lower(stage1, stage2_cnt)
        if stage2_cnt.muldiv != complexity.q_theor("v1_stage2", n):
            return False, f"stage-2 muldiv mismatch at n={n}: {stage2_cnt.muldiv}"
        sweep_cnt = OpCounter()
        symmetric.invert_v2_reference(a, sweep_cnt)
        if sweep_cnt.muldiv != complexity.q_theor("v2", n):
            return False, f"measured v2 sweep muldiv mismatch at n={n}: {sweep_cnt.muldiv}"
        checked += 3
    return True, (f"{checked} method/order count checks exact, square roots included "
                  "(0 for v1, v2, ldl and gauss, n for cholesky and km)")


def _verify_partial_counts(max_n, seed):
    top = min(max_n, 24)
    checked = 0
    for n in range(2, top + 1):
        a = generate(MatrixFamily("diag_dominant", n, seed + 7 * n))
        b = np.linspace(1.0, 2.0, n)
        for p in range(1, n + 1):
            cnt = OpCounter()
            modgauss.solve(a, b, range(n - p + 1, n + 1), cnt)
            want = complexity.q_theor("modgauss_p", n, p) + n * p
            if cnt.muldiv != want:
                return False, f"partial solve count at n={n}, p={p}: {cnt.muldiv} != {want}"
            checked += 1
    return True, f"{checked} trailing-block solve counts exact"


def _verify_agreement(max_n, seed):
    top = min(max_n, 40)
    worst = 0.0
    for i in range(8):
        n = 3 + (i * 5) % max(1, top - 2)
        a = generate(MatrixFamily("non_dominant", n, seed + 101 * i))
        ref = modgauss.invert(a)
        scale = float(np.abs(ref).max()) or 1.0
        for func in (symmetric.invert_v1, symmetric.invert_v2,
                     symmetric.invert_v2_reference):
            dev = float(np.abs(func(a) - ref).max()) / scale
            worst = max(worst, dev)
            if dev > 1e-11:
                return False, f"method disagreement {dev:.3e} at n={n}"
    return True, f"max cross-method deviation {worst:.3e}"


def _verify_lemmas(seed):
    rng = np.random.default_rng(seed)
    for trial in range(6):
        n = int(rng.integers(2, 13))
        if trial % 2:
            a = _symmetric_uniform(np.random.default_rng(seed + trial), n)
            a[np.diag_indices(n)] += np.sign(np.diag(a)) * n  # keep minors away from 0
        else:
            a = np.random.default_rng(seed + trial).uniform(-1.0, 1.0, (n, n))
            a[np.diag_indices(n)] += n
        for m in range(n):
            if not symmetric.lemma1_check(a, m):
                return False, f"leading-block inverse check failed at n={n}, m={m}"
            if not symmetric.lemma2_check(a, m):
                return False, f"rank-one step check failed at n={n}, m={m}"
    return True, "leading-block and rank-one step checks hold for all steps"


def _verify_structure(seed):
    for n in (2, 5, 13, 21):
        a = generate(MatrixFamily("diag_dominant", n, seed + n))
        stage1, final, inv = symmetric.invert_v1_parts(a)
        if np.abs(np.triu(stage1, 1)).max() != 0.0:
            return False, f"stage-1 output not exactly lower-triangular at n={n}"
        recon = final + (final - np.diag(np.diag(final))).T
        if not np.array_equal(inv, recon):
            return False, f"reconstruction identity broken at n={n}"
        v2 = symmetric.invert_v2(a)
        if not np.array_equal(v2, v2.T):
            return False, f"output not bitwise symmetric at n={n}"
        ref = symmetric.invert_v2_reference(a)
        if frobenius_norm(v2 - ref) > 1e-13 * frobenius_norm(ref):
            return False, f"factor form and step-by-step sweep disagree at n={n}"
    return True, ("triangularity, reconstruction and symmetry are exact; "
                  "factor form matches the sweep to 1e-13")


def _verify_zero_minor(seed):
    n = 9
    a = generate(MatrixFamily("zero_leading_minor", n, seed + n))
    for name in ("v1", "v2"):
        try:
            METHOD_FUNCS[name](a)
        except ZeroPivot as exc:
            if exc.step != 0:
                return False, f"{name} reported step {exc.step}, expected 0"
        else:
            return False, f"{name} did not reject the zero leading minor"
    try:
        baselines.invert_cholesky(a)
    except LinAlgError:
        pass
    else:
        return False, "cholesky accepted a zero leading minor"
    inv = symmetric.invert_symmetric_robust(a)
    if inverse_residual(a, inv) > 1e-8 * frobenius_norm(a):
        return False, "fallback inverse residual too large"
    if not np.array_equal(inv, inv.T):
        return False, "fallback inverse not bitwise symmetric"
    return True, "zero leading minor rejected at step 0; fallback inverse accurate"


def _verify_indefinite(seed):
    hits = 0
    for i in range(40):
        if hits >= 5:
            break
        n = 6 + i % 7
        a = generate(MatrixFamily("non_dominant", n, seed + 211 * i))
        d = baselines.ldl_factor(a).d
        if (d > 0).all() or (d < 0).all():
            continue
        hits += 1
        bound = 1e-8 * frobenius_norm(a)
        for name in ("v1", "v2"):
            if inverse_residual(a, METHOD_FUNCS[name](a)) > bound:
                return False, f"{name} inaccurate on an indefinite matrix (n={n})"
        try:
            baselines.invert_cholesky(a)
        except LinAlgError:
            pass
        else:
            return False, f"cholesky accepted an indefinite matrix (n={n})"
    if hits < 5:
        return False, f"only {hits} indefinite draws found"
    return True, f"{hits} indefinite matrices inverted square-root-free"


def _verify_residuals(seed):
    n = 100
    a = generate(MatrixFamily("diag_dominant", n, seed + n))
    worst = 0.0
    for method in DEFAULT_METHODS:
        inv = METHOD_FUNCS[method](a)
        bound = 1e-10 * (1.0 + frobenius_norm(a) * frobenius_norm(inv))
        res = inverse_residual(a, inv)
        worst = max(worst, res)
        if res > bound:
            return False, f"{method} residual {res:.3e} exceeds {bound:.3e}"
    return True, f"worst n=100 residual {worst:.3e}"


def _verify_row_identities(seed):
    n = 11
    a = generate(MatrixFamily("diag_dominant", n, seed + n))
    f = modgauss.invert(a)
    if not modgauss.row_identities_check(a, f):
        return False, "valid inverse rejected"
    bad = f.copy()
    bad[2, 3] += 1e-3
    if modgauss.row_identities_check(a, bad):
        return False, "corrupted inverse accepted"
    return True, "row-identity check accepts the inverse and rejects a corruption"


def _verify_panels(seed):
    runs = 0
    for n in (65, 130):
        a = generate(MatrixFamily("diag_dominant", n, seed + n))
        k = n // 2
        swapped = a.copy()
        swapped[k, :k + 1] = 0.0  # the pivot of step k is exactly zero
        for mat, required in ((a, None), (a, RequiredSet.trailing(n, 1)), (swapped, None)):
            cnt = OpCounter()
            f = modgauss.eliminate(mat, required, cnt)
            step_cnt = OpCounter()
            state = modgauss.EliminationState.start(mat, required)
            while state.step < n:
                state = modgauss.eliminate_step(state, step_cnt)
            if bool(state.perm) != (mat is swapped):
                return False, f"unexpected swap log {state.perm} at n={n}"
            if cnt.muldiv != step_cnt.muldiv:
                return False, (f"panel count {cnt.muldiv} != stepwise count "
                               f"{step_cnt.muldiv} at n={n}")
            if mat is swapped and cnt.muldiv != n ** 3:
                return False, f"swap run count {cnt.muldiv} != n^3 at n={n}"
            if frobenius_norm(f - state.f) > 1e-13 * frobenius_norm(state.f):
                return False, f"panel and stepwise results disagree at n={n}"
            runs += 1
    return True, (f"{runs} panel runs (n=65, 130: full, trailing-1, one swap) match "
                  "eliminate_step: counts exact (n^3 with the swap), F to 1e-13")


def run_verification(max_n=40, seed=DEFAULT_SEED) -> list[tuple[str, bool, str]]:
    """Run the invariant suite; returns (name, passed, detail) triples.

    *max_n* and *seed* follow ``as_integer``; a value it rejects, a
    *max_n* below 2 or a negative seed raises InvalidArgument before any
    check runs.
    """
    max_n = as_integer(max_n, "max_n")
    seed = as_integer(seed, "seed")
    if max_n < 2:
        raise InvalidArgument("max_n must be at least 2")
    if seed < 0:
        raise InvalidArgument(f"seed must be non-negative, got {seed}")
    suite = [
        ("count-formulas", lambda: _verify_counts(max_n, seed)),
        ("partial-solve-counts", lambda: _verify_partial_counts(max_n, seed)),
        ("method-agreement", lambda: _verify_agreement(max_n, seed)),
        ("lemma-checks", lambda: _verify_lemmas(seed)),
        ("structure", lambda: _verify_structure(seed)),
        ("zero-minor-handling", lambda: _verify_zero_minor(seed)),
        ("indefinite-applicability", lambda: _verify_indefinite(seed)),
        ("residual-bounds", lambda: _verify_residuals(seed)),
        ("row-identities", lambda: _verify_row_identities(seed)),
        ("panel-driver", lambda: _verify_panels(seed)),
    ]
    results = []
    for name, check in suite:
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
