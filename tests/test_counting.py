"""The counting rule: a phase is counted once its arithmetic is done.

Arithmetic routines only compute.  Each blocked phase adds its per-step
model in one call after its arithmetic succeeded, and stepwise paths
add each step as it completes, so a call that raises leaves on the
counter exactly what completed before the failure.  The scalar
transcriptions in ``oracles`` count by execution, and every modelled
and measured count here must equal theirs.
"""

import ast
import contextlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    PivotRejected,
    Tally,
    cholesky_scalar,
    complete_lower_scalar,
    eliminate_scalar,
    km_scalar,
    ldl_scalar,
    v2_sweep_scalar,
)
from syminv import (
    FAMILY_KINDS,
    InvalidArgument,
    MatrixFamily,
    NotPositiveDefinite,
    OpCounter,
    ZeroPivot,
    baselines,
    frobenius_norm,
    generate,
    genbench,
    modgauss,
    q_theor,
    symmetric,
)

N = 200
STEP = 130  # inside the third 64-column panel, [128, 192)


def _failing_at(step, shift=0.0, seed=1):
    """diag_dominant of order N whose pivot `step` is zero (plus *shift*).

    The diagonal entry a[step, step] is set to the Schur complement of the
    leading block, so the pivot of that step is rounding noise, far below
    the pivot tolerance; *shift* moves it off zero.
    """
    a = generate(MatrixFamily("diag_dominant", N, seed))
    lead = a[:step, :step]
    a[step, step] = a[step, :step] @ np.linalg.solve(lead, a[:step, step]) + shift
    return a


class _Recording(OpCounter):
    """OpCounter that also counts the calls made to it."""

    __slots__ = ("calls",)

    def __init__(self):
        super().__init__()
        self.calls = 0

    def add_muldiv(self, count):
        self.calls += 1
        super().add_muldiv(count)

    def add_sqrt(self, count=1):
        self.calls += 1
        super().add_sqrt(count)


class TestFailedCalls:
    @pytest.mark.parametrize("func", [symmetric.lower_stage, symmetric.invert_v1])
    def test_failure_inside_a_panel_counts_the_completed_panels(self, func):
        a = _failing_at(STEP)
        cnt = OpCounter()
        with pytest.raises(ZeroPivot) as err:
            func(a, cnt)
        assert err.value.step == STEP
        # Steps 0..127 ran in the two completed panels; the third panel's
        # steps 128 and 129 ran too, but that panel did not complete.
        assert cnt.muldiv == 1_886_912
        state = modgauss.EliminationState.start(a, [N])
        stepwise = OpCounter()
        while state.step < 128:
            state = modgauss.eliminate_step(state, stepwise, allow_swaps=False)
        assert cnt.muldiv == stepwise.muldiv

    def test_stepwise_failure_counts_every_completed_step(self):
        a = _failing_at(STEP)
        state = modgauss.EliminationState.start(a, [N])
        cnt = OpCounter()
        with pytest.raises(ZeroPivot):
            while True:
                state = modgauss.eliminate_step(state, cnt, allow_swaps=False)
        assert state.step == STEP
        assert cnt.muldiv == sum((N - k) * (2 * k + 1) for k in range(STEP)) == 1_923_805

    @pytest.mark.parametrize("func", [
        symmetric.invert_v2, baselines.ldl_factor, baselines.invert_ldl,
    ])
    def test_failed_factor_form_counts_nothing(self, func):
        cnt = OpCounter()
        with pytest.raises(ZeroPivot) as err:
            func(_failing_at(STEP), cnt)
        assert err.value.step == STEP
        assert (cnt.muldiv, cnt.sqrt) == (0, 0)

    @pytest.mark.parametrize("func", [
        baselines.cholesky_factor, baselines.invert_cholesky, baselines.invert_km,
    ])
    def test_failed_cholesky_counts_nothing(self, func):
        cnt = OpCounter()
        with pytest.raises(NotPositiveDefinite) as err:
            func(_failing_at(STEP, shift=-1.0), cnt)
        assert err.value.step == STEP
        assert (cnt.muldiv, cnt.sqrt) == (0, 0)

    @pytest.mark.parametrize("a", [
        _failing_at(STEP),
        generate(MatrixFamily("zero_leading_minor", N, 3)),
    ], ids=["zero-pivot-at-130", "zero-leading-minor"])
    def test_robust_fallback_counts_only_the_fallback(self, a):
        cnt = OpCounter()
        symmetric.invert_symmetric_robust(a, cnt)
        assert (cnt.muldiv, cnt.sqrt) == (N ** 3 + N ** 2, 0)


def _trailing3_solve(a, counter):
    return modgauss.solve(a, np.ones(len(a)), [2, 3, 4], counter)


# (muldiv, sqrt) on 1e-310 I at n = 4: under np.errstate(all="raise"),
# where the first overflow raises FloatingPointError, and in numpy's
# default mode, where every phase completes and the overflow check
# raises.  The two factors complete in both modes.
_OVERFLOW_COUNTS = [
    (baselines.invert_cholesky, (36, 4), (56, 4)),
    (baselines.invert_ldl, (30, 0), (50, 0)),
    (baselines.invert_km, (30, 4), (40, 4)),
    (baselines.ldl_factor, (26, 0), (26, 0)),
    (baselines.cholesky_factor, (16, 4), (16, 4)),
    (symmetric.invert_v2, (0, 0), (40, 0)),
    (symmetric.invert_symmetric_robust, (0, 0), (40, 0)),
    (symmetric.invert_v1, (0, 0), (30, 0)),
    (modgauss.invert, (0, 0), (64, 0)),
    (symmetric.invert_v2_reference, (0, 0), (40, 0)),
    (symmetric.lower_stage, (0, 0), (30, 0)),
    (_trailing3_solve, (0, 0), (49, 0)),
]


@pytest.mark.parametrize("func, raised, default", _OVERFLOW_COUNTS,
                         ids=[f.__name__ for f, _, _ in _OVERFLOW_COUNTS])
class TestOverflowMidRun:
    """Every phase is counted after its arithmetic, so an overflow that
    raises inside a phase leaves only the phases before it counted."""

    @staticmethod
    def _raises_unless_a_factor(func, *args, **kwargs):
        if func in (baselines.ldl_factor, baselines.cholesky_factor):
            return contextlib.nullcontext()
        return pytest.raises(*args, **kwargs)

    def test_floating_point_errors_count_the_completed_phases(self, func, raised, default):
        cnt = OpCounter()
        with np.errstate(all="raise"), self._raises_unless_a_factor(func, FloatingPointError):
            func(1e-310 * np.eye(4), cnt)
        assert (cnt.muldiv, cnt.sqrt) == raised

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_default_mode_counts_every_phase(self, func, raised, default):
        cnt = OpCounter()
        with self._raises_unless_a_factor(func, InvalidArgument,
                                          match="the inverse overflows float64"):
            func(1e-310 * np.eye(4), cnt)
        assert (cnt.muldiv, cnt.sqrt) == default


class TestCallsPerRun:
    """One tally per blocked phase: the panel driver adds one per panel."""

    @pytest.mark.parametrize("method, calls", [
        ("gauss", 1), ("v1", 2), ("v2", 1),
        # ldl: factor, forward solve, then the diagonal and back solves in
        # the shared finish; cholesky: factor (muldiv and sqrt), one per
        # forward-solve row, the finish; km: factor, inverse, finish.
        ("ldl", 3), ("cholesky", 35), ("km", 4),
    ])
    def test_counter_calls_at_n32(self, method, calls):
        a = generate(MatrixFamily("diag_dominant", 32, 5))
        cnt = _Recording()
        genbench.METHOD_FUNCS[method](a, cnt)
        assert cnt.calls == calls

    def test_robust_fallback_calls_at_n32(self):
        # The panel cut short by the swap at step 0, the swap step, the
        # panel after it and the symmetrization.
        z = generate(MatrixFamily("zero_leading_minor", 32, 5))
        cnt = _Recording()
        symmetric.invert_symmetric_robust(z, cnt)
        assert cnt.calls == 4

    def test_one_tally_per_panel_and_swap_step(self):
        a = generate(MatrixFamily("diag_dominant", N, 5))
        a[STEP, :STEP + 1] = 0.0  # the pivot of step 130 is exactly zero: one swap
        cnt = _Recording()
        modgauss.invert(a, cnt)
        # Panels [0, 64), [64, 128), [128, 130) cut by the swap, the swap
        # step 130, then [131, 195) and [195, 200).
        assert cnt.calls == 6
        assert cnt.muldiv == N ** 3

    def test_solve_adds_its_dot_products_once(self):
        a = generate(MatrixFamily("diag_dominant", 32, 5))
        cnt = _Recording()
        modgauss.solve(a, np.ones(32), [3, 17, 32], cnt)
        assert cnt.calls == 2


def test_one_step_formula_and_no_counter_in_the_arithmetic():
    assert "counter" not in inspect.signature(modgauss._run_step).parameters
    assert not hasattr(OpCounter, "merge")
    # m rows at step k: m k multiplier products, one reciprocal, k to scale
    # the pivot row and (m - 1)(k + 1) for the rank-one update.
    for m in range(1, 9):
        for k in range(9):
            assert modgauss._step_cost(m, k) == m * k + 1 + k + (m - 1) * (k + 1)


def _is_new_counter(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "OpCounter")


def test_every_count_goes_through_the_one_tally():
    # Outside matcore no module calls add_muldiv/add_sqrt itself, no module
    # builds a fallback counter (`counter if counter is not None else
    # OpCounter()`), and only the modules that read a counter (genbench,
    # the CLI) create one: every other routine passes its caller's
    # counter, or None, on to matcore._tally.
    for path in sorted(Path(modgauss.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = (path.name, getattr(node, "lineno", None))
            if isinstance(node, ast.IfExp):
                assert not (_is_new_counter(node.body) or _is_new_counter(node.orelse)), where
            if path.stem == "matcore":
                continue
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("add_muldiv", "add_sqrt"), where
            if _is_new_counter(node):
                assert path.stem in ("genbench", "cli"), where


def _close(got, want):
    assert frobenius_norm(got - want) <= 1e-10 * frobenius_norm(want)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
class TestExecutionCounts:
    """Each count equals the scalar transcription's count of its arithmetic."""

    def test_v2_sweep(self, kind, n):
        a = generate(MatrixFamily(kind, n, 3))
        tally, stepwise, factored = Tally(), OpCounter(), OpCounter()
        funcs = ((symmetric.invert_v2_reference, stepwise), (symmetric.invert_v2, factored))
        if kind == "zero_leading_minor":  # every method rejects the pivot of step 0
            with pytest.raises(PivotRejected, match="step 0"):
                v2_sweep_scalar(a, tally)
            for func, cnt in funcs:
                with pytest.raises(ZeroPivot) as err:
                    func(a, cnt)
                assert err.value.step == 0
            assert tally.muldiv == stepwise.muldiv == factored.muldiv == 0
            return
        want = v2_sweep_scalar(a, tally)
        assert tally.muldiv == q_theor("v2", n)
        for func, cnt in funcs:
            _close(func(a, cnt), want)
            assert cnt.muldiv == tally.muldiv

    def test_full_elimination(self, kind, n):
        a = generate(MatrixFamily(kind, n, 3))
        tally, cnt = Tally(), OpCounter()
        want = eliminate_scalar(a, set(range(n)), tally)
        _close(modgauss.invert(a, cnt), want)
        assert tally.muldiv == cnt.muldiv == n ** 3
        if kind == "zero_leading_minor":  # that count includes one swap, at step 0
            with pytest.raises(PivotRejected, match="step 0"):
                eliminate_scalar(a, set(range(n)), Tally(), allow_swaps=False)

    def test_lower_stage(self, kind, n):
        a = generate(MatrixFamily(kind, n, 3))
        tally, cnt = Tally(), OpCounter()
        if kind == "zero_leading_minor":
            with pytest.raises(PivotRejected, match="step 0"):
                eliminate_scalar(a, {n - 1}, tally, allow_swaps=False)
            with pytest.raises(ZeroPivot) as err:
                symmetric.lower_stage(a, cnt)
            assert err.value.step == 0
            assert tally.muldiv == cnt.muldiv == 0
            return
        want = eliminate_scalar(a, {n - 1}, tally, allow_swaps=False)
        _close(symmetric.lower_stage(a, cnt), want)
        assert tally.muldiv == cnt.muldiv == q_theor("v1_stage1", n)

    def test_trailing_solve(self, kind, n):
        a = generate(MatrixFamily(kind, n, 3))
        b = np.linspace(1.0, 2.0, n)
        for p in range(1, n + 1):
            tally, cnt = Tally(), OpCounter()
            f = eliminate_scalar(a, set(range(n - p, n)), tally)
            got = modgauss.solve(a, b, range(n - p + 1, n + 1), cnt)
            assert tally.muldiv == cnt.muldiv - n * p == q_theor("modgauss_p", n, p)
            assert list(got) == list(range(n - p + 1, n + 1))
            _close(np.array(list(got.values())), f[n - p:] @ b)

    def test_cholesky(self, kind, n):
        a = generate(MatrixFamily(kind, n, 3))
        tally, cnt = Tally(), OpCounter()
        try:
            want = cholesky_scalar(a, tally)
        except PivotRejected as exc:  # not positive definite
            assert kind != "diag_dominant"
            with pytest.raises(NotPositiveDefinite) as err:
                baselines.invert_cholesky(a, cnt)
            assert err.value.step == exc.step
            assert cnt.muldiv == cnt.sqrt == 0
            return
        _close(baselines.invert_cholesky(a, cnt), want)
        assert tally.muldiv == cnt.muldiv == q_theor("cholesky", n)
        assert tally.sqrt == cnt.sqrt == n

    def test_ldl(self, kind, n):
        a = generate(MatrixFamily(kind, n, 3))
        tally, cnt = Tally(), OpCounter()
        try:
            want = ldl_scalar(a, tally)
        except PivotRejected as exc:
            assert kind == "zero_leading_minor"
            with pytest.raises(ZeroPivot) as err:
                baselines.invert_ldl(a, cnt)
            assert err.value.step == exc.step
            assert cnt.muldiv == 0
            return
        _close(baselines.invert_ldl(a, cnt), want)
        assert tally.muldiv == cnt.muldiv == q_theor("ldl", n)
        assert tally.sqrt == cnt.sqrt == 0

    def test_v1_stage_two(self, kind, n):
        a = generate(MatrixFamily(kind, n, 3))
        if kind == "zero_leading_minor":  # stage one rejects the pivot of step 0
            with pytest.raises(ZeroPivot, match="step 0"):
                symmetric.lower_stage(a)
            return
        f = symmetric.lower_stage(a)
        tally, cnt = Tally(), OpCounter()
        want = complete_lower_scalar(f, tally)
        _close(symmetric.complete_lower(f, cnt), want)
        assert tally.muldiv == cnt.muldiv == q_theor("v1_stage2", n)

    def test_km(self, kind, n):
        # The transcription of km's docstring counts n^2 more than km's
        # model: n(n-1)/2 in the triangular inverse, which scales every
        # off-diagonal entry by its row's reciprocal, and n(n+1)/2 in the
        # product, whose sums include the diagonal term.  The model
        # absorbs both, so this pins the gap rather than closing it.
        a = generate(MatrixFamily(kind, n, 3))
        tally, cnt = Tally(), OpCounter()
        try:
            want = km_scalar(a, tally)
        except PivotRejected as exc:  # not positive definite
            assert kind != "diag_dominant"
            with pytest.raises(NotPositiveDefinite) as err:
                baselines.invert_km(a, cnt)
            assert err.value.step == exc.step
            assert cnt.muldiv == cnt.sqrt == 0
            return
        _close(baselines.invert_km(a, cnt), want)
        assert cnt.muldiv == q_theor("km", n)
        assert tally.muldiv == q_theor("km", n) + n * n == q_theor("cholesky", n)
        assert tally.sqrt == cnt.sqrt == n

    def test_cholesky_rejects_a_tiny_pivot(self, kind, n):
        # Pivot j is 1e-15: above the square of the threshold
        # 1e-12 max|a_ij|, at or below the threshold itself.
        a = generate(MatrixFamily(kind, n, 3))
        for j in range(n):
            b = a.copy()
            b[j, :] = b[:, j] = 0.0
            b[j, j] = 1e-15
            with pytest.raises(PivotRejected) as want:
                cholesky_scalar(b, Tally())
            with pytest.raises(NotPositiveDefinite) as err:
                baselines.cholesky_factor(b)
            assert err.value.step == want.value.step
            if kind == "diag_dominant":  # its other pivots stay positive
                assert err.value.step == j


def _failing_at_step_5():
    """diag_dominant of order 8 whose pivot of step 5 is rounding noise."""
    n, k = 8, 5
    a = generate(MatrixFamily("diag_dominant", n, 3))
    a[k, k] = a[k, :k] @ np.linalg.solve(a[:k, :k], a[:k, k])
    return a, n, k


def test_v2_sweep_failing_mid_run_counts_completed_steps():
    # The oracle counts by execution, so it holds the (n - k) * k
    # multiplier products that found the pivot of step 5 rejected; the
    # sweep adds a step once it completes and holds steps 0..4 only, and
    # the factor form, which tallies its model only on success, nothing.
    a, n, k = _failing_at_step_5()
    tally, stepwise, factored = Tally(), OpCounter(), OpCounter()
    with pytest.raises(PivotRejected, match=f"step {k}"):
        v2_sweep_scalar(a, tally)
    for func, cnt in ((symmetric.invert_v2_reference, stepwise), (symmetric.invert_v2, factored)):
        with pytest.raises(ZeroPivot) as err:
            func(a, cnt)
        assert err.value.step == k
    # Steps 0..4 of an order-8 sweep cost 8 + 22 + 33 + 41 + 46.
    assert tally.muldiv == 150 + (n - k) * k
    assert stepwise.muldiv == 150
    assert factored.muldiv == 0


def test_elimination_failing_mid_run_counts_completed_steps():
    # The same rule for the trailing-1 elimination without swaps: the
    # oracle holds step 5's 3 * 5 multiplier products, eliminate_step
    # steps 0..4 only.
    a, n, k = _failing_at_step_5()
    tally, cnt = Tally(), OpCounter()
    with pytest.raises(PivotRejected, match=f"step {k}"):
        eliminate_scalar(a, {n - 1}, tally, allow_swaps=False)
    state = modgauss.EliminationState.start(a, [n])
    with pytest.raises(ZeroPivot) as err:
        while True:
            state = modgauss.eliminate_step(state, cnt, allow_swaps=False)
    assert err.value.step == state.step == k
    # Steps 0..4 update 8, 7, 6, 5 and 4 rows: 8 + 21 + 30 + 35 + 36.
    assert tally.muldiv == 130 + 3 * k
    assert cnt.muldiv == 130
