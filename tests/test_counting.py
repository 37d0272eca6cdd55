"""The counting rule: a phase is counted once its arithmetic is done.

Arithmetic routines only compute.  Each blocked phase adds its per-step
model in one call after its arithmetic succeeded, and stepwise paths
add each step as it completes, so a call that raises leaves on the
counter exactly what completed before the failure.  The scalar
transcriptions in ``oracles`` count by execution, and every modelled
and measured count here must equal theirs.
"""

import inspect

import numpy as np
import pytest

from oracles import PivotRejected, Tally, eliminate_scalar, v2_sweep_scalar
from syminv import (
    FAMILY_KINDS,
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


class TestCallsPerRun:
    """One tally per blocked phase: the panel driver adds one per panel."""

    @pytest.mark.parametrize("method, calls", [("gauss", 1), ("v1", 2), ("v2", 1)])
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
