"""Modified Gaussian elimination: inversion, partial solves, swaps, counts."""

import numpy as np
import pytest

from oracles import inverse_bruteforce
from syminv import (
    METHOD_FUNCS,
    DimensionMismatch,
    EliminationState,
    InvalidArgument,
    LinAlgError,
    OpCounter,
    RequiredSet,
    SingularMatrix,
    ZeroPivot,
    eliminate,
    eliminate_step,
    generate,
    invert,
    invert_v2_reference,
    MatrixFamily,
    q_theor,
    lower_stage,
    modgauss,
    row_identities_check,
    solve,
)
from syminv.modgauss import default_pivot_tol


def _dominant(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    m[np.diag_indices(n)] = np.abs(m).sum(axis=1) + 1.0
    return m


def _vanishing_minors(a, *steps):
    """a with row k zeroed in columns 0..k: the pivot of step k is exactly 0."""
    a = a.copy()
    for k in steps:
        a[k, :k + 1] = 0.0
    return a


def _stepwise(a, required=None):
    """Run eliminate_step to completion; returns (final state, muldiv)."""
    state = EliminationState.start(a, required)
    c = OpCounter()
    while state.step < state.a.shape[0]:
        state = eliminate_step(state, counter=c)
    return state, c.muldiv


def _required(kind, n):
    return {"full": None,
            "trailing1": RequiredSet.trailing(n, 1),
            "trailing_third": RequiredSet.trailing(n, n // 3),
            "scattered": RequiredSet(i for i in (2, 64, 65, n) if i <= n)}[kind]


class TestInvert:
    def test_identity(self):
        c = OpCounter()
        inv = invert(np.eye(4), counter=c)
        np.testing.assert_array_equal(inv, np.eye(4))
        assert c.muldiv == 64  # n^3 even on the identity
        assert c.sqrt == 0

    def test_hand_2x2(self):
        inv = invert([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(inv, np.array([[2, -1], [-1, 2]]) / 3.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(43)
        for n in range(2, 8):
            a = _dominant(rng, n)
            inv = invert(a)
            oracle = inverse_bruteforce(a)
            np.testing.assert_allclose(inv, oracle, rtol=0,
                                       atol=1e-10 * np.abs(oracle).max())

    def test_counts_are_n_cubed(self):
        rng = np.random.default_rng(47)
        for n in (1, 2, 5, 13, 30):
            c = OpCounter()
            invert(_dominant(rng, n), counter=c)
            assert c.muldiv == n ** 3
            assert c.sqrt == 0

    def test_nonsymmetric_input(self):
        a = np.array([[4.0, 1.0], [-3.0, 2.0]])
        np.testing.assert_allclose(invert(a) @ a, np.eye(2), atol=1e-14)


class TestPivoting:
    def test_zero_leading_minor_needs_swaps(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(invert(a), a)  # involution, via a swap
        with pytest.raises(ZeroPivot) as err:
            invert(a, allow_swaps=False)
        assert err.value.step == 0

    def test_zero_pivot_step_is_zero_based(self):
        a = np.eye(3)
        a[1, 1] = 0.0
        a[1, 2] = a[2, 1] = 1.0  # minor of order 2 vanishes
        with pytest.raises(ZeroPivot) as err:
            invert(a, allow_swaps=False)
        assert err.value.step == 1

    def test_singular_matrix_detected_with_swaps(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix):
            invert(a)

    def test_swapped_inverse_is_still_exact_inverse(self):
        rng = np.random.default_rng(53)
        base = _dominant(rng, 6)
        a = base[[3, 1, 4, 0, 5, 2]]  # permuted rows: early pivots vanish-ish
        inv = invert(a)
        np.testing.assert_allclose(inv @ a, np.eye(6), atol=1e-12)
        oracle = inverse_bruteforce(a)
        np.testing.assert_allclose(inv, oracle, atol=1e-10 * np.abs(oracle).max())


class TestPartialElimination:
    def test_trailing_counts_match_formula(self):
        rng = np.random.default_rng(59)
        for n in (3, 6, 11):
            a = _dominant(rng, n)
            for p in range(1, n + 1):
                c = OpCounter()
                eliminate(a, RequiredSet.trailing(n, p), counter=c,
                          allow_swaps=False)
                assert c.muldiv == q_theor("modgauss_p", n, p), (n, p)

    def test_required_rows_are_inverse_rows(self):
        rng = np.random.default_rng(61)
        a = _dominant(rng, 7)
        f = eliminate(a, RequiredSet([2, 5, 7]))
        full = invert(a)
        for i in (2, 5, 7):
            np.testing.assert_allclose(f[i - 1], full[i - 1], atol=1e-13)


class TestSolve:
    def test_identity_example(self):
        x = solve(np.eye(3), [1.0, 2.0, 3.0], RequiredSet([3]))
        assert x == {3: 3.0}

    def test_matches_dense_solution(self):
        rng = np.random.default_rng(67)
        a = _dominant(rng, 8)
        b = rng.uniform(-1, 1, 8)
        full = np.linalg.solve(a, b)
        x = solve(a, b, [1, 4, 8])
        assert set(x) == {1, 4, 8}
        for i, v in x.items():
            assert v == pytest.approx(full[i - 1], abs=1e-12)

    def test_counts_add_final_dots(self):
        rng = np.random.default_rng(71)
        n = 9
        a = _dominant(rng, n)
        b = rng.uniform(-1, 1, n)
        for p in (1, 3, n):
            c = OpCounter()
            solve(a, b, RequiredSet.trailing(n, p), counter=c,
                  allow_swaps=False)
            assert c.muldiv == q_theor("modgauss_p", n, p) + n * p

    def test_accepts_plain_iterable_required(self):
        x = solve(np.eye(2), [5.0, 6.0], [1, 2])
        assert x == {1: 5.0, 2: 6.0}


class TestEliminationState:
    def test_stepping_matches_driver(self):
        rng = np.random.default_rng(73)
        a = _dominant(rng, 6)
        state = EliminationState.start(a)
        c = OpCounter()
        for _ in range(6):
            state = eliminate_step(state, counter=c)
        np.testing.assert_array_equal(state.f, invert(a))
        assert c.muldiv == 6 ** 3
        assert state.step == 6

    def test_states_are_immutable_snapshots(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        s0 = EliminationState.start(a)
        s1 = eliminate_step(s0)
        assert s0.step == 0 and s1.step == 1
        np.testing.assert_array_equal(s0.f, np.eye(2))  # s0 untouched
        with pytest.raises(Exception):
            s0.step = 5

    def test_too_many_steps_rejected(self):
        state = EliminationState.start(np.eye(2))
        state = eliminate_step(eliminate_step(state))
        with pytest.raises(InvalidArgument):
            eliminate_step(state)

    def test_swap_recorded_in_perm(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        state = eliminate_step(EliminationState.start(a))
        assert state.perm == ((0, 1),)

    def test_a_run_derives_its_threshold_once(self, monkeypatch):
        calls = []
        real = modgauss.default_pivot_tol
        monkeypatch.setattr(modgauss, "default_pivot_tol", lambda a: calls.append(1) or real(a))
        state, _ = _stepwise(generate(MatrixFamily("zero_leading_minor", 20, 7)))
        assert state.perm[0][0] == 0 and len(calls) == 1

    @pytest.mark.parametrize("n", [9, 65, 130])
    @pytest.mark.parametrize("kind", ["zero_leading_minor", "vanishing_minors"])
    def test_a_state_built_with_a_perm_steps_like_the_carried_one(self, kind, n):
        # A state built directly derives the run's row-swapped A from its
        # perm; the carried state has it from the steps before.
        if kind == "zero_leading_minor":
            a = generate(MatrixFamily(kind, n, 7))
        else:
            a = _vanishing_minors(_dominant(np.random.default_rng(4000 + n), n), 2, n // 2)
        states = [EliminationState.start(a)]
        while states[-1].step < n:
            states.append(eliminate_step(states[-1]))
        swapped = [k for k, _ in states[-1].perm]
        assert swapped[0] in (0, 2)
        for k in sorted({s + 1 for s in swapped} | {n - 1}):
            s = states[k]
            state = EliminationState(a=s.a, f=s.f, step=k, required=s.required, perm=s.perm)
            assert state.perm and state == s
            for want in states[k + 1:]:
                state = eliminate_step(state)
                assert state.f.tobytes() == want.f.tobytes() and state.perm == want.perm


class TestPanelDriver:
    """eliminate runs the steps in 64-column panels; eliminate_step one by one."""

    def _agree(self, a, required):
        c = OpCounter()
        f = eliminate(a, required, counter=c)
        state, muldiv = _stepwise(a, required)
        assert c.muldiv == muldiv
        dev = np.linalg.norm(f - state.f) / np.linalg.norm(state.f)
        assert dev <= 1e-13
        return f, state

    @pytest.mark.parametrize("kind", ["full", "trailing1", "trailing_third", "scattered"])
    @pytest.mark.parametrize("n", [63, 64, 65, 129, 200])
    def test_matches_stepwise(self, n, kind):
        a = _dominant(np.random.default_rng(1000 + n), n)
        f, state = self._agree(a, _required(kind, n))
        assert state.perm == ()
        if n <= 64:  # one panel with no outside rows: the stepwise arithmetic
            np.testing.assert_array_equal(f, state.f)

    @pytest.mark.parametrize("kind", ["full", "trailing_third"])
    @pytest.mark.parametrize("steps", [(0,), (5,), (64,), (70,), (5, 40)])
    def test_swaps_match_stepwise(self, steps, kind):
        n = 129
        a = _vanishing_minors(_dominant(np.random.default_rng(2000 + n), n), *steps)
        _, state = self._agree(a, _required(kind, n))
        assert [k for k, _ in state.perm] == list(steps)

    @pytest.mark.parametrize("kind", ["full", "trailing1", "trailing_third"])
    @pytest.mark.parametrize("k", [0, 5, 64, 70])
    def test_swap_runs_cost_the_no_swap_model(self, k, kind):
        n = 129
        required = _required(kind, n)
        want = q_theor("modgauss_p", n, n if required is None else len(required))
        a = _vanishing_minors(_dominant(np.random.default_rng(3000 + k), n), k)
        c = OpCounter()
        f = eliminate(a, required, counter=c)
        assert c.muldiv == want
        state, muldiv = _stepwise(a, required)
        assert muldiv == want
        assert [s for s, _ in state.perm] == [k]
        mask = np.ones(n, bool) if required is None else required.mask(n)
        np.testing.assert_allclose(f[mask] @ a, np.eye(n)[mask], rtol=0, atol=1e-10)

    def test_many_swaps_invert_and_cost_n_cubed(self):
        n = 129
        rng = np.random.default_rng(3100)
        # A scaled permutation matrix: most leading minors vanish exactly,
        # and the swaps chain through the same rows.
        a = np.eye(n)[rng.permutation(n)] * rng.uniform(1, 2, n)
        c = OpCounter()
        f = invert(a, counter=c)
        state, muldiv = _stepwise(a)
        assert len(state.perm) > n // 2
        assert c.muldiv == muldiv == n ** 3
        np.testing.assert_allclose(f @ a, np.eye(n), rtol=0, atol=1e-10)
        np.testing.assert_allclose(state.f @ a, np.eye(n), rtol=0, atol=1e-10)

    def test_swap_step_leaves_inputs_unchanged(self):
        a = _vanishing_minors(_dominant(np.random.default_rng(7), 6), 2)
        before = a.copy()
        state = EliminationState.start(a)
        for _ in range(2):
            state = eliminate_step(state)
        a_before, f_before = state.a.copy(), state.f.copy()
        after = eliminate_step(state)
        assert after.perm[-1][0] == 2
        np.testing.assert_array_equal(a, before)
        np.testing.assert_array_equal(state.a, a_before)
        np.testing.assert_array_equal(state.f, f_before)
        np.testing.assert_array_equal(after.a, before)
        # F stays in the caller's coordinates: the rows still active
        # satisfy their row identities against the caller's A.
        np.testing.assert_allclose(after.f[3:] @ a[:, :3], 0.0, atol=1e-12)
        np.testing.assert_allclose(after.f[:3] @ a[:, :3], np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("k", [64, 70])
    def test_zero_pivot_step_across_panels(self, k):
        a = _vanishing_minors(_dominant(np.random.default_rng(k), 100), k)
        before = a.copy()
        for required in (None, RequiredSet.trailing(100, 1)):
            with pytest.raises(ZeroPivot) as err:
                eliminate(a, required, allow_swaps=False)
            assert err.value.step == k
        np.testing.assert_array_equal(a, before)

    @pytest.mark.parametrize("n, seed", [(130, 2), (200, 3)])
    def test_non_dominant_residual(self, n, seed):
        # The rows outside a panel take the refined panel rows; without
        # the refinement these inputs reach 0.06 and 0.13 of the bound.
        a = generate(MatrixFamily("non_dominant", n, seed))
        f = invert(a)
        bound = 1e-10 * (1.0 + np.linalg.norm(a) * np.linalg.norm(f))
        assert np.linalg.norm(a @ f - np.eye(n)) <= 1e-2 * bound

    def test_singular_in_second_panel(self):
        a = _dominant(np.random.default_rng(101), 100)
        a[:, 80] = a[:, 3] + 0.5 * a[:, 10]  # rank deficient from column 80 on
        before = a.copy()
        with pytest.raises(SingularMatrix, match="step 80"):
            invert(a)
        np.testing.assert_array_equal(a, before)


class TestRowIdentities:
    def test_accepts_true_inverse(self):
        rng = np.random.default_rng(79)
        a = _dominant(rng, 8)
        assert row_identities_check(a, invert(a))

    def test_partial_required(self):
        rng = np.random.default_rng(83)
        a = _dominant(rng, 6)
        req = RequiredSet.trailing(6, 2)
        f = eliminate(a, req)
        assert row_identities_check(a, f, req)
        # unreqired rows of the partial F are not inverse rows
        assert not row_identities_check(a, f)

    def test_rejects_corruption(self):
        rng = np.random.default_rng(89)
        a = _dominant(rng, 5)
        f = invert(a)
        f[2, 1] += 1e-3
        assert not row_identities_check(a, f)

    def test_shapes_must_agree(self):
        with pytest.raises(DimensionMismatch):
            row_identities_check(np.eye(3), np.eye(4))


def test_zero_minor_family_end_to_end():
    fam = MatrixFamily("zero_leading_minor", 6, 11)
    a = generate(fam)
    with pytest.raises(ZeroPivot) as err:
        invert(a, allow_swaps=False)
    assert err.value.step == 0
    inv = invert(a)  # swaps rescue it
    np.testing.assert_allclose(inv @ a, np.eye(6), atol=1e-12)


@pytest.mark.parametrize("a", [
    -np.arange(1.0, 10.0).reshape(3, 3),
    np.arange(1.0, 10.0).reshape(3, 3),
    np.zeros((4, 4)),
    np.array([[-0.0, 0.0], [0.0, -0.0]]),
    np.array([[-0.0]]),
    np.array([[-3.0, 2.0], [2.0, 1.0]]),
])
def test_default_pivot_tol_is_bitwise_the_abs_max_rule(a):
    want = 1e-12 * np.abs(a).max()
    assert np.float64(default_pivot_tol(a)).tobytes() == np.float64(want).tobytes()


_SCALED_FUNCS = dict(METHOD_FUNCS, invert_v2_reference=invert_v2_reference,
                     lower_stage=lower_stage)


def _outcome(func, a, scale=1.0):
    """func(a) times scale as bytes, or the error (its text names the step); then the counts."""
    c = OpCounter()
    try:
        out = (func(a, c) * scale).tobytes()
    except LinAlgError as exc:
        out = (type(exc).__name__, str(exc))
    return out, c.muldiv, c.sqrt


def _assert_scale_free(a):
    # The inverse of 2^k A is 2^-k A^-1 bitwise, with the same counts,
    # or the same error at the same step.
    for name, func in _SCALED_FUNCS.items():
        want = _outcome(func, a)
        for k in range(-40, 41, 2):
            assert _outcome(func, a * 2.0 ** k, 2.0 ** k) == want, (name, k)


@pytest.mark.parametrize("n", [5, 65])
@pytest.mark.parametrize("family", ["diag_dominant", "non_dominant", "zero_leading_minor"])
def test_power_of_two_scaling_keeps_every_pivot_decision(family, n):
    _assert_scale_free(generate(MatrixFamily(family, n, 3)))


def test_power_of_two_scaling_keeps_a_pivot_below_the_threshold():
    # Pivot 1 is about 1e-14, below the threshold of 1e-12 max|a_ij| but
    # above its square: every method rejects it at every scale, Cholesky
    # and km included.
    _assert_scale_free(np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-14, 0.0], [0.0, 0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-13, 1e-20])
@pytest.mark.parametrize("method", sorted(METHOD_FUNCS))
def test_tiny_scaled_identity_inverts(method, scale):
    x = METHOD_FUNCS[method](scale * np.eye(4))
    np.testing.assert_allclose(x, np.eye(4) / scale, rtol=1e-15, atol=0)


_OVERFLOW_FUNCS = dict(_SCALED_FUNCS, solve=lambda a: solve(a, np.ones(len(a)), [len(a)]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 4, 65])
@pytest.mark.parametrize("name", sorted(_OVERFLOW_FUNCS))
def test_overflowing_inverse_raises(name, n):
    # Every pivot of 1e-310 I clears the scale-free threshold, but 1/1e-310
    # overflows float64; numpy's overflow warnings are not the error.
    with pytest.raises(InvalidArgument, match="overflows"):
        _OVERFLOW_FUNCS[name](1e-310 * np.eye(n))


def _symmetric_dominant(rng, n):
    m = _dominant(rng, n)
    return np.tril(m) + np.tril(m, -1).T


class TestFrozenPanels:
    """Panels with a frozen row take W = P^-1 F_s, refined once against P."""

    @pytest.mark.parametrize("n", [65, 130, 200])
    def test_lower_stage_matches_stepwise(self, n):
        a = _symmetric_dominant(np.random.default_rng(4000 + n), n)
        f = lower_stage(a)
        state, _ = _stepwise(a, RequiredSet.trailing(n, 1))
        assert np.linalg.norm(f - state.f) <= 1e-13 * np.linalg.norm(state.f)

    @pytest.mark.parametrize("kind", ["trailing1", "trailing_third", "scattered"])
    @pytest.mark.parametrize("n", [65, 130, 200])
    def test_solve_matches_stepwise(self, n, kind):
        rng = np.random.default_rng(4100 + n)
        a, b = _dominant(rng, n), rng.uniform(-1, 1, n)
        required = _required(kind, n)
        c = OpCounter()
        got = solve(a, b, required, counter=c)
        state, muldiv = _stepwise(a, required)
        assert c.muldiv == muldiv + n * len(required)
        want = np.array([state.f[i - 1] @ b for i in required])
        dev = np.array([got[i] for i in required]) - want
        assert np.linalg.norm(dev) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("kind", ["trailing1", "trailing_third", "scattered"])
    @pytest.mark.parametrize("n, seed", [(130, 2), (200, 3)])
    def test_non_dominant_required_rows(self, n, seed, kind):
        # The rows solve takes its components from (eliminate with the
        # required set).  Without the refinement of W the n = 130 inputs
        # reach 0.024 to 0.038 of the bound.
        a = generate(MatrixFamily("non_dominant", n, seed))
        required = _required(kind, n)
        mask = required.mask(n)
        x = eliminate(a, required)[mask]
        bound = 1e-10 * (1.0 + np.linalg.norm(a) * np.linalg.norm(x))
        assert np.linalg.norm(x @ a - np.eye(n)[mask]) <= 1e-2 * bound
