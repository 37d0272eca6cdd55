"""Baseline inversions: Cholesky, LDL, and the triangular-product method."""

import numpy as np
import pytest

from oracles import inverse_bruteforce, ldl_columns, random_symmetric
from syminv import (
    NotPositiveDefinite,
    NotSymmetric,
    OpCounter,
    ZeroPivot,
    cholesky_factor,
    invert_cholesky,
    invert_km,
    invert_ldl,
    invert_symmetric_robust,
    invert_v1,
    invert_v2,
    invert_v2_reference,
    ldl_factor,
    lower_stage,
    q_theor,
    s_theor,
)
from syminv.baselines import _ldl_nopiv_blocked, _lower_gram, _unit_lower_inverse


def _spd(rng, n):
    m = random_symmetric(rng, n)
    m[np.diag_indices(n)] = np.abs(m).sum(axis=1) + 1.0
    return m


class TestCholeskyFactor:
    def test_hand_diagonal(self):
        fac = cholesky_factor(np.diag([4.0, 9.0]))
        np.testing.assert_array_equal(fac.l, np.diag([2.0, 3.0]))

    def test_reconstructs_input(self):
        rng = np.random.default_rng(163)
        for n in (2, 5, 12):
            a = _spd(rng, n)
            l = cholesky_factor(a).l
            assert np.abs(np.triu(l, 1)).max() == 0.0
            np.testing.assert_allclose(l @ l.T, a, atol=1e-12 * n)

    def test_counts(self):
        rng = np.random.default_rng(167)
        for n in (1, 2, 7, 20):
            c = OpCounter()
            cholesky_factor(_spd(rng, n), c)
            # column j: one reciprocal-free pivot (j products + 1 sqrt)
            # and (n-1-j)(j+1) for the subcolumn
            want = sum(j + (n - 1 - j) * (j + 1) for j in range(n))
            assert c.muldiv == want
            assert c.sqrt == n

    def test_indefinite_rejected_with_column(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky_factor(a)
        assert err.value.step == 1

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky_factor(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestLdlFactor:
    def test_hand_example(self):
        fac = ldl_factor([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(fac.l, [[1.0, 0.0], [0.5, 1.0]])
        np.testing.assert_array_equal(fac.d, [2.0, 1.5])

    def test_reconstructs_input(self):
        rng = np.random.default_rng(173)
        for n in (2, 6, 13):
            a = _spd(rng, n)
            fac = ldl_factor(a)
            np.testing.assert_allclose(fac.l @ np.diag(fac.d) @ fac.l.T, a,
                                       atol=1e-12 * n)
            np.testing.assert_array_equal(np.diag(fac.l), np.ones(n))

    def test_indefinite_is_factorable(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        fac = ldl_factor(a)
        np.testing.assert_allclose(fac.d, [1.0, -3.0])

    def test_zero_minor_raises(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ZeroPivot) as err:
            ldl_factor(a)
        assert err.value.step == 0

    def test_counts(self):
        rng = np.random.default_rng(179)
        for n in (1, 2, 8, 15):
            c = OpCounter()
            ldl_factor(_spd(rng, n), c)
            want = sum(2 * j + (n - 1 - j) * (2 * j + 1) for j in range(n))
            assert c.muldiv == want
            assert c.sqrt == 0


class TestInversions:
    @pytest.mark.parametrize("func,name", [
        (invert_cholesky, "cholesky"),
        (invert_ldl, "ldl"),
        (invert_km, "km"),
    ])
    def test_matches_oracle(self, func, name):
        for i in range(8):
            n = 2 + i % 6
            a = _spd(np.random.default_rng(600 + i), n)
            oracle = inverse_bruteforce(a)
            got = func(a)
            np.testing.assert_allclose(got, oracle, rtol=0,
                                       atol=1e-10 * np.abs(oracle).max())

    @pytest.mark.parametrize("func,name", [
        (invert_cholesky, "cholesky"),
        (invert_ldl, "ldl"),
        (invert_km, "km"),
    ])
    def test_counts_match_formulas(self, func, name):
        rng = np.random.default_rng(181)
        for n in (1, 2, 3, 9, 26):
            c = OpCounter()
            func(_spd(rng, n), c)
            assert c.muldiv == q_theor(name, n), (name, n)
            assert c.sqrt == s_theor(name, n), (name, n)

    @pytest.mark.parametrize("func", [invert_cholesky, invert_km])
    def test_indefinite_rejected(self, func):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            func(a)

    def test_ldl_inverts_indefinite(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])
        np.testing.assert_allclose(invert_ldl(a) @ a, np.eye(2), atol=1e-14)

    def test_hand_diagonal(self):
        a = np.diag([4.0, 9.0])
        want = np.diag([0.25, 1.0 / 9.0])
        for func in (invert_cholesky, invert_ldl, invert_km):
            np.testing.assert_allclose(func(a), want)

    @pytest.mark.parametrize("func", [invert_cholesky, invert_ldl, invert_km])
    def test_output_symmetric(self, func):
        a = _spd(np.random.default_rng(191), 9)
        inv = func(a)
        np.testing.assert_array_equal(inv, inv.T)


def _vanishing_minor(a, j):
    """Symmetric a with row and column j zeroed up to the diagonal: pivot j is 0."""
    a = a.copy()
    a[j, :j + 1] = 0.0
    a[:j + 1, j] = 0.0
    return a


def _indefinite(rng, n):
    """Symmetric, diagonally dominant, with diagonal signs alternating."""
    m = _spd(rng, n)
    m[np.diag_indices(n)] *= np.where(np.arange(n) % 2, -1.0, 1.0)
    return m


class TestBlockedKernels:
    """The 64-column kernels: LDL^T factor, lower-only product, solve phases."""

    @pytest.mark.parametrize("j", [0, 63, 64, 65, 130])
    def test_zero_pivot_step(self, j):
        a = _vanishing_minor(_spd(np.random.default_rng(700 + j), 200), j)
        for func in (ldl_factor, invert_v2, invert_ldl, invert_v1, lower_stage,
                     invert_v2_reference):
            with pytest.raises(ZeroPivot) as err:
                func(a)
            assert err.value.step == j
        # robust falls back to the swapping elimination at that step
        n = a.shape[0]
        c = OpCounter()
        x = invert_symmetric_robust(a, c)
        assert c.muldiv == n ** 3 + n ** 2
        np.testing.assert_array_equal(x, x.T)
        bound = 1e-10 * (1.0 + np.linalg.norm(a) * np.linalg.norm(x))
        assert np.linalg.norm(a @ x - np.eye(n)) <= bound

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_factor_matches_column_oracle(self, n):
        rng = np.random.default_rng(710 + n)
        for a in (_spd(rng, n), _indefinite(rng, n)):
            fac = ldl_factor(a)
            l, d = ldl_columns(a)
            assert np.linalg.norm(fac.l - l) <= 1e-13 * np.linalg.norm(l)
            assert np.linalg.norm(fac.d - d) <= 1e-13 * np.linalg.norm(d)
            assert np.abs(np.triu(fac.l, 1)).max(initial=0.0) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130, 200])
    def test_lower_gram(self, n):
        rng = np.random.default_rng(720 + n)
        x = np.tril(rng.uniform(-1, 1, (n, n)))
        y = np.tril(rng.uniform(-1, 1, (n, n)))
        want = np.tril(x.T @ y)
        got = _lower_gram(x, y)
        assert np.abs(np.triu(got, 1)).max(initial=0.0) == 0.0
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_blocked_inversions(self, n):
        rng = np.random.default_rng(730 + n)
        cases = [(invert_ldl, "ldl", _spd(rng, n)), (invert_km, "km", _spd(rng, n)),
                 (invert_ldl, "ldl", _indefinite(rng, n))]
        for func, name, a in cases:
            c = OpCounter()
            x = func(a, c)
            np.testing.assert_array_equal(x, x.T)
            bound = 1e-10 * (1.0 + np.linalg.norm(a) * np.linalg.norm(x))
            assert np.linalg.norm(a @ x - np.eye(n)) <= bound, name
            assert c.muldiv == q_theor(name, n), name
            assert c.sqrt == s_theor(name, n), name


def _with_pivot(a, j, value):
    """a with row and column j zeroed off the diagonal and a_jj = value: pivot j is value."""
    a = _vanishing_minor(a, j)
    a[j, j] = value
    a[j, j + 1:] = 0.0
    a[j + 1:, j] = 0.0
    return a


class TestCholeskyOnLdlKernel:
    """cholesky_factor runs on the LDL^T kernel with Cholesky's acceptance test."""

    @pytest.mark.parametrize("j", [0, 63, 64, 65, 130])
    def test_not_positive_definite_step(self, j):
        rng = np.random.default_rng(740 + j)
        for a in (_vanishing_minor(_spd(rng, 200), j), _with_pivot(_spd(rng, 200), j, -0.5)):
            for func in (cholesky_factor, invert_cholesky, invert_km):
                with pytest.raises(NotPositiveDefinite) as err:
                    func(a)
                assert err.value.step == j

    @pytest.mark.parametrize("scale", [1e-13, 1e-20])
    def test_tiny_scaled_identity_accepted(self, scale):
        n = 70
        fac = cholesky_factor(scale * np.eye(n))
        np.testing.assert_array_equal(fac.l, np.sqrt(scale) * np.eye(n))
        x = invert_cholesky(scale * np.eye(n))
        np.testing.assert_allclose(x, np.eye(n) / scale, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("j", [0, 64, 130])
    def test_pivot_between_tol_squared_and_tol(self, j):
        # tol = 1e-12 (1 + max|a|) and tol^2 < 1e-15 <= tol: Cholesky
        # accepts the pivot, LDL^T rejects it.
        a = _with_pivot(_spd(np.random.default_rng(750 + j), 200), j, 1e-15)
        l = cholesky_factor(a).l
        assert l[j, j] == np.sqrt(1e-15)
        for func in (ldl_factor, invert_ldl, invert_v2):
            with pytest.raises(ZeroPivot) as err:
                func(a)
            assert err.value.step == j

    @pytest.mark.parametrize("n", [63, 64, 65, 200])
    def test_reconstructs_and_counts(self, n):
        a = _spd(np.random.default_rng(760 + n), n)
        c = OpCounter()
        l = cholesky_factor(a, c).l
        assert np.abs(np.triu(l, 1)).max(initial=0.0) == 0.0
        assert (np.diag(l) > 0.0).all()
        assert np.linalg.norm(l @ l.T - a) <= 1e-13 * np.linalg.norm(a)
        assert c.muldiv == sum(j + (n - 1 - j) * (j + 1) for j in range(n))
        assert c.sqrt == n


@pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
def test_unit_lower_inverse_reuses_kernel_blocks(n):
    rng = np.random.default_rng(770 + n)
    for a in (_spd(rng, n), _indefinite(rng, n)):
        l, _, blocks = _ldl_nopiv_blocked(a.copy())
        assert len(blocks) == (n - 1) // 64
        got = _unit_lower_inverse(l, blocks)
        np.testing.assert_array_equal(got, _unit_lower_inverse(l))
        want = np.linalg.inv(l + np.eye(n))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
        assert np.abs(np.triu(got, 1)).max(initial=0.0) == 0.0
