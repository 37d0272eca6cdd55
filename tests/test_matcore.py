"""Core types: validation, counting, required sets, and norm helpers."""

import numpy as np
import pytest

from oracles import matmul_triple, random_symmetric, spectral_norm
from syminv import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidArgument,
    OpCounter,
    RequiredSet,
    SymmetryCheck,
    as_matrix,
    as_vector,
    frobenius_norm,
    inverse_residual,
    matmul,
    mirror_lower,
    norm2_estimate,
)


class TestAsMatrix:
    def test_accepts_nested_lists(self):
        a = as_matrix([[1, 2], [3, 4]])
        assert a.dtype == np.float64
        np.testing.assert_array_equal(a, [[1.0, 2.0], [3.0, 4.0]])

    def test_copies_input(self):
        src = np.eye(2)
        a = as_matrix(src)
        a[0, 0] = 5.0
        assert src[0, 0] == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.ones((2, 3)))

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.ones(4))
        with pytest.raises(DimensionMismatch):
            as_matrix(np.ones((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            as_matrix(np.zeros((0, 0)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgument):
            as_matrix([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidArgument):
            as_matrix([[np.inf, 0.0], [0.0, 1.0]])


class TestAsVector:
    def test_accepts_list(self):
        v = as_vector([1, 2, 3], 3)
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            as_vector([1.0, 2.0], 3)

    def test_rejects_matrix(self):
        with pytest.raises(DimensionMismatch):
            as_vector(np.ones((2, 2)), 4)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgument):
            as_vector([1.0, np.nan], 2)


class TestSymmetryCheck:
    def test_exact_default(self):
        assert SymmetryCheck().passes(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert not SymmetryCheck().passes(np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]]))

    def test_tolerant(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
        assert SymmetryCheck(tolerance=1e-9).passes(a)

    def test_exact_rejects_one_ulp(self):
        a = np.array([[1.0, 2.0], [np.nextafter(2.0, 3.0), 3.0]])
        assert not SymmetryCheck().passes(a)
        assert not SymmetryCheck().passes(a.T)

    def test_tolerant_is_relative_to_max_one_and_entry(self):
        a = np.array([[1.0, 1e6], [1e6 + 1e-4, 3.0]])
        assert SymmetryCheck(tolerance=1e-9).passes(a)  # 1e-4 <= 1e-9 * 1e6
        a[1, 0] = 1e6 + 1e-2
        assert not SymmetryCheck(tolerance=1e-9).passes(a)
        b = np.array([[1.0, 1e-3], [2e-3, 3.0]])
        assert SymmetryCheck(tolerance=1e-3).passes(b)  # 1e-3 <= 1e-3 * 1
        assert not SymmetryCheck(tolerance=9e-4).passes(b)

    def test_negative_tolerance_rejected(self):
        with pytest.raises(InvalidArgument):
            SymmetryCheck(tolerance=-1.0)


class TestOpCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = OpCounter()
        assert (c.muldiv, c.sqrt) == (0, 0)
        c.add_muldiv(5)
        c.add_sqrt(2)
        c.add_muldiv(0)
        assert (c.muldiv, c.sqrt) == (5, 2)

    def test_rejects_negative(self):
        c = OpCounter()
        with pytest.raises(InvalidArgument):
            c.add_muldiv(-1)
        with pytest.raises(InvalidArgument):
            c.add_sqrt(-1)

    def test_merge(self):
        a, b = OpCounter(), OpCounter()
        a.add_muldiv(3)
        b.add_muldiv(4)
        b.add_sqrt(1)
        a.merge(b)
        assert (a.muldiv, a.sqrt) == (7, 1)
        assert (b.muldiv, b.sqrt) == (4, 1)


class TestRequiredSet:
    def test_sorts_and_dedupes(self):
        r = RequiredSet([3, 1, 3, 2])
        assert tuple(r) == (1, 2, 3)
        assert len(r) == 3

    def test_full_and_trailing(self):
        assert tuple(RequiredSet.full(4)) == (1, 2, 3, 4)
        assert tuple(RequiredSet.trailing(5, 2)) == (4, 5)
        assert tuple(RequiredSet.trailing(5, 5)) == (1, 2, 3, 4, 5)

    def test_mask(self):
        r = RequiredSet([1, 4])
        np.testing.assert_array_equal(r.mask(4), [True, False, False, True])

    def test_membership_and_equality(self):
        r = RequiredSet([2, 4])
        assert 2 in r and 3 not in r
        assert r == RequiredSet((4, 2))
        assert hash(r) == hash(RequiredSet([2, 4]))

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            RequiredSet([0, 1])
        with pytest.raises(IndexOutOfRange):
            RequiredSet([5]).mask(4)
        with pytest.raises(InvalidArgument):
            RequiredSet.trailing(4, 5)
        with pytest.raises(InvalidArgument):
            RequiredSet.trailing(4, 0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgument):
            RequiredSet([])

    def test_immutable(self):
        r = RequiredSet([1])
        with pytest.raises(AttributeError):
            r.indices = (2,)


class TestMatmul:
    def test_matches_triple_loop(self):
        rng = np.random.default_rng(23)
        a = rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, (4, 4))
        np.testing.assert_allclose(matmul(a, b), matmul_triple(a, b), atol=1e-14)

    def test_counts_cubed(self):
        c = OpCounter()
        matmul(np.eye(5), np.eye(5), c)
        assert c.muldiv == 125

    def test_rejects_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matmul(np.eye(2), np.eye(3))


def test_frobenius_norm():
    a = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert frobenius_norm(a) == pytest.approx(5.0)
    assert frobenius_norm(np.zeros((3, 3))) == 0.0


class TestNorm2Estimate:
    def test_diagonal(self):
        assert norm2_estimate(np.diag([1.0, -7.0, 3.0])) == pytest.approx(7.0)

    def test_zero_matrix(self):
        assert norm2_estimate(np.zeros((4, 4))) == 0.0

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(29)
        for n in (3, 5, 8):
            a = rng.uniform(-1, 1, (n, n))
            assert norm2_estimate(a) == pytest.approx(spectral_norm(a), rel=1e-8)

    def test_never_exceeds_frobenius(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.uniform(-1, 1, (6, 6))
            assert norm2_estimate(a) <= frobenius_norm(a) * (1 + 1e-12)


class TestMirrorLower:
    def test_result_is_bitwise_symmetric(self):
        rng = np.random.default_rng(37)
        f = rng.uniform(-1, 1, (5, 5))
        m = mirror_lower(f)
        np.testing.assert_array_equal(m, m.T)

    def test_lower_triangle_preserved(self):
        rng = np.random.default_rng(41)
        f = rng.uniform(-1, 1, (5, 5))
        m = mirror_lower(f)
        np.testing.assert_array_equal(np.tril(m), np.tril(f))


def test_inverse_residual():
    a = np.diag([2.0, 4.0])
    assert inverse_residual(a, np.diag([0.5, 0.25])) == 0.0
    assert inverse_residual(a, np.diag([0.5, 0.5])) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 129, 300])
def test_mirror_lower_bitwise_sum_formula(n):
    rng = np.random.default_rng(43 + n)
    f = rng.uniform(-1, 1, (n, n))  # nonzero upper part, which is ignored
    f[rng.random((n, n)) < 0.2] = -0.0
    f[rng.random((n, n)) < 0.1] = 0.0
    f[0, 0] = -0.0
    want = np.tril(f) + np.tril(f, -1).T
    got = mirror_lower(f)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    assert not np.signbit(got[got == 0.0]).any()  # -0.0 + 0.0 is 0.0
