"""Core types: validation, counting, required sets, and norm helpers."""

import numpy as np
import pytest

from oracles import random_symmetric, spectral_norm
from syminv import (
    METHOD_FUNCS,
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
    mirror_lower,
    norm2_estimate,
    solve,
)
from syminv.matcore import _validated, as_integer


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

    @pytest.mark.filterwarnings("error")  # a ComplexWarning would mean a silent cut
    @pytest.mark.parametrize("data", [
        [[1j]],
        np.array([[1 + 1j, 0], [0, 1 - 1j]]),
        np.eye(2, dtype=np.complex64),
        np.array([[1j]], dtype=object),
    ], ids=["list", "complex128", "complex64", "object"])
    def test_rejects_complex(self, data):
        with pytest.raises(InvalidArgument, match="real"):
            as_matrix(data)
        with pytest.raises(InvalidArgument, match="real"):
            mirror_lower(data)  # the copy-free check, _validated

    @pytest.mark.parametrize("data", [[[1, 2], [3]], "abc", [["x", "y"], ["z", "w"]]],
                             ids=["ragged", "string", "strings"])
    def test_failed_conversion_is_a_package_error(self, data):
        with pytest.raises(InvalidArgument, match="real numbers"):
            as_matrix(data)

    def test_float64_input_is_neither_copied_nor_converted_by_the_check(self):
        a = np.eye(3)
        assert _validated(a) is a
        assert not np.shares_memory(as_matrix(a), a)


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

    @pytest.mark.filterwarnings("error")
    def test_rejects_complex(self):
        with pytest.raises(InvalidArgument, match="real"):
            as_vector([1j, 1], 2)
        with pytest.raises(InvalidArgument, match="real"):
            as_vector(np.array([1j, 1]), 2)
        with pytest.raises(InvalidArgument, match="real"):
            solve(np.eye(2), [1j, 1], [1])

    def test_failed_conversion_is_a_package_error(self):
        with pytest.raises(InvalidArgument, match="real numbers"):
            as_vector([1, [2, 3]], 2)


class TestSymmetryCheck:
    def test_exact_default(self):
        assert SymmetryCheck().passes(np.array([[1.0, 2.0], [2.0, 3.0]]))
        assert not SymmetryCheck().passes(np.array([[1.0, 2.0], [2.0 + 1e-15, 3.0]]))

    def test_exact_rejects_one_ulp(self):
        a = np.array([[1.0, 2.0], [np.nextafter(2.0, 3.0), 3.0]])
        assert not SymmetryCheck().passes(a)
        assert not SymmetryCheck().passes(a.T)


class TestOpCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = OpCounter()
        assert (c.muldiv, c.sqrt) == (0, 0)
        c.add_muldiv(5)
        c.add_sqrt(2)
        c.add_muldiv(0)
        assert (c.muldiv, c.sqrt) == (5, 2)

    def test_repr_and_no_arguments(self):
        c = OpCounter()
        c.add_muldiv(7)
        c.add_sqrt()
        assert repr(c) == "OpCounter(muldiv=7, sqrt=1)"
        with pytest.raises(TypeError):
            OpCounter(1)

    def test_rejects_negative(self):
        c = OpCounter()
        with pytest.raises(InvalidArgument):
            c.add_muldiv(-1)
        with pytest.raises(InvalidArgument):
            c.add_sqrt(-1)


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

    def test_repr_shows_the_sorted_indices(self):
        assert repr(RequiredSet([3, 1])) == "RequiredSet(indices=(1, 3))"

    @pytest.mark.parametrize("bad", [[1.5], [1, float("nan")], [float("inf")], ["2"], 3])
    def test_rejects_non_integer_indices(self, bad):
        with pytest.raises(InvalidArgument):
            RequiredSet(bad)

    def test_integral_floats_are_indices(self):
        assert RequiredSet([2.0, np.int64(1)]) == RequiredSet([1, 2])

    @pytest.mark.parametrize("make", [
        lambda: RequiredSet.trailing(5, 1.5),
        lambda: RequiredSet.trailing(5.5, 2),
        lambda: RequiredSet.full(2.5),
        lambda: RequiredSet.full("3"),
        lambda: RequiredSet([1]).mask(2.5),
    ], ids=["trailing-p", "trailing-n", "full", "full-str", "mask"])
    def test_rejects_non_integer_orders(self, make):
        with pytest.raises(InvalidArgument, match="must be an integer"):
            make()

    def test_integral_float_orders(self):
        assert RequiredSet.trailing(5.0, 2) == RequiredSet.trailing(5, np.int64(2))
        assert RequiredSet.full(np.float64(3)) == RequiredSet.full(3)
        np.testing.assert_array_equal(RequiredSet([2]).mask(3.0), [False, True, False])


class TestAsInteger:
    @pytest.mark.parametrize("good", [3, 3.0, np.int64(3), np.float64(3.0)])
    def test_accepts_integral_numbers(self, good):
        got = as_integer(good, "n")
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), -float("inf"),
                                     "3", None, [3]])
    def test_rejects_everything_else(self, bad):
        with pytest.raises(InvalidArgument, match="n must be an integer"):
            as_integer(bad, "n")


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

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            norm2_estimate(np.ones((2, 3)))

    def test_converges_below_one(self):
        # A norm far below 1 must still converge to 1e-12 relative, not
        # stop once the change drops under 1e-12 absolute.
        rng = np.random.default_rng(47)
        a = rng.uniform(-1, 1, (60, 60)) * 1e-14
        assert norm2_estimate(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-6, abs=0)

    def test_never_exceeds_frobenius(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.uniform(-1, 1, (6, 6))
            assert norm2_estimate(a) <= frobenius_norm(a) * (1 + 1e-12)


class TestMirrorLower:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (4,), (0, 0)],
                             ids=["2x3", "3x2", "vector", "empty"])
    def test_rejects_non_square(self, shape):
        # A 2x3 input used to give a 2x2 result from its leading block.
        with pytest.raises(DimensionMismatch):
            mirror_lower(np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 0), (1, 1)], ids=["upper", "lower", "diag"])
    def test_rejects_non_finite_entries(self, bad, where):
        f = np.ones((2, 2))
        f[where] = bad
        with pytest.raises(InvalidArgument):
            mirror_lower(f)

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


def test_inverse_residual_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        inverse_residual(np.eye(2), np.eye(3))


def test_inverse_residual_rejects_non_square_operands():
    with pytest.raises(DimensionMismatch):
        inverse_residual(np.ones((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_norm_helpers_reject_non_finite_entries(bad):
    m = np.array([[bad, 1.0], [1.0, 1.0]])
    with pytest.raises(InvalidArgument):
        norm2_estimate(m)
    with pytest.raises(InvalidArgument):
        inverse_residual(m, np.eye(2))
    with pytest.raises(InvalidArgument):
        inverse_residual(np.eye(2), m)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["above", "diagonal", "last", "1x1"])
def test_non_finite_rejected_everywhere(bad, where):
    # A NaN or an infinity in any position is rejected before any
    # symmetry check (NaN-only-above input is not symmetric either).
    if where == "1x1":
        a = np.array([[bad]])
    else:
        a = random_symmetric(np.random.default_rng(5), 70)
        a[np.diag_indices(70)] += 70.0
        if where == "above":
            a[np.triu_indices(70, 1)] = bad
        elif where == "diagonal":
            a[np.diag_indices(70)] = bad
        else:
            a[-1, -1] = bad
    with pytest.raises(InvalidArgument):
        as_matrix(a)
    for func in METHOD_FUNCS.values():
        with pytest.raises(InvalidArgument):
            func(a)
