"""Sanity checks for the reference implementations themselves."""

import numpy as np
import pytest

from oracles import (
    Tally,
    cholesky_scalar,
    complete_lower_scalar,
    determinant,
    inverse_bruteforce,
    jacobi_eigenvalues,
    km_scalar,
    ldl_columns,
    ldl_inverse_rows,
    ldl_scalar,
    random_symmetric,
    spectral_norm,
)


def test_determinant_hand_values():
    assert determinant([[3.0]]) == 3.0
    assert determinant([[1, 2], [3, 4]]) == pytest.approx(-2.0)
    assert determinant([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == pytest.approx(24.0)
    # row swap flips the sign
    assert determinant([[0, 1], [1, 0]]) == pytest.approx(-1.0)
    # 3x3 with a known cofactor expansion
    a = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    assert determinant(a) == pytest.approx(-3.0)


def test_determinant_singular():
    a = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]  # rank 2
    assert determinant(a) == pytest.approx(0.0, abs=1e-12)


def test_determinant_multiplicative():
    rng = np.random.default_rng(3)
    a = rng.uniform(-1, 1, (5, 5))
    b = rng.uniform(-1, 1, (5, 5))
    assert determinant(a @ b) == pytest.approx(determinant(a) * determinant(b))


def test_inverse_bruteforce_hand_value():
    inv = inverse_bruteforce([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(inv, np.array([[2, -1], [-1, 2]]) / 3.0)
    inv1 = inverse_bruteforce([[4.0]])
    np.testing.assert_allclose(inv1, [[0.25]])


def test_inverse_bruteforce_random():
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        a = rng.uniform(-1, 1, (n, n)) + np.eye(n) * n
        inv = inverse_bruteforce(a)
        np.testing.assert_allclose(a @ inv, np.eye(n), atol=1e-10)


def test_jacobi_known_eigenvalues():
    np.testing.assert_allclose(jacobi_eigenvalues(np.diag([3.0, 1.0, 2.0])),
                               [1.0, 2.0, 3.0])
    np.testing.assert_allclose(jacobi_eigenvalues([[2.0, 1.0], [1.0, 2.0]]),
                               [1.0, 3.0], atol=1e-12)


def test_jacobi_trace_and_det_invariants():
    rng = np.random.default_rng(11)
    a = random_symmetric(rng, 6)
    eigs = jacobi_eigenvalues(a)
    assert eigs.sum() == pytest.approx(np.trace(a), abs=1e-10)
    assert np.prod(eigs) == pytest.approx(determinant(a), abs=1e-10)


def test_spectral_norm():
    assert spectral_norm(np.diag([1.0, -4.0, 2.0])) == pytest.approx(4.0)
    rng = np.random.default_rng(13)
    a = rng.uniform(-1, 1, (5, 3))
    # consistent with the largest singular value from the normal equations
    s = spectral_norm(a)
    assert s == pytest.approx(np.sqrt(jacobi_eigenvalues(a.T @ a)[-1]))
    assert s <= np.sqrt((a * a).sum()) + 1e-12


def test_random_symmetric():
    rng = np.random.default_rng(17)
    a = random_symmetric(rng, 8, spread=2.0)
    np.testing.assert_array_equal(a, a.T)
    assert np.abs(a).max() <= 2.0


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_ldl_inverse_rows_matches_adjugate(n):
    # Indefinite (alternating diagonal signs) but with nonzero leading minors.
    rng = np.random.default_rng(19 + n)
    a = random_symmetric(rng, n)
    a[np.diag_indices(n)] = np.where(np.arange(n) % 2, -1.0, 1.0) * (n + 1)
    low = ldl_inverse_rows(*ldl_columns(a))
    assert np.abs(np.triu(low, 1)).max(initial=0.0) == 0.0
    np.testing.assert_allclose(np.tril(low) + np.tril(low, -1).T, inverse_bruteforce(a),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_cholesky_scalar_matches_adjugate(n):
    rng = np.random.default_rng(23 + n)
    a = random_symmetric(rng, n)
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + 1.0
    tally = Tally()
    x = cholesky_scalar(a, tally)
    np.testing.assert_array_equal(x, x.T)
    np.testing.assert_allclose(x, inverse_bruteforce(a), rtol=0, atol=1e-12)
    assert tally.sqrt == n


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_ldl_scalar_matches_adjugate(n):
    # Indefinite (alternating diagonal signs) but with nonzero leading minors.
    rng = np.random.default_rng(29 + n)
    a = random_symmetric(rng, n)
    a[np.diag_indices(n)] = np.where(np.arange(n) % 2, -1.0, 1.0) * (n + 1)
    tally = Tally()
    x = ldl_scalar(a, tally)
    np.testing.assert_array_equal(x, x.T)
    np.testing.assert_allclose(x, inverse_bruteforce(a), rtol=0, atol=1e-12)
    assert tally.sqrt == 0


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_km_scalar_matches_adjugate(n):
    rng = np.random.default_rng(31 + n)
    a = random_symmetric(rng, n)
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + 1.0
    tally = Tally()
    x = km_scalar(a, tally)
    np.testing.assert_array_equal(x, x.T)
    np.testing.assert_allclose(x, inverse_bruteforce(a), rtol=0, atol=1e-12)
    assert tally.sqrt == n


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_complete_lower_scalar_completes_the_leading_block_inverses(n):
    # Row i of F is the last row of the inverse of the leading
    # (i+1)-block; the completion is the lower triangle of the inverse.
    rng = np.random.default_rng(37 + n)
    a = random_symmetric(rng, n)
    a[np.diag_indices(n)] = np.abs(a).sum(axis=1) + 1.0
    f = np.zeros((n, n))
    for i in range(n):
        f[i, :i + 1] = inverse_bruteforce(a[:i + 1, :i + 1])[i]
    got = complete_lower_scalar(f, Tally())
    np.testing.assert_allclose(got, np.tril(inverse_bruteforce(a)), rtol=0, atol=1e-12)
