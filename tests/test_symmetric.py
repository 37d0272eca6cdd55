"""Square-root-free symmetric inversion variants and their structure."""

import dataclasses

import numpy as np
import pytest

from oracles import inverse_bruteforce, random_symmetric
from syminv import (
    MatrixFamily,
    NotSymmetric,
    OpCounter,
    ZeroPivot,
    complete_lower,
    frobenius_norm,
    generate,
    invert,
    invert_symmetric_robust,
    invert_v1,
    invert_v1_parts,
    invert_v2,
    invert_v2_reference,
    ldl_factor,
    lemma1_check,
    lemma2_check,
    lower_stage,
    modgauss,
    q_theor,
)
from syminv.errors import InvalidArgument


def _spd(rng, n):
    m = random_symmetric(rng, n)
    m[np.diag_indices(n)] = np.abs(m).sum(axis=1) + 1.0
    return m


def _nonsingular_symmetric(seed, n):
    """Symmetric draw whose leading minors are all numerically nonzero."""
    return generate(MatrixFamily("non_dominant", n, seed))


class TestHandExamples:
    def test_v1_diagonal(self):
        np.testing.assert_allclose(invert_v1(np.diag([2.0, 4.0])),
                                   np.diag([0.5, 0.25]))

    def test_v2_2x2(self):
        inv = invert_v2([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(inv, np.array([[2, -1], [-1, 2]]) / 3.0)

    def test_reference_2x2(self):
        inv = invert_v2_reference([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(inv, np.array([[2, -1], [-1, 2]]) / 3.0)


class TestOracleAgreement:
    @pytest.mark.parametrize("func", [invert_v1, invert_v2, invert_v2_reference])
    def test_small_random_symmetric(self, func):
        for i in range(12):
            n = 2 + i % 7
            a = _nonsingular_symmetric(300 + i, n)
            oracle = inverse_bruteforce(a)
            got = func(a)
            scale = np.abs(oracle).max()
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10 * scale)

    def test_indefinite_input_is_fine(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
        np.testing.assert_allclose(invert_v2(a) @ a, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(invert_v1(a) @ a, np.eye(2), atol=1e-14)


class TestCounts:
    def test_v1_total_and_stages(self):
        rng = np.random.default_rng(97)
        for n in (1, 2, 3, 10, 23):
            a = _spd(rng, n)
            c1 = OpCounter()
            stage1 = lower_stage(a, c1)
            assert c1.muldiv == q_theor("v1_stage1", n)
            c2 = OpCounter()
            complete_lower(stage1, c2)
            assert c2.muldiv == q_theor("v1_stage2", n)
            total = OpCounter()
            invert_v1(a, total)
            assert total.muldiv == q_theor("v1", n)
            assert total.sqrt == 0

    def test_v2_both_paths(self):
        # the modelled and the measured count, on both sides of the
        # kernels' 64-column block boundary
        rng = np.random.default_rng(101)
        for n in (1, 2, 17, 64, 65, 100):
            a = _spd(rng, n)
            for func in (invert_v2, invert_v2_reference):
                c = OpCounter()
                func(a, c)
                assert c.muldiv == q_theor("v2", n)
                assert c.sqrt == 0

    def test_reference_counts_match_v2(self):
        rng = np.random.default_rng(103)
        a = _spd(rng, 12)
        c1, c2 = OpCounter(), OpCounter()
        invert_v2(a, c1)
        invert_v2_reference(a, c2)
        assert (c1.muldiv, c1.sqrt) == (c2.muldiv, c2.sqrt)


class TestStructure:
    def test_stage1_exactly_lower_triangular(self):
        rng = np.random.default_rng(107)
        for n in (2, 5, 20):
            stage1 = lower_stage(_spd(rng, n))
            assert np.abs(np.triu(stage1, 1)).max() == 0.0

    def test_stage1_rows_invert_leading_blocks(self):
        rng = np.random.default_rng(109)
        a = _spd(rng, 6)
        stage1 = lower_stage(a)
        for i in range(6):
            block_inv = np.linalg.inv(a[:i + 1, :i + 1])
            np.testing.assert_allclose(stage1[i, :i + 1], block_inv[-1],
                                       atol=1e-12)

    def test_v1_reconstruction_is_bitwise(self):
        rng = np.random.default_rng(113)
        for n in (2, 7, 19):
            a = _spd(rng, n)
            _, final, inv = invert_v1_parts(a)
            diag = np.diag(np.diag(final))
            np.testing.assert_array_equal(inv, final + (final - diag).T)
            np.testing.assert_array_equal(inv, inv.T)

    @pytest.mark.parametrize("kind", ["diag_dominant", "non_dominant", "zero_leading_minor"])
    @pytest.mark.parametrize("n", [2, 65, 130])
    def test_v1_equals_its_parts(self, kind, n):
        # invert_v1 composes the two stages itself, so that it need not
        # copy the completed F; it must still be invert_v1_parts' inverse,
        # bit for bit, with the same counts and the same errors.
        a = generate(MatrixFamily(kind, n, 7))
        outcomes = []
        for func in (invert_v1, lambda x, c: invert_v1_parts(x, c)[2]):
            c = OpCounter()
            try:
                got = func(a, c).tobytes()
            except ZeroPivot as exc:
                got = str(exc)
            outcomes.append((got, c.muldiv, c.sqrt))
        assert outcomes[0] == outcomes[1]

    def test_v2_output_bitwise_symmetric_both_paths(self):
        rng = np.random.default_rng(127)
        for n in (5, 80):
            inv = invert_v2(_spd(rng, n))
            np.testing.assert_array_equal(inv, inv.T)

    def test_v2_and_reference_agree_to_rounding(self):
        for n in (2, 3, 9, 16, 31):
            a = random_symmetric(np.random.default_rng(1000 + n), n)
            a[np.diag_indices(n)] += n  # keep minors well away from zero
            v2 = invert_v2(a)
            ref = invert_v2_reference(a)
            assert frobenius_norm(v2 - ref) <= 1e-13 * frobenius_norm(ref)

    def test_blocked_path_agrees_with_sweep_formulation(self):
        n = 100
        a = _spd(np.random.default_rng(137), n)
        blocked = invert_v2(a)
        sweep = invert_v2_reference(a)  # explicit sweep at any order
        scale = np.abs(sweep).max()
        np.testing.assert_allclose(blocked, sweep, rtol=0, atol=1e-13 * scale)


class TestNonDominantAccuracy:
    # Stream-pool matrices on which the step-by-step sweep exceeds this
    # bound (by 1.1x, 5.2x and 1.5x).
    @pytest.mark.parametrize("n,seed", [(60, 1193075558), (56, 1426428179),
                                        (52, 492855154)])
    def test_v2_residual_within_bound(self, n, seed):
        a = generate(MatrixFamily("non_dominant", n, seed))
        x = invert_v2(a)
        bound = 1e-10 * (1.0 + frobenius_norm(a) * frobenius_norm(x))
        assert frobenius_norm(a @ x - np.eye(n)) <= bound


class TestErrors:
    def test_not_symmetric(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        for func in (invert_v1, invert_v2, invert_v2_reference,
                     invert_symmetric_robust, lower_stage):
            with pytest.raises(NotSymmetric):
                func(a)

    def test_zero_leading_minor_raises_with_step(self):
        for n in (2, 6, 80):
            a = generate(MatrixFamily("zero_leading_minor", n, 400 + n))
            for func in (invert_v1, invert_v2, invert_v2_reference):
                with pytest.raises(ZeroPivot) as err:
                    func(a)
                assert err.value.step == 0

    def test_interior_zero_minor_step(self):
        # leading 1x1 minor fine, 2x2 minor exactly zero
        a = np.array([[1.0, 2.0, 0.0],
                      [2.0, 4.0, 1.0],
                      [0.0, 1.0, 1.0]])
        for n_func in (invert_v1, invert_v2):
            with pytest.raises(ZeroPivot) as err:
                n_func(a)
            assert err.value.step == 1


class TestLemmaChecks:
    def test_hold_on_random_matrices(self):
        for trial in range(8):
            rng = np.random.default_rng(500 + trial)
            n = int(rng.integers(2, 11))
            if trial % 2:
                a = random_symmetric(rng, n)
            else:
                a = rng.uniform(-1, 1, (n, n))
            a[np.diag_indices(n)] += n  # dominant: all minors nonzero
            for m in range(n):
                assert lemma1_check(a, m), (trial, m)
                assert lemma2_check(a, m), (trial, m)

    def test_lemma1_detects_nonsymmetric_block_asymmetry(self):
        # for symmetric input the leading F block must itself be symmetric
        a = _spd(np.random.default_rng(139), 5)
        assert lemma1_check(a, 3)

    @staticmethod
    def _elimination_yields(monkeypatch, f):
        """Make every elimination step return F = f."""
        def step(state, counter=None, allow_swaps=True):
            return dataclasses.replace(state, f=f, step=state.step + 1)
        monkeypatch.setattr(modgauss, "eliminate_step", step)

    def test_lemma1_rejects_a_block_that_is_no_inverse(self, monkeypatch):
        self._elimination_yields(monkeypatch, 2.0 * np.eye(3))
        assert not lemma1_check(np.eye(3), 1)

    def test_lemma1_rejects_an_asymmetric_block_for_symmetric_input(self, monkeypatch):
        # F's leading 2-block inverts diag(1, 1e-12) to within 1e-12, but is not
        # symmetric: only symmetric input demands that it be.
        self._elimination_yields(monkeypatch, np.array([[1.0, 1.0, 0.0],
                                                        [0.0, 1e12, 0.0],
                                                        [0.0, 0.0, 1.0]]))
        a = np.array([[1.0, 0.0, 0.0], [0.0, 1e-12, 1.0], [0.0, 2.0, 1.0]])
        assert lemma1_check(a, 1)
        a[2, 1] = 1.0
        assert not lemma1_check(a, 1)

    def test_step_index_validated(self):
        a = np.eye(3)
        for checker in (lemma1_check, lemma2_check):
            with pytest.raises(InvalidArgument):
                checker(a, -1)
            with pytest.raises(InvalidArgument):
                checker(a, 3)
            with pytest.raises(InvalidArgument):
                checker(a, 1.5)
            assert checker(a, 1.0) and checker(a, np.int64(2))


class TestRobustWrapper:
    def test_passthrough_counts_on_clean_input(self):
        a = _spd(np.random.default_rng(149), 12)
        c = OpCounter()
        inv = invert_symmetric_robust(a, c)
        assert c.muldiv == q_theor("v2", 12)
        np.testing.assert_array_equal(inv, invert_v2(a))

    def test_fallback_on_zero_minor(self):
        n = 8
        a = generate(MatrixFamily("zero_leading_minor", n, 151))
        c = OpCounter()
        inv = invert_symmetric_robust(a, c)
        # swapping elimination (n^3: its swaps keep the row profile) plus
        # the n^2 symmetrization products
        plain = OpCounter()
        invert(a, counter=plain)
        assert c.muldiv == plain.muldiv + n ** 2
        assert c.muldiv == n ** 3 + n ** 2
        assert c.sqrt == 0
        np.testing.assert_array_equal(inv, inv.T)
        np.testing.assert_allclose(inv @ a, np.eye(n), atol=1e-12)

    def test_fallback_keeps_a_finite_inverse_finite(self):
        # gauss's inverse holds 1e308: (R + R^T) / 2 overflows to inf,
        # while R / 2 + (R / 2)^T stays within rounding of R.
        a = np.array([[0.0, 1e-308], [1e-308, 0.0]])
        c = OpCounter()
        inv = invert_symmetric_robust(a, c)
        assert np.isfinite(inv).all()
        np.testing.assert_array_equal(inv, inv.T)
        np.testing.assert_allclose(inv, invert(a), rtol=1e-15, atol=0)
        assert c.muldiv == 2 ** 3 + 2 ** 2

    def test_fallback_matches_plain_elimination(self):
        a = generate(MatrixFamily("zero_leading_minor", 5, 157))
        raw = invert(a)
        np.testing.assert_allclose(invert_symmetric_robust(a),
                                   (raw + raw.T) / 2.0, atol=0)
