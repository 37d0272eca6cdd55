"""Closed-form operation-count formulas."""

import pytest

from syminv import (
    InvalidArgument,
    METHODS,
    TABLE_METHODS,
    count_table,
    q_theor,
    s_theor,
)


class TestQTheor:
    def test_reference_values_n100(self):
        assert q_theor("cholesky", 100) == 515000
        assert q_theor("ldl", 100) == 671650
        assert q_theor("km", 100) == 505000
        assert q_theor("v1", 100) == 509950
        assert q_theor("v2", 100) == 505000
        assert q_theor("modgauss_full", 100) == 1000000
        assert q_theor("modgauss_p", 100, 1) == 338350

    def test_reference_values_n500(self):
        assert q_theor("cholesky", 500) == 62875000
        assert q_theor("ldl", 500) == 83458250
        assert q_theor("km", 500) == 62625000
        assert q_theor("v1", 500) == 62749750
        assert q_theor("v2", 500) == 62625000

    def test_tiny_orders(self):
        # one unknown: everything reduces to a single reciprocal except
        # cholesky, which squares-and-roots its lone pivot
        assert q_theor("v1", 1) == 1
        assert q_theor("v2", 1) == 1
        assert q_theor("km", 1) == 1
        assert q_theor("ldl", 1) == 1
        assert q_theor("cholesky", 1) == 2
        assert q_theor("modgauss_full", 1) == 1
        assert q_theor("v2", 2) == 6

    def test_closed_forms(self):
        for n in range(1, 60):
            assert q_theor("cholesky", n) * 2 == n ** 3 + 3 * n ** 2
            assert q_theor("ldl", n) * 6 == 4 * n ** 3 + 3 * n ** 2 - n
            assert q_theor("km", n) * 2 == n ** 3 + n ** 2
            assert q_theor("v1", n) * 2 == n ** 3 + 2 * n ** 2 - n
            assert q_theor("v2", n) * 2 == n ** 3 + n ** 2
            assert q_theor("modgauss_full", n) == n ** 3

    def test_stage_additivity(self):
        for n in range(2, 50):
            assert (q_theor("v1_stage1", n) + q_theor("v1_stage2", n)
                    == q_theor("v1", n))

    def test_partial_reduces_to_full_requirements(self):
        for n in (2, 5, 17):
            # every variable required: same elimination work as inversion
            assert q_theor("modgauss_p", n, n) == q_theor("modgauss_full", n)

    def test_ordering_relations(self):
        for n in range(2, 80):
            assert q_theor("v2", n) == q_theor("km", n)
            assert q_theor("v2", n) < q_theor("v1", n)
            assert q_theor("v1", n) < q_theor("cholesky", n)
        # ldl overtakes cholesky only from order 7 upward
        for n in range(2, 7):
            assert q_theor("ldl", n) < q_theor("cholesky", n)
        for n in range(7, 80):
            assert q_theor("ldl", n) > q_theor("cholesky", n)

    def test_p_validation(self):
        with pytest.raises(InvalidArgument):
            q_theor("modgauss_p", 5)  # p required
        with pytest.raises(InvalidArgument):
            q_theor("modgauss_p", 5, 6)  # p > n
        with pytest.raises(InvalidArgument):
            q_theor("modgauss_p", 5, -1)
        with pytest.raises(InvalidArgument):
            q_theor("v2", 5, 1)  # p forbidden elsewhere

    def test_unknown_method_and_bad_n(self):
        with pytest.raises(InvalidArgument):
            q_theor("qr", 5)
        with pytest.raises(InvalidArgument):
            q_theor("v2", 0)

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), "5", None])
    def test_non_integer_order_or_block_rejected(self, bad):
        with pytest.raises(InvalidArgument):
            q_theor("v2", bad)
        with pytest.raises(InvalidArgument):
            s_theor("cholesky", bad)
        with pytest.raises(InvalidArgument):
            q_theor("modgauss_p", 5, bad)


class TestSTheor:
    def test_values(self):
        for n in (1, 10, 100):
            assert s_theor("cholesky", n) == n
            assert s_theor("km", n) == n
            for m in ("ldl", "v1", "v2", "modgauss_full", "modgauss_p"):
                assert s_theor(m, n) == 0


class TestCountTable:
    def test_contents(self):
        rows = count_table([100])
        assert len(rows) == len(TABLE_METHODS)
        by_method = {r["method"]: r for r in rows}
        assert by_method["v2"]["muldiv"] == 505000
        assert by_method["v2"]["sqrt"] == 0
        assert by_method["cholesky"]["sqrt"] == 100
        assert all(r["n"] == 100 for r in rows)

    def test_multiple_sizes_and_method_subset(self):
        rows = count_table([10, 20], methods=("v1", "v2"))
        assert [(r["method"], r["n"]) for r in rows] == [
            ("v1", 10), ("v2", 10), ("v1", 20), ("v2", 20)]

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            count_table([])
        with pytest.raises(InvalidArgument):
            count_table([10], methods=())


def test_method_tuples():
    assert set(TABLE_METHODS) == {"cholesky", "ldl", "km", "v1", "v2"}
    assert set(TABLE_METHODS) < set(METHODS)
    assert {"modgauss_full", "modgauss_p", "v1_stage1", "v1_stage2"} < set(METHODS)
