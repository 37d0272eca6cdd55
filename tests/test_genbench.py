"""Matrix generators, the benchmark harness, and report rendering."""

import csv
import io

import numpy as np
import pytest

from syminv import (
    DEFAULT_METHODS,
    FAMILY_KINDS,
    METHOD_FUNCS,
    GenerationFailed,
    InvalidArgument,
    InversionReport,
    MatrixFamily,
    NotPositiveDefinite,
    ZeroPivot,
    baselines,
    emit_report,
    generate,
    ldl_factor,
    modgauss,
    run_experiment,
    run_verification,
)
from syminv.genbench import time_methods


class TestFamilies:
    def test_kinds_registered(self):
        assert FAMILY_KINDS == ("diag_dominant", "non_dominant",
                                "zero_leading_minor")

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidArgument):
            MatrixFamily("hilbert", 4, 1)

    def test_bad_order_rejected(self):
        with pytest.raises(InvalidArgument):
            MatrixFamily("diag_dominant", 0, 1)

    @pytest.mark.parametrize("n, seed", [(2.5, 1), (float("nan"), 1), (float("inf"), 1),
                                         ("4", 1), (4, 1.5), (4, float("nan")), (4, None)])
    def test_non_integer_order_or_seed_rejected(self, n, seed):
        with pytest.raises(InvalidArgument):
            MatrixFamily("diag_dominant", n, seed)

    def test_integral_floats_become_ints(self):
        fam = MatrixFamily("diag_dominant", 4.0, np.int64(2))
        assert (fam.n, fam.seed) == (4, 2) and type(fam.n) is type(fam.seed) is int

    def test_determinism(self):
        for kind in FAMILY_KINDS:
            a = generate(MatrixFamily(kind, 9, 5))
            b = generate(MatrixFamily(kind, 9, 5))
            np.testing.assert_array_equal(a, b)
            c = generate(MatrixFamily(kind, 9, 6))
            assert not np.array_equal(a, c)

    def test_diag_dominant_properties(self):
        a = generate(MatrixFamily("diag_dominant", 12, 3))
        np.testing.assert_array_equal(a, a.T)
        off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        assert (np.diag(a) > off).all()  # strict dominance, positive diagonal
        assert (np.linalg.eigvalsh(a) > 0).all()

    @pytest.mark.parametrize("n", [2, 63, 65, 129])
    def test_families_are_their_documented_draws(self, n):
        # Entries are one uniform draw from the seed, its lower triangle
        # mirrored; the dominant family's diagonal is its off-diagonal row
        # sum plus a margin in [1, 2].
        m = np.random.default_rng(4).uniform(-1.0, 1.0, size=(n, n))
        low = np.tril(m, -1)
        a = generate(MatrixFamily("diag_dominant", n, 4))
        np.testing.assert_array_equal(a - np.diag(np.diag(a)), low + low.T)
        margin = np.diag(a) - np.abs(low + low.T).sum(axis=1)
        assert ((margin >= 1.0 - 1e-12 * n) & (margin <= 2.0 + 1e-12 * n)).all()
        b = generate(MatrixFamily("non_dominant", n, 4))
        np.testing.assert_array_equal(b, np.tril(m) + low.T)

    def test_non_dominant_properties(self):
        a = generate(MatrixFamily("non_dominant", 10, 3))
        np.testing.assert_array_equal(a, a.T)
        off = np.abs(a).sum(axis=1) - np.abs(np.diag(a))
        assert (np.abs(np.diag(a)) <= off).any()  # dominance violated somewhere
        ldl_factor(a)  # leading minors numerically nonzero

    def test_zero_leading_minor_properties(self):
        a = generate(MatrixFamily("zero_leading_minor", 7, 3))
        np.testing.assert_array_equal(a, a.T)
        assert a[0, 0] == 0.0 and a[1, 1] == 0.0
        assert 1.0 <= a[0, 1] <= 2.0
        assert np.linalg.matrix_rank(a) == 7  # nonsingular overall

    def test_small_orders_need_two(self):
        with pytest.raises(InvalidArgument):
            generate(MatrixFamily("non_dominant", 1, 1))
        with pytest.raises(InvalidArgument):
            generate(MatrixFamily("zero_leading_minor", 1, 1))

    def test_generate_requires_family(self):
        with pytest.raises(InvalidArgument):
            generate("diag_dominant")


class TestRunExperiment:
    def test_count_validation_rows(self):
        reports = run_experiment(1, sizes=[8, 12], seed=7)
        assert len(reports) == 2 * len(DEFAULT_METHODS)
        for rep in reports:
            assert rep.status == "ok"
            assert rep.q_pract == rep.q_theor
            assert rep.s_pract == rep.s_theor
            assert rep.family.kind == "diag_dominant"
            assert rep.residual_fro < 1e-10
            assert rep.dist2_vs_reference < 1e-10
            assert rep.elapsed_seconds > 0.0

    def test_dist2_is_the_spectral_distance(self):
        reports = [r for r in run_experiment(2, sizes=[100]) if r.status == "ok"]
        assert len(reports) == len(DEFAULT_METHODS)
        for rep in reports:
            a = generate(rep.family)
            exact = np.linalg.norm(METHOD_FUNCS[rep.method](a) - modgauss.invert(a), 2)
            want = pytest.approx(exact, rel=1e-3, abs=0)
            assert rep.dist2_vs_reference == want, rep.method

    def test_timing_experiment_on_non_dominant(self):
        reports = run_experiment(3, sizes=[10], methods=("v2", "ldl"), seed=7)
        assert [r.method for r in reports] == ["v2", "ldl"]
        for rep in reports:
            assert rep.family.kind == "non_dominant"
            assert rep.status == "ok"
            assert rep.elapsed_seconds > 0.0

    def test_methods_of_an_order_are_timed_in_alternating_rounds(self, monkeypatch):
        calls = []
        for name in ("v2", "ldl"):
            def recording(a, counter=None, name=name, func=METHOD_FUNCS[name]):
                calls.append(name)
                return func(a, counter)
            monkeypatch.setitem(METHOD_FUNCS, name, recording)
        reports = run_experiment(2, sizes=[6], methods=("v2", "ldl"))
        # The counted calls and the warm-up calls, then five timed rounds.
        assert calls == ["v2", "ldl"] * 7
        assert all(rep.elapsed_seconds > 0.0 for rep in reports)

    def test_inapplicable_method_reported_not_raised(self):
        # hunt a seed whose non-dominant draw is indefinite
        for seed in range(30):
            a = generate(MatrixFamily("non_dominant", 12, seed + 12))
            if (ldl_factor(a).d < 0).any():
                break
        else:
            pytest.skip("no indefinite draw found")
        reports = run_experiment(3, sizes=[12], methods=("cholesky", "v2"),
                                 seed=seed)
        chol, v2 = reports
        assert chol.status == "inapplicable:NotPositiveDefinite"
        assert chol.q_pract is None and chol.residual_fro is None
        assert v2.status == "ok"

    def test_methods_all_and_validation(self):
        reports = run_experiment(1, sizes=[6], methods="all")
        assert [r.method for r in reports] == list(DEFAULT_METHODS)
        with pytest.raises(InvalidArgument):
            run_experiment(4, sizes=[6])
        with pytest.raises(InvalidArgument):
            run_experiment(1, sizes=[6], methods=("nope",))
        with pytest.raises(InvalidArgument):
            run_experiment(1, sizes=[])
        with pytest.raises(InvalidArgument, match="method"):
            run_experiment(1, sizes=[5], methods=())

    def test_gauss_and_robust_methods_runnable(self):
        reports = run_experiment(1, sizes=[7], methods=("gauss", "robust"))
        gauss, robust = reports
        assert gauss.q_theor == 343 and gauss.q_pract == 343
        assert robust.q_theor is None  # no closed form: path-dependent
        assert robust.q_pract == (343 + 49) // 2  # clean input: sweep cost
        assert robust.status == "ok"


def test_time_methods_warms_up_then_alternates_rounds():
    calls = []
    funcs = [lambda a, name=name: calls.append(name) for name in ("f", "g", "h")]
    medians = time_methods(funcs, np.eye(2))
    assert len(medians) == 3 and all(t >= 0.0 for t in medians)
    assert calls == ["f", "g", "h"] * 6  # one warm-up round, five timed


class TestEmitReport:
    def _reports(self):
        return run_experiment(1, sizes=[5, 9], seed=3)

    def test_csv_shape_and_values(self):
        reports = self._reports()
        text = emit_report(reports, format="csv")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["method", "n", "family", "q_theor", "q_pract",
                           "s_theor", "s_pract", "residual_fro", "dist2",
                           "seconds", "status", "seed"]
        assert len(rows) == 1 + len(reports)
        first = rows[1]
        assert first[0] == reports[0].method
        assert int(first[3]) == reports[0].q_theor
        assert first[10] == "ok"

    def test_csv_empty_cells_for_none(self):
        fam = MatrixFamily("diag_dominant", 4, 1)
        rep = InversionReport(method="cholesky", family=fam, q_theor=56,
                              q_pract=None, s_theor=4, s_pract=None,
                              residual_fro=None, dist2_vs_reference=None,
                              elapsed_seconds=None,
                              status="inapplicable:NotPositiveDefinite")
        rows = list(csv.reader(io.StringIO(emit_report([rep]))))
        assert rows[1][4] == "" and rows[1][7] == "" and rows[1][9] == ""
        assert rows[1][10] == "inapplicable:NotPositiveDefinite"

    def test_markdown_table(self):
        text = emit_report(self._reports(), format="markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| method | n | family |")
        assert set(lines[1].replace("|", "").split()) == {"---"}
        assert len(lines) == 2 + 2 * len(DEFAULT_METHODS)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            emit_report([])
        with pytest.raises(InvalidArgument):
            emit_report(self._reports(), format="html")

    def test_csv_deterministic_excluding_seconds(self):
        def stripped(text):
            rows = list(csv.reader(io.StringIO(text)))
            return [r[:9] + r[10:] for r in rows]

        a = emit_report(run_experiment(1, sizes=[10], seed=42))
        b = emit_report(run_experiment(1, sizes=[10], seed=42))
        assert stripped(a) == stripped(b)


def test_run_verification_small():
    results = run_verification(max_n=8, seed=42)
    assert len(results) >= 8
    assert "panel-driver" in {name for name, _, _ in results}
    for name, ok, detail in results:
        assert ok, (name, detail)
        assert isinstance(detail, str) and detail

    with pytest.raises(InvalidArgument):
        run_verification(max_n=1)


class TestNonDominantReseed:
    """A draw whose leading minors fail the pivot test is replaced by the next seed's."""

    def _ldl_rejecting(self, monkeypatch, rejections):
        calls = []
        real = baselines.ldl_factor

        def ldl_factor(a, counter=None):
            calls.append(a.copy())
            if len(calls) <= rejections:
                raise ZeroPivot(0)
            return real(a, counter)

        monkeypatch.setattr(baselines, "ldl_factor", ldl_factor)
        return calls

    def test_rejected_draw_takes_the_next_seed(self, monkeypatch):
        want = generate(MatrixFamily("non_dominant", 8, 6))
        calls = self._ldl_rejecting(monkeypatch, 1)
        got = generate(MatrixFamily("non_dominant", 8, 5))
        assert len(calls) == 2
        assert not np.array_equal(calls[0], want)
        np.testing.assert_array_equal(calls[1], want)
        np.testing.assert_array_equal(got, want)

    def test_gives_up_after_100_draws(self, monkeypatch):
        calls = self._ldl_rejecting(monkeypatch, 100)
        with pytest.raises(GenerationFailed, match="after 100 reseeds"):
            generate(MatrixFamily("non_dominant", 8, 5))
        assert len(calls) == 100  # every draw violates dominance and reaches the test
