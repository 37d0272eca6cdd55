"""The invariant suite's failure paths: each broken invariant fails its own check.

Every case breaks one invariant with monkeypatch and runs ``syminv
verify``, which must exit with 1 and mark exactly the checks that read
the broken invariant as FAIL.
"""

import dataclasses

import numpy as np
import pytest

from syminv import genbench, modgauss, symmetric, baselines
from syminv.cli import main
from syminv.errors import LinAlgError, ZeroPivot
from syminv.matcore import OpCounter, mirror_lower


_ORIGINAL = {
    "invert_v2": symmetric.invert_v2,
    "invert_v1_parts": symmetric.invert_v1_parts,
    "invert_cholesky": baselines.invert_cholesky,
    "lower_stage": symmetric.lower_stage,
    "complete_lower": symmetric.complete_lower,
    "ldl_factor": baselines.ldl_factor,
    "solve": modgauss.solve,
    "eliminate_step": modgauss.eliminate_step,
}


def _method(monkeypatch, name, wrap):
    """Replace METHOD_FUNCS[name] by wrap(original)."""
    monkeypatch.setitem(genbench.METHOD_FUNCS, name, wrap(genbench.METHOD_FUNCS[name]))


def _counting(extra_muldiv=0, extra_sqrt=0):
    def wrap(func):
        def run(a, counter=None):
            cnt = counter if counter is not None else OpCounter()
            out = func(a, cnt)
            cnt.add_muldiv(extra_muldiv)
            cnt.add_sqrt(extra_sqrt)
            return out
        return run
    return wrap


def _without_sqrt(func):
    def run(a, counter=None):
        scratch = OpCounter()
        out = func(a, scratch)
        if counter is not None:
            counter.add_muldiv(scratch.muldiv)
        return out
    return run


def _scaled(factor):
    def wrap(func):
        return lambda a, counter=None: func(a, counter) * factor
    return wrap


def _step_shifted(func):
    def run(a, counter=None):
        try:
            return func(a, counter)
        except ZeroPivot as exc:
            raise ZeroPivot(exc.step + 1) from None
    return run


def _never_rejects(func):
    def run(a, counter=None):
        try:
            return func(a, counter)
        except ZeroPivot:
            return np.eye(len(a))
    return run


def _extra_step_count(func):
    def run(state, counter=None, allow_swaps=True):
        out = func(state, counter, allow_swaps)
        if counter is not None:
            counter.add_muldiv(1)
        return out
    return run


def _stage_miscounted(name):
    """One stage of v1 tallies one extra muldiv; v1 itself keeps the true stages."""
    def v1(a, counter=None):
        cnt = counter if counter is not None else OpCounter()
        return mirror_lower(_ORIGINAL["complete_lower"](_ORIGINAL["lower_stage"](a, cnt), cnt))

    def patch(mp):
        mp.setattr(symmetric, name, _counting(extra_muldiv=1)(_ORIGINAL[name]))
        mp.setitem(genbench.METHOD_FUNCS, "v1", v1)
    return patch


def _solve_extra_muldiv(a, b, required, counter=None):
    out = _ORIGINAL["solve"](a, b, required, counter)
    counter.add_muldiv(1)
    return out


def _step_logging_a_swap(state, counter=None, allow_swaps=True):
    # (0, 0) exchanges nothing, so only the log is wrong.
    out = _ORIGINAL["eliminate_step"](state, counter, allow_swaps)
    return dataclasses.replace(out, perm=((0, 0),))


def _step_final_state_off(state, counter=None, allow_swaps=True):
    out = _ORIGINAL["eliminate_step"](state, counter, allow_swaps)
    if out.step == len(out.a):  # the last step: 1e-12 off, inside every other tolerance
        out = dataclasses.replace(out, f=out.f * (1.0 + 1e-12))
    return out


def _ldl_definite(a, counter=None):
    fac = _ORIGINAL["ldl_factor"](a, counter)
    return dataclasses.replace(fac, d=np.abs(fac.d))


def _v2_off_symmetric(a, counter=None):
    x = _ORIGINAL["invert_v2"](a, counter)
    x[0, 1] = np.nextafter(x[0, 1], np.inf)  # one ulp: every tolerance still holds
    return x


def _v1_parts_with_upper_entry(a, counter=None):
    stage1, final, inv = _ORIGINAL["invert_v1_parts"](a, counter)
    stage1 = stage1.copy()
    stage1[0, 1] = 1e-300
    return stage1, final, inv


def _v1_parts_misassembled(a, counter=None):
    stage1, final, inv = _ORIGINAL["invert_v1_parts"](a, counter)
    inv = inv.copy()
    inv[0, 0] = np.nextafter(inv[0, 0], np.inf)  # invert_v1 returns it too: one ulp
    return stage1, final, inv


def _cholesky_accepting(a, counter=None):
    try:
        return _ORIGINAL["invert_cholesky"](a, counter)
    except LinAlgError:
        return modgauss.invert(a)


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


# (id, {check that must fail: start of its detail}, the change that breaks the invariant)
CASES = [
    ("v2-extra-muldiv", {"count-formulas": "v2 muldiv mismatch"},
     lambda mp: _method(mp, "v2", _counting(extra_muldiv=1))),
    ("ldl-takes-a-sqrt", {"count-formulas": "ldl sqrt mismatch"},
     lambda mp: _method(mp, "ldl", _counting(extra_sqrt=1))),
    ("km-counts-no-sqrt", {"count-formulas": "km sqrt mismatch"},
     lambda mp: _method(mp, "km", _without_sqrt)),
    ("stage1-extra-muldiv", {"count-formulas": "stage-1 muldiv mismatch"},
     _stage_miscounted("lower_stage")),
    ("stage2-extra-muldiv", {"count-formulas": "stage-2 muldiv mismatch"},
     _stage_miscounted("complete_lower")),
    ("sweep-extra-muldiv", {"count-formulas": "measured v2 sweep muldiv mismatch"},
     lambda mp: mp.setattr(symmetric, "invert_v2_reference",
                           _counting(extra_muldiv=1)(symmetric.invert_v2_reference))),
    ("step-model-off-by-one", {"count-formulas": "v1 muldiv mismatch",
                              "partial-solve-counts": "partial solve count",
                              "panel-driver": "swap run count"},
     lambda mp: mp.setattr(modgauss, "_step_cost", lambda m, k: m * (2 * k + 1) + (k == 1))),
    ("solve-extra-muldiv", {"partial-solve-counts": "partial solve count"},
     lambda mp: mp.setattr(modgauss, "solve", _solve_extra_muldiv)),
    ("v1-disagrees", {"method-agreement": "method disagreement"},
     lambda mp: mp.setattr(symmetric, "invert_v1", _scaled(1.0 + 1e-6)(symmetric.invert_v1))),
    ("lemma1-broken", {"lemma-checks": "leading-block inverse check failed"},
     lambda mp: mp.setattr(symmetric, "lemma1_check", lambda a, m: False)),
    ("lemma2-broken", {"lemma-checks": "rank-one step check failed"},
     lambda mp: mp.setattr(symmetric, "lemma2_check", lambda a, m: False)),
    ("stage1-not-triangular", {"structure": "stage-1 output not exactly lower-triangular"},
     lambda mp: mp.setattr(symmetric, "invert_v1_parts", _v1_parts_with_upper_entry)),
    ("v1-misassembled", {"structure": "reconstruction identity broken"},
     lambda mp: mp.setattr(symmetric, "invert_v1_parts", _v1_parts_misassembled)),
    ("v2-not-bitwise-symmetric", {"structure": "output not bitwise symmetric"},
     lambda mp: mp.setattr(symmetric, "invert_v2", _v2_off_symmetric)),
    ("sweep-off-by-1e-12", {"structure": "factor form and step-by-step sweep disagree"},
     lambda mp: mp.setattr(symmetric, "invert_v2_reference",
                           _scaled(1.0 + 1e-12)(symmetric.invert_v2_reference))),
    ("v1-wrong-failing-step", {"zero-minor-handling": "v1 reported step 1"},
     lambda mp: _method(mp, "v1", _step_shifted)),
    ("v2-accepts-zero-minor", {"zero-minor-handling": "v2 did not reject"},
     lambda mp: _method(mp, "v2", _never_rejects)),
    ("cholesky-accepts-everything",
     {"zero-minor-handling": "cholesky accepted a zero leading minor",
      "indefinite-applicability": "cholesky accepted an indefinite matrix"},
     lambda mp: mp.setattr(baselines, "invert_cholesky", _cholesky_accepting)),
    ("fallback-inaccurate", {"zero-minor-handling": "fallback inverse residual too large"},
     lambda mp: mp.setattr(symmetric, "invert_symmetric_robust",
                           lambda a, counter=None: np.zeros((len(a), len(a))))),
    ("fallback-not-symmetrized", {"zero-minor-handling": "fallback inverse not bitwise symmetric"},
     lambda mp: mp.setattr(symmetric, "invert_symmetric_robust",
                           lambda a, counter=None: modgauss.invert(a, counter))),
    ("no-indefinite-draws", {"indefinite-applicability": "only 0 indefinite draws found"},
     lambda mp: mp.setattr(baselines, "ldl_factor", _ldl_definite)),
    ("v1-inaccurate", {"indefinite-applicability": "v1 inaccurate on an indefinite matrix",
                      "residual-bounds": "v1 residual"},
     lambda mp: _method(mp, "v1", _scaled(1.0 + 1e-6))),
    ("ldl-inaccurate", {"residual-bounds": "ldl residual"},
     lambda mp: _method(mp, "ldl", _scaled(1.0 + 1e-6))),
    ("row-check-rejects-all", {"row-identities": "valid inverse rejected"},
     lambda mp: mp.setattr(modgauss, "row_identities_check", lambda a, f, required=None: False)),
    ("row-check-accepts-all", {"row-identities": "corrupted inverse accepted"},
     lambda mp: mp.setattr(modgauss, "row_identities_check", lambda a, f, required=None: True)),
    ("stepwise-extra-muldiv", {"panel-driver": "panel count"},
     lambda mp: mp.setattr(modgauss, "eliminate_step",
                           _extra_step_count(_ORIGINAL["eliminate_step"]))),
    ("stepwise-logs-a-swap", {"panel-driver": "unexpected swap log"},
     lambda mp: mp.setattr(modgauss, "eliminate_step", _step_logging_a_swap)),
    ("stepwise-result-off", {"panel-driver": "panel and stepwise results disagree"},
     lambda mp: mp.setattr(modgauss, "eliminate_step", _step_final_state_off)),
    ("check-raises", {"row-identities": "raised RuntimeError: boom"},
     lambda mp: mp.setattr(genbench, "_verify_row_identities", _boom)),
]


@pytest.mark.parametrize("broken, patch", [(c[1], c[2]) for c in CASES],
                         ids=[c[0] for c in CASES])
def test_broken_invariant_fails_its_check(monkeypatch, capsys, broken, patch):
    patch(monkeypatch)
    assert main(["verify", "--max-n", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = dict(line[5:].split(": ", 1) for line in lines if line.startswith("FAIL "))
    assert failed.keys() == broken.keys(), lines
    for name, start in broken.items():
        assert failed[name].startswith(start), (name, failed[name])
    assert lines[-1] == f"{10 - len(broken)}/10 checks passed"


def test_a_raising_check_reports_its_exception(monkeypatch):
    monkeypatch.setattr(genbench, "_verify_panels", _boom)
    results = {name: (ok, detail) for name, ok, detail in genbench.run_verification(max_n=3)}
    assert results["panel-driver"] == (False, "raised RuntimeError: boom")
    assert all(ok for name, (ok, _) in results.items() if name != "panel-driver")
